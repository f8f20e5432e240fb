"""Locking-key to working-key management (paper §3.4, Fig. 5).

Two schemes:

* :class:`ReplicationKeyManager` — the working key *is* the locking key
  replicated: bit ``i`` of the working key connects to locking-key bit
  ``i mod K``.  Zero hardware overhead, but each locking bit fans out
  to ``f = ceil(W/K)`` working bits, so extracting one working-key bit
  reveals all its replicas.

* :class:`AesKeyManager` — the working key is an arbitrary secret; its
  AES-CTR encryption under the locking key is stored in on-chip NVM.
  At power-up the NVM contents are decrypted with the delivered locking
  key into the working-key registers.  Overhead: a fixed AES core plus
  NVM bits and flip-flops proportional to W.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.crypto.aes import AES, AES_CORE_AREA_GATES
from repro.hls.resources import memory_area, register_area
from repro.registry import REGISTRY
from repro.tao.key import LockingKey


@dataclass
class KeyManagementOverhead:
    """Extra area the key-delivery scheme costs (NAND2 equivalents)."""

    aes_core: float = 0.0
    nvm_bits: float = 0.0
    key_registers: float = 0.0

    @property
    def total(self) -> float:
        return self.aes_core + self.nvm_bits + self.key_registers


class ReplicationKeyManager:
    """Working key = locking key bits replicated (fan-out ``ceil(W/K)``)."""

    def __init__(self, working_key_bits: int, locking_key_width: int = 256) -> None:
        self.working_key_bits = working_key_bits
        self.locking_key_width = locking_key_width

    @property
    def fanout(self) -> int:
        """f = ceil(W/K): replicas of each locking-key bit."""
        if self.working_key_bits == 0:
            return 0
        return math.ceil(self.working_key_bits / self.locking_key_width)

    def derive_working_key(self, locking_key: LockingKey) -> int:
        """Bit ``i`` of the working key is locking-key bit ``i mod K``:
        the K-bit key tiled ``ceil(W/K)`` times, cut to W bits."""
        working = 0
        for offset in range(0, self.working_key_bits, locking_key.width):
            working |= locking_key.bits << offset
        return working & ((1 << self.working_key_bits) - 1)

    def install(self, correct_working_key: int) -> LockingKey:
        """Design-time: choose the locking key that yields ``correct_working_key``.

        With replication the working key is not free — its bits must be
        periodic with period K.  TAO therefore *derives* the correct
        working key from the locking key (the flow calls
        :meth:`derive_working_key` before obfuscating); this method
        checks consistency and recovers the locking key bits.
        """
        locking_bits = 0
        for i in range(min(self.locking_key_width, self.working_key_bits)):
            locking_bits |= ((correct_working_key >> i) & 1) << i
        key = LockingKey(locking_bits, self.locking_key_width)
        if self.derive_working_key(key) != correct_working_key:
            raise ValueError(
                "working key is not replication-consistent; derive it "
                "with derive_working_key() before obfuscating"
            )
        return key

    def overhead(self) -> KeyManagementOverhead:
        """No extra hardware: NVM outputs wire straight to key points."""
        return KeyManagementOverhead()


class AesKeyManager:
    """AES-256 power-up decryption of the NVM-stored working key."""

    def __init__(self, working_key_bits: int, locking_key_width: int = 256) -> None:
        if locking_key_width not in (128, 192, 256):
            raise ValueError("AES locking key must be 128/192/256 bits")
        self.working_key_bits = working_key_bits
        self.locking_key_width = locking_key_width
        self.nvm_contents: bytes = b""

    def _n_bytes(self) -> int:
        return (self.working_key_bits + 7) // 8

    def install(self, locking_key: LockingKey, correct_working_key: int) -> bytes:
        """Design-time: encrypt the working key into the NVM image."""
        cipher = AES(locking_key.to_bytes())
        plaintext = correct_working_key.to_bytes(max(1, self._n_bytes()), "little")
        self.nvm_contents = cipher.encrypt_ctr(plaintext, nonce=0)
        return self.nvm_contents

    def derive_working_key(self, locking_key: LockingKey) -> int:
        """Power-up: decrypt NVM with the delivered locking key."""
        if not self.nvm_contents:
            raise ValueError("NVM not programmed; call install() first")
        cipher = AES(locking_key.to_bytes())
        plaintext = cipher.encrypt_ctr(self.nvm_contents, nonce=0)  # CTR: enc == dec
        working = int.from_bytes(plaintext, "little")
        # A zero-width working key has no bits: mask to 0, never to the
        # NVM byte's low bit (the image always stores at least one byte).
        return working & ((1 << self.working_key_bits) - 1)

    def overhead(self) -> KeyManagementOverhead:
        return KeyManagementOverhead(
            aes_core=AES_CORE_AREA_GATES,
            nvm_bits=memory_area(self.working_key_bits),
            key_registers=register_area(self.working_key_bits),
        )


@REGISTRY.register(
    "key-scheme",
    "replication",
    description="working key = locking key bits replicated (zero overhead)",
)
def _replication_scheme(
    working_key_bits: int,
    locking_key: LockingKey,
    rng: random.Random | None = None,
):
    manager = ReplicationKeyManager(working_key_bits, locking_key.width)
    return manager, manager.derive_working_key(locking_key)


@REGISTRY.register(
    "key-scheme",
    "aes",
    description="free random working key, AES-CTR sealed into on-chip NVM",
)
def _aes_scheme(
    working_key_bits: int,
    locking_key: LockingKey,
    rng: random.Random | None = None,
):
    rng = rng or random.Random(locking_key.bits)
    manager = AesKeyManager(working_key_bits, locking_key.width)
    working = rng.getrandbits(working_key_bits) if working_key_bits else 0
    manager.install(locking_key, working)
    return manager, working


def choose_working_key(
    working_key_bits: int,
    locking_key: LockingKey,
    scheme: str = "replication",
    rng: random.Random | None = None,
):
    """Pick the correct working key and build the matching key manager.

    Returns ``(manager, correct_working_key)``.  Replication derives the
    working key from the locking key; the AES scheme draws a free random
    working key and programs the NVM.  The scheme name resolves through
    the capability registry, so plugin-registered schemes — factories
    with this same ``(working_key_bits, locking_key, rng)`` signature —
    work anywhere a builtin scheme does.
    """
    REGISTRY.load_plugins()
    factory = REGISTRY.get("key-scheme", scheme)
    return factory(working_key_bits, locking_key, rng)
