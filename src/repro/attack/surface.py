"""Attack-surface analyses: the defender-margin probes (paper §2, §3.1
and §4.3's security discussion).

These analyses quantify the *defender's* margin against the
untrusted-foundry adversary of paper §2 — a foundry that holds the
obfuscated netlist (and can fab and simulate unlimited copies) but has
no activated chip to query and no key (§3.1).  They back the paper's
claims that (a) no wrong key activates the circuit, (b) constants and
branches "cannot be weakened even with SAT-based attacks" because the
oracle is unavailable, and (c) with replication key management a
leaked working-key bit compromises all its replicas.

All attacks run against our own designs in simulation — this is the
standard evaluation methodology for logic-locking defenses.  The
iterative key-recovery adversaries (oracle-guided pruning, hill
climbing, brute-force resistance curves) live in their sibling
modules :mod:`repro.attack.oracle_guided`,
:mod:`repro.attack.hillclimb` and :mod:`repro.attack.resistance`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.attack.contract import inapplicable
from repro.registry import REGISTRY
from repro.sim.testbench import (
    Testbench,
    hamming_distance_fraction,
    run_testbench,
    run_testbench_batch,
)

if TYPE_CHECKING:  # type-only: repro.tao imports back into this package
    from repro.tao.flow import ObfuscatedComponent


@dataclass
class RandomKeyAttackResult:
    """Outcome of random locking-key guessing."""

    keys_tried: int
    keys_unlocking: int
    average_hamming: float
    search_space_bits: int

    @property
    def succeeded(self) -> bool:
        return self.keys_unlocking > 0


def random_key_attack(
    component: ObfuscatedComponent,
    benches: Sequence[Testbench],
    n_keys: int = 50,
    seed: int = 0xA77AC,
    engine: Optional[str] = None,
) -> RandomKeyAttackResult:
    """Guess random locking keys; count how many unlock the design.

    ``engine`` selects the FSMD engine for every probe (codegen
    default); attack outcomes are engine-independent.  All guesses are
    drawn up front (preserving the scalar loop's RNG stream) and each
    workload probes them as one key batch, so the codegen engine binds
    the whole guess set once per workload.
    """
    from repro.tao.key import LockingKey

    rng = random.Random(seed)
    design = component.design
    good = run_testbench(
        design,
        benches[0],
        working_key=component.correct_working_key,
        engine=engine,
    )
    cap = max(8 * good.cycles, 4000)
    guesses = [LockingKey.random(rng) for _ in range(n_keys)]
    # An astronomically unlikely correct guess is skipped (not probed)
    # to keep the counts honest, exactly like the scalar loop did.
    guesses = [g for g in guesses if g.bits != component.locking_key.bits]
    workings = [component.working_key_for(guess) for guess in guesses]
    all_match = [True] * len(guesses)
    hamming_sums = [0.0] * len(guesses)
    for bench in benches:
        outcomes = run_testbench_batch(
            design, bench, workings, max_cycles=cap, engine=engine
        )
        for lane, outcome in enumerate(outcomes):
            all_match[lane] &= outcome.matches
            hamming_sums[lane] += hamming_distance_fraction(
                outcome.golden_bits, outcome.simulated_bits
            )
    hammings = [total / len(benches) for total in hamming_sums]
    return RandomKeyAttackResult(
        keys_tried=n_keys,
        keys_unlocking=sum(all_match),
        average_hamming=sum(hammings) / len(hammings) if hammings else 0.0,
        search_space_bits=component.locking_key.width,
    )


@dataclass
class KeySensitivityResult:
    """Per-working-key-bit sensitivity of the design's outputs."""

    total_bits: int
    bits_probed: int
    bits_affecting_output: int
    by_category: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def sensitivity(self) -> float:
        if self.bits_probed == 0:
            return 0.0
        return self.bits_affecting_output / self.bits_probed


def key_sensitivity_analysis(
    component: ObfuscatedComponent,
    bench: Testbench,
    max_bits_per_category: int = 16,
    seed: int = 5,
    engine: Optional[str] = None,
) -> KeySensitivityResult:
    """Flip individual working-key bits and record which corrupt outputs.

    Groups probes by obfuscation category (branch / constant / variant
    slices).  High sensitivity means every key bit is load-bearing —
    the attacker cannot prune the search space by ignoring dead bits.
    """
    design = component.design
    config = design.key_config
    correct = component.correct_working_key
    good = run_testbench(design, bench, working_key=correct, engine=engine)
    cap = max(8 * good.cycles, 4000)
    rng = random.Random(seed)

    categories: dict[str, list[int]] = {"branch": [], "constant": [], "variant": []}
    categories["branch"] = sorted(config.branch_bits.values())
    for offset, width in config.constant_slices:
        categories["constant"].extend(range(offset, offset + width))
    # Variant selectors of trivial blocks (no datapath ops) are inert by
    # construction; probe the blocks whose variants steer real hardware.
    substantial: list[int] = []
    fallback: list[int] = []
    for block_name, (offset, width) in config.block_slices.items():
        bits = list(range(offset, offset + width))
        block = design.func.blocks.get(block_name)
        if block is not None and len(block.datapath_ops()) >= 2:
            substantial.extend(bits)
        else:
            fallback.extend(bits)
    categories["variant"] = substantial or fallback

    probed = 0
    affecting = 0
    by_category: dict[str, tuple[int, int]] = {}
    for name, bits in categories.items():
        sample = bits
        if len(sample) > max_bits_per_category:
            sample = sorted(rng.sample(bits, max_bits_per_category))
        # One batch per category: each lane probes one flipped bit.
        outcomes = run_testbench_batch(
            design,
            bench,
            [correct ^ (1 << bit) for bit in sample],
            max_cycles=cap,
            engine=engine,
        )
        category_affecting = sum(not outcome.matches for outcome in outcomes)
        probed += len(sample)
        affecting += category_affecting
        by_category[name] = (category_affecting, len(sample))

    return KeySensitivityResult(
        total_bits=config.working_key_bits,
        bits_probed=probed,
        bits_affecting_output=affecting,
        by_category=by_category,
    )


@dataclass
class SliceBruteForceResult:
    """Brute force of one key slice with/without an oracle."""

    slice_bits: int
    candidates: int
    consistent_with_oracle: int
    recovered_exactly: bool


def brute_force_slice_with_oracle(
    component: ObfuscatedComponent,
    bench: Testbench,
    which: str = "branch",
    seed: int = 9,
    engine: Optional[str] = None,
) -> SliceBruteForceResult:
    """What an attacker WITH an oracle could do to one small slice.

    The untrusted-foundry model denies the oracle (no unlocked chip,
    §3.1), which is exactly why TAO resists SAT-style attacks (§4.3).
    This analysis demonstrates the flip side: given oracle outputs, a
    single branch bit or variant selector is recoverable by
    enumeration, so the security argument genuinely rests on oracle
    denial, not on the slice sizes.
    """
    design = component.design
    config = design.key_config
    correct = component.correct_working_key
    oracle = run_testbench(design, bench, working_key=correct, engine=engine)
    cap = max(8 * oracle.cycles, 4000)

    if which == "branch":
        if not config.branch_bits:
            raise ValueError("design has no masked branches")
        bit = sorted(config.branch_bits.values())[0]
        offset, width = bit, 1
    elif which == "variant":
        if not config.block_slices:
            raise ValueError("design has no variant blocks")
        offset, width = sorted(config.block_slices.values())[0]
    else:
        raise ValueError(f"unknown slice category {which!r}")

    mask = ((1 << width) - 1) << offset
    # Enumerate the slice as one key batch: one lane per candidate.
    probes = [
        (correct & ~mask) | (candidate << offset)
        for candidate in range(1 << width)
    ]
    outcomes = run_testbench_batch(
        design, bench, probes, max_cycles=cap, engine=engine
    )
    consistent = [
        candidate
        for candidate, outcome in enumerate(outcomes)
        if outcome.simulated_bits == oracle.simulated_bits and outcome.matches
    ]
    true_value = (correct & mask) >> offset
    return SliceBruteForceResult(
        slice_bits=width,
        candidates=1 << width,
        consistent_with_oracle=len(consistent),
        recovered_exactly=consistent == [true_value],
    )


@dataclass
class ReplicationLeakResult:
    """Impact of leaking working-key bits under replication management."""

    leaked_working_bits: int
    revealed_locking_bits: int
    revealed_working_bits: int
    fanout: int


def replication_leak_analysis(
    component: ObfuscatedComponent, leaked_bits: Sequence[int]
) -> ReplicationLeakResult:
    """Quantify §3.4's warning: with replication, each leaked working
    bit reveals a locking bit and therefore all ``f`` replicas."""
    from repro.tao.keymgmt import ReplicationKeyManager

    manager = component.key_manager
    if not isinstance(manager, ReplicationKeyManager):
        raise ValueError("leak analysis applies to the replication scheme")
    k = manager.locking_key_width
    w = manager.working_key_bits
    revealed_locking = {bit % k for bit in leaked_bits}
    revealed_working = {
        i for i in range(w) if (i % k) in revealed_locking
    }
    return ReplicationLeakResult(
        leaked_working_bits=len(set(leaked_bits)),
        revealed_locking_bits=len(revealed_locking),
        revealed_working_bits=len(revealed_working),
        fanout=manager.fanout,
    )


# ----------------------------------------------------------------------
# Attacks as registered capabilities
# ----------------------------------------------------------------------
# Each attack registers an *adapter* with the uniform signature
# ``(component, benches, *, seed, engine) -> dict`` returning the
# structured result shape documented in repro.attack.contract (name +
# cost block + outcome block) — a deterministic, JSON-serializable
# summary (a pure function of its inputs, so campaign units embedding
# attack blocks stay byte-identical across serial and parallel runs).
# An attack that does not apply to the component reports
# ``applicable: false`` with a reason instead of raising, so one attack
# axis sweeps cleanly across heterogeneous configs.  Third-party
# attackers register under the same kind via the ``repro.plugins``
# entry point and sweep as a campaign axis (``repro campaign
# --attack``) without touching this package; their results are
# validated at the run_attack funnel.


@REGISTRY.register(
    "attack",
    "random-key",
    description="random locking-key guessing: wrong keys must never unlock",
)
def _random_key_adapter(
    component: ObfuscatedComponent,
    benches: Sequence[Testbench],
    *,
    seed: int = 0xA77AC,
    engine: Optional[str] = None,
) -> dict[str, Any]:
    n_keys = 8
    result = random_key_attack(
        component, benches, n_keys=n_keys, seed=seed, engine=engine
    )
    return {
        "name": "random-key",
        "applicable": True,
        "cost": {
            "oracle_queries": len(benches),
            "simulated_trials": result.keys_tried * len(benches),
            "iterations": 1,
        },
        "outcome": {
            "keys_tried": result.keys_tried,
            "keys_unlocking": result.keys_unlocking,
            "average_hamming": result.average_hamming,
            "search_space_bits": result.search_space_bits,
            "succeeded": result.succeeded,
        },
    }


@REGISTRY.register(
    "attack",
    "key-sensitivity",
    description="per-bit probe: which flipped working-key bits corrupt outputs",
)
def _key_sensitivity_adapter(
    component: ObfuscatedComponent,
    benches: Sequence[Testbench],
    *,
    seed: int = 5,
    engine: Optional[str] = None,
) -> dict[str, Any]:
    result = key_sensitivity_analysis(
        component, benches[0], max_bits_per_category=8, seed=seed, engine=engine
    )
    return {
        "name": "key-sensitivity",
        "applicable": True,
        "cost": {
            "oracle_queries": 1,
            "simulated_trials": result.bits_probed,
            "iterations": 1,
        },
        "outcome": {
            "total_bits": result.total_bits,
            "bits_probed": result.bits_probed,
            "bits_affecting_output": result.bits_affecting_output,
            "sensitivity": result.sensitivity,
            "by_category": {
                name: list(counts)
                for name, counts in sorted(result.by_category.items())
            },
        },
    }


@REGISTRY.register(
    "attack",
    "slice-brute-force",
    description="oracle-assisted enumeration of one branch key slice",
)
def _slice_brute_force_adapter(
    component: ObfuscatedComponent,
    benches: Sequence[Testbench],
    *,
    seed: int = 9,
    engine: Optional[str] = None,
) -> dict[str, Any]:
    try:
        result = brute_force_slice_with_oracle(
            component, benches[0], which="branch", seed=seed, engine=engine
        )
    except ValueError as error:
        return inapplicable("slice-brute-force", str(error))
    return {
        "name": "slice-brute-force",
        "applicable": True,
        "cost": {
            "oracle_queries": 1,
            "simulated_trials": result.candidates,
            "iterations": 1,
        },
        "outcome": {
            "slice_bits": result.slice_bits,
            "candidates": result.candidates,
            "consistent_with_oracle": result.consistent_with_oracle,
            "recovered_exactly": result.recovered_exactly,
        },
    }


@REGISTRY.register(
    "attack",
    "replication-leak",
    description="fan-out of one leaked working-key bit under replication",
)
def _replication_leak_adapter(
    component: ObfuscatedComponent,
    benches: Sequence[Testbench],
    *,
    seed: int = 0,
    engine: Optional[str] = None,
) -> dict[str, Any]:
    if component.design.key_config.working_key_bits == 0:
        return inapplicable("replication-leak", "design consumes no key bits")
    try:
        result = replication_leak_analysis(component, [0])
    except ValueError as error:
        return inapplicable("replication-leak", str(error))
    return {
        "name": "replication-leak",
        "applicable": True,
        # Pure key-layout arithmetic: no oracle access, no simulation.
        "cost": {"oracle_queries": 0, "simulated_trials": 0, "iterations": 1},
        "outcome": {
            "leaked_working_bits": result.leaked_working_bits,
            "revealed_locking_bits": result.revealed_locking_bits,
            "revealed_working_bits": result.revealed_working_bits,
            "fanout": result.fanout,
        },
    }
