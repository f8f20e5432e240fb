"""Process-wide memoization caches for the campaign engine.

Two hot paths dominate every validation campaign:

* the golden software interpretation of a ``(design, testbench)`` pair,
  which is key-independent and therefore identical for all 100 locking
  keys the §4.3 campaign simulates — :class:`GoldenCache` memoizes it so
  the interpreter runs exactly once per pair;
* the front-end compilation + optimization pipeline, which
  ``TaoFlow.synthesize_pair`` used to run twice on the same source
  (baseline + obfuscated) — :class:`FrontEndCache` memoizes the
  optimized module keyed on the SHA-256 of the source text and hands
  out deep copies so callers may mutate freely.

Cache keys:

* golden results: ``(golden fingerprint, func name, testbench
  fingerprint)``.  The golden fingerprint is a *content* checksum of
  the module as the golden interpreter sees it — obfuscated constants
  canonicalize back to their design-time plaintext — so every
  parameter config, key scheme and resource budget of one benchmark
  addresses the same entry: a multi-axis sweep runs the software model
  once per workload, not once per axis cell.
* front-end modules: ``sha256(source)``.  The module name is cosmetic
  and is re-applied to each copy, so ``synthesize_pair``'s baseline and
  obfuscated compilations share one cache entry.

The resolved obfuscation pipeline (:class:`repro.tao.pipeline.FlowSpec`)
deliberately enters *neither* key, because it affects neither cached
output: the front-end cache stores the pre-obfuscation module (stages
run on a private copy afterwards), and the golden fingerprint
canonicalizes obfuscated constants to their plaintext while every
post-schedule stage mutates the FSMD design, never the IR the golden
interpreter reads.  Sweeping the campaign's pipeline axis therefore
rotates no cache keys — all pipelines of one benchmark share one
golden run per workload (asserted by tests and the CI warm-cache
gate).  A future *semantics-changing* pass would change the golden
fingerprint by construction, which is exactly the fold-in the content
addressing provides.

Both caches are the L1 tier of a two-tier store.  The optional L2 is
a :class:`DiskCacheBackend`: an on-disk, content-addressed cache (one
file per fingerprint, checksummed, written atomically) that outlives
the process, so parallel campaign workers, repeated CI runs and
concurrent ``repro campaign`` invocations all share one set of golden
interpreter runs and front-end compilations.  Attach it with
:func:`configure_disk_cache` (the CLI's ``--cache-dir`` /
``REPRO_CACHE_DIR`` entry points do); lookups then fall back
L1 → disk → compute, and every computed entry is published to both
tiers.  Telemetry splits by tier: ``hits`` (L1), ``l2_hits`` (served
from disk) and ``misses`` (actually computed).

The module-level singletons (:data:`GOLDEN_CACHE`,
:data:`FRONTEND_CACHE`) are per process; campaign workers each warm
their own L1 but open the same disk backend.  :func:`reset_caches`
clears both L1 tiers and detaches any disk backend (used by tests and
by long-lived servers that want a cold start); the on-disk entries
survive.  Worker processes report their counter increments back as
dicts (:func:`stats_delta`) and the parent folds them in with
:func:`absorb_stats`, so telemetry stays honest across nested process
pools.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Hashable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.hls.design import FsmdDesign
    from repro.ir.function import Module
    from repro.ir.instructions import Instruction
    from repro.sim.interpreter import ExecutionResult
    from repro.sim.testbench import Testbench


@dataclass
class CacheStats:
    """Hit/miss counters exposed for tests and campaign telemetry.

    Counters split by tier: ``hits`` were served from the in-process
    L1, ``l2_hits`` from the persistent disk backend, and ``misses``
    were actually computed.  Without a disk backend ``l2_hits`` stays
    zero and the counters reduce to the historical two-way split.

    ``store_failures`` counts computed entries the disk backend failed
    to persist (disk full, read-only mount, permissions): the campaign
    still completes — the cache is an accelerator — but every such
    entry will be recomputed by the next cold process, so the counter
    (plus a one-per-process ``RuntimeWarning``) makes the degradation
    visible instead of silent.  Lock-race skips are *not* failures and
    are not counted: the racing writer published identical bytes.
    """

    hits: int = 0
    l2_hits: int = 0
    misses: int = 0
    store_failures: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.l2_hits + self.misses

    @property
    def hit_rate(self) -> float:
        return (self.hits + self.l2_hits) / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.l2_hits = 0
        self.misses = 0
        self.store_failures = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "l2_hits": self.l2_hits,
            "misses": self.misses,
            "store_failures": self.store_failures,
        }


# ----------------------------------------------------------------------
# Persistent L2 backend
# ----------------------------------------------------------------------
#: Environment variable naming the persistent cache directory; read by
#: the process entry points (CLI, benchmark conftest) via
#: :func:`disk_cache_from_env`, never implicitly by the library.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_ENTRY_MAGIC = b"repro-cache/1"
_TMP_COUNTER = itertools.count()

#: One-per-process flag for the degraded-store ``RuntimeWarning`` —
#: a campaign writing thousands of entries to a full disk must not
#: emit thousands of identical warnings.  Module-level so tests can
#: reset it.
_STORE_FAILURE_WARNED = False

_TOOLCHAIN_FINGERPRINT: Optional[str] = None


def toolchain_fingerprint() -> str:
    """Content hash of the installed ``repro`` package sources.

    Disk-cache entries are only as reusable as the code that produced
    them: a front-end module pickle is keyed on the *source* hash, so
    a compiler change would otherwise be masked by a stale entry, and
    golden results bake in the interpreter's semantics.  Every
    :class:`DiskCacheBackend` therefore namespaces its entries under
    this fingerprint — entries written by a different toolchain are
    never addressed again (inert, not dangerous), which is also what
    makes coarse CI cache keys (benchmark-source hash with a prefix
    fallback) safe.  Computed once per process.
    """
    global _TOOLCHAIN_FINGERPRINT
    if _TOOLCHAIN_FINGERPRINT is None:
        import repro

        package_root = Path(repro.__file__).resolve().parent
        hasher = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            hasher.update(path.relative_to(package_root).as_posix().encode())
            hasher.update(b"\0")
            hasher.update(path.read_bytes())
            hasher.update(b"\0")
        _TOOLCHAIN_FINGERPRINT = hasher.hexdigest()[:16]
    return _TOOLCHAIN_FINGERPRINT


class DiskCacheBackend:
    """Content-addressed on-disk cache shared across processes and runs.

    Layout: ``root/<toolchain>/<namespace>/<key[:2]>/<key>.bin`` — one
    file per fingerprint, namespaced under the
    :func:`toolchain_fingerprint` (entries from an older compiler or
    interpreter are never addressed again) and sharded on the first
    key byte so directories stay small.  Each entry is
    ``repro-cache/1 <sha256(payload)>\\n`` + payload; :meth:`load`
    verifies the checksum and treats missing, truncated or corrupt
    entries as misses (the next :meth:`store` rewrites them), so a
    crashed writer can never poison readers.

    Concurrency: writers stage the blob in a uniquely-named temp file
    and publish it with :func:`os.replace` (atomic on POSIX), guarded
    by an ``O_CREAT | O_EXCL`` lock file per entry so concurrent
    ``ProcessPoolExecutor`` workers — or entirely separate campaign
    invocations — never interleave a publish.  Keys are
    content-addressed, so a writer that loses the lock race simply
    discards its (identical) blob; locks older than ``lock_timeout``
    seconds are presumed crashed and broken.

    The checksum defends against corruption, not adversaries: the
    frontend namespace stores pickles, so point the cache directory
    only at paths you trust (the same trust level as the source tree).
    """

    def __init__(self, root: Path | str, lock_timeout: float = 10.0) -> None:
        self.root = Path(root)
        self.lock_timeout = lock_timeout
        self.toolchain = toolchain_fingerprint()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiskCacheBackend({str(self.root)!r})"

    def _entry_path(self, namespace: str, key: str) -> Path:
        return self.root / self.toolchain / namespace / key[:2] / f"{key}.bin"

    # ------------------------------------------------------------------
    def load(self, namespace: str, key: str) -> Optional[bytes]:
        """Payload for ``key``, or ``None`` for missing/corrupt entries."""
        try:
            blob = self._entry_path(namespace, key).read_bytes()
        except OSError:
            return None
        header, sep, payload = blob.partition(b"\n")
        if not sep:
            return None  # truncated before the payload started
        parts = header.split(b" ")
        if len(parts) != 2 or parts[0] != _ENTRY_MAGIC:
            return None
        if hashlib.sha256(payload).hexdigest().encode("ascii") != parts[1]:
            return None  # truncated or corrupted payload
        return payload

    def store(self, namespace: str, key: str, payload: bytes) -> Optional[bool]:
        """Atomically publish ``payload`` under ``key``.

        Tri-state result, all falsy-when-not-published so callers may
        still treat it as a boolean:

        * ``True`` — entry published.
        * ``False`` — another live writer holds the entry lock.  Its
          content is identical (content addressing), so losing the
          race is not a failure, just redundant work skipped.
        * ``None`` — the filesystem refused (disk full, read-only
          mount, permissions, a concurrent ``clear()`` sweeping the
          staged temp file): the store is *degraded*.  The cache is an
          accelerator, so a failed publication never aborts the
          campaign that already computed the result — but it is
          surfaced: one ``RuntimeWarning`` per process naming the
          failing path, and callers count it in
          ``CacheStats.store_failures``.
        """
        tmp = None
        try:
            path = self._entry_path(namespace, key)
            path.parent.mkdir(parents=True, exist_ok=True)
            checksum = hashlib.sha256(payload).hexdigest().encode("ascii")
            tmp = path.parent / f".{key}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
            tmp.write_bytes(_ENTRY_MAGIC + b" " + checksum + b"\n" + payload)
            lock = path.parent / f"{key}.lock"
            if not self._acquire_lock(lock):
                tmp.unlink(missing_ok=True)
                return False
            try:
                os.replace(tmp, path)
            finally:
                lock.unlink(missing_ok=True)
            return True
        except OSError as error:
            if tmp is not None:
                try:
                    tmp.unlink(missing_ok=True)
                except OSError:
                    pass
            global _STORE_FAILURE_WARNED
            if not _STORE_FAILURE_WARNED:
                _STORE_FAILURE_WARNED = True
                warnings.warn(
                    f"disk cache store failed under {self.root} ({error}); "
                    "the persistent cache is degraded — results are computed "
                    "but not persisted (further failures in this process "
                    "are counted in cache stats, not re-warned)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return None

    def _acquire_lock(self, lock: Path) -> bool:
        for _attempt in range(2):
            try:
                os.close(os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                return True
            except FileExistsError:
                try:
                    age = time.time() - lock.stat().st_mtime
                except OSError:
                    continue  # holder just released; retry the O_CREAT
                if age < self.lock_timeout:
                    return False  # live writer; let it publish
                lock.unlink(missing_ok=True)  # break a crashed writer's lock
        return False

    # ------------------------------------------------------------------
    def entry_count(self, namespace: Optional[str] = None) -> int:
        """Entries addressable by *this* toolchain (older-toolchain
        entries are inert and uncounted; ``clear`` still removes them)."""
        base = self.root / self.toolchain
        if namespace:
            base = base / namespace
        if not base.is_dir():
            return 0
        return sum(1 for _ in base.rglob("*.bin"))

    def __len__(self) -> int:
        return self.entry_count()

    def clear(self) -> int:
        """Remove every entry — all toolchain generations — plus stray
        temp/lock files; returns the number of entries removed.  The
        directory itself is kept."""
        if not self.root.is_dir():
            return 0
        removed = 0
        for path in self.root.rglob("*"):
            if path.is_dir():
                continue
            if path.suffix == ".bin":
                removed += 1
            path.unlink(missing_ok=True)
        return removed


def testbench_fingerprint(
    bench: "Testbench", observed: Sequence[str]
) -> Hashable:
    """Value-based identity of a workload (args, arrays, observables)."""
    return (
        tuple(bench.args),
        tuple(sorted((name, tuple(vals)) for name, vals in bench.arrays.items())),
        tuple(observed),
    )


def _semantic_operand(operand) -> str:
    """Render an operand as the golden interpreter reads it.

    Obfuscated constants decode to their design-time plaintext under
    the correct key, and that plaintext is what the interpreter uses —
    so the fingerprint substitutes the original constant.  This (plus
    obfuscation passes beyond constants operating on the FSMD, not the
    IR) is what makes the fingerprint identical across every parameter
    config, key scheme and resource budget of one benchmark.
    """
    from repro.ir.values import ObfuscatedConstant

    if isinstance(operand, ObfuscatedConstant):
        operand = operand.original
    return str(operand)


def _semantic_instruction(inst: "Instruction") -> str:
    parts: list[str] = []
    if inst.result is not None:
        parts.append(f"{inst.result} = ")
    parts.append(str(inst.opcode))
    if inst.callee:
        parts.append(f" @{inst.callee}")
    if inst.array is not None:
        parts.append(f" {inst.array.name}")
    if inst.operands:
        parts.append(" " + ", ".join(_semantic_operand(op) for op in inst.operands))
    if inst.array_args:
        # Call-site array bindings are interpreter-visible (the callee
        # reads/writes the bound caller arrays) but absent from the IR
        # printer — hash them or two modules differing only in which
        # array a call passes would collide.
        bindings = ", ".join(
            f"{param}={arr.name}"
            for param, arr in sorted(inst.array_args.items())
        )
        parts.append(f" [{bindings}]")
    if inst.targets:
        parts.append(" -> " + ", ".join(inst.targets))
    return "".join(parts)


def golden_fingerprint(module: "Module") -> str:
    """Content checksum of ``module`` under golden (correct-key) semantics.

    Hashes every function's signature, arrays (including initializer
    contents, which ``str(module)`` omits but the interpreter reads)
    and instructions, with obfuscated constants rendered as their
    plaintext originals.  Two modules with equal fingerprints produce
    identical golden executions for any workload, so the fingerprint —
    not object identity — keys :class:`GoldenCache`.  In-place IR
    mutation (an optimization or obfuscation pass run after a
    simulation) changes the fingerprint and therefore misses instead
    of serving stale golden outputs.
    """
    hasher = hashlib.sha256()
    for func in module:
        params = ", ".join(f"{p.type} {p.name}" for p in func.params)
        hasher.update(
            f"func {func.return_type} @{func.name}({params})\n".encode("utf-8")
        )
        for array in func.arrays.values():
            init = (
                tuple(array.initializer)
                if array.initializer is not None
                else None
            )
            hasher.update(
                f"array {array.type} {array.name} param={array.is_param} "
                f"init={init}\n".encode("utf-8")
            )
        for name, block in func.blocks.items():
            hasher.update(f"{name}:\n".encode("utf-8"))
            for inst in block.instructions:
                hasher.update(
                    (_semantic_instruction(inst) + "\n").encode("utf-8")
                )
    return hasher.hexdigest()


def _copy_execution_result(result: "ExecutionResult") -> "ExecutionResult":
    """Defensive copy so callers cannot mutate the cached master."""
    from repro.sim.interpreter import ExecutionResult

    return ExecutionResult(
        return_value=result.return_value,
        arrays={name: list(vals) for name, vals in result.arrays.items()},
        instructions_executed=result.instructions_executed,
        block_trace=list(result.block_trace),
    )


class GoldenCache:
    """Memoizes golden interpreter executions per ``(content, testbench)``.

    The golden model is key-independent: a validation campaign that
    simulates N locking keys over the same workload needs the software
    reference exactly once.  Entries also store the flattened golden
    output bit vector so the Hamming baseline is not recomputed per key.

    Keys are content-addressed via :func:`golden_fingerprint`: modules
    rebuilt for different parameter configs, key schemes or resource
    budgets of the same benchmark — or mutated in place — hash to the
    fingerprint their golden semantics imply, so stale or aliased
    entries cannot be served and identical workloads share one run.

    Content keys have no owning object to garbage-collect with, so the
    cache bounds itself: beyond ``max_entries`` the oldest entry is
    evicted (insertion-order FIFO — campaigns touch each (content,
    workload) pair in one burst, so recency ≈ insertion here), keeping
    long-lived processes from accumulating every golden run forever.

    With a :class:`DiskCacheBackend` attached the in-memory dict is the
    L1 tier: an L1 miss probes the disk before interpreting, and every
    computed entry is published back so other processes (parallel
    workers, later runs) skip the interpreter entirely.  Entries
    serialize as checksummed JSON; a corrupt disk entry reads as a miss
    and is rewritten.
    """

    NAMESPACE = "golden"

    def __init__(
        self,
        max_entries: int = 1024,
        backend: Optional[DiskCacheBackend] = None,
    ) -> None:
        self._entries: dict[
            Hashable, tuple["ExecutionResult", list[int]]
        ] = {}
        self.max_entries = max_entries
        self.backend = backend
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop the in-memory tier and counters (disk entries survive)."""
        self._entries.clear()
        self.stats.reset()

    def golden_for(
        self,
        design: "FsmdDesign",
        bench: "Testbench",
        observed: Sequence[str],
        lanes: int = 1,
    ) -> tuple["ExecutionResult", list[int]]:
        """Golden execution + output bit vector, computed at most once.

        ``lanes`` counts the lookup as that many trials sharing one
        workload: the key is hashed once, and the counters read as if
        each trial had looked the entry up on its own (the first lookup
        as a hit, L2 hit or miss, every further one as an L1 hit).
        """
        module = design.module
        func_name = design.func.name
        key = (
            golden_fingerprint(module),
            func_name,
            testbench_fingerprint(bench, observed),
        )
        entry = self._entries.get(key)
        if entry is not None:
            self.stats.hits += 1
        else:
            entry = self._load_from_backend(key)
            if entry is not None:
                self.stats.l2_hits += 1
            else:
                self.stats.misses += 1
                entry = self._compute(module, func_name, bench, observed)
                self._store_to_backend(key, entry)
            while len(self._entries) >= max(1, self.max_entries):
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = entry
        self.stats.hits += lanes - 1
        golden, bits = entry
        return _copy_execution_result(golden), list(bits)

    # ------------------------------------------------------------------
    @staticmethod
    def _disk_key(key: Hashable) -> str:
        # The tuple key holds only ints, strings and nested tuples, so
        # repr() is a canonical encoding.
        return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()

    def _load_from_backend(
        self, key: Hashable
    ) -> Optional[tuple["ExecutionResult", list[int]]]:
        if self.backend is None:
            return None
        payload = self.backend.load(self.NAMESPACE, self._disk_key(key))
        if payload is None:
            return None
        from repro.sim.interpreter import ExecutionResult

        try:
            data = json.loads(payload.decode("utf-8"))
            golden = ExecutionResult(
                return_value=data["return_value"],
                arrays={
                    name: [int(v) for v in vals]
                    for name, vals in data["arrays"].items()
                },
                instructions_executed=int(data["instructions_executed"]),
                block_trace=[str(b) for b in data["block_trace"]],
            )
            bits = [int(b) for b in data["bits"]]
        except (ValueError, KeyError, TypeError, AttributeError):
            return None  # checksummed but schema-incompatible: miss
        return golden, bits

    def _store_to_backend(
        self, key: Hashable, entry: tuple["ExecutionResult", list[int]]
    ) -> None:
        if self.backend is None:
            return
        golden, bits = entry
        payload = json.dumps(
            {
                "return_value": golden.return_value,
                "arrays": {n: list(v) for n, v in golden.arrays.items()},
                "instructions_executed": golden.instructions_executed,
                "block_trace": list(golden.block_trace),
                "bits": list(bits),
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        if self.backend.store(self.NAMESPACE, self._disk_key(key), payload) is None:
            self.stats.store_failures += 1

    # ------------------------------------------------------------------
    def _compute(
        self,
        module: "Module",
        func_name: str,
        bench: "Testbench",
        observed: Sequence[str],
    ) -> tuple["ExecutionResult", list[int]]:
        from repro.sim.interpreter import Interpreter
        from repro.sim.testbench import output_bit_vector

        golden = Interpreter(module).run(
            func_name, bench.args, dict(bench.arrays)
        )
        bits = output_bit_vector(
            golden.return_value, golden.arrays, observed, module, func_name
        )
        return golden, bits


class FrontEndCache:
    """Memoizes front-end compilation keyed on the source text hash.

    Stores the pristine optimized module as its pickle and returns a
    fresh unpickled module per lookup: the TAO obfuscation passes
    mutate the IR in place, so the master must never escape, and
    unpickling is several times cheaper than a deep copy.  The
    requested module name is applied to the copy, letting baseline and
    obfuscated compilations of the same source share one entry.

    With a :class:`DiskCacheBackend` attached, the same pickles persist
    under the ``frontend`` namespace (each master is serialized once),
    so every process of a campaign (and every later run) parses and
    optimizes each source at most once fleet-wide.  An unpicklable or
    corrupt disk entry reads as a miss and is recompiled.
    """

    NAMESPACE = "frontend"

    def __init__(self, backend: Optional[DiskCacheBackend] = None) -> None:
        self._pickles: dict[str, bytes] = {}
        self.backend = backend
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._pickles)

    def clear(self) -> None:
        """Drop the in-memory tier and counters (disk entries survive)."""
        self._pickles.clear()
        self.stats.reset()

    @staticmethod
    def source_key(source: str) -> str:
        return hashlib.sha256(source.encode("utf-8")).hexdigest()

    def get_or_compile(
        self,
        source: str,
        name: str,
        compile_fn: Callable[[str, str], "Module"],
    ) -> "Module":
        """Return a private copy of the optimized module for ``source``."""
        key = self.source_key(source)
        payload = self._pickles.get(key)
        if payload is not None:
            self.stats.hits += 1
            module = pickle.loads(payload)
        else:
            payload, module = self._load_from_backend(key)
            if module is not None:
                self.stats.l2_hits += 1
            else:
                self.stats.misses += 1
                module = compile_fn(source, name)
                payload = pickle.dumps(module, protocol=pickle.HIGHEST_PROTOCOL)
                if self.backend is not None:
                    if self.backend.store(self.NAMESPACE, key, payload) is None:
                        self.stats.store_failures += 1
            self._pickles[key] = payload
        module.name = name
        return module

    def _load_from_backend(
        self, key: str
    ) -> tuple[Optional[bytes], Optional["Module"]]:
        """``(payload, module)`` from the disk tier, or ``(None, None)``."""
        if self.backend is None:
            return None, None
        payload = self.backend.load(self.NAMESPACE, key)
        if payload is None:
            return None, None
        from repro.ir.function import Module

        try:
            module = pickle.loads(payload)
        except Exception:
            return None, None  # stale pickle format etc.: recompile
        if not isinstance(module, Module):
            return None, None
        return payload, module


#: Per-process singletons; campaign workers each warm their own L1 but
#: attach the same disk backend (threaded through the worker payload).
GOLDEN_CACHE = GoldenCache()
FRONTEND_CACHE = FrontEndCache()

#: The disk backend currently attached to the singletons (None = pure
#: in-memory operation).  Module-level so provenance and worker fan-out
#: can ask "what backend is this process using?".
_ACTIVE_BACKEND: Optional[DiskCacheBackend] = None


def configure_disk_cache(
    cache_dir: Optional[Path | str],
) -> Optional[DiskCacheBackend]:
    """Attach a persistent L2 at ``cache_dir`` to both singletons.

    ``None`` detaches (pure in-memory operation).  Returns the backend
    so callers can clear it or read entry counts.  In-memory entries
    and counters are untouched either way — attaching mid-flight only
    changes where future misses look next.
    """
    global _ACTIVE_BACKEND
    backend = None if cache_dir is None else DiskCacheBackend(cache_dir)
    GOLDEN_CACHE.backend = backend
    FRONTEND_CACHE.backend = backend
    _ACTIVE_BACKEND = backend
    return backend


def active_backend() -> Optional[DiskCacheBackend]:
    """The disk backend attached to the process singletons, if any."""
    return _ACTIVE_BACKEND


def active_cache_dir() -> Optional[str]:
    """Directory of the attached disk backend (for worker hand-off)."""
    return None if _ACTIVE_BACKEND is None else str(_ACTIVE_BACKEND.root)


def disk_cache_from_env() -> Optional[DiskCacheBackend]:
    """Entry-point hook: attach the L2 named by ``$REPRO_CACHE_DIR``.

    No-op when the variable is unset or the same directory is already
    attached.  Called by the CLI and the benchmark conftest — library
    code never reads the environment implicitly.
    """
    path = os.environ.get(CACHE_DIR_ENV)
    if not path:
        return _ACTIVE_BACKEND
    if _ACTIVE_BACKEND is not None and str(_ACTIVE_BACKEND.root) == path:
        return _ACTIVE_BACKEND
    return configure_disk_cache(path)


def backend_provenance() -> dict[str, Optional[str]]:
    """Where this process's cache lookups were served from — recorded in
    campaign telemetry so a results file says whether a disk cache was
    in play (the deterministic result fields never depend on it)."""
    if _ACTIVE_BACKEND is None:
        return {"kind": "memory", "cache_dir": None}
    return {"kind": "disk", "cache_dir": str(_ACTIVE_BACKEND.root)}


def reset_caches() -> None:
    """Cold-start hook (tests, long-lived servers): clear both L1 tiers
    and detach any disk backend.  On-disk entries survive."""
    configure_disk_cache(None)
    GOLDEN_CACHE.clear()
    FRONTEND_CACHE.clear()


def cache_stats() -> dict[str, dict[str, int]]:
    """Snapshot of both caches' counters (campaign telemetry)."""
    return {
        "golden": GOLDEN_CACHE.stats.as_dict(),
        "frontend": FRONTEND_CACHE.stats.as_dict(),
    }


def stats_delta(
    before: dict[str, dict[str, int]], after: dict[str, dict[str, int]]
) -> dict[str, dict[str, int]]:
    """Counter increments between two :func:`cache_stats` snapshots."""
    return {
        cache: {
            counter: after[cache][counter] - before.get(cache, {}).get(counter, 0)
            for counter in after[cache]
        }
        for cache in after
    }


def absorb_stats(delta: dict[str, dict[str, int]]) -> None:
    """Fold a worker process's counter delta into this process's caches.

    Used by nested key-level pools: each pool task measures its own
    :func:`stats_delta` and the parent absorbs the sum, so campaign
    telemetry counts every trial no matter how many process layers ran
    it.  Only the counters move — cached entries stay in the process
    that computed them.
    """
    stats_of = {"golden": GOLDEN_CACHE.stats, "frontend": FRONTEND_CACHE.stats}
    for cache, counters in delta.items():
        stats = stats_of.get(cache)
        if stats is None:
            raise KeyError(f"unknown cache in stats delta: {cache!r}")
        stats.hits += counters.get("hits", 0)
        stats.l2_hits += counters.get("l2_hits", 0)
        stats.misses += counters.get("misses", 0)
        stats.store_failures += counters.get("store_failures", 0)
