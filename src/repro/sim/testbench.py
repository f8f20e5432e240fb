"""Testbench harness: compare FSMD simulations against the golden
software model (paper §4.1: Bambu-generated testbenches extended with
locking-key inputs).

A :class:`Testbench` holds a workload (scalar args + array contents)
for one top function; :func:`run_testbench` executes the golden IR
interpretation and the FSMD simulation and reports agreement, output
bit vectors (for Hamming-distance corruptibility) and cycle counts.

The golden execution is key-independent, so by default it is memoized
in the process-wide :data:`repro.runtime.cache.GOLDEN_CACHE` — a
100-key validation campaign interprets the software model exactly once
per ``(design, testbench)`` pair.  Pass ``golden_cache=None`` to force
a fresh interpretation, or any :class:`~repro.runtime.cache.GoldenCache`
instance to isolate the memoization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.hls.design import FsmdDesign
from repro.ir.function import Module
from repro.ir.types import IntType
from repro.runtime.cache import GOLDEN_CACHE, GoldenCache
from repro.sim.fsmd_sim import SimulationResult, simulate_batch
from repro.sim.interpreter import ExecutionResult, Interpreter

#: Default simulation cycle budget — effectively "uncapped" for the
#: benchmark suite; referenced by the validation metrics layer so the
#: correct-key trial and direct run_testbench calls share one cap.
DEFAULT_MAX_CYCLES = 2_000_000


@dataclass
class Testbench:
    """One workload for a top-level function.

    ``observed_arrays`` names the arrays whose final contents count as
    outputs (default: every parameter array the function stores to,
    which is how HLS testbenches treat output memories).
    """

    __test__ = False  # not a pytest test class

    args: list[int] = field(default_factory=list)
    arrays: dict[str, list[int]] = field(default_factory=dict)
    observed_arrays: Optional[list[str]] = None


@dataclass
class TestbenchOutcome:
    """Joint result of golden execution and FSMD simulation."""

    golden: ExecutionResult
    simulated: SimulationResult
    matches: bool
    golden_bits: list[int]
    simulated_bits: list[int]

    @property
    def cycles(self) -> int:
        return self.simulated.cycles


def output_bit_vector(
    return_value: Optional[int],
    arrays: dict[str, list[int]],
    observed: Sequence[str],
    module: Module,
    func_name: str,
) -> list[int]:
    """Flatten observable outputs into a bit list (for Hamming distance)."""
    func = module.function(func_name)
    bits: list[int] = []
    if func.returns_value and isinstance(func.return_type, IntType):
        width = func.return_type.width
        value = (return_value or 0) & ((1 << width) - 1)
        bits.extend((value >> i) & 1 for i in range(width))
    for name in observed:
        array = func.arrays[name]
        width = array.element_type.width
        contents = arrays.get(name, [0] * array.size)
        for element in contents:
            pattern = element & ((1 << width) - 1)
            bits.extend((pattern >> i) & 1 for i in range(width))
    return bits


def default_observed_arrays(module: Module, func_name: str) -> list[str]:
    """Parameter arrays written by the function (its output memories)."""
    from repro.ir.instructions import Opcode

    func = module.function(func_name)
    written = {
        inst.array.name
        for inst in func.instructions()
        if inst.opcode is Opcode.STORE and inst.array is not None
    }
    return [a.name for a in func.array_params() if a.name in written]


class _DefaultCache:
    """Sentinel type: 'use the process-wide golden cache'."""


_DEFAULT_CACHE = _DefaultCache()


def run_testbench(
    design: FsmdDesign,
    bench: Testbench,
    working_key: int = 0,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    golden_cache: Union[GoldenCache, None, _DefaultCache] = _DEFAULT_CACHE,
    engine: Optional[str] = None,
) -> TestbenchOutcome:
    """Run golden software and FSMD simulation; compare observables.

    The golden interpretation is memoized (see module docstring);
    ``golden_cache=None`` disables the cache for this call.
    ``engine`` selects the FSMD engine (``"codegen"`` default,
    ``"compiled"`` closure plans, ``"interp"`` reference; ``None``
    defers to ``$REPRO_SIM_ENGINE``)
    — the outcome is engine-independent by the determinism contract of
    :mod:`repro.sim.engine`.  A one-lane delegation to
    :func:`run_testbench_batch`, so scalar and batched trials agree by
    construction.
    """
    return run_testbench_batch(
        design,
        bench,
        [working_key],
        max_cycles=max_cycles,
        golden_cache=golden_cache,
        engine=engine,
    )[0]


def run_testbench_batch(
    design: FsmdDesign,
    bench: Testbench,
    working_keys: Sequence[int],
    max_cycles: int = DEFAULT_MAX_CYCLES,
    golden_cache: Union[GoldenCache, None, _DefaultCache] = _DEFAULT_CACHE,
    engine: Optional[str] = None,
) -> list[TestbenchOutcome]:
    """Run one workload under a batch of working keys; compare each lane.

    The golden reference is key-independent, so the batch looks it up
    once and every lane shares the result; the lookup still counts one
    cache hit per lane, so cache telemetry stays identical to running
    the same keys through scalar :func:`run_testbench` calls.  With
    ``golden_cache=None`` the interpreter runs once for the batch.
    Simulation goes through :func:`repro.sim.fsmd_sim.simulate_batch`
    (one ``bind_keys`` per batch under the codegen engine), returning
    one :class:`TestbenchOutcome` per key, in key order.
    """
    module = design.module
    func_name = design.func.name
    observed = bench.observed_arrays
    if observed is None:
        observed = default_observed_arrays(module, func_name)

    if not working_keys:
        return []
    cache = GOLDEN_CACHE if isinstance(golden_cache, _DefaultCache) else golden_cache
    if cache is None:
        golden = Interpreter(module).run(
            func_name, bench.args, dict(bench.arrays)
        )
        golden_bits = output_bit_vector(
            golden.return_value, golden.arrays, observed, module, func_name
        )
    else:
        golden, golden_bits = cache.golden_for(
            design, bench, observed, lanes=len(working_keys)
        )
    simulated_batch = simulate_batch(
        design,
        bench.args,
        dict(bench.arrays),
        working_keys=working_keys,
        max_cycles=max_cycles,
        engine=engine,
    )
    outcomes: list[TestbenchOutcome] = []
    for simulated in simulated_batch:
        simulated_bits = output_bit_vector(
            simulated.return_value, simulated.arrays, observed, module, func_name
        )
        matches = simulated.completed and golden_bits == simulated_bits
        outcomes.append(
            TestbenchOutcome(
                golden=golden,
                simulated=simulated,
                matches=matches,
                golden_bits=golden_bits,
                simulated_bits=simulated_bits,
            )
        )
    return outcomes


def hamming_distance_fraction(a: Sequence[int], b: Sequence[int]) -> float:
    """Fraction of differing bits between two equal-length bit vectors.

    When lengths differ (e.g. a timed-out run produced no outputs), the
    missing tail counts as fully corrupted.
    """
    length = max(len(a), len(b))
    if length == 0:
        return 0.0
    differing = sum(
        1
        for i in range(length)
        if (a[i] if i < len(a) else None) != (b[i] if i < len(b) else None)
    )
    return differing / length
