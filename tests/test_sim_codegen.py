"""Codegen FSMD engine: the generated, key-batched default engine.

Covers what the three-way differential suite in test_sim_compiled.py
does not: batch semantics.  Mixed-fate lane batches (correct /
wrong-corrupting / timeout keys retiring at different cycles in one
run_batch call), batch-vs-scalar identity, small kernels at the
overflow edges of the generated wraps, literal indices and shift
amounts (interpreter vs generated code), the bind_keys lifecycle
(memoization, out-of-table selector KeyError parity with the compiled
engine, no poisoned memo after a failed bind), the codegen plan cache,
the default-engine choice, the build bounds (generated source size,
render-once memo, compile-unit size cap, no run-time work that is
known at generation), generated-source introspection, and the
key_batches chunking contract the campaign runtime feeds the batched
trial path with.
"""

import functools
import random
import re

import pytest

from repro.benchsuite import benchmark_names, get_benchmark
from repro.frontend import compile_c
from repro.hls import hls_flow
from repro.runtime.campaign import key_batches
from repro.sim import codegen_for, compiled_for, resolve_engine, simulate_batch
from repro.sim.codegen import _CODEGEN_CACHE, UNIT_SOURCE_CAP, CodegenDesign
from repro.sim.engine import ENGINE_ENV
from repro.sim.fsmd_sim import FsmdSimulator
from repro.tao.flow import TaoFlow
from repro.tao.key import LockingKey, ObfuscationParameters
from repro.tao.metrics import (
    KEY_BATCH_LANES,
    resolve_key_batch_lanes,
    run_key_trial,
    run_key_trials,
)


def result_fields(result):
    """Every untraced SimulationResult field, as one comparable tuple."""
    return (result.return_value, result.arrays, result.cycles, result.completed)


@functools.lru_cache(maxsize=None)
def _obfuscated(benchmark: str, preset: str):
    bench = get_benchmark(benchmark)
    component = TaoFlow(pipeline=preset).obfuscate(bench.source, bench.top)
    workload = bench.make_testbenches(seed=11, count=1)[0]
    return component, workload


@functools.lru_cache(maxsize=None)
def _mixed_fate_setup():
    """A (correct, corrupting, timeout) working-key triple + budget.

    The budget is the correct key's exact latency, so the correct lane
    completes right at the budget while a wrong key either retires
    earlier (corrupting the outputs) or is still running when the
    budget expires (timeout).  The wrong keys are found by a small
    deterministic scan with the reference interpreter.
    """
    component, workload = _obfuscated("gsm", "full")
    design = component.design
    correct = component.correct_working_key
    width = max(1, component.working_key_bits)
    base = FsmdSimulator(design, max_cycles=200_000).run(
        workload.args, dict(workload.arrays), correct
    )
    assert base.completed
    budget = base.cycles
    corrupting = timeout = None
    for flip in (1, *(1 << bit for bit in range(1, min(width, 12)))):
        key = correct ^ flip
        res = FsmdSimulator(design, max_cycles=budget).run(
            workload.args, dict(workload.arrays), key
        )
        if res.completed and corrupting is None and (
            res.return_value != base.return_value or res.arrays != base.arrays
        ):
            corrupting = key
        if not res.completed and timeout is None:
            timeout = key
        if corrupting is not None and timeout is not None:
            break
    assert corrupting is not None, "no corrupting wrong key in scan range"
    assert timeout is not None, "no timeout wrong key in scan range"
    return component, workload, correct, corrupting, timeout, budget


class TestMixedFateBatch:
    """One batch, three lane fates — the satellite contract: every lane
    is field-identical to a scalar run of the same key."""

    @pytest.mark.parametrize("trace", (False, True))
    def test_lanes_retire_independently(self, trace):
        """``trace`` traces the interpreter reference; the codegen batch
        records no trace and must match every other field."""
        component, workload, correct, corrupting, timeout, budget = (
            _mixed_fate_setup()
        )
        design = component.design
        keys = [correct, corrupting, timeout, correct]  # duplicate lane too
        batch = codegen_for(design).run_batch(
            workload.args,
            dict(workload.arrays),
            working_keys=keys,
            max_cycles=budget,
        )
        assert len(batch) == len(keys)
        scalars = [
            FsmdSimulator(design, max_cycles=budget, trace=trace).run(
                workload.args, dict(workload.arrays), key
            )
            for key in keys
        ]
        for lane_result, scalar in zip(batch, scalars):
            assert lane_result.state_trace == []
            assert result_fields(lane_result) == result_fields(scalar)
            assert len(scalar.state_trace) == (scalar.cycles if trace else 0)
        # The fates really are mixed: completed-at-budget, retired
        # early with corrupted state, and cut off by the budget.
        assert batch[0].completed and batch[0].cycles == budget
        assert batch[1].completed and batch[1].cycles < budget
        assert not batch[2].completed and batch[2].cycles == budget
        assert result_fields(batch[3]) == result_fields(batch[0])

    def test_simulate_batch_seam_matches_scalar_engines(self):
        component, workload, correct, corrupting, timeout, budget = (
            _mixed_fate_setup()
        )
        design = component.design
        keys = [corrupting, correct, timeout]
        by_engine = {
            engine: [
                result_fields(r)
                for r in simulate_batch(
                    design,
                    workload.args,
                    dict(workload.arrays),
                    working_keys=keys,
                    max_cycles=budget,
                    engine=engine,
                )
            ]
            for engine in ("interp", "compiled", "codegen")
        }
        assert by_engine["interp"] == by_engine["compiled"]
        assert by_engine["interp"] == by_engine["codegen"]

    def test_empty_batch(self):
        component, workload = _obfuscated("gsm", "full")
        assert codegen_for(component.design).run_batch(
            workload.args, dict(workload.arrays), working_keys=[]
        ) == []


#: Small kernels at the overflow edges of the generated wraps (where a
#: wrap is dropped, where it takes the in-range fast path and where it
#: falls back to the full fold) and of the indices and shift amounts
#: reduced at generation time.  ``name: (source, top, args, arrays)``.
EDGE_KERNELS = {
    "signed_overflow": (
        """
int signed_overflow(int x, int y) {
  int s = 0;
  int m = y;
  for (int i = 0; i < 6; i++) {
    s = s + x + 2147483647;
    m = m * 65537 + i;
  }
  return s ^ m;
}""",
        "signed_overflow",
        [2147483647, 123457],
        {},
    ),
    "unsigned_wrap": (
        """
unsigned unsigned_wrap(unsigned x, unsigned out[4]) {
  unsigned a = x - 1;
  for (int i = 0; i < 4; i++) {
    out[i] = a + i * 2;
    a = a * 3;
  }
  return a + 4294967295;
}""",
        "unsigned_wrap",
        [0],
        {"out": [0] * 4},
    ),
    "narrow_stores": (
        """
void narrow_stores(int x, char c[4], short s[4], unsigned char u[4]) {
  for (int i = 0; i < 4; i++) {
    c[i] = x * (i + 1);
    s[i] = x * 1000 * (i + 1);
    u[i] = x - 200 * i;
  }
}""",
        "narrow_stores",
        [100],
        {"c": [0] * 4, "s": [0] * 4, "u": [0] * 4},
    ),
    "widening_loads": (
        """
int widening_loads(char c[4], short s[4], unsigned short u[4]) {
  int t = 0;
  for (int i = 0; i < 4; i++) {
    t = t + c[i] * s[i] + u[i];
  }
  return t;
}""",
        "widening_loads",
        [],
        {
            "c": [-128, 127, 300, -1],
            "s": [-32768, 32767, 70000, -5],
            "u": [65535, -1, 70000, 3],
        },
    ),
    "shifts": (
        """
int shifts(int x, int n, unsigned u, int out[6]) {
  out[0] = x << n;
  out[1] = x >> n;
  out[2] = x << 33;
  out[3] = (0 - x) >> 3;
  out[4] = u >> n;
  out[5] = (0 - x) >> 40;
  return (x << 31) + (u << 32);
}""",
        "shifts",
        [-12345, 35, 4000000000],
        {"out": [0] * 6},
    ),
    "literal_indices": (
        """
int literal_indices(int x, int out[6]) {
  out[7] = x;
  out[0 - 1] = x + 1;
  return out[13] + out[0 - 8] + out[2];
}""",
        "literal_indices",
        [5],
        {"out": [1, 2, 3, 4, 5, 6]},
    ),
    "mixed_type_movs": (
        """
int mixed_type_movs(int x) {
  short s = x;
  char c = s;
  unsigned char uc = x;
  unsigned short us = c;
  int r = s + c;
  short t = r;
  unsigned v = t;
  char d = v;
  return r + uc + us + t + d + (int)v;
}""",
        "mixed_type_movs",
        [70200],
        {},
    ),
    "rom_loads": (
        """
int rom_loads(int x) {
  short rom[5] = {-3, 300, -32768, 32767, 7};
  char small[4] = {-128, 127, -1, 5};
  int s = 0;
  for (int i = 0; i < 5; i++) {
    s = s + rom[i] * x + small[i & 3];
  }
  return s;
}""",
        "rom_loads",
        [3],
        {},
    ),
}

EDGE_CASES = [
    (name, preset) for name in EDGE_KERNELS for preset in ("full", "dfg")
] + [("rom_loads", "full-rom")]


@functools.lru_cache(maxsize=None)
def _edge_component(name: str, preset: str):
    source, top, _, _ = EDGE_KERNELS[name]
    return TaoFlow(pipeline=preset).obfuscate(source, top)


class TestWrapEdgeDifferential:
    """Interpreter vs generated code, field by field, on kernels that
    overflow signed and unsigned arithmetic, narrow and widen through
    memories and shared registers, shift out of range and read
    obfuscated ROMs."""

    @pytest.mark.parametrize("name, preset", EDGE_CASES)
    def test_correct_corrupting_and_timeout_keys(self, name, preset):
        _, _, args, arrays = EDGE_KERNELS[name]
        component = _edge_component(name, preset)
        design = component.design
        if preset == "full-rom":
            assert set(design.obfuscated_roms) == {"rom", "small"}
        correct = component.correct_working_key
        width = component.working_key_bits

        def interp(key, budget):
            return FsmdSimulator(design, max_cycles=budget).run(
                args, dict(arrays), key
            )

        base = interp(correct, 10_000)
        assert base.completed
        rng = random.Random(width)
        keys = [correct]
        keys += [correct ^ (1 << bit) for bit in range(width)]
        keys += [rng.getrandbits(width) for _ in range(16)]
        plan = codegen_for(design)
        fates = set()
        # At the campaign cap wrong keys complete (correct or corrupted)
        # or spin; at half the correct latency every slow lane times out.
        for budget in (8 * base.cycles, base.cycles // 2):
            batch = plan.run_batch(args, dict(arrays), keys, budget)
            for key, lane in zip(keys, batch):
                assert result_fields(lane) == result_fields(interp(key, budget))
                if not lane.completed:
                    fates.add("timeout")
                elif (lane.return_value, lane.arrays) == (
                    base.return_value,
                    base.arrays,
                ):
                    fates.add("correct")
                else:
                    fates.add("corrupting")
        assert fates == {"correct", "corrupting", "timeout"}


class TestSelectorDiversityDifferential:
    """Interpreter vs generated code under ``diversity="selector"``,
    where every selector is an arm of its own."""

    def test_every_block_takes_a_wrong_arm(self):
        bench = get_benchmark("viterbi")
        component = TaoFlow(
            params=ObfuscationParameters(variant_diversity="selector"),
            pipeline="dfg",
        ).obfuscate(bench.source, bench.top)
        design = component.design
        workload = bench.make_testbenches(seed=11, count=1)[0]
        correct = component.correct_working_key
        for variants in design.block_variants.values():
            assert len(variants.arms()) == 1 << variants.key_bits

        def interp(key, budget):
            return FsmdSimulator(design, max_cycles=budget).run(
                workload.args, dict(workload.arrays), key
            )

        base = interp(correct, 200_000)
        assert base.completed
        # One key per block, steering it into a wrong arm (a different
        # one per block), plus random keys that miss in every block.
        keys = [correct]
        for index, variants in enumerate(design.block_variants.values()):
            span = 1 << variants.key_bits
            wrong = (variants.correct_value + 1 + index % (span - 1)) % span
            slice_mask = (span - 1) << variants.key_offset
            keys.append((correct & ~slice_mask) | (wrong << variants.key_offset))
        rng = random.Random(13)
        keys += [rng.getrandbits(component.working_key_bits) for _ in range(8)]
        budget = 2 * base.cycles
        batch = codegen_for(design).run_batch(
            workload.args, dict(workload.arrays), keys, budget
        )
        fates = set()
        for key, lane in zip(keys, batch):
            assert result_fields(lane) == result_fields(interp(key, budget))
            fates.add(
                "timeout"
                if not lane.completed
                else "correct"
                if (lane.return_value, lane.arrays) == (base.return_value, base.arrays)
                else "corrupting"
            )
        assert fates == {"correct", "corrupting", "timeout"}


class TestRunKeyTrialsBatch:
    def test_batched_trials_match_scalar_trials(self):
        component, workload = _obfuscated("gsm", "full")
        width = component.locking_key.width
        keys = [
            component.locking_key,
            LockingKey(bits=component.locking_key.bits ^ 0b101, width=width),
            LockingKey(bits=component.locking_key.bits ^ (1 << 7), width=width),
        ]
        cap = 40_000
        batched = run_key_trials(component, [workload], keys, cap)
        assert len(batched) == len(keys)
        for key, trial in zip(keys, batched):
            scalar = run_key_trial(component, [workload], key, cap)
            assert trial == scalar


class TestBindKeysLifecycle:
    def test_bind_keys_memoizes_last_batch(self):
        component, _ = _obfuscated("gsm", "full")
        plan = codegen_for(component.design)
        keys = [component.correct_working_key, component.correct_working_key ^ 1]
        plan.bind_keys(keys)
        assert plan._bound_keys == tuple(keys)
        plan.bind_keys(list(keys))  # same batch, different sequence object
        assert plan._bound_keys == tuple(keys)
        plan.bind_keys(keys[:1])
        assert plan._bound_keys == (keys[0],)

    def _component_with_missing_selector(self):
        """A fresh full-preset component whose first variant block has
        one wrong-selector arm removed, plus a key steering into the
        hole.  Fresh (not the lru-cached fixture) because the variants
        table is mutated in place."""
        bench = get_benchmark("gsm")
        component = TaoFlow(pipeline="full").obfuscate(bench.source, bench.top)
        design = component.design
        assert design.block_variants, "full preset should variant-obfuscate"
        variants = next(iter(design.block_variants.values()))
        missing = next(
            selector
            for selector in sorted(variants.variants)
            if selector != variants.correct_value
        )
        del variants.variants[missing]
        correct = component.correct_working_key
        slice_mask = ((1 << variants.key_bits) - 1) << variants.key_offset
        bad_key = (correct & ~slice_mask) | (missing << variants.key_offset)
        assert variants.selector(bad_key) == missing
        return component, bad_key

    def test_out_of_table_selector_keyerror_parity(self):
        component, bad_key = self._component_with_missing_selector()
        design = component.design
        with pytest.raises(KeyError):
            compiled_for(design).bind_key(bad_key)
        with pytest.raises(KeyError):
            codegen_for(design).bind_keys([bad_key])
        # One bad lane fails the whole bind, matching per-key behaviour.
        with pytest.raises(KeyError):
            codegen_for(design).bind_keys(
                [component.correct_working_key, bad_key]
            )

    def test_failed_bind_does_not_poison_memoization(self):
        component, bad_key = self._component_with_missing_selector()
        _, workload = _obfuscated("gsm", "full")
        plan = codegen_for(component.design)
        batch = [component.correct_working_key, bad_key]
        with pytest.raises(KeyError):
            plan.bind_keys(batch)
        assert plan._bound_keys != tuple(batch)
        # A valid batch still binds and runs after the failure.
        good = plan.run(
            workload.args,
            dict(workload.arrays),
            working_key=component.correct_working_key,
            max_cycles=200_000,
        )
        assert good.completed


class TestCodegenPlanCache:
    def test_generated_plan_is_reused(self):
        design = hls_flow(compile_c("int f(int a) { return a * 3; }"), "f")
        assert codegen_for(design) is codegen_for(design)
        assert id(design) in _CODEGEN_CACHE

    def test_obfuscation_metadata_rotation_regenerates(self):
        design = hls_flow(compile_c("int f(int a) { return a * 3; }"), "f")
        first = codegen_for(design)
        design.masked_branches[999] = 0
        assert codegen_for(design) is not first


class TestDefaultEngine:
    def test_codegen_is_the_default(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert resolve_engine(None) == "codegen"


class TestGeneratedSource:
    def test_state_source_is_inspectable(self):
        component, _ = _obfuscated("gsm", "full")
        plan = codegen_for(component.design)
        entry = plan.layout.entry_idx
        source = plan.state_source(entry)
        # The chain function that holds the entry state, as compiled.
        assert source.startswith(f"def _c{entry}(R, M, K, n, budget):")
        assert f"# state {plan.layout.state_names[entry]}" in source
        assert any(source in unit for unit in plan.unit_sources)


#: Generated source per kernel (``full`` preset), in characters: the
#: measured size plus about 15% headroom, so build cost cannot quietly
#: grow back.  The emitter renders each state body once, so the source
#: grows linearly with the design; the per-state rendering it replaced
#: emitted 1.1 MB for backprop.
SOURCE_BOUNDS = {
    "sobel": 41_000,
    "viterbi": 57_000,
    "backprop": 84_000,
    "gsm": 42_000,
    "adpcm": 49_000,
}

#: Variant dispatch by selector-tuple membership (``K[3] in (0, 5,)``);
#: the emitter compares a per-lane arm index instead.
_TUPLE_DISPATCH = re.compile(r"K\[\d+\] in \(")
#: A ``%`` applied to a literal (``(0) % 12``); the emitter reduces
#: literal indices and shift amounts when it generates the code.
_LITERAL_MOD = re.compile(r"(?<![\w\]])\(?-?\d+\)? %")
#: A ``u1`` branch condition masked to one bit before its key bit is
#: applied; the read is already 0 or 1.
_CONDITION_MASK = ") & 1) ^ K["


class TestBuildBounds:
    """Deterministic bounds on the build: sizes and counts, not timings."""

    @pytest.mark.parametrize("bench_name", benchmark_names())
    def test_generated_source_size(self, bench_name):
        component, _ = _obfuscated(bench_name, "full")
        plan = CodegenDesign(component.design)
        size = sum(len(unit) for unit in plan.unit_sources)
        assert size <= SOURCE_BOUNDS[bench_name]
        # Every state's cycle is emitted exactly once.
        emitted = [
            line.strip()[len("# state "):]
            for unit in plan.unit_sources
            for line in unit.splitlines()
            if line.strip().startswith("# state ")
        ]
        assert sorted(emitted) == sorted(plan.layout.state_names)

    @pytest.mark.parametrize("preset", ("full", "dfg"))
    @pytest.mark.parametrize("bench_name", benchmark_names())
    def test_no_run_time_work_known_at_generation(self, bench_name, preset):
        """No unit re-tests a selector tuple, reduces a literal or masks
        a one-bit branch condition."""
        component, _ = _obfuscated(bench_name, preset)
        plan = CodegenDesign(component.design)
        for unit in plan.unit_sources:
            assert not _TUPLE_DISPATCH.search(unit)
            assert not _LITERAL_MOD.search(unit)
            assert _CONDITION_MASK not in unit

    @pytest.mark.parametrize("preset", ("full", "full-rom"))
    @pytest.mark.parametrize("bench_name", benchmark_names())
    def test_compile_units_stay_under_cap(self, bench_name, preset):
        """compile() peak memory scales with the unit it is given, so
        every unit stays under the cap."""
        component, _ = _obfuscated(bench_name, preset)
        plan = CodegenDesign(component.design)
        assert max(len(unit) for unit in plan.unit_sources) <= UNIT_SOURCE_CAP

    @pytest.mark.parametrize("bench_name", benchmark_names())
    def test_each_state_body_renders_once_per_selector(self, bench_name):
        """At most one rendering per state and arm: selectors sharing a
        decoy (one Hamming distance) share its rendering."""
        component, _ = _obfuscated(bench_name, "full")
        plan = CodegenDesign(component.design)
        block_variants = component.design.block_variants.values()
        arms = {variants.block_name: len(variants.arms()) for variants in block_variants}
        # Fewer arms than selectors, so the bound is tighter than per selector.
        assert max(arms.values()) < min(1 << v.key_bits for v in block_variants)
        bound = sum(
            arms[state.block] if idx in plan._variant_states else 1
            for idx, state in enumerate(plan.layout.states)
        )
        assert 0 < plan.body_renders <= bound


class TestKeyBatches:
    """The chunking contract the campaign runtime feeds workers with."""

    def test_empty(self):
        assert key_batches([], 4) == []

    def test_fewer_items_than_jobs(self):
        assert key_batches([1, 2, 3], 8) == [[1], [2], [3]]

    def test_flatten_preserves_order(self):
        items = list(range(137))
        batches = key_batches(items, 4, max_lanes=KEY_BATCH_LANES)
        assert [x for batch in batches for x in batch] == items

    def test_max_lanes_cap(self):
        batches = key_batches(list(range(200)), 1, max_lanes=64)
        assert all(len(batch) <= 64 for batch in batches)
        assert len(batches) >= 4

    def test_serial_batches_match_jobs_batches_flattened(self):
        items = list(range(50))
        serial = key_batches(items, 1, max_lanes=16)
        fanned = key_batches(items, 4, max_lanes=16)
        assert [x for b in serial for x in b] == [x for b in fanned for x in b]

    @pytest.mark.parametrize(
        "n_items, jobs, max_lanes, sizes",
        [
            (5, 4, 64, [2, 1, 1, 1]),
            (10, 8, 64, [2, 2, 1, 1, 1, 1, 1, 1]),
            (7, 2, 64, [4, 3]),
            (100, 2, 64, [50, 50]),
            (130, 1, 64, [44, 43, 43]),
        ],
    )
    def test_exactly_n_batches_balanced(self, n_items, jobs, max_lanes, sizes):
        # At least `jobs` batches (when there are enough items), sizes
        # differing by at most one, none above `max_lanes`.
        items = list(range(n_items))
        batches = key_batches(items, jobs, max_lanes=max_lanes)
        assert [len(batch) for batch in batches] == sizes
        assert [x for batch in batches for x in batch] == items


class TestKeyBatchLanes:
    """The lane cap as a tunable: resolution precedence and the
    determinism contract (lane layout never changes results)."""

    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_KEY_BATCH_LANES", raising=False)
        assert resolve_key_batch_lanes() == KEY_BATCH_LANES

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KEY_BATCH_LANES", "7")
        assert resolve_key_batch_lanes(3) == 3

    def test_env_wins_over_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KEY_BATCH_LANES", "7")
        assert resolve_key_batch_lanes() == 7

    def test_explicit_non_positive_raises(self):
        with pytest.raises(ValueError, match="at least one lane"):
            resolve_key_batch_lanes(0)

    @pytest.mark.parametrize("env", ["zero", "-4", "0", ""])
    def test_malformed_env_warns_and_falls_back(self, monkeypatch, env):
        monkeypatch.setenv("REPRO_KEY_BATCH_LANES", env)
        if env:
            with pytest.warns(UserWarning, match="not a positive integer"):
                assert resolve_key_batch_lanes() == KEY_BATCH_LANES
        else:
            assert resolve_key_batch_lanes() == KEY_BATCH_LANES

    def test_execution_options_validate_lanes(self):
        from repro.api import ExecutionOptions

        with pytest.raises(ValueError, match="at least one lane"):
            ExecutionOptions(key_batch_lanes=0)
        assert ExecutionOptions(key_batch_lanes=5).key_batch_lanes == 5
        assert ExecutionOptions().key_batch_lanes is None

    def test_validate_component_lane_invariant(self):
        """Identical report bytes for one-lane, default and
        wider-than-keyset batches (the JSON parity half of the
        contract; the CLI/env path is covered in the campaign test)."""
        from dataclasses import asdict

        from repro.tao.metrics import validate_component

        component, workload = _obfuscated("gsm", "full")
        reports = [
            asdict(
                validate_component(
                    component, [workload], n_keys=5, key_batch_lanes=lanes
                )
            )
            for lanes in (1, None, 512)
        ]
        assert reports[0] == reports[1] == reports[2]

    def test_campaign_json_lane_invariant(self, monkeypatch):
        """Full campaign documents are byte-identical across lane
        settings, whether set per-option or via the environment."""
        from repro.api import CampaignSpec, ExecutionOptions, execute_plan
        from repro.runtime.campaign import plan_campaign

        spec = CampaignSpec(benchmarks=("gsm",), n_keys=4, seed=13)

        def run(**kwargs):
            return execute_plan(
                plan_campaign(spec), ExecutionOptions(jobs=1, **kwargs)
            ).to_json()

        monkeypatch.delenv("REPRO_KEY_BATCH_LANES", raising=False)
        baseline = run()
        assert run(key_batch_lanes=1) == baseline
        assert run(key_batch_lanes=3) == baseline
        monkeypatch.setenv("REPRO_KEY_BATCH_LANES", "2")
        assert run() == baseline
