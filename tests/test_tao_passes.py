"""Unit tests for the three TAO obfuscation passes: constants, branch
masking and DFG variants."""

import functools
import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import compile_c
from repro.opt import optimize_module
from repro.hls import synthesize_function
from repro.ir.values import Constant, ObfuscatedConstant
from repro.sim import Testbench, run_testbench, simulate
from repro.tao.branch_pass import mask_branches
from repro.tao.constants_pass import obfuscate_constants
from repro.benchsuite import benchmark_names, get_benchmark
from repro.tao.dfg_variants import (
    _baseline_variant_ops,
    _rearrange_dependences,
    _swap_operation_types,
    create_dfg_variants,
    hamming_distance,
    obfuscate_dfgs,
    variant_divergence,
)
from repro.tao.flow import TaoFlow
from repro.tao.key import ObfuscationParameters, apportion_keys


SOURCE = """
int f(int a, int data[4], int out[4]) {
  int acc = 100;
  for (int i = 0; i < 4; i++) {
    int v = data[i] * 7 + a;
    if (v > 50) acc += v;
    else acc -= v * 3;
    out[i] = acc;
  }
  return acc;
}
"""


def prepared(params=None):
    module = compile_c(SOURCE)
    optimize_module(module)
    func = module.function("f")
    apportionment = apportion_keys(func, params or ObfuscationParameters())
    return module, func, apportionment


class TestHammingDistance:
    def test_examples(self):
        assert hamming_distance(0b1010, 0b1010) == 0
        assert hamming_distance(0b1010, 0b0101) == 4
        assert hamming_distance(0, 0b1111) == 4

    @given(st.integers(min_value=0, max_value=2**16), st.integers(min_value=0, max_value=2**16))
    def test_property_symmetric(self, a, b):
        assert hamming_distance(a, b) == hamming_distance(b, a)


class TestConstantsPass:
    def test_constants_replaced(self):
        module, func, apportionment = prepared()
        working_key = random.Random(0).getrandbits(apportionment.working_key_bits)
        created = obfuscate_constants(func, apportionment, working_key)
        assert len(created) == apportionment.num_constants
        remaining = [
            op
            for inst in func.instructions()
            if not inst.is_terminator
            for op in inst.operands
            if isinstance(op, Constant) and not isinstance(op, ObfuscatedConstant)
            and abs(op.value) >= 2
        ]
        assert not remaining

    def test_correct_key_decodes_originals(self):
        module, func, apportionment = prepared()
        working_key = random.Random(1).getrandbits(apportionment.working_key_bits)
        created = obfuscate_constants(func, apportionment, working_key)
        for constant in created:
            assert constant.decode(working_key) == constant.original.value

    def test_semantics_preserved_in_golden_model(self):
        module, func, apportionment = prepared()
        from repro.sim.interpreter import run_function

        before = run_function(module, "f", [5], {"data": [10, 20, 30, 40]})
        working_key = random.Random(2).getrandbits(apportionment.working_key_bits)
        obfuscate_constants(func, apportionment, working_key)
        after = run_function(module, "f", [5], {"data": [10, 20, 30, 40]})
        assert before.return_value == after.return_value
        assert before.arrays["out"] == after.arrays["out"]

    def test_stored_values_differ_from_plaintext(self):
        # With a random 32-bit slice, stored pattern != plaintext w.h.p.
        module, func, apportionment = prepared()
        working_key = random.Random(3).getrandbits(apportionment.working_key_bits)
        created = obfuscate_constants(func, apportionment, working_key)
        differing = sum(
            1
            for c in created
            if c.stored_value != (c.original.value & 0xFFFFFFFF)
        )
        assert differing >= len(created) * 3 // 4


class TestBranchPass:
    def test_all_branches_masked(self):
        module, func, apportionment = prepared()
        design = synthesize_function(module, "f")
        working_key = random.Random(4).getrandbits(apportionment.working_key_bits)
        masked = mask_branches(design, apportionment, working_key)
        assert len(masked) == apportionment.num_branches
        for __, transition in design.controller.conditional_transitions():
            assert transition.key_bit is not None

    def test_swap_matches_key_bit(self):
        module, func, apportionment = prepared()
        design = synthesize_function(module, "f")
        working_key = random.Random(5).getrandbits(apportionment.working_key_bits)
        mask_branches(design, apportionment, working_key)
        for __, transition in design.controller.conditional_transitions():
            bit = (working_key >> transition.key_bit) & 1
            assert transition.swapped == (bit == 1)

    def test_behaviour_preserved_under_correct_key(self):
        module, func, apportionment = prepared()
        design = synthesize_function(module, "f")
        working_key = random.Random(6).getrandbits(apportionment.working_key_bits)
        mask_branches(design, apportionment, working_key)
        bench = Testbench(args=[5], arrays={"data": [10, 20, 30, 40]})
        outcome = run_testbench(design, bench, working_key=working_key)
        assert outcome.matches

    def test_flipped_key_bit_inverts_branch(self):
        module, func, apportionment = prepared()
        design = synthesize_function(module, "f")
        working_key = random.Random(7).getrandbits(apportionment.working_key_bits)
        mask_branches(design, apportionment, working_key)
        # Flip exactly one branch bit: control flow must change behaviour.
        bit = next(iter(apportionment.branch_bit_of.values()))
        wrong_key = working_key ^ (1 << bit)
        bench = Testbench(args=[5], arrays={"data": [10, 20, 30, 40]})
        good = run_testbench(design, bench, working_key=working_key)
        bad = run_testbench(
            design, bench, working_key=wrong_key, max_cycles=8 * good.cycles
        )
        assert good.matches and not bad.matches


class TestDfgVariants:
    def test_correct_selector_is_baseline(self):
        module, func, apportionment = prepared()
        design = synthesize_function(module, "f")
        working_key = random.Random(8).getrandbits(apportionment.working_key_bits)
        created = obfuscate_dfgs(design, apportionment, working_key, seed=1)
        for variants in created.values():
            baseline_ops = variants.variants[variants.correct_value]
            block = design.func.blocks[variants.block_name]
            assert len(baseline_ops) == len(block.instructions)
            for op, inst in zip(baseline_ops, block.instructions):
                assert op.opcode is inst.opcode
                assert op.operands == list(inst.operands)

    def test_variant_count(self):
        module, func, apportionment = prepared()
        design = synthesize_function(module, "f")
        working_key = random.Random(9).getrandbits(apportionment.working_key_bits)
        created = obfuscate_dfgs(design, apportionment, working_key, seed=1)
        for variants in created.values():
            assert len(variants.variants) == 16  # B_i = 4

    def test_variants_causally_valid(self):
        """Every variant operand is a constant, block input, or the
        result of an op in a strictly earlier cstep."""
        module, func, apportionment = prepared()
        design = synthesize_function(module, "f")
        working_key = random.Random(10).getrandbits(apportionment.working_key_bits)
        created = obfuscate_dfgs(design, apportionment, working_key, seed=1)
        for variants in created.values():
            for ops in variants.variants.values():
                defined_at = {}
                for op in ops:
                    if op.result is not None:
                        defined_at.setdefault(op.result, op.cstep)
                for op in ops:
                    for operand in op.operands:
                        if operand in defined_at and defined_at[operand] is not None:
                            if defined_at[operand] >= op.cstep and operand is not op.result:
                                # only flag operands produced in this block
                                produced = [
                                    o for o in ops if o.result is operand
                                ]
                                if produced and min(
                                    o.cstep for o in produced
                                ) >= op.cstep:
                                    # allowed only if operand is live-in
                                    # (i.e. also defined before entry) —
                                    # conservative check: it must not be
                                    # *first* defined later in the block.
                                    first_def = min(o.cstep for o in produced)
                                    assert first_def < op.cstep or any(
                                        inst.result is operand
                                        for name, block in design.func.blocks.items()
                                        if name != variants.block_name
                                        for inst in block.instructions
                                    )

    def test_wrong_selector_produces_divergence(self):
        module, func, apportionment = prepared()
        design = synthesize_function(module, "f")
        working_key = random.Random(11).getrandbits(apportionment.working_key_bits)
        created = obfuscate_dfgs(design, apportionment, working_key, seed=1)
        total_divergence = sum(variant_divergence(v) for v in created.values())
        assert total_divergence > 0

    def test_behaviour_preserved_under_correct_key(self):
        module, func, apportionment = prepared()
        design = synthesize_function(module, "f")
        working_key = random.Random(12).getrandbits(apportionment.working_key_bits)
        obfuscate_dfgs(design, apportionment, working_key, seed=1)
        bench = Testbench(args=[5], arrays={"data": [10, 20, 30, 40]})
        assert run_testbench(design, bench, working_key=working_key).matches

    def test_selector_diversity_mode_distinct_structures(self):
        module, func, apportionment = prepared()
        design = synthesize_function(module, "f")
        working_key = random.Random(13).getrandbits(apportionment.working_key_bits)
        created = obfuscate_dfgs(
            design, apportionment, working_key, seed=1, diversity="selector"
        )
        assert any(variant_divergence(v) > 0 for v in created.values())

    def test_latency_unchanged_for_any_selector(self):
        """Variants reuse the baseline schedule: same csteps per block."""
        module, func, apportionment = prepared()
        design = synthesize_function(module, "f")
        working_key = random.Random(14).getrandbits(apportionment.working_key_bits)
        created = obfuscate_dfgs(design, apportionment, working_key, seed=1)
        for variants in created.values():
            block_schedule = design.schedule.blocks[variants.block_name]
            for ops in variants.variants.values():
                assert all(0 <= op.cstep < block_schedule.n_steps for op in ops)


@functools.lru_cache(maxsize=None)
def _variant_design(bench_name: str):
    """A ``dfg``-obfuscated benchmark: its schedule and block slices."""
    bench = get_benchmark(bench_name)
    return TaoFlow(pipeline="dfg").obfuscate(bench.source, bench.top).design


def _reference_variants(block, cstep_of, key_bits, correct_value, seed, diversity):
    """Algorithm 1 written out per selector: a fresh op list for every
    selector value, seeded by its salt."""
    block_hash = zlib.crc32(block.name.encode()) & 0xFFFF
    variants = {}
    for selector in range(1 << key_bits):
        ops = _baseline_variant_ops(block, cstep_of)
        if selector != correct_value:
            distance = hamming_distance(selector, correct_value)
            salt = selector if diversity == "selector" else distance
            rng = random.Random((seed << 20) ^ (salt << 8) ^ block_hash)
            _swap_operation_types(ops, distance, rng)
            _rearrange_dependences(ops, distance, rng)
        variants[selector] = ops
    return variants


def _op_fields(op):
    """Every VariantOp field; values by identity."""
    return (
        op.opcode,
        id(op.result),
        tuple(id(operand) for operand in op.operands),
        op.cstep,
        op.array_name,
        op.slot,
    )


def _rebuilt(bench_name, diversity, seed=5):
    """``[(BlockVariants, reference)]`` for every variant block of a
    benchmark, rebuilt from its schedule under ``diversity``."""
    design = _variant_design(bench_name)
    rebuilt = []
    for name, existing in design.block_variants.items():
        block_schedule = design.schedule.blocks[name]
        common = dict(
            block=block_schedule.block,
            cstep_of=block_schedule.cstep_of,
            key_bits=existing.key_bits,
            correct_value=existing.correct_value,
            seed=seed,
            diversity=diversity,
        )
        variants = create_dfg_variants(key_offset=existing.key_offset, **common)
        rebuilt.append((variants, _reference_variants(**common)))
    assert rebuilt, f"{bench_name} has no variant blocks"
    return rebuilt


class TestDfgArms:
    """One op list per salt, shared by the selectors of that salt."""

    @pytest.mark.parametrize("diversity", ("distance", "selector"))
    @pytest.mark.parametrize("bench_name", benchmark_names())
    def test_matches_per_selector_reference(self, bench_name, diversity):
        for variants, reference in _rebuilt(bench_name, diversity):
            assert sorted(variants.variants) == sorted(reference)
            for selector, ops in reference.items():
                assert [_op_fields(op) for op in variants.variants[selector]] == [
                    _op_fields(op) for op in ops
                ]

    @pytest.mark.parametrize("bench_name", benchmark_names())
    def test_equal_distance_selectors_share_one_list(self, bench_name):
        for variants, _ in _rebuilt(bench_name, "distance"):
            arms = variants.arms()
            assert len(arms) <= variants.key_bits + 1
            assert sorted(s for selectors, _ in arms for s in selectors) == list(
                range(1 << variants.key_bits)
            )
            distances = set()
            for selectors, ops in arms:
                assert list(selectors) == sorted(selectors)
                (distance,) = {
                    hamming_distance(s, variants.correct_value) for s in selectors
                }
                distances.add(distance)
                assert all(variants.variants[s] is ops for s in selectors)
            assert len(distances) == len(arms)
            assert [selectors[0] for selectors, _ in arms] == sorted(
                selectors[0] for selectors, _ in arms
            )

    @pytest.mark.parametrize("bench_name", benchmark_names())
    def test_selector_diversity_has_one_arm_per_selector(self, bench_name):
        for variants, _ in _rebuilt(bench_name, "selector"):
            arms = variants.arms()
            assert len(arms) == 1 << variants.key_bits
            assert [selectors for selectors, _ in arms] == [
                (s,) for s in range(1 << variants.key_bits)
            ]
