"""Tests for the attack-surface evaluation (defense validation)."""

import pytest

from repro.attack import (
    brute_force_slice_with_oracle,
    key_sensitivity_analysis,
    random_key_attack,
    replication_leak_analysis,
)
from repro.sim import Testbench
from repro.tao import ObfuscationParameters, TaoFlow

SOURCE = """
int kernel(int gain, int data[6], int out[6]) {
  int acc = 11;
  for (int i = 0; i < 6; i++) {
    int v = data[i] * gain + 7;
    if (v > 30) acc += v;
    else acc -= v;
    out[i] = acc;
  }
  return acc;
}
"""

BENCH = Testbench(args=[4], arrays={"data": [2, 9, 1, 8, 3, 7]})


@pytest.fixture(scope="module")
def component():
    return TaoFlow().obfuscate(SOURCE, "kernel")


class TestRandomKeyAttack:
    def test_no_random_key_unlocks(self, component):
        result = random_key_attack(component, [BENCH], n_keys=15)
        assert not result.succeeded
        assert result.keys_unlocking == 0
        assert result.keys_tried == 15
        assert result.search_space_bits == 256

    def test_corruption_measured(self, component):
        result = random_key_attack(component, [BENCH], n_keys=10)
        assert result.average_hamming > 0.0

    def test_deterministic_per_seed(self, component):
        a = random_key_attack(component, [BENCH], n_keys=5, seed=1)
        b = random_key_attack(component, [BENCH], n_keys=5, seed=1)
        assert a.average_hamming == b.average_hamming


class TestKeySensitivity:
    def test_branch_bits_fully_sensitive(self, component):
        result = key_sensitivity_analysis(component, BENCH)
        affecting, probed = result.by_category["branch"]
        assert probed >= 1
        assert affecting == probed  # every branch bit flips behaviour

    def test_overall_sensitivity_high(self, component):
        result = key_sensitivity_analysis(component, BENCH)
        assert result.sensitivity > 0.5
        assert result.bits_probed <= 48  # sampling cap respected
        assert result.total_bits == component.working_key_bits

    def test_categories_present(self, component):
        result = key_sensitivity_analysis(component, BENCH)
        assert set(result.by_category) == {"branch", "constant", "variant"}


class TestOracleBruteForce:
    def test_branch_bit_recoverable_with_oracle(self, component):
        result = brute_force_slice_with_oracle(component, BENCH, which="branch")
        assert result.slice_bits == 1
        assert result.candidates == 2
        assert result.recovered_exactly

    def test_variant_slice_narrowed_with_oracle(self, component):
        result = brute_force_slice_with_oracle(component, BENCH, which="variant")
        assert result.slice_bits == 4
        assert result.candidates == 16
        # The oracle always keeps at least the true value consistent.
        assert 1 <= result.consistent_with_oracle <= result.candidates

    def test_unknown_category_rejected(self, component):
        with pytest.raises(ValueError, match="unknown"):
            brute_force_slice_with_oracle(component, BENCH, which="bogus")

    def test_no_branches_design_rejected(self):
        straight = TaoFlow(
            params=ObfuscationParameters(obfuscate_branches=False)
        ).obfuscate("int f(int a) { return a * 33 + 2; }", "f")
        with pytest.raises(ValueError, match="no masked branches"):
            brute_force_slice_with_oracle(
                straight, Testbench(args=[5]), which="branch"
            )


class TestReplicationLeak:
    def test_leak_reveals_replicas(self, component):
        w = component.working_key_bits
        result = replication_leak_analysis(component, [0])
        assert result.leaked_working_bits == 1
        assert result.revealed_locking_bits == 1
        # Bit 0 of the locking key backs working bits 0, 256, 512, ...
        expected = len(range(0, w, 256))
        assert result.revealed_working_bits == expected
        assert result.fanout >= 1

    def test_duplicate_leaks_deduped(self, component):
        result = replication_leak_analysis(component, [3, 3, 259])
        # 3 and 259 share locking bit 3 (mod 256).
        assert result.leaked_working_bits == 2
        assert result.revealed_locking_bits == 1

    def test_aes_scheme_rejected(self):
        component = TaoFlow(key_scheme="aes").obfuscate(SOURCE, "kernel")
        with pytest.raises(ValueError, match="replication"):
            replication_leak_analysis(component, [0])
