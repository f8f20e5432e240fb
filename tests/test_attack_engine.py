"""Tests for the attack-engine subsystem (repro.attack): the result
contract and its validating funnel, the oracle-guided key-recovery
attacker (including the paper's central pruning asymmetry), the
hill-climbing attacker, brute-force resistance curves, and the
``repro.api`` facade over them."""

import json

import pytest

from repro.attack import (
    AttackResultError,
    attack_names,
    hill_climb_attack,
    inapplicable,
    oracle_guided_attack,
    partition_key_bits,
    resistance_curve,
    run_attack,
    validate_attack_result,
    zero_cost,
)
from repro.attack.oracle_guided import (
    CONVERGED,
    POPULATION_REFUTED,
    TRACTABLE_SLICE_BITS,
)
from repro.sim import Testbench
from repro.tao import ObfuscationParameters
from repro.tao.flow import obfuscate_source

# One straight-line block, 8-bit selector, 256 variants: under the
# dfg-only pipeline the tractable bits are the WHOLE working key and a
# 256-candidate pool encloses the true key; under the full pipeline
# two 32-bit constant slices dwarf them (see TestPruningAsymmetry).
SOURCE = "int kernel(int a, int b) { int x = a * 3 + b; int y = x * x - a; return y + 7; }"
PARAMS = ObfuscationParameters(block_bits=8, max_variants_per_block=256)
BENCHES = [Testbench(args=[3, 5]), Testbench(args=[-2, 9])]


@pytest.fixture(scope="module")
def dfg_component():
    return obfuscate_source(SOURCE, "kernel", params=PARAMS, pipeline="dfg")


@pytest.fixture(scope="module")
def full_component():
    return obfuscate_source(SOURCE, "kernel", params=PARAMS, pipeline="full")


class TestResultContract:
    def _valid(self):
        return {
            "name": "probe",
            "applicable": True,
            "cost": {"oracle_queries": 1, "simulated_trials": 2, "iterations": 3},
            "outcome": {"value": 1},
        }

    def test_valid_result_passes_through(self):
        result = self._valid()
        assert validate_attack_result("probe", result) is result

    def test_inapplicable_helper_is_valid(self):
        block = inapplicable("probe", "no key bits")
        assert validate_attack_result("probe", block) is block
        assert block["cost"] == zero_cost()
        assert block["outcome"] == {}

    def test_non_dict_rejected(self):
        with pytest.raises(AttackResultError, match="expected a dict"):
            validate_attack_result("probe", [1, 2])

    def test_name_must_echo(self):
        result = self._valid()
        result["name"] = "other"
        with pytest.raises(AttackResultError, match="must echo the registered"):
            validate_attack_result("probe", result)

    def test_applicable_must_be_bool(self):
        result = self._valid()
        result["applicable"] = 1
        with pytest.raises(AttackResultError, match="must be a bool"):
            validate_attack_result("probe", result)

    def test_missing_cost_counter_rejected(self):
        result = self._valid()
        del result["cost"]["iterations"]
        with pytest.raises(AttackResultError, match="iterations"):
            validate_attack_result("probe", result)

    def test_negative_and_bool_counters_rejected(self):
        result = self._valid()
        result["cost"]["oracle_queries"] = -1
        with pytest.raises(AttackResultError, match="non-negative"):
            validate_attack_result("probe", result)
        result["cost"]["oracle_queries"] = True
        with pytest.raises(AttackResultError, match="non-negative"):
            validate_attack_result("probe", result)

    def test_inapplicable_needs_reason(self):
        result = self._valid()
        result["applicable"] = False
        with pytest.raises(AttackResultError, match="reason"):
            validate_attack_result("probe", result)

    def test_unserializable_outcome_rejected(self):
        result = self._valid()
        result["outcome"]["bad"] = object()
        with pytest.raises(AttackResultError, match="not JSON-serializable"):
            validate_attack_result("probe", result)

    def test_nan_rejected(self):
        result = self._valid()
        result["outcome"]["bad"] = float("nan")
        with pytest.raises(AttackResultError, match="not JSON-serializable"):
            validate_attack_result("probe", result)

    def test_funnel_rejects_garbage_plugin(self, dfg_component):
        """A plugin attack returning an ad-hoc dict fails loudly at the
        run_attack funnel instead of serializing into campaigns."""
        from repro.registry import REGISTRY

        name = "garbage-probe"
        REGISTRY.register(
            "attack", name, lambda c, b, *, seed=0, engine=None: {"hit": 1}
        )
        try:
            with pytest.raises(AttackResultError, match="garbage-probe"):
                run_attack(name, dfg_component, BENCHES)
        finally:
            REGISTRY.unregister("attack", name)

    def test_every_builtin_is_registered(self):
        names = attack_names()
        for name in (
            "random-key",
            "key-sensitivity",
            "slice-brute-force",
            "replication-leak",
            "oracle-guided",
            "hill-climb",
            "resistance-curve",
        ):
            assert name in names


class TestKeyBitPartition:
    def test_dfg_pipeline_fully_tractable(self, dfg_component):
        partition = partition_key_bits(dfg_component)
        assert partition.intractable == []
        assert len(partition.tractable) == dfg_component.working_key_bits
        assert len(partition.tractable) == 8

    def test_full_pipeline_constants_intractable(self, full_component):
        partition = partition_key_bits(full_component)
        config = full_component.design.key_config
        constant_bits = sum(width for _, width in config.constant_slices)
        assert constant_bits > TRACTABLE_SLICE_BITS
        assert len(partition.intractable) >= constant_bits
        assert len(partition.tractable) == 8
        # Partition covers the whole layout exactly once.
        combined = sorted(partition.tractable + partition.intractable)
        assert combined == list(range(config.working_key_bits))


class TestPruningAsymmetry:
    """The acceptance pair: a 256-candidate pool prunes >= 90 % when
    only the DFG is obfuscated and ~0 % against the full pipeline."""

    def test_unobfuscated_constants_cell_prunes(self, dfg_component):
        result = oracle_guided_attack(
            dfg_component, BENCHES, pool_size=256, max_queries=8, seed=1
        )
        assert result.pool_size == 256  # exhaustive enumeration
        assert result.pool_pruned_fraction >= 0.90
        assert result.stall_reason == CONVERGED
        assert result.key_recovered
        assert result.recovered_bits == 8
        assert result.informative_queries >= 1
        # The keys-eliminated-per-query curve is monotone in survivors.
        survivors = [entry["survivors"] for entry in result.curve]
        assert survivors == sorted(survivors, reverse=True)
        assert sum(e["eliminated"] for e in result.curve) == 256 - result.survivors

    def test_full_pipeline_refutes_population(self, full_component):
        result = oracle_guided_attack(
            full_component, BENCHES, pool_size=256, max_queries=8, seed=1
        )
        assert result.pool_pruned_fraction == 0.0
        assert result.stall_reason == POPULATION_REFUTED
        assert not result.key_recovered
        assert result.recovered_bits == 0
        assert result.informative_queries == 0
        assert result.refuted_queries >= 1
        # Refuted queries still cost oracle access.
        assert result.oracle_queries == result.refuted_queries

    def test_deterministic_and_engine_independent(self, dfg_component):
        runs = [
            oracle_guided_attack(
                dfg_component, BENCHES, pool_size=64, max_queries=4,
                seed=5, engine=engine,
            )
            for engine in ("compiled", "interp", "codegen")
        ]
        blobs = {json.dumps(r.__dict__, sort_keys=True) for r in runs}
        assert len(blobs) == 1

    def test_constants_only_cell_is_inapplicable(self):
        """A constants-only pipeline leaves no tractable bits to
        enumerate: the adapter degrades to an inapplicable block
        instead of raising into the campaign."""
        component = obfuscate_source(
            SOURCE, "kernel", params=PARAMS, pipeline="constants"
        )
        partition = partition_key_bits(component)
        assert partition.tractable == []
        result = run_attack("oracle-guided", component, BENCHES)
        assert result["applicable"] is False
        assert "tractable" in result["reason"]
        assert result["cost"] == zero_cost()


class TestHillClimb:
    def test_walk_descends_and_is_deterministic(self, dfg_component):
        a = hill_climb_attack(
            dfg_component, BENCHES, restarts=2, max_rounds=4, seed=3
        )
        b = hill_climb_attack(
            dfg_component, BENCHES, restarts=2, max_rounds=4, seed=3
        )
        assert a == b
        assert a.restarts == 2
        assert len(a.trajectories) == 2
        for trajectory in a.trajectories:
            # Every accepted move is a strict improvement.
            assert all(
                later < earlier
                for earlier, later in zip(trajectory, trajectory[1:])
            )
        assert a.best_hamming == min(min(t) for t in a.trajectories)

    def test_no_gradient_on_full_pipeline(self, full_component):
        """TAO's flat corruption margin leaves the climber far from
        the key: §4.3's no-usable-gradient claim."""
        result = hill_climb_attack(
            full_component, BENCHES, restarts=2, max_rounds=4, seed=3
        )
        assert not result.recovered
        assert result.best_hamming > 0.0
        assert result.best_key_distance > 0

    def test_restart_validation(self, dfg_component):
        with pytest.raises(ValueError, match="at least one restart"):
            hill_climb_attack(dfg_component, BENCHES, restarts=0)


class TestResistanceCurve:
    def test_cdf_shape_and_coverage(self, full_component):
        result = resistance_curve(full_component, BENCHES, n_trials=32, seed=2)
        assert result.keys_tried == 32
        assert result.keys_unlocking == 0  # no wrong key unlocks (§4.3)
        assert result.cdf_edges[0] == 0.0
        assert result.cdf_edges[-1] == 1.0
        assert result.cdf[-1] == 1.0
        # CDF is monotone non-decreasing.
        assert all(a <= b for a, b in zip(result.cdf, result.cdf[1:]))
        # Coverage exponent is deeply negative: 32 keys of a 2^K space.
        assert result.coverage_log2 == pytest.approx(
            5 - full_component.locking_key.width
        )
        assert 0.0 < result.mean_corruption <= 1.0

    def test_lane_layout_invariance(self, full_component, monkeypatch):
        baseline = resistance_curve(full_component, BENCHES, n_trials=16, seed=2)
        monkeypatch.setenv("REPRO_KEY_BATCH_LANES", "3")
        skinny = resistance_curve(full_component, BENCHES, n_trials=16, seed=2)
        assert baseline == skinny

    def test_trial_validation(self, full_component):
        with pytest.raises(ValueError, match="at least one wrong key"):
            resistance_curve(full_component, BENCHES, n_trials=0)


class TestAdapters:
    @pytest.mark.parametrize(
        "name", ["oracle-guided", "hill-climb", "resistance-curve"]
    )
    def test_contract_shape_and_serializability(self, dfg_component, name):
        result = run_attack(name, dfg_component, BENCHES, seed=1)
        assert result["name"] == name
        assert result["applicable"] is True
        assert set(result["cost"]) == {
            "oracle_queries", "simulated_trials", "iterations",
        }
        json.dumps(result, allow_nan=False)  # round-trips

    def test_oracle_guided_reports_curve(self, dfg_component):
        result = run_attack("oracle-guided", dfg_component, BENCHES, seed=1)
        outcome = result["outcome"]
        assert outcome["pool_size"] >= 1
        assert len(outcome["curve"]) == result["cost"]["oracle_queries"]
        assert result["cost"]["simulated_trials"] >= outcome["pool_size"]

    def test_resistance_curve_is_oracle_free(self, dfg_component):
        result = run_attack("resistance-curve", dfg_component, BENCHES, seed=1)
        assert result["cost"]["oracle_queries"] == 0


class TestApiFacade:
    def test_api_facade_exposes_attack_entry_points(self):
        from repro import api

        assert api.run_attack is run_attack
        assert api.attack_names is attack_names
        assert api.validate_attack_result is validate_attack_result
