"""Workloads and metric definitions of the campaign benchmark.

One source of truth for ``run.py``, ``spans.py`` and the self-tests:
each workload is a ``repro campaign`` argument list, and each metric
carries its unit, which direction is better and, for a per-layer
metric, the end-to-end metric and workload it should move.
``BENCHMARK.json`` at the repository root lists the same names and
units; ``test_perfbench.py`` checks that the two agree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

#: Seed used unless ``--seed`` is given.
DEFAULT_SEED = 7
#: Held-out seed: a later performance claim is re-checked on this seed,
#: which was not used while the claim was written.
HELD_OUT_SEED = 1013

#: Keys validated when a sampled unit is re-run under the ``interp``
#: reference engine.  Wrong keys are drawn in sequence from the unit
#: seed, so these trials are a prefix of the measured run's trials.
INTERP_KEYS = 4

BENCHMARKS = ("gsm", "adpcm", "sobel", "backprop", "viterbi")
STAGES = ("constants", "branches", "dfg", "roms")
ATTACKS = ("oracle-guided", "hill-climb", "resistance-curve")

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128


def _repeat(flag: str, values) -> list[str]:
    return [part for value in values for part in (flag, value)]


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: a cold campaign, run one at a time."""

    name: str
    why: str
    args: tuple[str, ...]
    #: Small version of ``args`` for the self-test smoke run.
    tiny_args: tuple[str, ...]
    #: Units re-run under the ``interp`` reference engine per invocation.
    interp_sample: int = 1
    #: Give every campaign run its own empty ``--cache-dir``.
    fresh_cache_dir: bool = False

    def campaign_args(self, tiny: bool = False) -> list[str]:
        return list(self.tiny_args if tiny else self.args)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="keys-deep",
            why="one viterbi unit, full pipeline, 100 keys: key-trial simulation and "
            "the nested key pool dominate; nearly every wrong key runs to the cycle cap",
            args=("--benchmarks", "viterbi", "--pipeline", "full", "--keys", "100"),
            tiny_args=("--benchmarks", "sobel", "--pipeline", "dfg", "--keys", "3"),
        ),
        Workload(
            name="sweep-wide",
            why="40 units (5 kernels x full and full-rom pipelines x 2 key schemes x "
            "2 budgets) at 2 keys on an empty L2 cache: per-unit build cost dominates",
            args=(
                "--benchmarks", "all",
                *_repeat("--pipeline", ("full", "full-rom")),
                *_repeat("--key-scheme", ("replication", "aes")),
                *_repeat("--budget", ("default", "tight")),
                "--keys", "2",
            ),
            tiny_args=(
                "--benchmarks", "sobel",
                *_repeat("--pipeline", ("dfg", "constants")),
                "--keys", "2",
            ),
            interp_sample=2,
            fresh_cache_dir=True,
        ),
        Workload(
            name="attack-mix",
            why="gsm x dfg and full pipelines x three attacks at 2 keys: many small "
            "and single-lane simulations, cycle-cap timeouts, unequal units",
            args=(
                "--benchmarks", "gsm",
                *_repeat("--pipeline", ("dfg", "full")),
                *_repeat("--attack", ATTACKS),
                "--keys", "2",
            ),
            tiny_args=(
                "--benchmarks", "sobel", "--pipeline", "dfg",
                "--attack", "resistance-curve", "--keys", "2",
            ),
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end bound (share of the parent's median); ``None`` for
    #: per-layer metrics, which have no bound.
    bound: float | None = None
    #: Per-layer only: the end-to-end metric(s) this layer should move...
    moves: tuple[str, ...] = ()
    #: ...and on which workload(s).
    on: tuple[str, ...] = ()
    description: str = ""


END_TO_END: tuple[Metric, ...] = (
    Metric("campaign_s", "s", "lower", 0.24,
           description="process spawn to campaign JSON written"),
    Metric("setup_s", "s", "lower", 0.25,
           description="process spawn to plan ready (imports, registry, plan)"),
    Metric("trials_per_s", "1/s", "higher", 0.24,
           description="key trials (validation + attack) per campaign second"),
    Metric("cpu_s", "s", "lower", 0.24,
           description="user + sys CPU of the whole process tree"),
    Metric("peak_rss_mb", "MB", "lower", 0.1,
           description="largest resident set of any process in the tree"),
)

ALL = tuple(WORKLOADS)
SWEEP = ("sweep-wide",)
KEYS = ("keys-deep",)
ATTACK = ("attack-mix",)
SIM = ("keys-deep", "attack-mix")
UNITS = ("attack-mix", "sweep-wide")


def _layer(name, unit, better, moves, on, description=""):
    return Metric(name, unit, better, None, tuple(moves), tuple(on), description)


PER_LAYER: tuple[Metric, ...] = (
    _layer("setup.import_s", "s", "lower", ["setup_s"], ALL,
           "spawn to plan_campaign entry: interpreter, imports, CLI checks"),
    _layer("runtime.plan_s", "s", "lower", ["setup_s"], ALL, "plan_campaign"),
    _layer("frontend.compile_s", "s", "lower", ["campaign_s", "cpu_s"], SWEEP, "compile_c"),
    _layer("opt.optimize_s", "s", "lower", ["campaign_s", "cpu_s"], SWEEP, "optimize_module"),
    _layer("frontend.calls", "count", "lower", ["campaign_s", "cpu_s"], SWEEP,
           "front-end cache lookups"),
    _layer("frontend.cache_hit_ratio", "ratio", "higher", ["campaign_s", "cpu_s"], SWEEP,
           "lookups served without compiling"),
    _layer("hls.synthesize_s", "s", "lower", ["campaign_s", "cpu_s"], SWEEP,
           "synthesize_function"),
    _layer("hls.calls", "count", "lower", ["campaign_s", "cpu_s"], SWEEP),
    *(
        _layer(f"tao.stage.{stage}_s", "s", "lower", ["campaign_s", "cpu_s"], SWEEP,
               f"{stage} stage apply")
        for stage in STAGES
    ),
    _layer("tao.obfuscate_self_s", "s", "lower", ["campaign_s", "cpu_s"], SWEEP,
           "TaoFlow.obfuscate minus its children: apportionment, key management"),
    _layer("sim.build_s", "s", "lower", ["campaign_s", "cpu_s", "peak_rss_mb"], SWEEP,
           "first compiled_for/codegen_for per design"),
    _layer("sim.builds", "count", "lower", ["campaign_s", "cpu_s", "peak_rss_mb"], SWEEP),
    *(
        _layer(f"sim.build_s.{bench}", "s", "lower", ["campaign_s", "cpu_s"], SWEEP)
        for bench in BENCHMARKS
    ),
    _layer("sim.batch_s", "s", "lower", ["campaign_s", "trials_per_s"], SIM,
           "self time of simulate_batch"),
    _layer("sim.batches", "count", "lower", ["campaign_s", "trials_per_s"], SIM),
    _layer("sim.lanes_per_batch", "lanes", "higher", ["campaign_s", "trials_per_s"], SIM),
    _layer("sim.single_lane_share", "ratio", "lower", ["campaign_s", "trials_per_s"], SIM),
    _layer("sim.cycles_per_s", "cycles/s", "higher", ["campaign_s", "trials_per_s"], SIM,
           "simulated FSMD cycles per host second inside simulate_batch"),
    _layer("cache.golden_s", "s", "lower", ["campaign_s", "trials_per_s"], KEYS,
           "self time of GoldenCache.golden_for incl. golden_fingerprint"),
    _layer("cache.golden_lookups", "count", "lower", ["campaign_s"], KEYS),
    _layer("cache.golden_hit_ratio", "ratio", "higher", ["campaign_s"], KEYS),
    _layer("cache.l2_load_s", "s", "lower", ["campaign_s", "cpu_s"], SWEEP,
           "DiskCacheBackend.load"),
    _layer("cache.l2_store_s", "s", "lower", ["campaign_s", "cpu_s"], SWEEP,
           "DiskCacheBackend.store"),
    _layer("cache.l2_loads", "count", "lower", ["campaign_s"], SWEEP),
    _layer("cache.l2_stores", "count", "lower", ["campaign_s"], SWEEP),
    _layer("metrics.validate_self_s", "s", "lower", ["campaign_s", "trials_per_s"], KEYS,
           "validate_component minus its children"),
    _layer("metrics.trials_self_s", "s", "lower", ["campaign_s", "trials_per_s"], KEYS,
           "run_key_trials minus its children: bit vectors, Hamming distance"),
    _layer("metrics.key_trials", "count", "higher", ["trials_per_s"], KEYS),
    _layer("runtime.key_pool_s", "s", "lower", ["campaign_s", "cpu_s"], KEYS,
           "parallel_map wall time incl. fork and pickling"),
    _layer("runtime.key_pools", "count", "lower", ["campaign_s", "cpu_s"], KEYS),
    _layer("runtime.unit_p50_s", "s", "lower", ["campaign_s"], UNITS,
           "median per-unit span measured in the worker"),
    _layer("runtime.unit_p90_s", "s", "lower", ["campaign_s"], UNITS),
    _layer("runtime.worker_busy_share", "ratio", "higher", ["campaign_s"], UNITS,
           "sum of unit spans / (jobs x execute_plan wall)"),
    *(
        _layer(f"attack.{attack}_s", "s", "lower", ["campaign_s", "trials_per_s"], ATTACK)
        for attack in ATTACKS
    ),
    _layer("attack.simulated_trials", "count", "lower", ["trials_per_s"], ATTACK),
    _layer("attack.oracle_queries", "count", "lower", ["campaign_s"], ATTACK),
    _layer("results.serialize_s", "s", "lower", ["campaign_s"], ("keys-deep", "sweep-wide"),
           "CampaignResult.write"),
    _layer("results.json_bytes", "bytes", "lower", ["campaign_s"], ("keys-deep", "sweep-wide")),
    _layer("trace.overhead_s", "s", "lower", [], ALL,
           "traced minus untraced campaign_s (not a layer: the cost of tracing)"),
)
