#!/usr/bin/env python3
"""BENCH trajectory: FSMD key-validation cost per engine, with the
build and the steady state reported separately.

Times the §4.3 key-validation cell (default: sobel, viterbi and gsm,
20 keys, one workload) under every simulation engine (``interp``, the
reference interpreter; ``compiled``, closure plans; ``codegen``, the
generated default engine), each ``(benchmark, engine)`` pair in a
**fresh subprocess** so no run benefits from another's in-process
caches (compiled plans, generated code, golden L1).  Inside each child
the golden software model is interpreted and cached *before* the
clock starts.  The child then times:

* ``build_seconds`` — the engine's one-off per-design build (closure
  lowering for compiled; code emission plus ``compile()`` for codegen;
  zero for the interpreter);
* ``steady_seconds`` — the median of ``--repeat`` (default 3)
  validation runs on the built engine;
* ``cold_seconds`` — build plus the first validation run: what a
  fresh process pays for the cell.

Writes a ``BENCH_sim.json`` document with one block per benchmark:
per-engine timings, steady trials/second and simulated cycles/second,
the speedups of each fast engine over the interpreter
(``speedup_steady`` and ``speedup_cold``, keyed by engine), and
whether all engines produced field-identical validation reports
(``reports_identical`` — the determinism contract; the run fails when
any engine diverges, so the CI bench step doubles as a parity gate).
``--min-speedup`` optionally fails the run when the default engine's
steady speedup on the first benchmark undershoots a floor.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

ENGINES = ("interp", "compiled", "codegen")
FAST_ENGINES = ENGINES[1:]


def run_child(benchmark: str, engine: str, args: argparse.Namespace) -> dict:
    argv = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        "--engine", engine,
        "--benchmark", benchmark,
        "--keys", str(args.keys),
        "--workloads", str(args.workloads),
        "--seed", str(args.seed),
        "--repeat", str(args.repeat),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    # The child resolves its engine from the explicit flag; a stray
    # REPRO_SIM_ENGINE in the benching environment must not leak in.
    env.pop("REPRO_SIM_ENGINE", None)
    completed = subprocess.run(
        argv, check=True, env=env, stdout=subprocess.PIPE, text=True
    )
    return json.loads(completed.stdout)


def child_main(args: argparse.Namespace) -> int:
    from repro.benchsuite import get_benchmark
    from repro.runtime.cache import GOLDEN_CACHE
    from repro.runtime.results import report_to_dict
    from repro.sim import codegen_for, compiled_for
    from repro.sim.testbench import default_observed_arrays
    from repro.tao.flow import TaoFlow
    from repro.tao.metrics import validate_component

    benchmark = args.benchmark[0]  # --benchmark appends; a child gets one
    bench = get_benchmark(benchmark)
    component = TaoFlow(pipeline="full").obfuscate(bench.source, bench.top)
    workloads = bench.make_testbenches(seed=args.seed, count=args.workloads)
    # Warm the golden model outside the timed region: its one-off
    # interpretation cost is engine-independent and would otherwise
    # dilute the engine comparison.
    design = component.design
    observed = default_observed_arrays(design.module, design.func.name)
    for workload in workloads:
        GOLDEN_CACHE.golden_for(design, workload, observed)

    builders = {"compiled": compiled_for, "codegen": codegen_for}
    started = time.perf_counter()
    if args.engine in builders:
        builders[args.engine](design)
    build = time.perf_counter() - started

    seconds: list[float] = []
    report_hashes: set[str] = set()
    trials = 0
    cycles = 0
    for _ in range(max(1, args.repeat)):
        started = time.perf_counter()
        report = validate_component(
            component,
            workloads,
            n_keys=args.keys,
            seed=args.seed,
            jobs=1,
            engine=args.engine,
        )
        seconds.append(time.perf_counter() - started)
        trials = report.n_keys
        cycles = sum(trial.cycles for trial in report.trials)
        report_json = json.dumps(report_to_dict(report), sort_keys=True)
        report_hashes.add(
            hashlib.sha256(report_json.encode("utf-8")).hexdigest()
        )
    assert len(report_hashes) == 1, "repetitions diverged"
    steady = statistics.median(seconds)
    print(
        json.dumps(
            {
                "engine": args.engine,
                "build_seconds": round(build, 4),
                "steady_seconds": round(steady, 4),
                "steady_seconds_all": [round(s, 4) for s in seconds],
                "cold_seconds": round(build + seconds[0], 4),
                "trials": trials,
                "simulated_cycles": cycles,
                "trials_per_second": round(trials / steady, 2),
                "cycles_per_second": round(cycles / steady, 1),
                "report_sha256": report_hashes.pop(),
            }
        )
    )
    return 0


def bench_one(benchmark: str, args: argparse.Namespace) -> dict:
    engines = {
        engine: run_child(benchmark, engine, args) for engine in ENGINES
    }

    def speedups(field: str) -> dict[str, float | None]:
        baseline = engines["interp"][field]
        return {
            engine: round(baseline / engines[engine][field], 3)
            if engines[engine][field]
            else None
            for engine in FAST_ENGINES
        }

    hashes = {e: engines[e]["report_sha256"] for e in ENGINES}
    return {
        "engines": engines,
        "speedup_steady": speedups("steady_seconds"),
        "speedup_cold": speedups("cold_seconds"),
        "reports_identical": len(set(hashes.values())) == 1,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--engine", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--benchmark", action="append", default=None,
                        help="benchmark column(s); default sobel + viterbi + gsm")
    parser.add_argument("--keys", type=int, default=20)
    parser.add_argument("--workloads", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed repetitions per child; median = steady state")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail when the first benchmark's steady codegen/interp "
        "speedup is below this floor",
    )
    parser.add_argument(
        "-o", "--output", type=Path, default=Path("BENCH_sim.json")
    )
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)

    benchmarks = args.benchmark or ["sobel", "viterbi", "gsm"]
    results = {name: bench_one(name, args) for name in benchmarks}
    document = {
        "bench": "sim_key_validation_throughput",
        "benchmarks": results,
        "keys": args.keys,
        "workloads": args.workloads,
        "seed": args.seed,
        "repeat": args.repeat,
        "reports_identical": all(
            r["reports_identical"] for r in results.values()
        ),
    }
    args.output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(json.dumps(document, indent=2, sort_keys=True))
    if not document["reports_identical"]:
        print(
            "FAIL: engines produced different validation reports",
            file=sys.stderr,
        )
        return 1
    speedup = results[benchmarks[0]]["speedup_steady"]["codegen"]
    if args.min_speedup is not None and (
        speedup is None or speedup < args.min_speedup
    ):
        print(
            f"FAIL: speedup {speedup} below floor "
            f"{args.min_speedup}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
