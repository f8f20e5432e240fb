#!/usr/bin/env python3
"""Bench trajectory: time the smoke campaign cold vs warm on disk cache.

Runs the CI smoke campaign twice in fresh subprocesses against one
``--cache-dir``: first cold (the directory is cleared), then warm.
Each run is a separate OS process, so the warm speedup measures the
persistent backend alone — no in-process L1 survives between runs.

Writes a ``BENCH_campaign.json`` document with both wall times, the
speedup, the per-tier cache counters of each run, and whether the two
result documents were byte-identical outside the telemetry block.
Exits non-zero when the warm-cache contract (zero misses, identical
result fields — see ``check_warm_cache.py``) does not hold, so the CI
bench step doubles as an acceptance gate.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from check_warm_cache import compare  # noqa: E402

#: The repo's src/ layout, resolved from this script's location so the
#: spawned ``python -m repro`` works without the caller exporting
#: PYTHONPATH.
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

SMOKE_ARGS = [
    "--benchmarks", "sobel",
    "--config", "default", "--config", "dfg-only",
    "--key-scheme", "replication", "--key-scheme", "aes",
    "--keys", "2",
]


def time_campaign(cache_dir: Path, out: Path, jobs: int, clear: bool) -> float:
    argv = [
        sys.executable, "-m", "repro", "campaign",
        *SMOKE_ARGS,
        "--jobs", str(jobs),
        "--cache-dir", str(cache_dir),
        "--cache-stats",
        "-o", str(out),
    ]
    if clear:
        argv.append("--cache-clear")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    started = time.perf_counter()
    subprocess.run(argv, check=True, env=env)
    return time.perf_counter() - started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", type=Path, default=Path("BENCH_campaign.json"))
    parser.add_argument("--cache-dir", type=Path, default=Path(".bench-cache"))
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--workdir", type=Path, default=Path("."))
    args = parser.parse_args(argv)

    cold_json = args.workdir / "bench-campaign-cold.json"
    warm_json = args.workdir / "bench-campaign-warm.json"
    cold_seconds = time_campaign(args.cache_dir, cold_json, args.jobs, clear=True)
    warm_seconds = time_campaign(args.cache_dir, warm_json, args.jobs, clear=False)

    cold = json.loads(cold_json.read_text())
    warm = json.loads(warm_json.read_text())
    problems = compare(cold, warm)

    document = {
        "bench": "campaign_smoke_cold_vs_warm",
        "args": SMOKE_ARGS,
        "jobs": args.jobs,
        "cold_seconds": round(cold_seconds, 3),
        "warm_seconds": round(warm_seconds, 3),
        "speedup": round(cold_seconds / warm_seconds, 3) if warm_seconds else None,
        "cold_cache": cold.get("cache"),
        "warm_cache": warm.get("cache"),
        "warm_contract_holds": not problems,
        "problems": problems,
    }
    args.output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(json.dumps(document, indent=2, sort_keys=True))
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
