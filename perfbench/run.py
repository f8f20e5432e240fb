"""Campaign benchmark: cold ``repro campaign`` runs, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload keys-deep --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Each campaign runs as a fresh process through the real CLI entry point
(``campaign_child.py``), with the shipped defaults: no ``--engine``, no
``--key-batch-lanes``, and ``REPRO_SIM_ENGINE``, ``REPRO_KEY_BATCH_LANES``,
``REPRO_JOBS`` and ``REPRO_CACHE_DIR`` removed from its environment.
The loop is closed: one campaign at a time.  Workloads are defined in
``workloads.py``; the workload seed is the campaign's ``--seed``
(default ``workloads.DEFAULT_SEED``; re-check a performance claim on
``workloads.HELD_OUT_SEED``, which was not used while writing it).

``--trace 0`` runs campaigns, each after two plan-only processes that
sample set-up time, until ``--seconds`` are used (at least three
campaigns), and reports the median of each end-to-end metric.  ``--trace 1`` alternates untraced and
traced campaigns and reports the per-layer metrics of the traced ones
(medians), the tracing overhead, a per-layer table and a Chrome
trace-event file under ``.perfbench_work/traces/``.

Every run is checked: every unit ``ok``, the correct key reproduces the
golden outputs, every wrong key corrupts them, the trial count equals
the keys requested and every attack block passes
``repro.api.validate_attack_result``.  Outside the timed region a seeded
sample of units is re-run under the ``interp`` reference engine, with at
most ``INTERP_KEYS`` keys and no attacks, and must match the measured
units field for field (trial by trial when the keys are fewer), and every campaign JSON of the invocation,
traced or not, must be identical apart from its ``cache`` block.  The
last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (units) and ``metrics``.  The exit code is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import spans
from workloads import (
    DEFAULT_SEED,
    END_TO_END,
    INTERP_KEYS,
    PER_LAYER,
    WORKLOADS,
    Workload,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "campaign_child.py"

#: Environment variables that would override the shipped defaults.
SCRUBBED_ENV = ("REPRO_SIM_ENGINE", "REPRO_KEY_BATCH_LANES", "REPRO_JOBS", "REPRO_CACHE_DIR")
#: Plan-only processes before each untraced campaign; with the
#: campaigns they give the set-up samples.
PROBES_PER_RUN = 2
MIN_RUNS = 3
#: Seconds one workload may take in total, and the grace a stopped
#: campaign gets to stop its workers; the caller allows 180 in all.
DEADLINE_S = 160.0
STOP_GRACE_S = 10.0


class BenchmarkError(Exception):
    """A campaign process crashed, hung or left no result."""


@dataclass
class Run:
    """One cold campaign process and what it produced."""

    spawn_ns: int
    stamps: dict[str, Any]
    cpu_s: float
    peak_rss_mb: float
    doc: Optional[dict[str, Any]] = None
    trace_dir: Optional[Path] = None

    @property
    def setup_s(self) -> float:
        return (self.stamps["plan_ready_ns"] - self.spawn_ns) / 1e9

    @property
    def campaign_s(self) -> float:
        return (self.stamps["written_ns"] - self.spawn_ns) / 1e9


@dataclass
class Checked:
    """Output-check tally of one invocation."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str, units: int = 1) -> None:
        self.failed += units
        self.problems.append(message)


def _flag_values(args: list[str], flag: str) -> list[str]:
    return [args[i + 1] for i, arg in enumerate(args[:-1]) if arg == flag]


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def digest(doc: dict[str, Any]) -> str:
    """Hash of a campaign document, ignoring its ``cache`` telemetry."""
    body = {k: v for k, v in doc.items() if k != "cache"}
    text = json.dumps(body, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


def trial_count(doc: dict[str, Any]) -> int:
    """Validation trials x workloads, plus every attack's simulated trials."""
    workloads = doc["spec"].get("n_workloads", 1)
    total = 0
    for unit in doc["units"]:
        total += unit.get("report", {}).get("n_keys", 0) * workloads
        for block in unit.get("attacks", {}).values():
            total += block["cost"]["simulated_trials"]
    return total


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Spawns campaign processes for one workload invocation."""

    def __init__(self, scratch: Path, deadline: float) -> None:
        self.scratch = scratch
        self.deadline = deadline
        self.count = 0
        self.log = scratch / "campaigns.log"

    def spawn(
        self,
        campaign_args: list[str],
        *,
        plan_only: bool = False,
        trace: bool = False,
        fresh_cache_dir: bool = False,
    ) -> Run:
        self.count += 1
        n = self.count
        stamps_path = self.scratch / f"stamps-{n}.json"
        output = self.scratch / f"campaign-{n}.json"
        command = [sys.executable, str(CHILD), "--stamps", str(stamps_path)]
        trace_dir = None
        if trace:
            trace_dir = self.scratch / f"spans-{n}"
            command += ["--trace-dir", str(trace_dir)]
        if plan_only:
            command.append("--plan-only")
        command += ["--", *campaign_args, "-o", str(output)]
        if fresh_cache_dir:
            command += ["--cache-dir", str(self.scratch / f"cache-{n}")]
        with open(self.log, "a") as log:
            log.write(f"$ {' '.join(command)}\n")
            log.flush()
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            spawn_ns = time.monotonic_ns()
            process = subprocess.Popen(
                command,
                cwd=ROOT,
                env=child_env(),
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            status, usage = self._reap(process)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if status != 0:
            raise BenchmarkError(
                f"campaign process exited with {status}: {' '.join(campaign_args)}\n"
                + self.log.read_text()[-4000:]
            )
        stamps = json.loads(stamps_path.read_text())
        run = Run(
            spawn_ns=spawn_ns,
            stamps=stamps,
            cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
            # wait4 reports the largest RSS over the reaped process tree (KiB).
            peak_rss_mb=usage.ru_maxrss / 1024,
            trace_dir=trace_dir,
        )
        if not plan_only:
            run.doc = json.loads(output.read_text())
            output.unlink()
        if fresh_cache_dir:
            shutil.rmtree(self.scratch / f"cache-{n}", ignore_errors=True)
        return run

    @staticmethod
    def _stop(process: subprocess.Popen) -> None:
        """SIGTERM (the child then stops its workers), SIGKILL if it lingers."""
        os.killpg(process.pid, signal.SIGTERM)
        try:
            process.wait(timeout=STOP_GRACE_S)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()

    def _reap(self, process: subprocess.Popen):
        """Wait for ``process``; kill its session at the deadline."""
        while True:
            pid, status, usage = os.wait4(process.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > self.deadline:
                self._stop(process)
                raise BenchmarkError(
                    f"campaign process stopped after the {DEADLINE_S:.0f} s budget"
                )
            time.sleep(0.01)
        process.returncode = os.waitstatus_to_exitcode(status)
        return process.returncode, usage


def check_document(run: Run, args: list[str], tally: Checked) -> None:
    """Output checks of one campaign document (see the module docstring)."""
    from repro.api import validate_attack_result

    keys = int(_flag_values(args, "--keys")[0])
    attacks = _flag_values(args, "--attack")
    units = run.doc.get("units", [])
    planned = run.stamps["units"]
    tally.attempted += planned
    if len(units) != planned:
        tally.fail(f"{len(units)} units in the campaign JSON, {planned} planned",
                   units=abs(planned - len(units)))
    for unit in units:
        label = "/".join(str(unit.get(k)) for k in ("benchmark", "key_scheme", "budget", "pipeline"))
        report = unit.get("report") or {}
        problem = None
        if unit.get("status") != "ok":
            problem = f"status {unit.get('status')}: {unit.get('error')}"
        elif report.get("correct_key_ok") is not True:
            problem = "the correct key does not reproduce the golden outputs"
        elif report.get("wrong_keys_all_corrupt") is not True:
            problem = "a wrong key reproduces the golden outputs"
        elif report.get("n_keys") != keys or len(report.get("trials", [])) != keys:
            problem = f"{report.get('n_keys')} trials, {keys} keys requested"
        elif sorted(unit.get("attacks", {})) != sorted(attacks):
            problem = f"attack blocks {sorted(unit.get('attacks', {}))}, expected {sorted(attacks)}"
        else:
            for name, block in unit.get("attacks", {}).items():
                try:
                    validate_attack_result(name, block)
                except ValueError as error:
                    problem = str(error)
        if problem:
            tally.fail(f"{label}: {problem}")


def interp_check(
    runner: Runner, wl: Workload, seed: int, args: list[str], doc: dict[str, Any], tally: Checked
) -> int:
    """Re-run a seeded sample of units under ``interp``; return units checked."""
    keys = int(_flag_values(args, "--keys")[0])
    reference_keys = min(keys, INTERP_KEYS)
    candidates = [unit for unit in doc["units"] if unit.get("status") == "ok"]
    sample = random.Random(seed).sample(candidates, min(wl.interp_sample, len(candidates)))
    for unit in sample:
        run = runner.spawn(
            [
                "--benchmarks", unit["benchmark"],
                "--config", unit["config"],
                "--key-scheme", unit["key_scheme"],
                "--budget", unit["budget"],
                "--pipeline", unit["pipeline"],
                "--keys", str(reference_keys),
                "--seed", str(seed),
                "--engine", "interp",
                "--jobs", "1",
            ]
        )
        reference = run.doc["units"][0]
        tally.attempted += 1
        label = f"interp {unit['benchmark']}/{unit['key_scheme']}/{unit['budget']}/{unit['pipeline']}"
        # Attacks are not re-run: they are checked by contract and determinism.
        fields = [k for k in sorted(set(unit) | set(reference)) if k not in ("report", "attacks")]
        differing = [k for k in fields if unit.get(k) != reference.get(k)]
        measured, expected = unit["report"], reference["report"]
        if reference_keys == keys:
            same_report = measured == expected
        else:
            same_report = measured["trials"][:reference_keys] == expected["trials"] and all(
                measured[k] == expected[k]
                for k in ("component_name", "correct_key_ok", "baseline_cycles")
            )
        if differing or not same_report:
            tally.fail(f"{label}: differs from the measured run in {differing or ['report']}")
    return len(sample)


def bench_workload(
    wl: Workload, seed: int, seconds: float, trace: bool, tiny: bool
) -> tuple[dict[str, float], Checked]:
    deadline = time.monotonic() + DEADLINE_S
    args = wl.campaign_args(tiny) + ["--seed", str(seed)]
    tally = Checked()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as scratch:
        runner = Runner(Path(scratch), deadline)

        def campaign(traced: bool = False) -> Run:
            run = runner.spawn(args, trace=traced, fresh_cache_dir=wl.fresh_cache_dir)
            check_document(run, args, tally)
            return run

        # Untimed: the first process writes the bytecode caches.
        runner.spawn(args, plan_only=True, fresh_cache_dir=wl.fresh_cache_dir)
        probes: list[Run] = []
        untraced: list[Run] = []
        traced: list[Run] = []
        rounds: list[float] = []
        started = time.monotonic()
        # Set-up probes are spread over the measuring window, between the
        # campaigns, so that slow drifts of the host touch both alike.
        while len(rounds) < (1 if trace else MIN_RUNS) or (
            time.monotonic() - started + statistics.median(rounds) <= seconds
        ):
            began = time.monotonic()
            if trace:
                untraced.append(campaign())
                traced.append(campaign(traced=True))
            else:
                probes += [
                    runner.spawn(args, plan_only=True, fresh_cache_dir=wl.fresh_cache_dir)
                    for _ in range(PROBES_PER_RUN)
                ]
                untraced.append(campaign())
            rounds.append(time.monotonic() - began)
        runs = untraced + traced
        checked_units = interp_check(runner, wl, seed, args, runs[0].doc, tally)
        digests = {digest(run.doc) for run in runs}
        if len(digests) != 1:
            tally.fail(
                f"campaign JSON differs between the {len(runs)} runs "
                f"({len(digests)} distinct documents)",
                units=0,
            )
        env = {
            "workload": wl.name,
            "seed": seed,
            "engine": runs[0].stamps["engine"],
            "lanes": runs[0].stamps["lanes"],
            "jobs": runs[0].stamps["jobs"],
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(),
            "interp_checked_units": checked_units,
        }
        if trace:
            env["untraced_targets"] = traced[0].stamps["untraced"]
        print(f"env {json.dumps(env, sort_keys=True)}")
        if trace:
            return layer_report(wl, seed, untraced, traced, env), tally
        return end_to_end_report(wl, untraced, probes, tally), tally


def end_to_end_report(
    wl: Workload, runs: list[Run], probes: list[Run], tally: Checked
) -> dict[str, float]:
    samples = {
        "campaign_s": [run.campaign_s for run in runs],
        "setup_s": [run.setup_s for run in runs + probes],
        "trials_per_s": [trial_count(run.doc) / run.campaign_s for run in runs],
        "cpu_s": [run.cpu_s for run in runs],
        "peak_rss_mb": [run.peak_rss_mb for run in runs],
    }
    print(f"workload {wl.name}: {len(runs)} campaigns, {len(probes)} set-up probes")
    print(f"  {'metric':<14} {'median':>10} {'min':>10} {'max':>10} {'n':>3}  unit")
    metrics = {}
    for metric in END_TO_END:
        values = samples[metric.name]
        metrics[metric.name] = statistics.median(values)
        print(
            f"  {metric.name:<14} {metrics[metric.name]:>10.4f} {min(values):>10.4f} "
            f"{max(values):>10.4f} {len(values):>3}  {metric.unit}"
        )
    share = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'failed_share':<14} {share:>10.4f} {'':>10} {'':>10} {tally.attempted:>3}  ratio")
    return metrics


def layer_report(
    wl: Workload, seed: int, untraced: list[Run], traced: list[Run], env: dict[str, Any]
) -> dict[str, float]:
    recorded = [spans.load_spans(run.trace_dir) for run in traced]
    per_run = [
        spans.layer_metrics(run_spans, run.stamps["jobs"])
        for run_spans, run in zip(recorded, traced)
    ]
    metrics = {
        name: statistics.median(values[name] for values in per_run) for name in per_run[0]
    }
    # The set-up split comes from untraced campaigns: installing the
    # spans imports every traced module up front.
    metrics["setup.import_s"] = statistics.median(
        (run.stamps["plan_start_ns"] - run.spawn_ns) / 1e9 for run in untraced
    )
    metrics["runtime.plan_s"] = statistics.median(
        (run.stamps["plan_ready_ns"] - run.stamps["plan_start_ns"]) / 1e9 for run in untraced
    )
    metrics["trace.overhead_s"] = statistics.median(
        run.campaign_s for run in traced
    ) - statistics.median(run.campaign_s for run in untraced)
    trace_path = WORK / "traces" / f"{wl.name}-seed{seed}.json"
    trace_path.parent.mkdir(exist_ok=True)
    trace_path.write_text(json.dumps(spans.chrome_trace(recorded[0], traced[0].spawn_ns, env)))
    print(f"workload {wl.name}: {len(traced)} traced + {len(untraced)} untraced campaigns")
    print(f"  trace events: {trace_path.relative_to(ROOT)}")
    for metric in PER_LAYER:
        moves = ", ".join(metric.moves) or "-"
        print(
            f"  {metric.name:<26} {metrics[metric.name]:>14.4f} {metric.unit:<9}"
            f" -> {moves} on {', '.join(metric.on)}"
        )
    return {metric.name: metrics[metric.name] for metric in PER_LAYER}


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        default="all",
        help=f"one of {', '.join(WORKLOADS)}, a comma-separated list, or all",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny campaigns, for the self-test smoke run"
    )
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; choose from {', '.join(WORKLOADS)}")
    args.names = names
    return args


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    results = {}
    for name in args.names:
        try:
            results[name] = bench_workload(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace), args.tiny
            )
        except BenchmarkError as error:
            print(f"workload {name}: {error}", file=sys.stderr)
            return 1
    tallies = [tally for _metrics, tally in results.values()]
    for tally in tallies:
        for problem in tally.problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
    declared = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}
    metrics = {}
    for name, (values, _tally) in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        for metric, value in values.items():
            metrics[prefix + metric] = {"value": value, "unit": declared[metric]}
    correct = all(not tally.problems for tally in tallies)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(tally.attempted for tally in tallies),
                "failed": sum(tally.failed for tally in tallies),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
