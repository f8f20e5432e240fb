"""One cold ``repro campaign`` process, as the benchmark spawns it.

Runs the campaign through the real command-line entry point
(``repro.cli.main``), so argument checks, registry resolution and the
shipped defaults are exactly what a user gets.  Stamps are taken on
the system-wide monotonic clock, which the parent compares with its
own spawn time: when ``plan_campaign`` was called and returned (set-up
done) and when the campaign JSON was written.  They go to ``--stamps`` as JSON, with
the environment the campaign resolved (engine, lane cap, jobs).

Usage::

    python3 perfbench/campaign_child.py --stamps FILE [--trace-dir DIR]
        [--plan-only] -- <repro campaign arguments>

``--trace-dir`` installs the layer spans of ``spans.py`` before any
worker forks.  ``--plan-only`` exits as soon as the plan is ready; the
benchmark uses it to sample set-up time on its own.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time


def main(argv: list[str]) -> int:
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stamps", required=True)
    parser.add_argument("--trace-dir")
    parser.add_argument("--plan-only", action="store_true")
    opts = parser.parse_args(argv[:split])
    campaign_args = argv[split + 1 :]
    # SIGTERM unwinds like an exception, so the executor's cleanup stops
    # its workers, which run in process groups of their own.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    import repro.api
    from repro.runtime.results import CampaignResult

    stamps: dict = {}
    if opts.trace_dir:
        from spans import Recorder

        # Layer boundaries that no longer exist under their traced name.
        stamps["untraced"] = Recorder(opts.trace_dir).install()
    plan_campaign = repro.api.plan_campaign
    write = CampaignResult.write

    def stamped_plan(spec):
        stamps["plan_start_ns"] = time.monotonic_ns()
        plan = plan_campaign(spec)
        stamps["plan_ready_ns"] = time.monotonic_ns()
        stamps["units"] = len(plan)
        if opts.plan_only:
            raise SystemExit(0)
        return plan

    def stamped_write(self, path, include_trials=True):
        written = write(self, path, include_trials)
        stamps["written_ns"] = time.monotonic_ns()
        return written

    repro.api.plan_campaign = stamped_plan
    CampaignResult.write = stamped_write
    from repro.cli import main as cli_main

    try:
        code = cli_main(["campaign", *campaign_args])
    except SystemExit as stop:
        code = stop.code
    finally:
        from repro.runtime.campaign import resolve_jobs
        from repro.sim import resolve_engine
        from repro.tao.metrics import resolve_key_batch_lanes

        stamps["engine"] = resolve_engine(None)
        stamps["lanes"] = resolve_key_batch_lanes(None)
        stamps["jobs"] = resolve_jobs(None)
        with open(opts.stamps, "w") as handle:
            json.dump(stamps, handle)
    return code or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
