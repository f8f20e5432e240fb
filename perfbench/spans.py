"""Layer spans for the traced benchmark run, recorded from outside ``src/``.

:class:`Recorder` replaces the public function at each layer boundary
of a campaign with a wrapper that records a span: name, start, end,
self time (duration minus the in-process child spans), the span that
caused it and the unit it belongs to.  Wrappers go on the module or
class attribute the caller looks up at call time, and are installed
before any worker forks, so unit workers and nested key-pool workers
inherit them.  Each span is appended to a per-process JSON-lines file
as it closes, because forked workers leave through ``os._exit`` and
never run ``atexit``.

:func:`layer_metrics` turns the span files of one traced campaign into
the per-layer metrics named in :mod:`workloads`, and
:func:`chrome_trace` into Chrome trace-event JSON (``traceEvents``),
which Perfetto and ``chrome://tracing`` open.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import time
import weakref
from functools import wraps
from pathlib import Path
from typing import Any, Callable, Optional

from workloads import ATTACKS, BENCHMARKS, STAGES

# Span names of the layer boundaries.
PLAN = "runtime.plan"
EXECUTE = "runtime.execute"
UNIT = "runtime.unit"
KEY_POOL = "runtime.key_pool"
OBFUSCATE = "tao.obfuscate"
FRONTEND_LOOKUP = "frontend.lookup"
COMPILE = "frontend.compile"
OPTIMIZE = "opt.optimize"
SYNTHESIZE = "hls.synthesize"
BUILD = "sim.build"
BATCH = "sim.batch"
GOLDEN = "cache.golden"
L2_LOAD = "cache.l2_load"
L2_STORE = "cache.l2_store"
VALIDATE = "metrics.validate"
TRIALS = "metrics.trials"
SERIALIZE = "results.serialize"


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _batch_attrs(args, kwargs, result) -> dict[str, Any]:
    return {
        "lanes": len(_arg(args, kwargs, 3, "working_keys", ())),
        "cycles": sum(r.cycles for r in result),
    }


def _trials_attrs(args, kwargs, result) -> dict[str, Any]:
    return {"keys": len(_arg(args, kwargs, 2, "keys", ()))}


def _attack_attrs(args, kwargs, result) -> dict[str, Any]:
    cost = result.get("cost", {})
    return {
        "simulated_trials": cost.get("simulated_trials", 0),
        "oracle_queries": cost.get("oracle_queries", 0),
    }


def _write_attrs(args, kwargs, result) -> dict[str, Any]:
    return {"bytes": Path(result).stat().st_size}


#: Marks an attribute that was not in its owner's namespace before install.
_ABSENT = object()


class Recorder:
    """Installs span wrappers and writes spans to ``trace_dir``."""

    def __init__(self, trace_dir: Path | str) -> None:
        self.trace_dir = Path(trace_dir)
        self._pid: Optional[int] = None
        self._out = None
        # Open spans of this process: [name, start_ns, child_ns, attrs].
        # A forked worker inherits its parent's open spans; they never
        # close there, but they name the cause and unit of its spans.
        self._stack: list[list] = []
        # id(design) -> design whose engine plan this process (or the
        # parent it forked from) has already built.
        self._built: dict[int, weakref.ref] = {}
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _write(self, record: dict[str, Any]) -> None:
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._out = open(self.trace_dir / f"spans-{pid}.jsonl", "a")
        self._out.write(json.dumps(record) + "\n")
        self._out.flush()

    def _unit(self) -> dict[str, Any]:
        """Attributes of the innermost open unit span, or ``{}``."""
        for name, _start, _child, attrs in reversed(self._stack):
            if name == UNIT:
                return attrs
        return {}

    def call(
        self,
        name: str,
        fn: Callable[[], Any],
        attrs_fn: Optional[Callable[[Any], dict]] = None,
        opened: Optional[dict[str, Any]] = None,
    ):
        """Run ``fn()`` inside a span called ``name``.

        ``opened`` holds attributes known when the span opens (visible
        to child spans); ``attrs_fn(result)`` adds attributes at close.
        """
        attrs = dict(opened or {})
        frame = [name, time.monotonic_ns(), 0, attrs]
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        try:
            result = fn()
            if attrs_fn is not None:
                attrs.update(attrs_fn(result))
            return result
        except BaseException as error:
            attrs["error"] = type(error).__name__
            raise
        finally:
            end = time.monotonic_ns()
            self._stack.pop()
            duration = end - frame[1]
            if self._stack:
                self._stack[-1][2] += duration
            self._write(
                {
                    "name": name,
                    "pid": os.getpid(),
                    "ts_ns": frame[1],
                    "dur_ns": duration,
                    "self_ns": duration - frame[2],
                    "parent": parent,
                    "unit": attrs["index"] if name == UNIT else self._unit().get("index"),
                    "args": attrs,
                }
            )

    def _span(self, name: str, attrs_fn=None) -> Callable:
        def decorate(original):
            @wraps(original)
            def wrapper(*args, **kwargs):
                return self.call(
                    name,
                    lambda: original(*args, **kwargs),
                    None if attrs_fn is None else lambda r: attrs_fn(args, kwargs, r),
                )

            return wrapper

        return decorate

    def _unit_span(self, original):
        @wraps(original)
        def wrapper(shared, task):
            index, benchmark, config, scheme, budget, pipeline = task[:6]
            labels = "/".join((benchmark, config, scheme, budget, pipeline))
            return self.call(
                UNIT,
                lambda: original(shared, task),
                opened={"index": index, "benchmark": benchmark, "labels": labels},
            )

        return wrapper

    def _lookup_span(self, name: str) -> Callable:
        """Span around a cache lookup; the hit is read from its counters."""

        def decorate(original):
            @wraps(original)
            def wrapper(cache, *args, **kwargs):
                misses = cache.stats.misses
                return self.call(
                    name,
                    lambda: original(cache, *args, **kwargs),
                    lambda _: {"hit": cache.stats.misses == misses},
                )

            return wrapper

        return decorate

    def _build_span(self, engine: str) -> Callable:
        """Span only the first plan lookup per design: that call builds."""

        def decorate(original):
            @wraps(original)
            def wrapper(design):
                ref = self._built.get(id(design))
                if ref is not None and ref() is design:
                    return original(design)
                self._built[id(design)] = weakref.ref(design)
                return self.call(
                    BUILD,
                    lambda: original(design),
                    opened={
                        "benchmark": self._unit().get("benchmark", design.name),
                        "engine": engine,
                    },
                )

            return wrapper

        return decorate

    def _attack_span(self, original):
        @wraps(original)
        def wrapper(name, *args, **kwargs):
            return self.call(
                f"attack.{name}",
                lambda: original(name, *args, **kwargs),
                lambda result: _attack_attrs(args, kwargs, result),
            )

        return wrapper

    def _stage_span(self, original):
        @wraps(original)
        def wrapper(stage, *args, **kwargs):
            return self.call(
                f"tao.stage.{stage.name}", lambda: original(stage, *args, **kwargs)
            )

        return wrapper

    # -- installation ---------------------------------------------------
    def targets(self) -> list[tuple[str, str, Callable]]:
        """``(module, attribute path, decorator)`` for every layer boundary."""
        return [
            ("repro.api", "plan_campaign", self._span(PLAN)),
            ("repro.api", "execute_plan", self._span(EXECUTE)),
            ("repro.runtime.executor", "_execute_unit", self._unit_span),
            ("repro.runtime.campaign", "parallel_map", self._span(KEY_POOL)),
            ("repro.tao.flow", "TaoFlow.obfuscate", self._span(OBFUSCATE)),
            ("repro.runtime.cache", "FrontEndCache.get_or_compile",
             self._lookup_span(FRONTEND_LOOKUP)),
            ("repro.tao.flow", "compile_c", self._span(COMPILE)),
            ("repro.tao.flow", "optimize_module", self._span(OPTIMIZE)),
            ("repro.tao.flow", "synthesize_function", self._span(SYNTHESIZE)),
            ("repro.tao.pipeline", "FunctionStage.apply", self._stage_span),
            ("repro.sim.compiled", "compiled_for", self._build_span("compiled")),
            ("repro.sim.codegen", "codegen_for", self._build_span("codegen")),
            ("repro.sim.testbench", "simulate_batch", self._span(BATCH, _batch_attrs)),
            ("repro.runtime.cache", "GoldenCache.golden_for", self._lookup_span(GOLDEN)),
            ("repro.runtime.cache", "DiskCacheBackend.load",
             self._span(L2_LOAD, lambda a, k, r: {"hit": r is not None})),
            ("repro.runtime.cache", "DiskCacheBackend.store", self._span(L2_STORE)),
            ("repro.tao.metrics", "validate_component", self._span(VALIDATE)),
            ("repro.tao.metrics", "run_key_trials", self._span(TRIALS, _trials_attrs)),
            ("repro.attack", "run_attack", self._attack_span),
            ("repro.runtime.results", "CampaignResult.write",
             self._span(SERIALIZE, _write_attrs)),
        ]

    def install(self) -> list[str]:
        """Install every wrapper; return the targets that do not exist."""
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        missing = []
        for module_name, path, decorate in self.targets():
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owner_path.split(".") if owner_path else ():
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{path}")
                continue
            # Keep the attribute exactly as found in the owner's own
            # namespace, so uninstall restores a lazily resolved name too.
            self._installed.append((owner, attr, vars(owner).get(attr, _ABSENT)))
            setattr(owner, attr, decorate(original))
        return missing

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        if self._out is not None and self._pid == os.getpid():
            self._out.close()
        self._out, self._pid = None, None


# ----------------------------------------------------------------------
# Reading a trace back
# ----------------------------------------------------------------------
def load_spans(trace_dir: Path | str) -> list[dict[str, Any]]:
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return sorted(spans, key=lambda span: (span["ts_ns"], span["pid"]))


def _seconds(ns: float) -> float:
    return ns / 1e9


def layer_metrics(spans: list[dict[str, Any]], jobs: int) -> dict[str, float]:
    """Span-derived per-layer metrics of one traced campaign.

    The set-up split and the tracing overhead are not among them: they
    come from the stamps of untraced campaigns (see ``run.py``).
    """
    by_name: dict[str, list[dict[str, Any]]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def group(name):
        return by_name.get(name, [])

    def total(name, field="dur_ns"):
        return _seconds(sum(span[field] for span in group(name)))

    def count_where(name, key):
        return sum(1 for span in group(name) if span["args"].get(key))

    def ratio(part, whole):
        return part / whole if whole else 0.0

    execute = group(EXECUTE)
    units = [_seconds(span["dur_ns"]) for span in group(UNIT)]
    batches = group(BATCH)
    lanes = [span["args"].get("lanes", 0) for span in batches]
    batch_self = total(BATCH, "self_ns")
    attacks = [span for name in ATTACKS for span in group(f"attack.{name}")]
    execute_wall = _seconds(execute[0]["dur_ns"]) if execute else 0.0
    metrics: dict[str, float] = {
        "frontend.compile_s": total(COMPILE),
        "opt.optimize_s": total(OPTIMIZE),
        "frontend.calls": len(group(FRONTEND_LOOKUP)),
        "frontend.cache_hit_ratio": ratio(
            count_where(FRONTEND_LOOKUP, "hit"), len(group(FRONTEND_LOOKUP))
        ),
        "hls.synthesize_s": total(SYNTHESIZE),
        "hls.calls": len(group(SYNTHESIZE)),
        **{f"tao.stage.{stage}_s": total(f"tao.stage.{stage}") for stage in STAGES},
        "tao.obfuscate_self_s": total(OBFUSCATE, "self_ns"),
        "sim.build_s": total(BUILD),
        "sim.builds": len(group(BUILD)),
        **{
            f"sim.build_s.{bench}": _seconds(
                sum(s["dur_ns"] for s in group(BUILD) if s["args"].get("benchmark") == bench)
            )
            for bench in BENCHMARKS
        },
        "sim.batch_s": batch_self,
        "sim.batches": len(batches),
        "sim.lanes_per_batch": ratio(sum(lanes), len(lanes)),
        "sim.single_lane_share": ratio(sum(1 for n in lanes if n == 1), len(lanes)),
        "sim.cycles_per_s": ratio(
            sum(span["args"].get("cycles", 0) for span in batches), batch_self
        ),
        "cache.golden_s": total(GOLDEN, "self_ns"),
        "cache.golden_lookups": len(group(GOLDEN)),
        "cache.golden_hit_ratio": ratio(count_where(GOLDEN, "hit"), len(group(GOLDEN))),
        "cache.l2_load_s": total(L2_LOAD),
        "cache.l2_store_s": total(L2_STORE),
        "cache.l2_loads": len(group(L2_LOAD)),
        "cache.l2_stores": len(group(L2_STORE)),
        "metrics.validate_self_s": total(VALIDATE, "self_ns"),
        "metrics.trials_self_s": total(TRIALS, "self_ns"),
        "metrics.key_trials": sum(span["args"].get("keys", 0) for span in group(TRIALS)),
        "runtime.key_pool_s": total(KEY_POOL),
        "runtime.key_pools": len(group(KEY_POOL)),
        "runtime.unit_p50_s": _quantile(units, 0.5),
        "runtime.unit_p90_s": _quantile(units, 0.9),
        "runtime.worker_busy_share": ratio(sum(units), jobs * execute_wall),
        **{f"attack.{name}_s": total(f"attack.{name}") for name in ATTACKS},
        "attack.simulated_trials": sum(s["args"].get("simulated_trials", 0) for s in attacks),
        "attack.oracle_queries": sum(s["args"].get("oracle_queries", 0) for s in attacks),
        "results.serialize_s": total(SERIALIZE),
        "results.json_bytes": sum(span["args"].get("bytes", 0) for span in group(SERIALIZE)),
    }
    return metrics


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def chrome_trace(
    spans: list[dict[str, Any]], spawn_ns: int, metadata: dict[str, Any]
) -> dict[str, Any]:
    """Chrome trace-event JSON; timestamps in microseconds from spawn."""
    events = [
        {
            "name": span["name"],
            "cat": span["name"].split(".", 1)[0],
            "ph": "X",
            "ts": (span["ts_ns"] - spawn_ns) / 1000,
            "dur": span["dur_ns"] / 1000,
            "pid": span["pid"],
            "tid": span["pid"],
            "args": {
                **span["args"],
                "self_us": span["self_ns"] / 1000,
                "parent": span["parent"],
                "unit": span["unit"],
            },
        }
        for span in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata}
