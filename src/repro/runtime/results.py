"""Unified JSON results schema for validation campaigns.

Every campaign run — CLI (``repro campaign``), benchmark harness or
evaluation report — serializes to the same structure so downstream
consumers (``repro.evaluation.report``, plotting, CI smoke checks)
parse one format:

.. code-block:: text

    {
      "schema": "repro.campaign/5",
      "spec": {... echo of the CampaignSpec ...},
      "axes": {... per-axis unit labels (AXIS_LABELS) ...},
      "units": [
        {
          "benchmark": "sobel",
          "config": "default",           # parameter-config axis
          "key_scheme": "replication",   # key-management axis (§3.4)
          "budget": "default",           # resource-budget axis
          "pipeline": "params",          # obfuscation-pipeline axis
          "params": {...non-default ObfuscationParameters...},
          "seed": 123456,                # per-unit derived seed
          "workload_seed": 987654,       # per-benchmark workload seed
          "status": "ok",                # "ok" | "failed"
          "attempts": 1,                 # execution attempts consumed
          "stages": [                    # per-stage StageReport blocks
            {"stage": "constants", "phase": "frontend",
             "ops_touched": 4, "key_bits_consumed": 128},
            ...
          ],
          "report": {... ValidationReport ...},
                                         # omitted for failed units
          "error": "...",                # only when status == "failed"
          "attacks": {                   # optional: per-attack result blocks
                                         # (only when the spec listed attacks)
            "oracle-guided": {
              "name": "oracle-guided",
              "applicable": true,
              "cost": {"oracle_queries": 3, "simulated_trials": 210,
                       "iterations": 4},
              "outcome": {... attack-specific block ...}
            },
            ...
          }
        },
        ...
      ],
      "cache": {                       # optional telemetry (--cache-stats)
        "golden":   {"hits": ..., "l2_hits": ..., "misses": ...},
        "frontend": {"hits": ..., "l2_hits": ..., "misses": ...},
        "backend":  {"kind": "disk"|"memory", "cache_dir": ...}
      }
    }

Locking keys serialize as hex strings.  The schema is deliberately
timing-free: serial and parallel runs of the same spec produce
byte-identical JSON (the determinism contract the tests assert); wall
time and worker counts live outside ``units`` — which is why the
``stages`` blocks carry ops/key-bit counts but never the in-memory
``StageReport.wall_seconds``.  Cache provenance — whether a
persistent disk backend served lookups, and the per-tier hit/miss
split (``hits`` = in-process L1, ``l2_hits`` = disk, ``misses`` =
computed) — is likewise confined to the ``cache`` block: warm and
cold runs of one spec differ only there, never in a result field, so
cached campaigns stay byte-comparable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.tao.key import LockingKey
from repro.tao.metrics import KeyTrialResult, ValidationReport

SCHEMA = "repro.campaign/5"

#: Human-readable unit label per sweep axis, embedded in every document
#: so downstream renderers can annotate columns without hard-coding.
AXIS_LABELS: dict[str, str] = {
    "config": "obfuscation-parameter preset (ObfuscationParameters overrides)",
    "key_scheme": "working-key management scheme (paper §3.4)",
    "budget": "resource-budget preset (FU instance limits per kind)",
    "pipeline": (
        "obfuscation-pass pipeline (FlowSpec preset or stage list; "
        "'params' = stages from the config's parameter booleans)"
    ),
}


# ----------------------------------------------------------------------
# ValidationReport <-> dict
# ----------------------------------------------------------------------
def trial_to_dict(trial: KeyTrialResult) -> dict[str, Any]:
    return {
        "locking_key": f"{trial.locking_key.bits:x}",
        "key_width": trial.locking_key.width,
        "is_correct_key": trial.is_correct_key,
        "output_matches": trial.output_matches,
        "hamming_fraction": trial.hamming_fraction,
        "cycles": trial.cycles,
        "completed": trial.completed,
    }


def trial_from_dict(data: dict[str, Any]) -> KeyTrialResult:
    return KeyTrialResult(
        locking_key=LockingKey(
            bits=int(data["locking_key"], 16), width=data["key_width"]
        ),
        is_correct_key=data["is_correct_key"],
        output_matches=data["output_matches"],
        hamming_fraction=data["hamming_fraction"],
        cycles=data["cycles"],
        completed=data["completed"],
    )


def report_to_dict(
    report: ValidationReport, include_trials: bool = True
) -> dict[str, Any]:
    data: dict[str, Any] = {
        "component_name": report.component_name,
        "n_keys": report.n_keys,
        "correct_key_ok": report.correct_key_ok,
        "wrong_keys_all_corrupt": report.wrong_keys_all_corrupt,
        "average_hamming": report.average_hamming,
        "min_hamming": report.min_hamming,
        "max_hamming": report.max_hamming,
        "baseline_cycles": report.baseline_cycles,
        "latency_changed_keys": report.latency_changed_keys,
    }
    if include_trials:
        data["trials"] = [trial_to_dict(t) for t in report.trials]
    return data


def report_from_dict(data: dict[str, Any]) -> ValidationReport:
    return ValidationReport(
        component_name=data["component_name"],
        n_keys=data["n_keys"],
        correct_key_ok=data["correct_key_ok"],
        wrong_keys_all_corrupt=data["wrong_keys_all_corrupt"],
        average_hamming=data["average_hamming"],
        min_hamming=data["min_hamming"],
        max_hamming=data["max_hamming"],
        baseline_cycles=data["baseline_cycles"],
        latency_changed_keys=data["latency_changed_keys"],
        trials=[trial_from_dict(t) for t in data.get("trials", [])],
    )


# ----------------------------------------------------------------------
# Campaign containers
# ----------------------------------------------------------------------
@dataclass
class CampaignUnit:
    """One (benchmark, config, key scheme, budget, pipeline) cell.

    ``stages`` holds the unit's deterministic per-stage telemetry
    (``StageReport.to_dict`` without timing): one dict per executed
    pipeline stage with ``stage``/``phase``/``ops_touched``/
    ``key_bits_consumed``.

    ``status``/``attempts`` record the fault-tolerant executor's view
    of the unit: ``"ok"`` units completed (``report`` present), while
    a unit that exhausted its retry budget is recorded with
    ``status: "failed"``, the ``error`` it died with, and no
    ``report`` — downstream consumers must treat ``report`` as
    optional.
    """

    benchmark: str
    config: str
    params: dict[str, Any]
    seed: int
    report: Optional[ValidationReport] = None
    key_scheme: str = "replication"
    budget: str = "default"
    pipeline: str = "params"
    workload_seed: Optional[int] = None
    stages: list[dict[str, Any]] = field(default_factory=list)
    status: str = "ok"
    attempts: int = 1
    error: Optional[str] = None
    #: Per-attack result blocks keyed by registered attack name
    #: (``CampaignSpec.attacks``), each in the structured contract
    #: shape (name / cost / outcome — :mod:`repro.attack.contract`).
    #: Serialized only when non-empty, so attack-free documents keep
    #: their exact pre-attack byte layout.
    attacks: dict[str, dict[str, Any]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok" and self.report is not None

    def to_dict(self, include_trials: bool = True) -> dict[str, Any]:
        data = {
            "benchmark": self.benchmark,
            "config": self.config,
            "key_scheme": self.key_scheme,
            "budget": self.budget,
            "pipeline": self.pipeline,
            "params": dict(self.params),
            "seed": self.seed,
            "workload_seed": self.workload_seed,
            "status": self.status,
            "attempts": self.attempts,
            "stages": [dict(stage) for stage in self.stages],
        }
        if self.report is not None:
            data["report"] = report_to_dict(self.report, include_trials)
        if self.error is not None:
            data["error"] = self.error
        if self.attacks:
            data["attacks"] = {
                name: dict(block) for name, block in self.attacks.items()
            }
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CampaignUnit":
        return cls(
            benchmark=data["benchmark"],
            config=data["config"],
            key_scheme=data["key_scheme"],
            budget=data["budget"],
            pipeline=data["pipeline"],
            params=dict(data["params"]),
            seed=data["seed"],
            workload_seed=data["workload_seed"],
            status=data["status"],
            attempts=data["attempts"],
            error=data.get("error"),
            stages=[dict(stage) for stage in data["stages"]],
            attacks={
                name: dict(block)
                for name, block in data.get("attacks", {}).items()
            },
            report=(
                report_from_dict(data["report"])
                if data.get("report") is not None
                else None
            ),
        )


@dataclass
class CampaignResult:
    """Aggregate outcome of a campaign run (the JSON document)."""

    spec: dict[str, Any]
    units: list[CampaignUnit] = field(default_factory=list)
    cache: Optional[dict[str, Any]] = None
    elapsed_seconds: Optional[float] = None
    #: Structured progress telemetry from the executor (units total/
    #: completed/resumed/failed, retries, wall seconds).  Like
    #: ``elapsed_seconds``, never serialized: process layout and
    #: resume history must not change result bytes.
    execution: Optional[dict[str, Any]] = None

    def unit(
        self,
        benchmark: str,
        config: str = "default",
        key_scheme: Optional[str] = None,
        budget: Optional[str] = None,
        pipeline: Optional[str] = None,
    ) -> CampaignUnit:
        """First unit matching the given axis labels (None = any)."""
        for unit in self.units:
            if (
                unit.benchmark == benchmark
                and unit.config == config
                and (key_scheme is None or unit.key_scheme == key_scheme)
                and (budget is None or unit.budget == budget)
                and (pipeline is None or unit.pipeline == pipeline)
            ):
                return unit
        raise KeyError(
            f"no unit ({benchmark!r}, {config!r}, scheme={key_scheme!r}, "
            f"budget={budget!r}, pipeline={pipeline!r}) in campaign"
        )

    def to_dict(self, include_trials: bool = True) -> dict[str, Any]:
        data: dict[str, Any] = {
            "schema": SCHEMA,
            "spec": dict(self.spec),
            "axes": dict(AXIS_LABELS),
            "units": [u.to_dict(include_trials) for u in self.units],
        }
        if self.cache is not None:
            data["cache"] = self.cache
        return data

    def to_json(self, include_trials: bool = True, indent: int = 2) -> str:
        return json.dumps(
            self.to_dict(include_trials), indent=indent, sort_keys=True
        )

    def write(self, path: Path | str, include_trials: bool = True) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(include_trials) + "\n")
        return path

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CampaignResult":
        schema = data.get("schema")
        if schema != SCHEMA:
            raise ValueError(
                f"unsupported campaign schema {schema!r}: this version "
                f"reads {SCHEMA!r} only; re-run the campaign to "
                f"regenerate the document"
            )
        return cls(
            spec=dict(data["spec"]),
            units=[CampaignUnit.from_dict(u) for u in data["units"]],
            cache=data.get("cache"),
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignResult":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: Path | str) -> "CampaignResult":
        return cls.from_json(Path(path).read_text())
