#!/usr/bin/env python3
"""CI gate: every capability axis resolves through the one registry.

The unified :class:`repro.registry.CapabilityRegistry` is only a
single plugin seam while no second table can drift out of sync with
it.  This script fails the lint job when:

* any capability kind registers nothing (a defining module stopped
  self-registering);
* a legacy module-level table (``PRESET_CONFIGS``, ``PRESET_BUDGETS``,
  ``PIPELINE_PRESETS``, the stage registry) is no longer a live
  :class:`~repro.registry.CapabilityView` over the registry;
* a derived snapshot (``KEY_SCHEMES``, ``ENGINES``) or the benchmark
  suite disagrees with the registry's enumeration;
* ``CONFIG_PIPELINES`` names a config or pipeline preset the registry
  does not know;
* a CLI default (config ``default``, scheme ``replication``, budget
  ``default``, ``DEFAULT_ENGINE``) fails to resolve;
* a source module outside ``repro/registry.py`` re-grows its own
  capability table (static scan for shadow dict/tuple definitions).

Usage::

    PYTHONPATH=src python scripts/check_registry_sync.py

Exits non-zero listing every violation.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

#: Legacy table names and the one module allowed to define each as a
#: real (non-view) container.  Any other ``NAME = {``/``NAME = (``
#: assignment under src/repro is a shadow table.
TABLE_OWNERS = {
    "PRESET_CONFIGS": "runtime/campaign.py",
    "PRESET_BUDGETS": "runtime/campaign.py",
    "KEY_SCHEMES": "runtime/campaign.py",
    "CONFIG_PIPELINES": "runtime/campaign.py",
    "PIPELINE_PRESETS": "tao/pipeline.py",
    "ENGINES": "sim/engine.py",
}


def runtime_violations() -> list[str]:
    """Import the stack and cross-check every axis against the registry."""
    from repro.registry import REGISTRY, CapabilityView

    problems: list[str] = []

    for kind in REGISTRY.kinds():
        if not REGISTRY.names(kind):
            problems.append(f"capability kind {kind!r} registers nothing")

    from repro.runtime.campaign import (
        CONFIG_PIPELINES,
        KEY_SCHEMES,
        PRESET_BUDGETS,
        PRESET_CONFIGS,
        budget_constraints,
    )
    from repro.sim import DEFAULT_ENGINE, ENGINES, resolve_engine
    from repro.tao.pipeline import PIPELINE_PRESETS, _REGISTRY as stage_table
    from repro.tao.pipeline import resolve_pipeline

    for label, table in (
        ("PRESET_CONFIGS", PRESET_CONFIGS),
        ("PRESET_BUDGETS", PRESET_BUDGETS),
        ("PIPELINE_PRESETS", PIPELINE_PRESETS),
        ("stage registry", stage_table),
    ):
        if not isinstance(table, CapabilityView):
            problems.append(
                f"{label} is {type(table).__name__}, not a CapabilityView "
                "over the registry — a second table that can drift"
            )

    for label, snapshot, kind in (
        ("KEY_SCHEMES", KEY_SCHEMES, "key-scheme"),
        ("ENGINES", ENGINES, "engine"),
    ):
        if tuple(snapshot) != REGISTRY.names(kind):
            problems.append(
                f"{label} {tuple(snapshot)} != registry "
                f"{kind} names {REGISTRY.names(kind)}"
            )

    from repro.benchsuite import benchmark_names

    if tuple(benchmark_names()) != REGISTRY.names("benchmark"):
        problems.append(
            f"benchmark_names() {tuple(benchmark_names())} != registry "
            f"benchmark names {REGISTRY.names('benchmark')}"
        )

    if set(CONFIG_PIPELINES) != set(REGISTRY.names("config")):
        problems.append(
            f"CONFIG_PIPELINES keys {sorted(CONFIG_PIPELINES)} != registered "
            f"configs {sorted(REGISTRY.names('config'))}"
        )
    for config, preset in CONFIG_PIPELINES.items():
        try:
            resolve_pipeline(preset)
        except Exception as error:
            problems.append(
                f"CONFIG_PIPELINES[{config!r}] = {preset!r} does not "
                f"resolve: {error}"
            )

    defaults = (
        ("config", "default", lambda: REGISTRY.get("config", "default")),
        ("key-scheme", "replication",
         lambda: REGISTRY.get("key-scheme", "replication")),
        ("budget", "default", lambda: budget_constraints("default")),
        ("engine", DEFAULT_ENGINE, lambda: resolve_engine(DEFAULT_ENGINE)),
    )
    for kind, name, resolve in defaults:
        try:
            resolve()
        except Exception as error:
            problems.append(f"CLI default {kind} {name!r} fails: {error}")

    return problems


def static_violations() -> list[str]:
    """Scan src/repro for shadow capability tables.

    A line like ``PRESET_BUDGETS = {`` or ``ENGINES = (`` outside the
    owning module means someone re-grew a literal table instead of
    registering capabilities; ``CapabilityView(...)`` and
    ``REGISTRY.names(...)`` right-hand sides are the sanctioned forms.
    """
    shadow = re.compile(
        r"^(?P<name>" + "|".join(TABLE_OWNERS) + r")\s*(?::[^=]+)?=\s*[({\[]"
    )
    sanctioned = re.compile(r"CapabilityView\(|REGISTRY\.names\(")
    problems: list[str] = []
    package = REPO / "src" / "repro"
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package).as_posix()
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            match = shadow.match(line.strip())
            if not match:
                continue
            name = match.group("name")
            if relative != TABLE_OWNERS[name]:
                problems.append(
                    f"{relative}:{lineno} defines shadow table {name}"
                )
            elif name not in ("CONFIG_PIPELINES",) and not sanctioned.search(line):
                problems.append(
                    f"{relative}:{lineno} {name} is a literal table, not a "
                    "CapabilityView/registry snapshot"
                )
    return problems


def main() -> int:
    problems = runtime_violations() + static_violations()
    if problems:
        print("registry sync violations:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    kinds = __import__("repro.registry", fromlist=["REGISTRY"]).REGISTRY
    counts = ", ".join(
        f"{kind}={len(kinds.names(kind))}" for kind in kinds.kinds()
    )
    print(f"registry in sync ({counts})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
