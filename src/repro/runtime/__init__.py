"""Campaign-execution runtime: caches, process fan-out and the unified
results schema.

* :mod:`repro.runtime.cache` — two-tier memoization of golden
  interpreter runs and front-end compilations: per-process L1 dicts
  over an optional persistent, content-addressed disk L2
  (``DiskCacheBackend``, attached via ``configure_disk_cache`` /
  ``$REPRO_CACHE_DIR``) shared across worker processes and runs;
* :mod:`repro.runtime.campaign` — the multi-axis campaign model
  (``CampaignSpec`` / ``plan_campaign`` → ``CampaignPlan``;
  axes: benchmark × config × key scheme × resource budget ×
  obfuscation pipeline) plus the shared fan-out primitives
  (``parallel_map`` / ``key_batches``);
* :mod:`repro.runtime.executor` — the fault-tolerant campaign service
  (``execute_plan`` under an ``ExecutionOptions`` bundle: persistent
  killable workers, per-unit timeout, bounded retry, checkpointing);
* :mod:`repro.runtime.checkpoint` — content-addressed unit identity
  and the atomic per-unit ``CheckpointStore`` behind ``--resume``;
* :mod:`repro.runtime.results` — the ``repro.campaign/5`` JSON schema
  (other schema versions are rejected on load).

Only the cache layer is imported eagerly; campaign and results symbols
are re-exported lazily because they sit above the ``tao`` layer in the
import graph.
"""

from __future__ import annotations

from repro.runtime.cache import (
    CACHE_DIR_ENV,
    FRONTEND_CACHE,
    GOLDEN_CACHE,
    CacheStats,
    DiskCacheBackend,
    FrontEndCache,
    GoldenCache,
    absorb_stats,
    active_backend,
    active_cache_dir,
    backend_provenance,
    cache_stats,
    configure_disk_cache,
    disk_cache_from_env,
    golden_fingerprint,
    reset_caches,
    stats_delta,
    toolchain_fingerprint,
)

_LAZY = {
    "CampaignPlan": "repro.runtime.campaign",
    "CampaignSpec": "repro.runtime.campaign",
    "PIPELINE_FROM_PARAMS": "repro.runtime.campaign",
    "PlannedUnit": "repro.runtime.campaign",
    "budget_constraints": "repro.runtime.campaign",
    "derive_seed": "repro.runtime.campaign",
    "parallel_map": "repro.runtime.campaign",
    "plan_campaign": "repro.runtime.campaign",
    "resolve_jobs": "repro.runtime.campaign",
    "CheckpointStore": "repro.runtime.checkpoint",
    "spec_fingerprint": "repro.runtime.checkpoint",
    "unit_identity": "repro.runtime.checkpoint",
    "ExecutionOptions": "repro.runtime.executor",
    "execute_plan": "repro.runtime.executor",
    "AXIS_LABELS": "repro.runtime.results",
    "CampaignResult": "repro.runtime.results",
    "CampaignUnit": "repro.runtime.results",
    "report_from_dict": "repro.runtime.results",
    "report_to_dict": "repro.runtime.results",
}

__all__ = [
    "CACHE_DIR_ENV",
    "CacheStats",
    "DiskCacheBackend",
    "FrontEndCache",
    "FRONTEND_CACHE",
    "GoldenCache",
    "GOLDEN_CACHE",
    "absorb_stats",
    "active_backend",
    "active_cache_dir",
    "backend_provenance",
    "cache_stats",
    "configure_disk_cache",
    "disk_cache_from_env",
    "golden_fingerprint",
    "reset_caches",
    "stats_delta",
    "toolchain_fingerprint",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
