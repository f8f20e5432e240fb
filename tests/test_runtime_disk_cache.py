"""Tests for the persistent cross-process cache backend (disk L2).

Covers the tentpole contract:

* content-addressed entries survive corruption: truncated, mangled or
  checksum-violating files read as misses and are rewritten;
* concurrent writers serialize on O_CREAT entry locks (stale locks
  from crashed writers are broken) and readers never observe a torn
  entry thanks to atomic write-rename publication;
* both caches fall back L1 → disk → compute, with the telemetry split
  by tier;
* a campaign against a warm disk cache reports **zero** golden and
  front-end misses while its JSON result fields stay byte-identical
  to the cold run — the acceptance criterion CI enforces with
  ``scripts/check_warm_cache.py``;
* the CLI ``--cache-dir`` / ``--cache-clear`` / ``--cache-stats``
  plumbing.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.api import CampaignSpec, ExecutionOptions, execute_plan, plan_campaign
from repro.runtime.cache import (
    FRONTEND_CACHE,
    GOLDEN_CACHE,
    DiskCacheBackend,
    FrontEndCache,
    GoldenCache,
    active_backend,
    active_cache_dir,
    backend_provenance,
    configure_disk_cache,
    reset_caches,
)
from repro.sim import Testbench, run_testbench
from repro.tao import TaoFlow

SOURCE = """
int kernel(int seed, int out[4]) {
  int acc = seed * 21 + 4;
  for (int i = 0; i < 4; i++) {
    if (acc % 2 == 0) acc = acc / 2 + 3;
    else acc = acc * 3 - 1;
    out[i] = acc;
  }
  return acc;
}
"""

BENCH = Testbench(args=[7])


@pytest.fixture(autouse=True)
def fresh_caches():
    reset_caches()  # also detaches any leaked backend
    yield
    reset_caches()


@pytest.fixture()
def backend(tmp_path):
    return DiskCacheBackend(tmp_path / "cache")


@pytest.fixture()
def component():
    return TaoFlow().obfuscate(SOURCE, "kernel")


def campaign_fields(result) -> str:
    """Canonical JSON of everything except the cache telemetry block."""
    doc = json.loads(result.to_json())
    doc.pop("cache", None)
    return json.dumps(doc, sort_keys=True)


class TestDiskBackendBasics:
    def test_store_load_round_trip(self, backend):
        assert backend.store("golden", "ab" * 32, b"payload-bytes")
        assert backend.load("golden", "ab" * 32) == b"payload-bytes"

    def test_missing_entry_is_none(self, backend):
        assert backend.load("golden", "cd" * 32) is None

    def test_toolchain_generations_are_disjoint(self, backend):
        # Entries written by a different toolchain (older compiler or
        # interpreter) must never be served: the frontend namespace is
        # keyed on the *source* hash alone, so without generation
        # isolation a stale pickle could mask a compiler change.
        backend.store("frontend", "ab" * 32, b"current-toolchain")
        older = DiskCacheBackend(backend.root)
        older.toolchain = "0123456789abcdef"  # a different generation
        assert older.load("frontend", "ab" * 32) is None
        older.store("frontend", "ab" * 32, b"older-toolchain")
        assert backend.load("frontend", "ab" * 32) == b"current-toolchain"
        assert backend.entry_count("frontend") == 1  # inert ones uncounted
        assert backend.clear() == 2  # ... but clear sweeps every generation

    def test_namespaces_are_disjoint(self, backend):
        backend.store("golden", "ab" * 32, b"golden-data")
        assert backend.load("frontend", "ab" * 32) is None
        assert backend.entry_count("golden") == 1
        assert backend.entry_count("frontend") == 0

    def test_entry_count_and_len(self, backend):
        for i in range(3):
            backend.store("golden", f"{i:02x}" * 32, b"x")
        backend.store("frontend", "ff" * 32, b"y")
        assert backend.entry_count("golden") == 3
        assert len(backend) == 4

    def test_clear_removes_entries(self, backend):
        backend.store("golden", "ab" * 32, b"x")
        backend.store("frontend", "cd" * 32, b"y")
        assert backend.clear() == 2
        assert backend.load("golden", "ab" * 32) is None
        assert len(backend) == 0
        assert backend.clear() == 0  # idempotent, missing dir tolerated

    def test_truncated_entry_is_miss_and_rewritable(self, backend):
        key = "ab" * 32
        backend.store("golden", key, b"a correct payload")
        path = backend._entry_path("golden", key)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert backend.load("golden", key) is None
        assert backend.store("golden", key, b"a correct payload")
        assert backend.load("golden", key) == b"a correct payload"

    def test_corrupt_payload_fails_checksum(self, backend):
        key = "ab" * 32
        backend.store("golden", key, b"correct payload")
        path = backend._entry_path("golden", key)
        header, _, payload = path.read_bytes().partition(b"\n")
        path.write_bytes(header + b"\n" + b"X" + payload[1:])
        assert backend.load("golden", key) is None

    def test_unwritable_root_degrades_to_no_op(self, tmp_path, component):
        # The cache is an accelerator: a store that cannot reach the
        # filesystem (here: the root path runs through a regular file)
        # must report failure, not abort the campaign that already
        # computed the result.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        broken = DiskCacheBackend(blocker / "cache")
        assert not broken.store("golden", "ab" * 32, b"x")
        assert broken.load("golden", "ab" * 32) is None
        cache = GoldenCache(backend=broken)
        outcome = run_testbench(
            component.design, BENCH,
            working_key=component.correct_working_key, golden_cache=cache,
        )
        assert outcome.matches
        assert cache.stats.misses == 1

    def test_store_failure_warns_once_and_is_counted(
        self, tmp_path, component, monkeypatch
    ):
        # A degraded persistent cache must be *visible*: the first
        # failed store raises one RuntimeWarning naming the root, later
        # failures stay silent, and tiered caches count every one.
        import repro.runtime.cache as cache_mod

        monkeypatch.setattr(cache_mod, "_STORE_FAILURE_WARNED", False)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        broken = DiskCacheBackend(blocker / "cache")
        with pytest.warns(RuntimeWarning, match="degraded"):
            assert broken.store("golden", "ab" * 32, b"x") is None
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second failure: no warning
            assert broken.store("golden", "cd" * 32, b"y") is None

        cache = GoldenCache(backend=broken)
        outcome = run_testbench(
            component.design, BENCH,
            working_key=component.correct_working_key, golden_cache=cache,
        )
        assert outcome.matches
        assert cache.stats.store_failures == 1
        assert cache.stats.as_dict()["store_failures"] == 1

    def test_lock_race_is_not_a_store_failure(self, backend):
        # A live lock skips publication (False) without tripping the
        # degraded-store path (None) — only OSError counts.
        key = "ab" * 32
        lock = backend._entry_path("golden", key).with_suffix(".lock")
        lock.parent.mkdir(parents=True, exist_ok=True)
        lock.write_text(str(1 << 30))
        assert backend.store("golden", key, b"x") is False

    def test_garbage_file_is_miss(self, backend):
        key = "ab" * 32
        path = backend._entry_path("golden", key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a cache entry at all")
        assert backend.load("golden", key) is None
        path.write_bytes(b"")  # fully truncated
        assert backend.load("golden", key) is None


class TestEntryLocking:
    def test_live_lock_skips_publication(self, backend):
        key = "ab" * 32
        path = backend._entry_path("golden", key)
        path.parent.mkdir(parents=True)
        (path.parent / f"{key}.lock").touch()  # a live concurrent writer
        assert not backend.store("golden", key, b"payload")
        assert backend.load("golden", key) is None  # we lost the race
        # No temp litter left behind for the winner to trip over.
        assert list(path.parent.glob("*.tmp")) == []

    def test_stale_lock_is_broken(self, tmp_path):
        import os

        backend = DiskCacheBackend(tmp_path / "cache", lock_timeout=0.5)
        key = "ab" * 32
        path = backend._entry_path("golden", key)
        path.parent.mkdir(parents=True)
        lock = path.parent / f"{key}.lock"
        lock.touch()
        os.utime(lock, (0, 0))  # crashed writer from the distant past
        assert backend.store("golden", key, b"payload")
        assert backend.load("golden", key) == b"payload"
        assert not lock.exists()

    def test_concurrent_writers_and_readers_never_tear(self, backend):
        key = "ab" * 32
        payload = b"shared-content" * 64
        errors: list[str] = []

        def writer():
            for _ in range(40):
                backend.store("golden", key, payload)

        def reader():
            for _ in range(80):
                found = backend.load("golden", key)
                if found is not None and found != payload:
                    errors.append("reader observed a torn entry")

        threads = [threading.Thread(target=writer) for _ in range(3)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert backend.load("golden", key) == payload


class TestTieredGoldenCache:
    def test_second_process_hits_disk(self, backend, component):
        cold = GoldenCache(backend=backend)
        run_testbench(component.design, BENCH,
                      working_key=component.correct_working_key,
                      golden_cache=cold)
        assert cold.stats.misses == 1
        # A fresh cache instance models a fresh worker process: cold L1,
        # same disk backend.
        warm = GoldenCache(backend=backend)
        outcome = run_testbench(component.design, BENCH,
                                working_key=component.correct_working_key,
                                golden_cache=warm)
        assert warm.stats.misses == 0
        assert warm.stats.l2_hits == 1
        assert outcome.matches
        # Disk promotion fills L1: the next lookup is a pure L1 hit.
        run_testbench(component.design, BENCH,
                      working_key=component.correct_working_key,
                      golden_cache=warm)
        assert warm.stats.hits == 1

    def test_disk_round_trip_preserves_golden_values(self, backend, component):
        cold = GoldenCache(backend=backend)
        key = component.correct_working_key
        first = run_testbench(component.design, BENCH, working_key=key,
                              golden_cache=cold)
        warm = GoldenCache(backend=backend)
        second = run_testbench(component.design, BENCH, working_key=key,
                               golden_cache=warm)
        assert second.golden_bits == first.golden_bits
        assert second.golden.return_value == first.golden.return_value
        assert second.golden.arrays == first.golden.arrays
        assert second.golden.block_trace == first.golden.block_trace

    def test_corrupt_disk_entry_recomputed_and_rewritten(
        self, backend, component
    ):
        cold = GoldenCache(backend=backend)
        key = component.correct_working_key
        run_testbench(component.design, BENCH, working_key=key,
                      golden_cache=cold)
        entry = next((backend.root / backend.toolchain / "golden").rglob("*.bin"))
        entry.write_bytes(b"corrupted beyond recognition")
        warm = GoldenCache(backend=backend)
        outcome = run_testbench(component.design, BENCH, working_key=key,
                                golden_cache=warm)
        assert warm.stats.misses == 1  # corrupt = miss, recomputed
        assert outcome.matches
        # ... and the entry was rewritten for the next process.
        warmest = GoldenCache(backend=backend)
        run_testbench(component.design, BENCH, working_key=key,
                      golden_cache=warmest)
        assert warmest.stats.l2_hits == 1

    def test_valid_checksum_wrong_schema_is_miss(self, backend, component):
        # A checksummed entry whose JSON lacks the expected fields must
        # degrade to a miss, not crash the campaign.
        cold = GoldenCache(backend=backend)
        key = component.correct_working_key
        run_testbench(component.design, BENCH, working_key=key,
                      golden_cache=cold)
        entry = next((backend.root / backend.toolchain / "golden").rglob("*.bin"))
        disk_key = entry.stem
        backend.store("golden", disk_key, b'{"unexpected": "schema"}')
        warm = GoldenCache(backend=backend)
        outcome = run_testbench(component.design, BENCH, working_key=key,
                                golden_cache=warm)
        assert warm.stats.misses == 1
        assert outcome.matches


class TestTieredFrontEndCache:
    def test_second_process_skips_compilation(self, backend):
        cold = FrontEndCache(backend=backend)
        flow = TaoFlow()
        cold.get_or_compile(SOURCE, "kernel", _compile)
        assert cold.stats.misses == 1

        def explode(source, name):  # pragma: no cover - must not run
            raise AssertionError("warm tier recompiled")

        warm = FrontEndCache(backend=backend)
        module = warm.get_or_compile(SOURCE, "warmed", explode)
        assert warm.stats.l2_hits == 1
        assert module.name == "warmed"
        assert module.function("kernel")
        # The disk copy is a real, obfuscatable module.
        del flow

    def test_corrupt_pickle_recompiles(self, backend):
        cold = FrontEndCache(backend=backend)
        cold.get_or_compile(SOURCE, "kernel", _compile)
        entry = next((backend.root / backend.toolchain / "frontend").rglob("*.bin"))
        backend.store("frontend", entry.stem, b"\x80\x04 not a pickle")
        warm = FrontEndCache(backend=backend)
        warm.get_or_compile(SOURCE, "kernel", _compile)
        assert warm.stats.misses == 1


def _compile(source: str, name: str):
    from repro.frontend.lowering import compile_c
    from repro.opt.pass_manager import optimize_module

    module = compile_c(source, name)
    optimize_module(module, inline=True)
    return module


class TestConfigureDiskCache:
    def test_attach_detach_round_trip(self, tmp_path):
        assert active_backend() is None
        assert backend_provenance() == {"kind": "memory", "cache_dir": None}
        backend = configure_disk_cache(tmp_path / "c")
        assert active_backend() is backend
        assert GOLDEN_CACHE.backend is backend
        assert FRONTEND_CACHE.backend is backend
        assert active_cache_dir() == str(tmp_path / "c")
        assert backend_provenance() == {
            "kind": "disk",
            "cache_dir": str(tmp_path / "c"),
        }
        assert configure_disk_cache(None) is None
        assert GOLDEN_CACHE.backend is None
        assert active_cache_dir() is None

    def test_reset_caches_detaches_but_keeps_disk(self, tmp_path):
        backend = configure_disk_cache(tmp_path / "c")
        backend.store("golden", "ab" * 32, b"x")
        reset_caches()
        assert active_backend() is None
        assert DiskCacheBackend(tmp_path / "c").load("golden", "ab" * 32) == b"x"

    def test_disk_cache_from_env(self, tmp_path, monkeypatch):
        from repro.runtime.cache import CACHE_DIR_ENV, disk_cache_from_env

        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert disk_cache_from_env() is None
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "envcache"))
        backend = disk_cache_from_env()
        assert backend is not None
        assert str(backend.root) == str(tmp_path / "envcache")
        assert disk_cache_from_env() is backend  # idempotent


class TestWarmCampaignAcceptance:
    SPEC = dict(
        benchmarks=("sobel",),
        configs=("default", "dfg-only"),
        key_schemes=("replication", "aes"),
        n_keys=2,
    )

    def _run(self, jobs, spec=None):
        return execute_plan(
            plan_campaign(spec or CampaignSpec(**self.SPEC)),
            ExecutionOptions(jobs=jobs, collect_cache_stats=True),
        )

    def test_warm_campaign_zero_misses_identical_json(self, tmp_path):
        configure_disk_cache(tmp_path / "c")
        cold = self._run(jobs=1)
        assert cold.cache["golden"]["misses"] == 1  # benchmarks x workloads
        assert cold.cache["backend"]["kind"] == "disk"
        # Fresh process simulation: drop the L1s, re-open the backend.
        reset_caches()
        configure_disk_cache(tmp_path / "c")
        warm = self._run(jobs=1)
        assert warm.cache["golden"]["misses"] == 0
        assert warm.cache["golden"]["l2_hits"] == 1
        assert warm.cache["frontend"]["misses"] == 0
        assert campaign_fields(warm) == campaign_fields(cold)

    def test_parallel_workers_share_backend(self, tmp_path):
        configure_disk_cache(tmp_path / "c")
        cold = self._run(jobs=2)
        reset_caches()
        configure_disk_cache(tmp_path / "c")
        warm = self._run(jobs=2)
        assert warm.cache["golden"]["misses"] == 0
        assert warm.cache["golden"]["l2_hits"] >= 1
        assert campaign_fields(warm) == campaign_fields(cold)

    def test_nested_key_pool_workers_share_backend(self, tmp_path):
        # Single unit + jobs>1: the key trials fan out over a nested
        # pool whose workers must open the parent's backend too.
        configure_disk_cache(tmp_path / "c")
        spec = CampaignSpec(benchmarks=("sobel",), n_keys=4)
        cold = self._run(jobs=3, spec=spec)
        reset_caches()
        configure_disk_cache(tmp_path / "c")
        warm = self._run(jobs=3, spec=spec)
        assert warm.cache["golden"]["misses"] == 0
        assert campaign_fields(warm) == campaign_fields(cold)

    def test_check_warm_cache_script_agrees(self, tmp_path):
        # The CI gate script must accept a conforming pair and reject a
        # fabricated warm run that still missed.
        import sys
        from pathlib import Path

        scripts_dir = str(Path(__file__).resolve().parent.parent / "scripts")
        sys.path.insert(0, scripts_dir)
        try:
            from check_warm_cache import compare
        finally:
            sys.path.remove(scripts_dir)
        configure_disk_cache(tmp_path / "c")
        cold = self._run(jobs=1)
        reset_caches()
        configure_disk_cache(tmp_path / "c")
        warm = self._run(jobs=1)
        assert compare(cold.to_dict(), warm.to_dict()) == []
        broken = warm.to_dict()
        broken["cache"]["golden"]["misses"] = 3
        assert any("miss" in p for p in compare(cold.to_dict(), broken))


class TestCliCacheFlags:
    def run_cli(self, *extra, tmp_path):
        from repro.cli import main

        out = tmp_path / f"out{len(list(tmp_path.iterdir()))}.json"
        argv = [
            "campaign", "--benchmarks", "sobel", "--keys", "2",
            "--jobs", "1", "--cache-stats", "-o", str(out), *extra,
        ]
        code = main(argv)
        return code, json.loads(out.read_text())

    def test_cache_dir_records_provenance_and_persists(self, tmp_path, capsys):
        cache_dir = tmp_path / "cachedir"
        code, cold = self.run_cli(
            "--cache-dir", str(cache_dir), tmp_path=tmp_path
        )
        assert code == 0
        assert cold["cache"]["backend"] == {
            "kind": "disk",
            "cache_dir": str(cache_dir),
        }
        assert DiskCacheBackend(cache_dir).entry_count("golden") == 1
        reset_caches()  # new process simulation
        code, warm = self.run_cli(
            "--cache-dir", str(cache_dir), tmp_path=tmp_path
        )
        assert code == 0
        assert warm["cache"]["golden"]["misses"] == 0
        out = capsys.readouterr().out
        assert "disk hits" in out
        assert str(cache_dir) in out

    def test_cache_clear_empties_first(self, tmp_path, capsys):
        cache_dir = tmp_path / "cachedir"
        self.run_cli("--cache-dir", str(cache_dir), tmp_path=tmp_path)
        reset_caches()
        code, cleared = self.run_cli(
            "--cache-dir", str(cache_dir), "--cache-clear", tmp_path=tmp_path
        )
        assert code == 0
        assert "cleared 2 cached entr" in capsys.readouterr().out
        assert cleared["cache"]["golden"]["misses"] == 1  # cold again

    def test_cache_clear_without_dir_rejected(self, capsys, monkeypatch):
        from repro.cli import main
        from repro.runtime.cache import CACHE_DIR_ENV

        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        code = main(
            ["campaign", "--benchmarks", "sobel", "--keys", "2",
             "--cache-clear"]
        )
        assert code == 2
        assert "--cache-clear" in capsys.readouterr().err

    def test_cache_dir_from_env(self, tmp_path, monkeypatch):
        from repro.runtime.cache import CACHE_DIR_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "envdir"))
        code, result = self.run_cli(tmp_path=tmp_path)
        assert code == 0
        assert result["cache"]["backend"]["cache_dir"] == str(tmp_path / "envdir")
