"""Scenario trace cache: correctness, invalidation, campaign integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.runner import ScenarioSpec, run_campaign
from repro.traces import (
    CachedTrace,
    TraceCache,
    canonical_spec_hash,
    scenario_spec,
)
from repro.traces import cache as cache_module


@pytest.fixture
def store_args():
    rng = np.random.default_rng(0)
    return dict(
        timestamps=np.arange(12, dtype=float) * 5.0,
        sensor_ids=np.arange(12, dtype=np.int64) % 3,
        values=rng.normal(20.0, 1.0, size=(12, 2)),
        attribute_names=("temperature", "humidity"),
        metadata={"accepted": 12.0, "lost": 1.0},
        ground_truth={6: "stuck_at"},
        label="stuck-at",
    )


class TestSpecHashing:
    def test_hash_is_order_insensitive(self):
        a = {"x": 1, "y": "z"}
        b = {"y": "z", "x": 1}
        assert canonical_spec_hash(a) == canonical_spec_hash(b)

    def test_scenario_spec_embeds_generator_version(self):
        spec = scenario_spec("clean", n_days=3, seed=7)
        assert spec["generator_version"] == cache_module.GENERATOR_VERSION
        assert spec["scenario"] == "clean"
        assert spec["n_days"] == 3
        assert spec["seed"] == 7

    def test_any_spec_field_changes_the_key(self):
        base = scenario_spec("clean", n_days=3, seed=7)
        variants = [
            scenario_spec("stuck_at", n_days=3, seed=7),
            scenario_spec("clean", n_days=4, seed=7),
            scenario_spec("clean", n_days=3, seed=8),
            dict(base, generator_version=base["generator_version"] + 1),
        ]
        hashes = {canonical_spec_hash(spec) for spec in variants}
        assert canonical_spec_hash(base) not in hashes
        assert len(hashes) == len(variants)


class TestTraceCache:
    def test_round_trip(self, tmp_path, store_args):
        cache = TraceCache(tmp_path)
        spec = scenario_spec("stuck_at", n_days=1, seed=9)
        path = cache.store(spec, **store_args)
        assert path.is_file()

        entry = cache.load(spec)
        assert isinstance(entry, CachedTrace)
        assert np.array_equal(entry.timestamps, store_args["timestamps"])
        assert np.array_equal(entry.sensor_ids, store_args["sensor_ids"])
        assert np.array_equal(entry.values, store_args["values"])
        assert entry.attribute_names == store_args["attribute_names"]
        assert entry.metadata == store_args["metadata"]
        assert entry.ground_truth == store_args["ground_truth"]
        assert entry.label == "stuck-at"

    def test_loaded_arrays_are_frozen(self, tmp_path, store_args):
        cache = TraceCache(tmp_path)
        spec = scenario_spec("stuck_at", n_days=1, seed=9)
        cache.store(spec, **store_args)
        entry = cache.load(spec)
        for array in (entry.timestamps, entry.sensor_ids, entry.values):
            assert not array.flags.writeable

    def test_legacy_compressed_entry_still_loads(self, tmp_path, store_args):
        """Entries written as compressed .npz fall back to np.load."""
        cache = TraceCache(tmp_path)
        spec = scenario_spec("stuck_at", n_days=1, seed=9)
        path = cache.store(spec, **store_args)
        with np.load(path, allow_pickle=False) as payload:
            members = {name: payload[name] for name in payload.files}
        np.savez_compressed(path, **members)

        entry = cache.load(spec)
        assert isinstance(entry, CachedTrace)
        assert np.array_equal(entry.values, store_args["values"])
        assert (cache.hits, cache.quarantined) == (1, 0)

    def test_hit_and_miss_counters(self, tmp_path, store_args):
        cache = TraceCache(tmp_path)
        spec = scenario_spec("clean", n_days=1, seed=9)
        assert cache.load(spec) is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.store(spec, **store_args)
        assert cache.load(spec) is not None
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.stats_line() == "cache: hits=1 misses=1"

    def test_spec_change_misses(self, tmp_path, store_args):
        cache = TraceCache(tmp_path)
        cache.store(scenario_spec("clean", n_days=1, seed=9), **store_args)
        assert cache.load(scenario_spec("clean", n_days=1, seed=10)) is None
        assert cache.load(scenario_spec("clean", n_days=2, seed=9)) is None
        assert cache.load(scenario_spec("faulty", n_days=1, seed=9)) is None

    def test_generator_version_bump_invalidates(
        self, tmp_path, store_args, monkeypatch
    ):
        cache = TraceCache(tmp_path)
        cache.store(scenario_spec("clean", n_days=1, seed=9), **store_args)
        monkeypatch.setattr(
            cache_module,
            "GENERATOR_VERSION",
            cache_module.GENERATOR_VERSION + 1,
        )
        assert cache.load(scenario_spec("clean", n_days=1, seed=9)) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path, store_args, monkeypatch):
        cache = TraceCache(tmp_path)
        spec = scenario_spec("clean", n_days=1, seed=9)
        cache.store(spec, **store_args)
        monkeypatch.setattr(
            cache_module,
            "CACHE_SCHEMA_VERSION",
            cache_module.CACHE_SCHEMA_VERSION + 1,
        )
        assert cache.load(spec) is None
        assert cache.misses == 1

    def test_store_leaves_no_temp_files(self, tmp_path, store_args):
        cache = TraceCache(tmp_path)
        cache.store(scenario_spec("clean", n_days=1, seed=9), **store_args)
        cache.store(scenario_spec("clean", n_days=1, seed=9), **store_args)
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
        assert leftovers == []
        assert len(list(tmp_path.glob("*.npz"))) == 1


class TestQuarantine:
    def corrupt(self, cache, spec, payload=b"this is not a zip archive"):
        path = cache.path_for(spec)
        path.write_bytes(payload)
        return path

    def test_corrupted_entry_is_a_miss_and_quarantined(
        self, tmp_path, store_args
    ):
        cache = TraceCache(tmp_path)
        spec = scenario_spec("clean", n_days=1, seed=9)
        cache.store(spec, **store_args)
        path = self.corrupt(cache, spec)

        assert cache.load(spec) is None
        assert (cache.hits, cache.misses, cache.quarantined) == (0, 1, 1)
        assert not path.exists()
        assert (tmp_path / "quarantine" / path.name).is_file()

    def test_truncated_entry_is_a_miss(self, tmp_path, store_args):
        cache = TraceCache(tmp_path)
        spec = scenario_spec("clean", n_days=1, seed=9)
        path = cache.store(spec, **store_args)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert cache.load(spec) is None
        assert cache.quarantined == 1

    def test_missing_array_key_is_a_miss(self, tmp_path, store_args):
        cache = TraceCache(tmp_path)
        spec = scenario_spec("clean", n_days=1, seed=9)
        path = cache.store(spec, **store_args)
        with np.load(path, allow_pickle=False) as payload:
            kept = {
                key: payload[key]
                for key in payload.files
                if key != "values"
            }
        np.savez_compressed(path, **kept)
        assert cache.load(spec) is None
        assert cache.quarantined == 1

    def test_restore_after_quarantine_round_trips(self, tmp_path, store_args):
        cache = TraceCache(tmp_path)
        spec = scenario_spec("clean", n_days=1, seed=9)
        cache.store(spec, **store_args)
        self.corrupt(cache, spec)
        assert cache.load(spec) is None
        cache.store(spec, **store_args)
        entry = cache.load(spec)
        assert entry is not None
        np.testing.assert_array_equal(entry.values, store_args["values"])
        assert (cache.hits, cache.misses, cache.quarantined) == (1, 1, 1)

    def test_stats_line_reports_quarantines(self, tmp_path, store_args):
        cache = TraceCache(tmp_path)
        spec = scenario_spec("clean", n_days=1, seed=9)
        assert "quarantined" not in cache.stats_line()
        cache.store(spec, **store_args)
        self.corrupt(cache, spec)
        cache.load(spec)
        assert cache.stats_line() == "cache: hits=0 misses=1 quarantined=1"


class TestCampaignIntegration:
    def test_cold_and_hot_runs_are_identical(self, tmp_path):
        specs = [
            ScenarioSpec("clean", n_days=2, seed=11),
            ScenarioSpec("stuck_at", n_days=2, seed=11),
        ]
        cold = run_campaign(specs, n_jobs=1, cache_dir=str(tmp_path)).outcomes
        hot = run_campaign(specs, n_jobs=1, cache_dir=str(tmp_path)).outcomes

        assert [o.from_cache for o in cold] == [False, False]
        assert [o.from_cache for o in hot] == [True, True]
        # from_cache is excluded from equality; everything else must match.
        assert hot == cold
        assert [o.digest for o in hot] == [o.digest for o in cold]
        assert all(o.digest for o in cold)

    def test_cache_matches_uncached_run(self, tmp_path):
        specs = [ScenarioSpec("stuck_at", n_days=2, seed=11)]
        uncached = run_campaign(specs, n_jobs=1).outcomes
        hot = run_campaign(specs, n_jobs=1, cache_dir=str(tmp_path)).outcomes
        hot = run_campaign(specs, n_jobs=1, cache_dir=str(tmp_path)).outcomes
        assert hot == uncached
        # The run label survives the cache round trip (it differs from
        # the registry key: "stuck_at" vs "stuck-at").
        assert hot[0].name == uncached[0].name == "stuck-at"

    def test_cache_dir_is_created_on_demand(self, tmp_path):
        target = tmp_path / "nested" / "cache"
        specs = [ScenarioSpec("clean", n_days=2, seed=5)]
        run_campaign(specs, n_jobs=1, cache_dir=str(target))
        assert list(target.glob("*.npz"))

    def test_hot_pool_campaign_matches_serial(self, tmp_path):
        """Pool workers replay cache hits themselves, bit-for-bit."""
        specs = [
            ScenarioSpec("clean", n_days=2, seed=7),
            ScenarioSpec("stuck_at", n_days=2, seed=7),
        ]
        cache_dir = tmp_path / "cache"
        cold = run_campaign(specs, n_jobs=2, cache_dir=cache_dir)
        assert [o.from_cache for o in cold.outcomes] == [False, False]

        serial = run_campaign(specs, n_jobs=1, cache_dir=cache_dir)
        hot = run_campaign(specs, n_jobs=2, cache_dir=cache_dir)
        # The CLI cache stats line is computed from these flags.
        assert [o.from_cache for o in hot.outcomes] == [True, True]
        assert [o.digest for o in hot.outcomes] == [
            o.digest for o in serial.outcomes
        ]
        assert [o.digest for o in cold.outcomes] == [
            o.digest for o in serial.outcomes
        ]


def _deterministic_store_args(seed: int = 4):
    """Identical bytes for every writer — the multi-writer invariant."""
    rng = np.random.default_rng(seed)
    return dict(
        timestamps=np.arange(30, dtype=float) * 5.0,
        sensor_ids=np.arange(30, dtype=np.int64) % 5,
        values=rng.normal(20.0, 1.0, size=(30, 2)),
        attribute_names=("temperature", "humidity"),
        metadata={"accepted": 30.0, "lost": 0.0},
        ground_truth={2: "stuck_at"},
        label="stuck-at",
    )


def _store_same_entry(root) -> str:
    """Worker body for the cross-process race (module-level: picklable)."""
    cache = TraceCache(root)
    spec = scenario_spec("race", n_days=1, seed=4)
    return str(cache.store(spec, **_deterministic_store_args()))


class TestConcurrentWriters:
    """Writers racing on the same miss must never publish a torn entry."""

    def test_temp_names_are_writer_unique(self, tmp_path, monkeypatch):
        import os
        import threading

        seen = []
        real_mkstemp = cache_module.tempfile.mkstemp

        def spying_mkstemp(*args, **kwargs):
            seen.append(kwargs["prefix"])
            return real_mkstemp(*args, **kwargs)

        monkeypatch.setattr(cache_module.tempfile, "mkstemp", spying_mkstemp)
        TraceCache(tmp_path).store(
            scenario_spec("clean", n_days=1, seed=9),
            **_deterministic_store_args(),
        )
        assert seen == [f".tmp-{os.getpid()}-{threading.get_ident()}-"]

    def test_two_threads_race_on_the_same_miss(self, tmp_path):
        import threading

        spec = scenario_spec("race", n_days=1, seed=4)
        barrier = threading.Barrier(2)
        errors = []

        def writer():
            try:
                barrier.wait(timeout=30)
                _store_same_entry(tmp_path)
            except Exception as exc:  # surfaced below; threads swallow
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        # Whichever writer published last, the entry is intact.
        entry = TraceCache(tmp_path).load(spec)
        assert entry is not None
        expected = _deterministic_store_args()
        assert np.array_equal(entry.values, expected["values"])
        assert entry.ground_truth == expected["ground_truth"]
        # No abandoned temp files survive a clean race.
        assert not list(tmp_path.glob(".tmp-*"))

    def test_two_processes_race_on_the_same_miss(self, tmp_path):
        from concurrent.futures import ProcessPoolExecutor

        spec = scenario_spec("race", n_days=1, seed=4)
        with ProcessPoolExecutor(max_workers=2) as pool:
            paths = list(
                pool.map(_store_same_entry, [tmp_path, tmp_path])
            )
        assert paths[0] == paths[1]  # same content hash, same entry
        entry = TraceCache(tmp_path).load(spec)
        assert entry is not None
        expected = _deterministic_store_args()
        assert np.array_equal(entry.timestamps, expected["timestamps"])
        assert np.array_equal(entry.values, expected["values"])
        assert not list(tmp_path.glob(".tmp-*"))
