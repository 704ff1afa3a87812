"""Cache tests: hit/miss, content keys, invalidation, eviction, results.

Covers the spectra cache, the result-level cache above it (synthesis
*and* tracking skipped on a pure re-run), and the process-wide
hit/miss/eviction counters the benchmarks surface.
"""

import numpy as np
import pytest

from repro.config import PipelineConfig, default_config
from repro.core.tracker import WiTrack
from repro.multi import MultiScenario
from repro.exec import (
    CacheAdmissionFilter,
    NpzLruCache,
    ResultCache,
    SpectraCache,
    cache_stats,
    default_cache,
    default_result_cache,
    multi_result_key,
    reset_cache_stats,
    result_key,
    scenario_key,
    synthesize,
    tracked_multi_scenario,
    tracked_scenario,
)
from repro.sim import HumanBody, Scenario, random_walk, through_wall_room


@pytest.fixture()
def scenario():
    room = through_wall_room()
    walk = random_walk(room, np.random.default_rng(11), duration_s=3.0)
    return Scenario(walk, room=room, seed=12)


class TestScenarioKey:
    def test_stable_across_equal_scenarios(self, scenario):
        room = through_wall_room()
        walk = random_walk(room, np.random.default_rng(11), duration_s=3.0)
        again = Scenario(walk, room=room, seed=12)
        assert scenario_key(scenario) == scenario_key(again)

    def test_seed_changes_key(self, scenario):
        other = Scenario(
            scenario.trajectory, room=scenario.room, seed=13
        )
        assert scenario_key(scenario) != scenario_key(other)

    def test_config_changes_key(self, scenario):
        tweaked = default_config().replace(
            pipeline=PipelineConfig(contour_threshold_db=9.0)
        )
        other = Scenario(
            scenario.trajectory,
            room=scenario.room,
            config=tweaked,
            seed=scenario.seed,
        )
        assert scenario_key(scenario) != scenario_key(other)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            scenario_key(object())


class TestCacheHitMiss:
    def test_miss_then_hit_bitwise(self, scenario, tmp_path):
        cache = SpectraCache(tmp_path)
        first = cache.run(scenario)
        second = cache.run(scenario)
        assert (cache.misses, cache.hits) == (1, 1)
        assert np.array_equal(first.spectra, second.spectra)
        assert np.array_equal(first.surface_truth, second.surface_truth)
        # The cached output is exactly what an uncached run produces.
        reference = scenario.run()
        assert np.array_equal(second.spectra, reference.spectra)
        assert second.range_bin_m == reference.range_bin_m

    def test_config_change_invalidates(self, scenario, tmp_path):
        cache = SpectraCache(tmp_path)
        cache.run(scenario)
        tweaked = default_config().replace(
            pipeline=PipelineConfig(max_range_m=20.0)
        )
        cache.run(
            Scenario(
                scenario.trajectory,
                room=scenario.room,
                config=tweaked,
                seed=scenario.seed,
            )
        )
        assert (cache.misses, cache.hits) == (2, 0)
        assert len(cache.entries()) == 2

    def test_multi_scenario_round_trip(self, tmp_path):
        room = through_wall_room()
        rng = np.random.default_rng(3)
        walks = [
            random_walk(room, rng, duration_s=2.0) for _ in range(2)
        ]
        people = [(HumanBody(name=f"p{i}"), w) for i, w in enumerate(walks)]
        multi = MultiScenario(people, room=room, seed=4)
        cache = SpectraCache(tmp_path)
        first = cache.run(multi)
        second = cache.run(multi)
        assert (cache.misses, cache.hits) == (1, 1)
        assert np.array_equal(first.spectra, second.spectra)
        assert second.bodies[1].name == "p1"

    def test_corrupt_entry_is_a_miss(self, scenario, tmp_path):
        cache = SpectraCache(tmp_path)
        cache.run(scenario)
        for path in cache.entries():
            path.write_bytes(b"not an npz")
        cache.run(scenario)
        assert cache.misses == 2


class TestEviction:
    def test_lru_eviction_under_budget(self, scenario, tmp_path):
        cache = SpectraCache(tmp_path)
        out = cache.run(scenario)
        entry_size = cache.size_bytes()
        assert entry_size > 0

        # Budget for ~one entry: storing a second evicts the first.
        cache.max_bytes = int(entry_size * 1.5)
        other = Scenario(scenario.trajectory, room=scenario.room, seed=99)
        cache.run(other)
        assert len(cache.entries()) == 1
        # The survivor is the newer entry.
        fresh = SpectraCache(tmp_path)
        fresh.run(other)
        assert (fresh.misses, fresh.hits) == (0, 1)
        assert out.spectra.shape  # first output still usable in memory

    def test_clear(self, scenario, tmp_path):
        cache = SpectraCache(tmp_path)
        cache.run(scenario)
        cache.clear()
        assert cache.entries() == []
        assert cache.size_bytes() == 0


class TestEnvironmentWiring:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache() is None

    def test_dir_enables(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = default_cache()
        assert cache is not None and cache.root == tmp_path

    def test_explicit_off_wins_over_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert default_cache() is None

    def test_max_mb_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "1")
        assert default_cache().max_bytes == 1_000_000

    def test_synthesize_uses_env_cache(self, scenario, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = synthesize(scenario)
        assert len(list(tmp_path.glob("*.npz"))) == 1
        second = synthesize(scenario)
        assert np.array_equal(first.spectra, second.spectra)

    def test_synthesize_without_cache_is_plain_run(
        self, scenario, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        out = synthesize(scenario)
        assert out.spectra.ndim == 3


class TestResultCache:
    def test_round_trip_equals_uncached(self, scenario, tmp_path):
        tracker = WiTrack(scenario.config)
        measured = scenario.run()
        direct = tracker.track(measured.spectra, measured.range_bin_m)

        cache = ResultCache(tmp_path)
        key = result_key(scenario, tracker)
        assert cache.get(key) is None
        result = tracker.pipeline(measured.range_bin_m).run_stream(
            measured.spectra
        )
        cache.put(key, result)
        restored = cache.get(key)
        assert (cache.misses, cache.hits) == (1, 1)
        np.testing.assert_array_equal(
            restored.frame_times_s, direct.frame_times_s
        )
        np.testing.assert_array_equal(restored.positions, direct.positions)
        np.testing.assert_array_equal(restored.tof_m.T, direct.round_trips_m)
        np.testing.assert_array_equal(
            restored.motion.any(axis=1), direct.motion_mask
        )

    def test_tracker_config_changes_key(self, scenario):
        """A tracker whose pipeline differs must never share a key."""
        base = WiTrack(scenario.config)
        tweaked = WiTrack(
            default_config().replace(
                pipeline=PipelineConfig(kalman_process_noise=1000.0)
            )
        )
        assert result_key(scenario, base) != result_key(scenario, tweaked)
        no_warm = WiTrack(scenario.config, solver_method="least_squares")
        no_warm.solver.warm_start = False
        warm = WiTrack(scenario.config, solver_method="least_squares")
        assert result_key(scenario, warm) != result_key(scenario, no_warm)

    def test_track_lists_round_trip_bitwise(self, tmp_path):
        """A K-person result's track columns survive the .npz round trip
        bitwise: ragged per-frame lists, ids, positions, coasting."""
        from repro.multi.tracks import TrackColumns
        from repro.pipeline import PipelineResult

        cache = ResultCache(tmp_path)
        columns = TrackColumns(
            np.array([0, 1, 2, 0]),  # empty frames keep their slot
            np.array([1, 1, 4]),
            np.array([[0.5, 3.0, -0.2], [0.6, 3.1, -0.1], [1.0, 5.0, np.nan]]),
            np.array([False, True, False]),
        )
        cache.put("key", PipelineResult(
            frame_times_s=np.arange(4) * 0.0125, track_columns=columns
        ))
        restored = cache.get("key")
        for name, want in columns._asdict().items():
            got = getattr(restored.track_columns, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert np.array_equal(got, want, equal_nan=True), name
        assert [[tid for tid, _ in frame] for frame in restored.tracks] == [
            [], [1], [1, 4], []
        ]

    def test_tracked_scenario_hit_skips_everything(
        self, scenario, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_cache_stats()
        tracker = WiTrack(scenario.config)
        first = tracked_scenario(scenario, tracker)
        assert cache_stats()["results"]["misses"] == 1
        calls = []
        monkeypatch.setattr(
            type(scenario), "run",
            lambda self: calls.append(1) or pytest.fail("synthesized on hit"),
        )
        second = tracked_scenario(scenario, tracker)
        assert cache_stats()["results"]["hits"] == 1
        np.testing.assert_array_equal(first.positions, second.positions)
        np.testing.assert_array_equal(
            first.frame_times_s, second.frame_times_s
        )
        assert second.tof_estimates == ()  # no spectrograms on a hit

    def test_results_live_beside_spectra(
        self, scenario, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        tracked_scenario(scenario, WiTrack(scenario.config))
        assert len(list(tmp_path.glob("*.npz"))) == 1  # spectra
        assert len(list((tmp_path / "results").glob("*.npz"))) == 1
        # The two caches never see each other's entries.
        assert default_cache().entries() != default_result_cache().entries()

    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_result_cache() is None


class TestMultiResultCache:
    @pytest.fixture(scope="class")
    def multi_setup(self):
        from repro.multi import MultiWiTrack
        from repro.sim.motion import non_colliding_walks

        room = through_wall_room()
        config = default_config()
        walks = non_colliding_walks(
            room, np.random.default_rng(5), count=2, duration_s=3.0,
            min_separation_m=1.0,
        )
        people = [(HumanBody(name=f"p{i}"), w) for i, w in enumerate(walks)]
        scenario = MultiScenario(people, room=room, config=config, seed=6)
        tracker = MultiWiTrack(config, max_people=2, room=room)
        return scenario, tracker

    def test_multi_key_depends_on_pipeline_config(self, multi_setup):
        from repro.multi import MultiWiTrack
        from repro.multi.tracks import TrackManagerConfig

        scenario, tracker = multi_setup
        other = MultiWiTrack(
            tracker.config,
            max_people=2,
            track_config=TrackManagerConfig(tof_gate_m=0.9),
        )
        assert multi_result_key(scenario, tracker) != multi_result_key(
            scenario, other
        )
        assert multi_result_key(scenario, tracker) == multi_result_key(
            scenario, tracker
        )

    def test_tracked_multi_scenario_hit_skips_everything(
        self, multi_setup, monkeypatch, tmp_path
    ):
        scenario, tracker = multi_setup
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_cache_stats()
        first = tracked_multi_scenario(scenario, tracker)
        assert cache_stats()["results"]["misses"] == 1
        monkeypatch.setattr(
            type(scenario), "run",
            lambda self: pytest.fail("synthesized on hit"),
        )
        second = tracked_multi_scenario(scenario, tracker)
        assert cache_stats()["results"]["hits"] == 1
        np.testing.assert_array_equal(first.positions, second.positions)
        np.testing.assert_array_equal(
            first.frame_times_s, second.frame_times_s
        )
        assert first.track_ids == second.track_ids
        np.testing.assert_array_equal(first.coasting, second.coasting)
        # The entry is the K-person PipelineResult, tracks as columns.
        stored = ResultCache(tmp_path / "results").get(
            multi_result_key(scenario, tracker)
        )
        assert stored.track_columns.counts.shape == (second.num_frames,)

    def test_disabled_cache_is_plain_track(self, multi_setup, monkeypatch):
        scenario, tracker = multi_setup
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        direct = tracker.track(*_run(scenario))
        via_seam = tracked_multi_scenario(scenario, tracker)
        np.testing.assert_array_equal(direct.positions, via_seam.positions)
        assert direct.track_ids == via_seam.track_ids


def _run(scenario):
    out = scenario.run()
    return out.spectra, out.range_bin_m


class TestCacheStats:
    def test_counters_aggregate_across_instances(self, scenario, tmp_path):
        reset_cache_stats()
        SpectraCache(tmp_path).run(scenario)
        SpectraCache(tmp_path).run(scenario)  # fresh instance, same dir
        stats = cache_stats()["spectra"]
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_eviction_counted(self, scenario, tmp_path):
        reset_cache_stats()
        cache = SpectraCache(tmp_path)
        cache.run(scenario)
        size = cache.size_bytes()
        cache.max_bytes = size // 2
        assert cache.evict() == 1
        assert cache.evictions == 1
        assert cache_stats()["spectra"]["evictions"] == 1

    def test_reset_zeroes(self):
        reset_cache_stats()
        stats = cache_stats()
        assert all(
            count == 0
            for counts in stats.values()
            for count in counts.values()
        )


class TestCacheAdmission:
    """The TinyLFU-style doorkeeper in front of the LRU store."""

    def _probe_entry_size(self, tmp_path):
        probe = NpzLruCache(tmp_path / "probe")
        probe._store_arrays("probe", {"a": np.zeros(64)})
        return probe.entries()[0].stat().st_size

    def test_second_touch_admits(self):
        filt = CacheAdmissionFilter(window=8)
        assert not filt.should_store("k")   # first touch: register only
        assert filt.should_store("k")       # second touch: admit

    def test_window_ages_out_stale_first_touches(self):
        filt = CacheAdmissionFilter(window=2)
        assert not filt.should_store("old")
        assert not filt.should_store("a")
        assert not filt.should_store("b")   # evicts "old" from the window
        assert not filt.should_store("old") # must start over
        assert filt.should_store("old")

    def test_filtered_store_skipped_and_counted(self, tmp_path):
        reset_cache_stats()
        cache = NpzLruCache(tmp_path, admission=CacheAdmissionFilter())
        cache._store_arrays("once", {"a": np.zeros(4)})
        assert cache.entries() == []
        assert cache.filtered == 1
        assert cache_stats()["spectra"]["filtered"] == 1
        cache._store_arrays("once", {"a": np.zeros(4)})
        assert len(cache.entries()) == 1

    def test_scan_cannot_evict_hot_working_set(self, tmp_path):
        """The pinned scan-resistance property (the filter's raison d'etre).

        A hot working set that fits the budget, then a scan of one-shot
        keys bigger than the budget: without admission the scan churns
        the LRU and evicts every hot entry; with it, the scan never
        stores and the hot set survives untouched.
        """
        entry = self._probe_entry_size(tmp_path)
        budget = int(4.5 * entry)  # room for the 3 hot entries + one more
        hot = [f"hot{i}" for i in range(3)]
        scan = [f"oneshot{i}" for i in range(20)]

        unfiltered = NpzLruCache(tmp_path / "plain", max_bytes=budget)
        for key in hot:
            unfiltered._store_arrays(key, {"a": np.zeros(64)})
        for key in scan:
            unfiltered._store_arrays(key, {"a": np.zeros(64)})
        assert all(
            unfiltered._load_arrays(key) is None for key in hot
        ), "control: an unfiltered scan must evict the hot set"

        filtered = NpzLruCache(
            tmp_path / "admit",
            max_bytes=budget,
            admission=CacheAdmissionFilter(window=64),
        )
        for key in hot:          # two touches: registered, then admitted
            filtered._store_arrays(key, {"a": np.zeros(64)})
            filtered._store_arrays(key, {"a": np.zeros(64)})
        for key in scan:         # one-shot keys never recur
            filtered._store_arrays(key, {"a": np.zeros(64)})
        assert all(
            filtered._load_arrays(key) is not None for key in hot
        ), "the doorkeeper must keep a one-shot scan from storing"
        assert filtered.filtered == len(hot) + len(scan)
        assert len(filtered.entries()) == len(hot)

    def test_env_arms_default_caches(self, monkeypatch, tmp_path):
        reset_cache_stats()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_ADMIT", "1")
        cache = default_cache()
        assert isinstance(cache.admission, CacheAdmissionFilter)
        assert cache.admission.window == 1024
        # The doorkeeper is process-wide: a second instance shares it,
        # so first touches survive across short-lived cache objects.
        assert default_cache().admission is cache.admission
        assert default_result_cache().admission is not cache.admission

    def test_env_window_override(self, monkeypatch, tmp_path):
        reset_cache_stats()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_ADMIT", "32")
        assert default_cache().admission.window == 32

    def test_admission_off_by_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE_ADMIT", raising=False)
        assert default_cache().admission is None
