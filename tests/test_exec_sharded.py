"""Sharded streaming: split one session at pipeline-reset boundaries.

Pins the two halves of the shard contract: a shard's frames are bitwise
the full stream's frames (the simulator fast-forward), and the merged
result is independent of how many workers executed the shard plan.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.multi.tracks import MultiTrack, TrackColumns
from repro.pipeline.runner import LatencyReport, PipelineResult
from repro.exec import (
    MIN_SHARD_FRAMES,
    ShardedStreamRunner,
    merge_results,
    plan_shards,
    results_identical,
    track_scenario_shard,
)
from repro.sim import Scenario, random_walk, through_wall_room


def k_person_result() -> PipelineResult:
    """Five frames of K-person output: empty frames, a NaN position
    and a coasted entry included."""
    positions = np.arange(18, dtype=np.float64).reshape(6, 3) / 7
    positions[4, 1] = np.nan
    return PipelineResult(
        frame_times_s=np.arange(5) * 0.0125,
        track_columns=TrackColumns(
            counts=np.array([1, 2, 0, 2, 1]),
            ids=np.array([1, 1, 2, 1, 3, 3]),
            positions=positions,
            coasting=np.array([False, False, True, False, True, False]),
        ),
    )


def single_person_result() -> PipelineResult:
    """Three frames of single-person output, one of them all NaN."""
    positions = np.arange(9, dtype=np.float64).reshape(3, 3)
    positions[1] = np.nan
    return PipelineResult(
        frame_times_s=np.arange(3) * 0.0125,
        tof_m=positions + 1,
        raw_tof_m=positions + 2,
        motion=np.eye(3, dtype=bool),
        positions=positions,
    )


def frames(result: PipelineResult, start: int, stop: int) -> PipelineResult:
    """Frames ``[start, stop)`` of a K-person result."""
    columns = result.track_columns
    bounds = np.concatenate([[0], np.cumsum(columns.counts)])
    entries = slice(bounds[start], bounds[stop])
    return PipelineResult(
        frame_times_s=result.frame_times_s[start:stop],
        track_columns=TrackColumns(
            columns.counts[start:stop], *(c[entries] for c in columns[1:])
        ),
    )


@pytest.fixture(scope="module")
def scenario():
    room = through_wall_room()
    walk = random_walk(room, np.random.default_rng(5), duration_s=6.0)
    return Scenario(walk, room=room, seed=6)


class TestPlanShards:
    def test_contiguous_and_complete(self):
        shards = plan_shards(101, 4)
        assert shards[0].start_frame == 0
        assert shards[-1].stop_frame == 101
        for prev, cur in zip(shards, shards[1:]):
            assert prev.stop_frame == cur.start_frame
        assert max(s.num_frames for s in shards) - min(
            s.num_frames for s in shards
        ) <= 1

    def test_clamps_slivers(self):
        # 5 frames cannot feed 4 shards of >= MIN_SHARD_FRAMES each.
        shards = plan_shards(5, 4)
        assert all(s.num_frames >= MIN_SHARD_FRAMES for s in shards)
        assert len(shards) == 5 // MIN_SHARD_FRAMES

    def test_degenerate_single_shard(self):
        assert plan_shards(1, 3) == plan_shards(1, 1)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            plan_shards(0, 1)
        with pytest.raises(ValueError):
            plan_shards(10, 0)


class TestShardFastForward:
    def test_shard_frames_bitwise_match_full_stream(self, scenario):
        full = list(scenario.frames(chunk_frames=64))
        shard = list(
            scenario.frames(chunk_frames=64, start_frame=200, stop_frame=230)
        )
        assert len(shard) == 30
        for a, b in zip(full[200:230], shard):
            assert np.array_equal(a, b)

    def test_invalid_range_rejected(self, scenario):
        with pytest.raises(ValueError):
            list(scenario.frames(start_frame=-1))
        with pytest.raises(ValueError):
            list(scenario.frames(start_frame=10, stop_frame=5))
        # Out-of-range stops are an error, not a silently short stream.
        with pytest.raises(ValueError):
            list(
                scenario.frames(
                    stop_frame=scenario.num_stream_frames + 1
                )
            )

    def test_shard_timestamps_on_session_clock(self, scenario):
        result = track_scenario_shard(scenario, 100, 120)
        frame_dt = (
            scenario.config.pipeline.sweeps_per_frame
            * scenario.config.fmcw.sweep_duration_s
        )
        # First *output* frame is the shard's second input frame (the
        # first primes background subtraction at the reset boundary).
        assert result.frame_times_s[0] == pytest.approx(101.5 * frame_dt)


class TestShardedRunner:
    @pytest.fixture(scope="class")
    def results(self, scenario):
        serial = ShardedStreamRunner(num_shards=3, max_workers=1)
        pooled = ShardedStreamRunner(num_shards=3, max_workers=2)
        return serial.run(scenario), pooled.run(scenario)

    def test_parallel_identical_to_serial(self, results):
        serial, pooled = results
        assert np.array_equal(serial.frame_times_s, pooled.frame_times_s)
        assert np.array_equal(
            serial.positions, pooled.positions, equal_nan=True
        )
        assert np.array_equal(serial.tof_m, pooled.tof_m, equal_nan=True)
        assert np.array_equal(serial.motion, pooled.motion)

    def test_reset_boundaries_cost_one_frame_each(self, results, scenario):
        serial, _ = results
        # Each of the 3 shards spends its first frame priming
        # background subtraction.
        assert serial.num_frames == scenario.num_stream_frames - 3

    def test_times_strictly_increasing(self, results):
        serial, _ = results
        assert np.all(np.diff(serial.frame_times_s) > 0)

    def test_tracks_most_of_the_session(self, results):
        serial, _ = results
        valid = np.isfinite(serial.positions).all(axis=1)
        assert valid.mean() > 0.5


class TestMergeResults:
    def test_empty(self):
        merged = merge_results([])
        assert merged.num_frames == 0

    def test_concatenation_and_latency_pooling(self):
        a = PipelineResult(
            frame_times_s=np.array([0.0, 1.0]),
            positions=np.zeros((2, 3)),
            latency=LatencyReport(latencies_s=[0.1]),
        )
        b = PipelineResult(
            frame_times_s=np.array([2.0]),
            positions=np.ones((1, 3)),
            latency=LatencyReport(latencies_s=[0.2, 0.3]),
        )
        merged = merge_results([a, b])
        assert merged.num_frames == 3
        assert merged.positions.shape == (3, 3)
        assert merged.latency.latencies_s == [0.1, 0.2, 0.3]
        assert merged.tof_m is None

    def test_partial_fields_rejected(self):
        a = PipelineResult(
            frame_times_s=np.array([0.0]), positions=np.zeros((1, 3))
        )
        b = PipelineResult(frame_times_s=np.array([1.0]))
        with pytest.raises(ValueError, match="positions"):
            merge_results([a, b])

    def test_empty_shards_skipped(self):
        a = PipelineResult(frame_times_s=np.asarray([]))
        b = PipelineResult(
            frame_times_s=np.array([1.0]), positions=np.ones((1, 3))
        )
        merged = merge_results([a, b])
        assert merged.num_frames == 1

    def test_k_person_parts(self):
        whole = k_person_result()
        a, b = frames(whole, 0, 3), frames(whole, 3, 5)
        merged = merge_results([a, b])
        for name, want in whole.track_columns._asdict().items():
            got = getattr(merged.track_columns, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert np.array_equal(got, want, equal_nan=True), name
        joined = a.tracks + b.tracks
        assert [[tid for tid, _ in f] for f in merged.tracks] == [
            [tid for tid, _ in f] for f in joined
        ]
        for got, want in zip(merged.tracks, joined):
            for (_, p), (_, q) in zip(got, want):
                assert np.array_equal(p, q, equal_nan=True)
        got, want = map(MultiTrack.from_result, (merged, whole))
        assert got.track_ids == want.track_ids
        for field in ("frame_times_s", "positions", "coasting"):
            np.testing.assert_array_equal(
                getattr(got, field), getattr(want, field)
            )
        untracked = PipelineResult(frame_times_s=np.array([1.0]))
        with pytest.raises(ValueError, match="track_columns"):
            merge_results([a, untracked, b])


def _moved(columns: TrackColumns) -> TrackColumns:
    """The same flat entries, one moved to the next frame."""
    counts = columns.counts.copy()
    counts[[1, 2]] += [-1, 1]
    return columns._replace(counts=counts)


def _changed(name: str, index, value):
    def change(columns: TrackColumns) -> TrackColumns:
        array = getattr(columns, name).copy()
        array[index] = value
        return columns._replace(**{name: array})

    return change


class TestResultsIdentical:
    """The determinism gate of the sharded and serving benchmarks."""

    @pytest.mark.parametrize("make", [single_person_result, k_person_result])
    def test_equal_results_are_identical(self, make):
        """Equal results are identical, their NaN positions included."""
        assert results_identical(make(), make())

    def test_one_timestamp_differs(self):
        a = k_person_result()
        times = a.frame_times_s.copy()
        times[-1] += 1e-9
        assert not results_identical(a, replace(a, frame_times_s=times))

    @pytest.mark.parametrize("change", [
        _changed("ids", 3, 7),
        _changed("positions", (0, 2), 0.5),
        _changed("coasting", 5, True),
        _moved,
    ], ids=["track id", "position", "coasting", "moved entry"])
    def test_one_track_change_differs(self, change):
        a = k_person_result()
        b = replace(a, track_columns=change(a.track_columns))
        assert not results_identical(a, b)
        assert not results_identical(b, a)

    @pytest.mark.parametrize("name", ["positions", "tof_m", "track_columns"])
    def test_field_present_on_one_side_differs(self, name):
        a = k_person_result() if name == "track_columns" else (
            single_person_result()
        )
        b = replace(a, **{name: None})
        assert not results_identical(a, b)
        assert not results_identical(b, a)
