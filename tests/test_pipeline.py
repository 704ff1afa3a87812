"""Tests for the unified pipeline engine (repro.pipeline).

The load-bearing property: offline ``track`` and the realtime apps run
the same lockstep tick, so the same recording comes out *bitwise
identical* either way — for the single-person and the multi-person
stage graphs — and splitting a recording across ``run_stream`` calls
never changes a frame.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.realtime import RealtimeMultiTracker, RealtimeTracker
from repro.config import default_config
from repro.core.tracker import WiTrack
from repro.multi import MultiScenario, MultiWiTrack
from repro.pipeline import (
    BackgroundSubtract,
    LatencyReport,
    Pipeline,
    single_person_pipeline,
)
from repro.sim import Scenario
from repro.sim.body import GatedAR1, HumanBody
from repro.sim.motion import non_colliding_walks, random_walk
from repro.sim.room import through_wall_room

#: Frames of the shared walk the split property streams (2.5 s).
SPLIT_FRAMES = 200


@pytest.fixture(scope="module")
def multi_output(config):
    """A short 2-person through-wall session, synthesized once."""
    room = through_wall_room()
    walks = non_colliding_walks(
        room, np.random.default_rng(7), count=2, duration_s=6.0,
        min_separation_m=1.0,
    )
    people = [(HumanBody(name=f"p{i}"), w) for i, w in enumerate(walks)]
    return MultiScenario(people, room=room, config=config, seed=7).run(), room


class TestSinglePersonEquivalence:
    """Offline track and the realtime app on the same ScenarioOutput."""

    def test_stream_without_spectra_recording(self, tw_walk_output, config):
        """record_spectra=False: same track, no spectrogram accumulation."""
        out = tw_walk_output
        tracker = WiTrack(config)
        full = tracker.track(out.spectra, out.range_bin_m)
        lean = tracker.track(
            out.spectra, out.range_bin_m, record_spectra=False
        )
        assert lean.tof_estimates == ()
        np.testing.assert_array_equal(full.positions, lean.positions)

    def test_too_short_recording_raises(self, config):
        """A recording that never leaves priming errors clearly."""
        short = np.zeros((3, 5, 171), dtype=np.complex128)
        with pytest.raises(ValueError):
            WiTrack(config).track(short, 0.1774)
        with pytest.raises(ValueError):
            MultiWiTrack(config).track(short, 0.1774)

    def test_realtime_tracker_matches_batch(self, tw_walk_output, config):
        """The realtime app emits exactly the offline track, one frame
        late: both run the same N=1 lockstep tick."""
        out = tw_walk_output
        track = WiTrack(config).track(out.spectra, out.range_bin_m)
        rt = RealtimeTracker(config, range_bin_m=out.range_bin_m)
        positions = rt.run(out.spectra)
        assert np.all(np.isnan(positions[0]))  # priming frame
        np.testing.assert_array_equal(positions[1:], track.positions)


class TestMultiPersonEquivalence:
    def test_realtime_multi_matches_batch(self, multi_output, config):
        """The realtime multi-person app is the offline track, bitwise."""
        out, room = multi_output
        track = MultiWiTrack(config, max_people=2, room=room).track(
            out.spectra, out.range_bin_m
        )
        rt = RealtimeMultiTracker(
            config, range_bin_m=out.range_bin_m, max_people=2, room=room
        )
        stream = rt.run(out.spectra)
        assert track.track_ids == stream.track_ids
        np.testing.assert_array_equal(
            track.frame_times_s, stream.frame_times_s
        )
        np.testing.assert_array_equal(track.positions, stream.positions)
        np.testing.assert_array_equal(track.coasting, stream.coasting)
        assert rt.latency.within_budget(0.075)


class TestPipelineRunner:
    def test_push_primes_then_emits(self, config):
        pipe = single_person_pipeline(
            config, 0.1774, solver=WiTrack(config).solver
        )
        block = np.zeros((3, 5, 171), dtype=np.complex128)
        assert pipe.push(block) is None  # priming
        frame = pipe.push(block)
        assert frame is not None
        assert frame.tof_m.shape == (3,)
        assert frame.position.shape == (3,)

    def test_reset_forgets_state(self, config):
        pipe = single_person_pipeline(
            config, 0.1774, solver=WiTrack(config).solver
        )
        block = np.zeros((3, 5, 171), dtype=np.complex128)
        pipe.push(block)
        pipe.push(block)
        pipe.reset()
        assert pipe.latency.latencies_s == []
        assert pipe.push(block) is None  # priming again

    def test_stage_lookup(self, config):
        pipe = single_person_pipeline(
            config, 0.1774, solver=WiTrack(config).solver
        )
        assert isinstance(pipe.stage(BackgroundSubtract), BackgroundSubtract)
        with pytest.raises(KeyError):
            pipe.stage(LatencyReport)

    def test_run_stream_validates_shape(self, config):
        pipe = single_person_pipeline(
            config, 0.1774, solver=WiTrack(config).solver
        )
        with pytest.raises(ValueError):
            pipe.run_stream(np.zeros((10, 171)))

    @given(split=st.integers(min_value=0, max_value=SPLIT_FRAMES))
    @settings(max_examples=25, deadline=None)
    def test_split_stream_equals_whole(self, config, tw_walk_output, split):
        """For any frame split, two run_stream calls on one pipeline are
        one call over the whole recording, bitwise."""
        out = tw_walk_output
        spf = config.pipeline.sweeps_per_frame
        spectra = out.spectra[:, : SPLIT_FRAMES * spf, :]
        tracker = WiTrack(config)
        whole = tracker.pipeline(out.range_bin_m).run_stream(spectra)
        pipe = tracker.pipeline(out.range_bin_m)
        parts = [
            pipe.run_stream(spectra[:, : split * spf, :]),
            pipe.run_stream(spectra[:, split * spf :, :]),
        ]
        for name in (
            "frame_times_s", "tof_m", "raw_tof_m", "motion", "positions"
        ):
            joined = np.concatenate(
                [getattr(p, name) for p in parts if p.num_frames]
            )
            np.testing.assert_array_equal(joined, getattr(whole, name))


class TestScenarioFrames:
    def test_chunk_size_invariant_and_deterministic(self, config):
        room = through_wall_room()
        walk = random_walk(room, np.random.default_rng(3), duration_s=2.0)
        sc = Scenario(walk, room=room, config=config, seed=5)
        a = np.concatenate(list(sc.frames(chunk_frames=7)), axis=1)
        b = np.concatenate(list(sc.frames(chunk_frames=64)), axis=1)
        c = np.concatenate(
            list(
                Scenario(walk, room=room, config=config, seed=5).frames(
                    chunk_frames=7
                )
            ),
            axis=1,
        )
        # Chunking shifts which elements land in SIMD lanes vs scalar
        # tails of numpy's transcendentals, so invariance holds to
        # last-ulp jitter (~1e-21 absolute), not bitwise.
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(a, c)  # same chunking: bitwise

    def test_block_shapes_and_count(self, config):
        room = through_wall_room()
        walk = random_walk(room, np.random.default_rng(3), duration_s=2.0)
        sc = Scenario(walk, room=room, config=config, seed=5)
        blocks = list(sc.frames(chunk_frames=32))
        assert len(blocks) == sc.num_stream_frames
        spf = config.pipeline.sweeps_per_frame
        for block in blocks:
            assert block.shape[0] == 3
            assert block.shape[1] == spf

    def test_streamed_session_tracks(self, config):
        """frames() -> track: the bounded-memory path end to end."""
        room = through_wall_room()
        walk = random_walk(room, np.random.default_rng(11), duration_s=6.0)
        sc = Scenario(walk, room=room, config=config, seed=12)
        track = WiTrack(config).track(sc.frames(), sc.range_bin_m)
        assert track.num_frames == sc.num_stream_frames - 1
        assert track.valid_mask.mean() > 0.8
        truth = walk.resample(track.frame_times_s)
        valid = track.valid_mask
        err = np.linalg.norm(
            track.positions[valid] - truth[valid], axis=1
        )
        assert np.median(err) < 0.6

    def test_rejects_bad_chunk(self, config):
        room = through_wall_room()
        walk = random_walk(room, np.random.default_rng(3), duration_s=1.0)
        sc = Scenario(walk, room=room, config=config, seed=5)
        with pytest.raises(ValueError):
            next(sc.frames(chunk_frames=0))


class TestGatedAR1:
    def test_chunked_equals_whole(self):
        activity = np.clip(
            np.abs(np.sin(np.linspace(0, 6, 100))), 0.0, 1.0
        )
        whole = GatedAR1(0.9, np.random.default_rng(0), dim=3).advance(
            activity
        )
        walk = GatedAR1(0.9, np.random.default_rng(0), dim=3)
        chunked = np.concatenate(
            [walk.advance(activity[:37]), walk.advance(activity[37:])]
        )
        np.testing.assert_array_equal(whole, chunked)

    def test_zero_activity_freezes(self):
        walk = GatedAR1(0.9, np.random.default_rng(0))
        out = walk.advance(np.zeros(10))
        assert np.all(out == out[0])
