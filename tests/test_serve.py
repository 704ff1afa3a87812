"""Tests for the multi-session serving engine (repro.serve).

The load-bearing properties:

* N=1 serving output is **bitwise** ``Pipeline.run_stream`` output —
  the realtime apps are views over the engine, not a second code path;
* N-session lockstep output equals N serial per-session runs *exactly*,
  across mixed single/multi cohorts and staggered session start/stop —
  batching sessions for throughput never changes anyone's answer;
* evicting a session mid-run does not perturb the survivors, and its
  slot is recycled for the next admission.
"""

import warnings

import numpy as np
import pytest

from repro.config import ArrayConfig, default_config
from repro.core.localize import LeastSquaresSolver, make_solver
from repro.core.tracker import WiTrack
from repro.geometry.antennas import t_array
from repro.multi import MultiScenario, MultiWiTrack
from repro.pipeline import BackgroundSubtract, KalmanSmooth, LatencyReport
from repro.serve import ServingEngine, multi_session, single_session
from repro.sim import Scenario
from repro.sim.body import HumanBody
from repro.sim.motion import non_colliding_walks, random_walk
from repro.sim.room import through_wall_room


@pytest.fixture(scope="module")
def room():
    return through_wall_room()


@pytest.fixture(scope="module")
def short_walks(config, room):
    """Four short single-person recordings, synthesized once."""
    outputs = []
    for seed in range(4):
        walk = random_walk(
            room, np.random.default_rng(seed), duration_s=2.5
        )
        outputs.append(
            Scenario(walk, room=room, config=config, seed=seed + 50).run()
        )
    return outputs


@pytest.fixture(scope="module")
def multi_output(config, room):
    """A short 2-person recording, synthesized once."""
    walks = non_colliding_walks(
        room, np.random.default_rng(9), count=2, duration_s=2.5,
        min_separation_m=1.0,
    )
    people = [(HumanBody(name=f"p{i}"), w) for i, w in enumerate(walks)]
    return MultiScenario(people, room=room, config=config, seed=9).run()


def frame_blocks(output, config, limit=None):
    """Slice a recording into per-frame sweep blocks."""
    spf = config.pipeline.sweeps_per_frame
    n = output.spectra.shape[1] // spf
    if limit is not None:
        n = min(n, limit)
    return [
        output.spectra[:, f * spf : (f + 1) * spf, :] for f in range(n)
    ]


def serial_single(config, range_bin_m, blocks):
    """The serial reference: one fresh pipeline, run_stream."""
    pipeline = WiTrack(config).pipeline(range_bin_m)
    return pipeline.run_stream(np.concatenate(blocks, axis=1))


def serial_multi(config, range_bin_m, blocks, room, max_people=2):
    pipeline = MultiWiTrack(
        config, max_people=max_people, room=room
    ).pipeline(range_bin_m)
    return pipeline.run_stream(np.concatenate(blocks, axis=1))


def assert_single_equal(result, reference):
    """Bitwise equality of two single-person pipeline results."""
    np.testing.assert_array_equal(
        result.frame_times_s, reference.frame_times_s
    )
    for name in ("tof_m", "raw_tof_m", "positions"):
        np.testing.assert_array_equal(
            getattr(result, name), getattr(reference, name)
        )
    np.testing.assert_array_equal(result.motion, reference.motion)


def assert_tracks_equal(result, reference):
    """Exact equality of two multi-person track streams."""
    np.testing.assert_array_equal(
        result.frame_times_s, reference.frame_times_s
    )
    assert len(result.tracks) == len(reference.tracks)
    for ours, theirs in zip(result.tracks, reference.tracks):
        assert [tid for tid, _ in ours] == [tid for tid, _ in theirs]
        for (_, p1), (_, p2) in zip(ours, theirs):
            np.testing.assert_array_equal(p1, p2)


def drive(engine, plan):
    """Run admission/feeding/closing per plan; returns results by name.

    ``plan`` maps name -> dict(spec=..., blocks=..., start=step,
    stop=frames-to-feed or None, evict=bool). Sessions join at their
    start step, feed one frame per step, and leave when their feed is
    exhausted (evict=True discards instead of closing cleanly).
    """
    live = {}
    results = {}
    sessions = {}
    step = 0
    while len(results) < len(plan):
        for name, entry in plan.items():
            if name not in sessions and entry.get("start", 0) <= step:
                session = engine.admit(entry["spec"])
                sessions[name] = session
                live[name] = (session, iter(entry["blocks"]))
        for name in list(live):
            session, stream = live[name]
            block = next(stream, None)
            if block is None:
                del live[name]
                if plan[name].get("evict"):
                    engine.evict(session)
                    results[name] = None
                else:
                    results[name] = engine.close(session)
            else:
                engine.submit(session, block)
        engine.tick()
        step += 1
        assert step < 10_000, "drive loop ran away"
    return results, sessions


class TestLockstepEquivalence:
    def test_n1_bitwise_equals_run_stream(self, config, short_walks):
        """One admitted session IS the streamed pipeline, bitwise."""
        out = short_walks[0]
        blocks = frame_blocks(out, config)
        reference = serial_single(config, out.range_bin_m, blocks)

        engine = ServingEngine()
        session = engine.admit(single_session(config, out.range_bin_m))
        for block in blocks:
            engine.submit(session, block)
        engine.drain()
        result = engine.close(session)
        assert_single_equal(result, reference)
        assert result.latency.latencies_s  # per-session latency recorded
        assert len(result.latency.latencies_s) == len(blocks)

    def test_lockstep_equals_serial_staggered(self, config, short_walks):
        """N lockstep sessions == N serial runs, with staggered joins."""
        blocks = {
            f"s{i}": frame_blocks(out, config)
            for i, out in enumerate(short_walks[:3])
        }
        spec = single_session(config, short_walks[0].range_bin_m)
        engine = ServingEngine()
        plan = {
            "s0": {"spec": spec, "blocks": blocks["s0"], "start": 0},
            "s1": {"spec": spec, "blocks": blocks["s1"], "start": 7},
            "s2": {"spec": spec, "blocks": blocks["s2"][:120], "start": 31},
        }
        results, _ = drive(engine, plan)
        for name, entry in plan.items():
            reference = serial_single(
                config, short_walks[0].range_bin_m, entry["blocks"]
            )
            assert_single_equal(results[name], reference)

    def test_mixed_cohorts(self, config, room, short_walks, multi_output):
        """Single and multi sessions coexist in separate cohorts."""
        range_bin_m = short_walks[0].range_bin_m
        single_spec = single_session(config, range_bin_m)
        multi_spec = multi_session(
            config, range_bin_m, max_people=2, room=room
        )
        engine = ServingEngine()
        plan = {
            "a": {"spec": single_spec,
                  "blocks": frame_blocks(short_walks[0], config, 150)},
            "b": {"spec": single_spec,
                  "blocks": frame_blocks(short_walks[1], config, 150),
                  "start": 11},
            "m": {"spec": multi_spec,
                  "blocks": frame_blocks(multi_output, config)},
        }
        results, sessions = drive(engine, plan)
        # Two cohorts existed: singles shared one pipeline, multi its own.
        assert sessions["a"].cohort is sessions["b"].cohort
        assert sessions["m"].cohort is not sessions["a"].cohort
        assert engine.manager.cohorts == {}  # all closed -> all dropped

        for name in ("a", "b"):
            reference = serial_single(
                config, range_bin_m, plan[name]["blocks"]
            )
            assert_single_equal(results[name], reference)
        reference = serial_multi(
            config, range_bin_m, plan["m"]["blocks"], room
        )
        assert_tracks_equal(results["m"], reference)

    def test_least_squares_session_warm_starts_like_solve(self, config, room):
        """A 4-receiver (least-squares) session carries its warm start
        from tick to tick: its fixes are ``solver.solve`` over its ToFs."""
        cfg = config.replace(array=ArrayConfig(num_receivers=4))
        walk = random_walk(room, np.random.default_rng(5), duration_s=2.0)
        out = Scenario(walk, room=room, config=cfg, seed=55).run()
        engine = ServingEngine()
        session = engine.admit(single_session(cfg, out.range_bin_m))
        for block in frame_blocks(out, cfg):
            engine.submit(session, block)
        engine.drain()
        result = engine.close(session)
        solver = make_solver(t_array(cfg.array))
        assert isinstance(solver, LeastSquaresSolver) and solver.warm_start
        expected = solver.solve(result.tof_m).positions
        assert np.isfinite(expected).all(axis=1).mean() > 0.5
        np.testing.assert_array_equal(result.positions, expected)

    def test_eviction_does_not_perturb_survivors(self, config, short_walks):
        """Mid-run eviction leaves cohort mates bit-identical."""
        range_bin_m = short_walks[0].range_bin_m
        spec = single_session(config, range_bin_m)
        engine = ServingEngine()
        plan = {
            "a": {"spec": spec,
                  "blocks": frame_blocks(short_walks[0], config)},
            "victim": {"spec": spec,
                       "blocks": frame_blocks(short_walks[1], config, 40),
                       "evict": True},
            "c": {"spec": spec,
                  "blocks": frame_blocks(short_walks[2], config)},
            # Admitted well after the victim's slot frees: exercises
            # slot recycling under the survivors' feet.
            "d": {"spec": spec,
                  "blocks": frame_blocks(short_walks[3], config, 100),
                  "start": 60},
        }
        results, sessions = drive(engine, plan)
        assert results["victim"] is None
        assert sessions["d"].slot == sessions["victim"].slot  # recycled
        for name in ("a", "c", "d"):
            reference = serial_single(
                config, range_bin_m, plan[name]["blocks"]
            )
            assert_single_equal(results[name], reference)


class TestBackpressureAndLifecycle:
    def test_bounded_queue_refuses_then_recovers(self, config, short_walks):
        out = short_walks[0]
        blocks = frame_blocks(out, config, 4)
        engine = ServingEngine(queue_capacity=2)
        session = engine.admit(single_session(config, out.range_bin_m))
        assert engine.offer(session, blocks[0])
        assert engine.offer(session, blocks[1])
        assert not engine.offer(session, blocks[2])  # backpressure
        assert engine.tick() == 1
        assert engine.offer(session, blocks[2])  # room again
        engine.drain()
        engine.close(session)
        with pytest.raises(RuntimeError):
            session.offer(blocks[3])  # closed sessions take no frames

    def test_submit_blocks_through_backpressure(self, config, short_walks):
        out = short_walks[0]
        blocks = frame_blocks(out, config, 10)
        engine = ServingEngine(queue_capacity=2)
        session = engine.admit(single_session(config, out.range_bin_m))
        for block in blocks:  # more frames than the queue holds
            engine.submit(session, block)
        engine.drain()
        result = engine.close(session)
        assert result.num_frames == len(blocks) - 1  # priming frame

    def test_track_manager_accessor(self, config, room, multi_output):
        engine = ServingEngine()
        spec = multi_session(
            config, multi_output.range_bin_m, max_people=2, room=room
        )
        a, b = engine.admit(spec), engine.admit(spec)
        assert a.cohort is b.cohort
        assert engine.track_manager(a) is not engine.track_manager(b)

    def test_double_close_rejected(self, config, short_walks):
        engine = ServingEngine()
        session = engine.admit(
            single_session(config, short_walks[0].range_bin_m)
        )
        engine.close(session)
        with pytest.raises(RuntimeError):
            engine.close(session)

    def test_empty_cohorts_are_dropped(self, config, short_walks):
        """Churning heterogeneous specs must not leak idle pipelines."""
        engine = ServingEngine()
        spec = single_session(config, short_walks[0].range_bin_m)
        a, b = engine.admit(spec), engine.admit(spec)
        other = engine.admit(single_session(config, 0.2))
        assert len(engine.manager.cohorts) == 2
        engine.close(a)
        assert len(engine.manager.cohorts) == 2  # b still lives there
        engine.close(b)
        engine.close(other)
        assert engine.manager.cohorts == {}


class TestSessionVectorizedStages:
    def test_pipeline_attach_grows_and_preserves(self, config):
        pipe = WiTrack(config).pipeline(0.1774)
        block = np.random.default_rng(0).normal(
            size=(3, 5, 171)
        ) + 1j * np.random.default_rng(1).normal(size=(3, 5, 171))
        pipe.push(block)  # slot 0 primes
        pipe.attach_sessions(3)
        assert pipe.num_sessions == 3
        # Slot 0's background reference survived the growth.
        assert pipe.stage(BackgroundSubtract)._primed[0]
        assert not pipe.stage(BackgroundSubtract)._primed[1]

    def test_evict_resets_only_that_slot(self, config):
        pipe = WiTrack(config).pipeline(0.1774)
        pipe.attach_sessions(2)
        rng = np.random.default_rng(0)
        for _ in range(3):
            blocks = rng.normal(size=(2, 3, 5, 171)) + 0j
            pipe.tick(blocks, [0, 1])
        kalman = pipe.stage(KalmanSmooth)
        assert kalman._initialized is not None
        # snapshot_session is the read barrier: the fused tick path
        # keeps resident state in plan scratch and flushes it to the
        # slabs before any direct slab-level read.
        pipe.snapshot_session(0)
        before = kalman._initialized[0].copy()
        pipe.evict_session(1)
        np.testing.assert_array_equal(kalman._initialized[0], before)
        assert not kalman._initialized[1].any()
        with pytest.raises(IndexError):
            pipe.evict_session(5)

    def test_stage_lookup_error_names_stages(self, config):
        pipe = WiTrack(config).pipeline(0.1774)
        with pytest.raises(KeyError, match="LatencyReport"):
            pipe.stage(LatencyReport)
        try:
            pipe.stage(LatencyReport)
        except KeyError as err:
            message = str(err)
        assert "BackgroundSubtract" in message
        assert "KalmanSmooth" in message

    def test_foreign_dtype_block_stays_with_its_sender(
        self, config, short_walks
    ):
        """A float32 block leading a tick never recasts its cohort
        mates' sweeps: the clean session stays bitwise its serial run."""
        range_bin_m = short_walks[0].range_bin_m
        odd_blocks = frame_blocks(short_walks[0], config, 40)
        clean_blocks = frame_blocks(short_walks[1], config, 40)
        reference = serial_single(config, range_bin_m, clean_blocks)
        spec = single_session(config, range_bin_m)
        engine = ServingEngine()
        odd = engine.admit(spec)  # admitted first: row 0 of every tick
        clean = engine.admit(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            for odd_block, block in zip(odd_blocks, clean_blocks):
                engine.submit(odd, odd_block.real.astype(np.float32))
                engine.submit(clean, block)
                engine.tick()
        assert_single_equal(engine.close(clean), reference)
        engine.evict(odd)

    def test_tick_rejects_mismatched_slots(self, config):
        pipe = WiTrack(config).pipeline(0.1774)
        with pytest.raises(ValueError):
            pipe.tick([np.zeros((3, 5, 171))], [0, 1])

    def test_tick_rejects_duplicate_slots(self, config):
        """Two frames for one slot in a tick would corrupt its state."""
        pipe = WiTrack(config).pipeline(0.1774)
        pipe.attach_sessions(2)
        blocks = np.zeros((2, 3, 5, 171), dtype=np.complex128)
        with pytest.raises(ValueError, match="distinct"):
            pipe.tick(blocks, [1, 1])
