"""Tests for the multi-session serving engine (repro.serve).

The load-bearing properties:

* N=1 serving output is **bitwise** ``Pipeline.run_stream`` output,
  for every numeric block dtype — the realtime apps are views over the
  engine, not a second code path;
* N-session lockstep output equals N serial per-session runs *exactly*,
  across mixed single/K=2/K=3 cohorts (in process and over shard
  workers) and staggered session start/stop —
  batching sessions for throughput never changes anyone's answer;
* evicting a session mid-run does not perturb the survivors, and a
  cohort's slots stay dense (``0..n-1``) through every admit, close and
  evict, with a hot session beside its cohort mates draining one frame
  per tick and refused its excess at its bounded queue;
* a NaN, infinite or huge block stays with the session that sent it:
  its cohort mates' results stay bitwise those of a clean run, for
  single- and K-person cohorts, in process or over shard workers,
  entering the chain through the tick plan or the stage loop;
* a block of the wrong shape is refused with ``ValueError`` before it
  is queued, so the cohort serves on as if it had never been sent.
"""

import dataclasses
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ArrayConfig, PipelineConfig, default_config
from repro.core.localize import LeastSquaresSolver, make_solver
from repro.core.tracker import WiTrack
from repro.geometry.antennas import t_array
from repro.kernels import use_backend
from repro.kernels.tick import enable_fusion, reset_fusion_override
from repro.loadgen import SpecMemoryModel, SyntheticFrameSource
from repro.multi import MultiScenario, MultiWiTrack
from repro.pipeline import BackgroundSubtract, KalmanSmooth, LatencyReport
from repro.serve import (
    ServingEngine,
    ShardWorker,
    multi_session,
    single_session,
)
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


@pytest.fixture(scope="module")
def three_person_output(config, room):
    """A short 3-person recording, synthesized once."""
    walks = non_colliding_walks(
        room, np.random.default_rng(12), count=3, duration_s=2.0,
        min_separation_m=1.0,
    )
    people = [(HumanBody(name=f"q{i}"), w) for i, w in enumerate(walks)]
    return MultiScenario(people, room=room, config=config, seed=12).run()


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
        assert engine.scheduler.cohorts == {}  # all closed -> all dropped

        for name in ("a", "b"):
            reference = serial_single(
                config, range_bin_m, plan[name]["blocks"]
            )
            assert_single_equal(results[name], reference)
        reference = serial_multi(
            config, range_bin_m, plan["m"]["blocks"], room
        )
        assert_tracks_equal(results["m"], reference)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_mixed_k_cohorts(
        self, workers, config, room, short_walks, multi_output,
        three_person_output,
    ):
        """K=2, K=3 and single-person sessions on one engine: three
        cohorts, each session bitwise its own serial run."""
        range_bin_m = short_walks[0].range_bin_m
        plan = {
            "k2": {"spec": multi_session(
                       config, range_bin_m, max_people=2, room=room),
                   "blocks": frame_blocks(multi_output, config, 120)},
            "k3": {"spec": multi_session(
                       config, range_bin_m, max_people=3, room=room),
                   "blocks": frame_blocks(three_person_output, config),
                   "start": 5},
            "one": {"spec": single_session(config, range_bin_m),
                    "blocks": frame_blocks(short_walks[2], config, 120)},
        }
        with ServingEngine(workers=workers) as engine:
            results, sessions = drive(engine, plan)
        assert len({s.cohort.key for s in sessions.values()}) == 3

        assert_single_equal(
            results["one"],
            serial_single(config, range_bin_m, plan["one"]["blocks"]),
        )
        for name, k in (("k2", 2), ("k3", 3)):
            reference = serial_multi(
                config, range_bin_m, plan[name]["blocks"], room, max_people=k
            )
            assert any(reference.tracks), f"{name} never tracked"
            assert_tracks_equal(results[name], reference)

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
            # Admitted well after the victim leaves: the survivors'
            # slots move under their feet before and after it joins.
            "d": {"spec": spec,
                  "blocks": frame_blocks(short_walks[3], config, 100),
                  "start": 60},
        }
        results, sessions = drive(engine, plan)
        assert results["victim"] is None
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
        assert len(engine.scheduler.cohorts) == 2
        engine.close(a)
        assert len(engine.scheduler.cohorts) == 2  # b still lives there
        engine.close(b)
        engine.close(other)
        assert engine.scheduler.cohorts == {}

    @pytest.mark.parametrize("workers", [0, 2])
    def test_block_shapes_follow_live_specs(self, config, workers):
        """A spec's block shape goes with its last live session, in
        process and on shards, where one spec spans sibling cohorts."""
        specs = [single_session(config, 0.1 + 0.001 * k) for k in range(50)]
        with ServingEngine(workers=workers) as engine:
            scheduler = engine.scheduler
            sessions = [engine.admit(spec) for spec in specs]
            assert len(scheduler.block_shapes) == 50
            for session in sessions:
                engine.close(session)
            assert scheduler.cohorts == {}
            assert scheduler.block_shapes == {}
            a, b = engine.admit(specs[0]), engine.admit(specs[0])
            assert len(scheduler.cohorts) == (2 if engine.distributed else 1)
            engine.close(a)
            assert list(scheduler.block_shapes) == [specs[0].cohort_key()]
            engine.close(b)
            assert scheduler.block_shapes == {}

    def test_cohort_key_is_hashed_once(self, config, monkeypatch):
        """A spec hashes its cohort key on first use and keeps it; the
        kept key is the fields' content key and leaves the spec's
        equality, hash, repr and pickle as they were."""
        from repro.serve import session

        spec = single_session(config, 0.15)
        twin = single_session(config, 0.15)
        before = (hash(spec), repr(spec), pickle.dumps(spec))
        calls = []
        real = session.content_key
        monkeypatch.setattr(
            session, "content_key",
            lambda *parts: calls.append(parts) or real(*parts),
        )
        engine = ServingEngine()
        engine.admit(spec)
        hashed = len(calls)
        assert hashed >= 1
        engine.admit(spec)
        assert len(calls) == hashed
        fields = [getattr(spec, f.name) for f in dataclasses.fields(spec)]
        assert spec.cohort_key() == real("serve.cohort.v1", *fields)
        assert spec == twin
        assert (hash(spec), repr(spec), pickle.dumps(spec)) == before


def _spec(threshold_db: float, range_bin_m: float, max_people: int):
    config = default_config().replace(
        pipeline=PipelineConfig(contour_threshold_db=threshold_db)
    )
    return multi_session(config, range_bin_m, max_people=max_people)


SPEC_FIELDS = {
    "threshold_db": st.floats(6.0, 18.0),
    "range_bin_m": st.floats(0.1, 0.25),
    "max_people": st.integers(1, 4),
}


class TestCohortKey:
    """The cohort key is a content key of every spec field, nested
    configuration included: one changed field splits the cohort, and
    equal content built twice shares one."""

    @settings(max_examples=10, deadline=None)
    @given(base=st.fixed_dictionaries(SPEC_FIELDS))
    def test_equal_content_shares_the_cohort(self, base):
        spec, twin = _spec(**base), _spec(**base)
        assert spec is not twin
        assert spec.cohort_key() == twin.cohort_key()
        engine = ServingEngine()
        a, b = engine.admit(spec), engine.admit(twin)
        assert a.cohort is b.cohort
        assert len(engine.scheduler.cohorts) == 1

    @settings(max_examples=10, deadline=None)
    @given(
        base=st.fixed_dictionaries(SPEC_FIELDS),
        name=st.sampled_from(sorted(SPEC_FIELDS)),
        data=st.data(),
    )
    def test_one_field_splits_the_cohort(self, base, name, data):
        value = data.draw(SPEC_FIELDS[name].filter(lambda v: v != base[name]))
        spec = _spec(**base)
        variant = _spec(**{**base, name: value})
        assert spec.cohort_key() != variant.cohort_key()
        engine = ServingEngine()
        a, c = engine.admit(spec), engine.admit(variant)
        assert c.cohort is not a.cohort
        assert len(engine.scheduler.cohorts) == 2

    def test_unsupported_type_raises(self):
        from repro.serve.session import content_key

        with pytest.raises(TypeError):
            content_key(object())


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
        # The slabs are the only copy of stage state: they are read
        # directly, with no barrier first.
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


#: Every numeric sweep-block dtype, made from a complex synthetic block.
BLOCK_DTYPES = {
    "complex128": lambda block: block,
    "complex64": lambda block: block.astype(np.complex64),
    "float64": lambda block: block.real,
    "float32": lambda block: block.real.astype(np.float32),
    "int16": lambda block: np.round(4000.0 * block.real).astype(np.int16),
}

#: The per-row tick columns a session accumulates.
ROW_FIELDS = ("times_s", "tof_m", "raw_tof_m", "motion", "positions")


class TestBlockDtypes:
    """A tick averages any numeric block dtype the same way whether its
    blocks arrive stacked (``Pipeline.push``, so ``run_stream``) or as a
    list (the serving engine), so N=1 serving is ``run_stream`` for
    every dtype, not only complex128."""

    @settings(max_examples=20, deadline=None)
    @given(
        dtype=st.sampled_from(sorted(BLOCK_DTYPES)),
        n=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_stacked_list_and_stream_agree(self, dtype, n, seed):
        spec = single_session()
        convert = BLOCK_DTYPES[dtype]
        sources = [SyntheticFrameSource(spec, seed=seed + i) for i in range(n)]
        frames = [
            [convert(source.next_block()) for source in sources]
            for _ in range(12)
        ]
        stacked, listed = spec.build_pipeline(), spec.build_pipeline()
        stacked.attach_sessions(n)
        listed.attach_sessions(n)
        rows = [{name: [] for name in ROW_FIELDS} for _ in range(n)]
        for blocks in frames:
            a, b = stacked.tick(np.stack(blocks)), listed.tick(blocks)
            np.testing.assert_array_equal(a.slots, b.slots)
            for name in ROW_FIELDS:
                np.testing.assert_array_equal(
                    getattr(a, name), getattr(b, name)
                )
            for row, slot in enumerate(b.slots):
                for name in ROW_FIELDS:
                    rows[slot][name].append(getattr(b, name)[row])
        for i in range(n):
            reference = spec.build_pipeline().run_stream(
                [blocks[i] for blocks in frames]
            )
            np.testing.assert_array_equal(
                rows[i]["times_s"], reference.frame_times_s
            )
            for name in ROW_FIELDS[1:]:
                np.testing.assert_array_equal(
                    np.stack(rows[i][name]), getattr(reference, name)
                )


#: Serving configuration -> ``(workers, transport)``.
SERVING = {"inproc": (0, None), "pipe": (2, "pipe"), "shm": (2, "shm")}

#: The single-person result fields compared bitwise.
SINGLE_FIELDS = ("frame_times_s", "tof_m", "raw_tof_m", "motion", "positions")


def _malformed(block):
    """Wrong-shape variants of one well-formed sweep block."""
    return {
        "cropped": block[..., :-7],
        "2-D": block[0],
        "antennas": block[:2],
        "sweeps": block[:, :-1],
        "non-numeric": block.astype(object),
    }


def _serve_cohort(kind, serving, corrupt=None, n_frames=48, corrupt_frame=20,
                  malformed=False, cropped_first=False, sessions=None):
    """Four sessions of one spec served from cheap synthetic blocks.

    ``kind`` is ``single`` or ``multi`` (K=2); ``serving`` names a
    :data:`SERVING` configuration. With ``corrupt`` set, session 0's
    frame ``corrupt_frame`` carries that value in antenna 1's bins
    30-60. With ``malformed``, session 0 first offers and submits every
    :func:`_malformed` variant of that frame, each of which must raise
    ``ValueError``. With ``cropped_first``, session 0's first block is
    cropped to 164 of the spec's 171 bins, must raise ``ValueError``,
    and is not sent again. Returns each session's closed result; a list
    passed as ``sessions`` receives the sessions.
    """
    if kind == "single":
        spec = single_session()
    else:
        spec = multi_session(max_people=2, room=through_wall_room())
    workers, transport = SERVING[serving]
    if sessions is None:
        sessions = []
    with ServingEngine(workers=workers, transport=transport) as engine:
        sessions[:] = [engine.admit(spec) for _ in range(4)]
        sources = [SyntheticFrameSource(spec, seed=s) for s in range(4)]
        for f in range(n_frames):
            for s, (session, source) in enumerate(zip(sessions, sources)):
                block = source.next_block()
                if corrupt is not None and s == 0 and f == corrupt_frame:
                    block[1, :, 30:61] = corrupt
                if malformed and s == 0 and f == corrupt_frame:
                    for name, bad in _malformed(block).items():
                        with pytest.raises(ValueError):
                            engine.offer(session, bad)
                        with pytest.raises(ValueError, match="sweep block"):
                            engine.submit(session, bad)
                if cropped_first and s == 0 and f == 0:
                    with pytest.raises(ValueError, match="at least 171 bins"):
                        engine.submit(session, block[..., :164])
                    continue
                engine.submit(session, block)
            engine.tick()
        return [engine.close(session) for session in sessions]


def _same_result(a, b):
    """Bitwise equality of two sessions' results (single or K-person)."""
    if a.tracks is None:
        return all(
            np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)
            for name in SINGLE_FIELDS
        )
    return len(a.tracks) == len(b.tracks) and all(
        [i for i, _ in ra] == [i for i, _ in rb]
        and all(np.array_equal(p, q) for (_, p), (_, q) in zip(ra, rb))
        for ra, rb in zip(a.tracks, b.tracks)
    )


def _serve_beside_k2(serving, empty_first, n_frames=48):
    """A single-person session served next to two K=2 sessions.

    With ``empty_first``, the single-person session first offers a
    zero-bin block, which must raise ``ValueError``, and then its
    well-formed block, which must be accepted. Returns each session's
    closed result (the single-person sender first) and the sessions.
    """
    multi = multi_session(max_people=2, room=through_wall_room())
    specs = [single_session(), multi, multi]
    workers, transport = SERVING[serving]
    with ServingEngine(workers=workers, transport=transport) as engine:
        sessions = [engine.admit(spec) for spec in specs]
        sources = [
            SyntheticFrameSource(spec, seed=s) for s, spec in enumerate(specs)
        ]
        for f in range(n_frames):
            for session, source in zip(sessions, sources):
                block = source.next_block()
                if empty_first and f == 0 and session is sessions[0]:
                    with pytest.raises(ValueError, match="at least 171 bins"):
                        engine.offer(session, block[..., :0])
                assert engine.offer(session, block)
            engine.tick()
        return [engine.close(session) for session in sessions], sessions


@pytest.fixture(scope="module")
def clean_runs():
    """One clean serve per configuration, shared by every corruption."""
    return {}


class TestNonFiniteContainment:
    """A non-finite or huge block stays with the session that sent it."""

    @pytest.fixture(autouse=True)
    def _restore_fusion(self):
        yield
        reset_fusion_override()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["single", "multi"])
    @pytest.mark.parametrize("serving", list(SERVING))
    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("corrupt", [np.nan, np.inf, 1e300])
    def test_cohort_mates_are_untouched(
        self, corrupt, fused, serving, kind, clean_runs
    ):
        # Shard workers fork at engine construction and inherit the
        # backend and fusion switches set here.
        with use_backend("numpy"):
            enable_fusion(fused)
            key = (kind, serving, fused)
            if key not in clean_runs:
                clean_runs[key] = _serve_cohort(kind, serving)
            clean = clean_runs[key]
            dirty = _serve_cohort(kind, serving, corrupt)
        # The corrupt frame reached the sender's tracker...
        assert not _same_result(dirty[0], clean[0])
        # ...which still emits one row per frame after the priming one.
        assert dirty[0].num_frames == clean[0].num_frames == 47
        rows = dirty[0].positions if kind == "single" else dirty[0].tracks
        assert len(rows) == dirty[0].num_frames
        # Its cohort mates track exactly as in the clean run.
        for s in (1, 2, 3):
            result = clean[s]
            tracked = (
                np.isfinite(result.positions).any()
                if kind == "single"
                else any(result.tracks)
            )
            assert tracked, f"session {s} never tracked"
            assert _same_result(dirty[s], result), f"session {s}"

    @pytest.mark.parametrize("backend", ["numpy", "reference"])
    @pytest.mark.parametrize("kind", ["single", "multi"])
    @pytest.mark.parametrize("corrupt", [np.nan, np.inf, 1e300])
    def test_raises_no_warning(self, corrupt, kind, backend):
        """A non-finite or huge block raises no warning anywhere in an
        in-process engine: the frame average and the contour kernel
        ignore what it makes of its sender's rows. Its cohort mates
        still track bitwise as in the clean run."""
        with use_backend(backend), warnings.catch_warnings():
            warnings.simplefilter("error")
            clean = _serve_cohort(kind, "inproc")
            dirty = _serve_cohort(kind, "inproc", corrupt)
        assert not _same_result(dirty[0], clean[0])
        for s in (1, 2, 3):
            assert _same_result(dirty[s], clean[s]), f"session {s}"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("corrupt", [np.nan, np.inf, 1e300])
    def test_reference_backend_contains_too(self, corrupt):
        """The ``reference`` kernels keep a corrupt block with its
        sender as the numpy ones do (``fused`` above only picks how
        ``Pipeline.tick`` enters the same stages)."""
        with use_backend("reference"):
            clean = _serve_cohort("single", "inproc")
            dirty = _serve_cohort("single", "inproc", corrupt)
        assert not _same_result(dirty[0], clean[0])
        for s in (1, 2, 3):
            assert np.isfinite(clean[s].positions).any(), f"session {s}"
            assert _same_result(dirty[s], clean[s]), f"session {s}"


class TestMalformedBlocks:
    """A wrong-shape block stays with its sender: refused at offer."""

    @pytest.mark.parametrize("kind", ["single", "multi"])
    @pytest.mark.parametrize("serving", list(SERVING))
    def test_refused_before_queueing(self, serving, kind, clean_runs):
        with use_backend("numpy"):
            key = (kind, serving, True)
            if key not in clean_runs:
                clean_runs[key] = _serve_cohort(kind, serving)
            clean = clean_runs[key]
            sessions = []
            refused = _serve_cohort(
                kind, serving, malformed=True, sessions=sessions
            )
        # Nothing malformed was queued: every session, the sender
        # included, serves exactly its clean run.
        for s in range(4):
            assert refused[s].num_frames == clean[s].num_frames == 47
            assert _same_result(refused[s], clean[s]), f"session {s}"
        # Each refused offer or submit counts once, on its sender only.
        variants = len(_malformed(np.zeros((3, 5, 171))))
        assert [s.rejected_malformed for s in sessions] == [
            2 * variants, 0, 0, 0
        ]

    def test_a_refused_block_counts_one_rejection(self):
        spec = single_session()
        engine = ServingEngine()
        sessions = [engine.admit(spec) for _ in range(4)]
        block = SyntheticFrameSource(spec, seed=0).next_block()
        for session in sessions:
            assert engine.offer(session, block)
        with pytest.raises(ValueError):
            engine.offer(sessions[0], block[..., :164])
        assert engine.tick() == 4
        assert [s.rejected_malformed for s in sessions] == [1, 0, 0, 0]

    @pytest.mark.parametrize("serving", list(SERVING))
    def test_zero_bin_first_block_stays_with_its_sender(self, serving):
        """An empty ``(n_rx, sweeps, 0)`` first block is refused at the
        edge: admitted, it failed the next cohort tick in process, and
        with shard workers every worker it failed over to."""
        with use_backend("numpy"):
            clean, _ = _serve_beside_k2(serving, empty_first=False)
            dirty, sessions = _serve_beside_k2(serving, empty_first=True)
        assert [s.rejected_malformed for s in sessions] == [1, 0, 0]
        # The K=2 sessions track, and serve exactly their clean run; so
        # does the sender, from its first well-formed block on.
        assert all(any(result.tracks) for result in clean[1:])
        for s in range(3):
            assert dirty[s].num_frames == clean[s].num_frames
            assert _same_result(dirty[s], clean[s]), f"session {s}"

    @pytest.mark.parametrize("serving", list(SERVING))
    def test_a_cropped_first_block_stays_with_its_sender(
        self, serving, clean_runs
    ):
        """The spec, not the first sender, fixes the bin count: a first
        block cropped below the spec's max-range crop is refused and
        counted on its sender, whose mates serve their clean run."""
        with use_backend("numpy"):
            key = ("single", serving, True)
            if key not in clean_runs:
                clean_runs[key] = _serve_cohort("single", serving)
            clean = clean_runs[key]
            sessions = []
            dirty = _serve_cohort(
                "single", serving, cropped_first=True, sessions=sessions
            )
        assert [s.rejected_malformed for s in sessions] == [1, 0, 0, 0]
        assert dirty[0].num_frames == clean[0].num_frames - 1 == 46
        for s in (1, 2, 3):
            assert np.isfinite(clean[s].positions).any(), f"session {s}"
            assert _same_result(dirty[s], clean[s]), f"session {s}"

    def test_bins_follow_the_spec(self):
        """Any block with at least the spec's cropped bin count is
        served as its crop, the first one included; a narrower one is
        refused."""
        spec = single_session()
        engine = ServingEngine()
        a, b = engine.admit(spec), engine.admit(spec)
        source = SyntheticFrameSource(spec, seed=0)
        for _ in range(3):
            block = source.next_block()
            with pytest.raises(ValueError, match="at least 171 bins"):
                engine.offer(a, block[..., :-1])
            wider = np.concatenate([block, block[..., :5]], axis=-1)
            assert engine.offer(a, wider)
            assert engine.offer(b, block)
            assert engine.tick() == 2
        assert [s.rejected_malformed for s in (a, b)] == [3, 0]
        assert _same_result(engine.close(a), engine.close(b))

    def test_a_wide_sender_holds_its_estimate(self):
        """A session queues a wider block's crop: a full queue of blocks
        ten times the crop's width holds no more than the memory model
        charges the session."""
        spec = single_session()
        engine = ServingEngine(queue_capacity=16)
        session = engine.admit(spec)
        source = SyntheticFrameSource(spec, seed=0)
        source.next_block()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            while engine.offer(session, np.tile(source.next_block(), 10)):
                pass
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert session.pending == 16
        assert held <= SpecMemoryModel(queue_capacity=16).estimate(spec)

    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_a_wide_sender_ships_its_crop(self, transport):
        """Through shard workers a wider block crosses the transport as
        its crop: a wide sender moves exactly an exact-width sender's
        bytes, and is served the same."""
        spec = single_session()
        moved, results = [], []
        for widen in (1, 10):
            with ServingEngine(workers=2, transport=transport) as engine:
                session = engine.admit(spec)
                source = SyntheticFrameSource(spec, seed=0)
                for _ in range(6):
                    block = np.tile(source.next_block(), widen)
                    assert engine.offer(session, block)
                    engine.tick()
                results.append(engine.close(session))
                stats = engine.transport_stats()
                moved.append(stats["bytes_shm"] + stats["bytes_pickled"])
        assert moved[0] == moved[1] > 0
        assert _same_result(*results)


#: One churn step: an event, which live session it picks, and how many
#: ticks follow, each offering every live session one frame (three for
#: a session a ``hot`` event picked).
CHURN = st.lists(
    st.tuples(
        st.sampled_from(["single", "multi", "close", "evict", "hot"]),
        st.integers(0, 7),
        st.integers(1, 3),
    ),
    min_size=3,
    max_size=14,
)


def _assert_dense(engine):
    """Every in-process cohort's members own exactly slots 0..n-1."""
    for cohort in engine.scheduler.cohorts.values():
        assert [s.slot for s in cohort.members] == list(
            range(cohort.num_sessions)
        ), cohort.key
        assert all(s.cohort is cohort for s in cohort.members)


def _churn(engine, events):
    """Drive an admit/close/evict/hot schedule on ``engine``.

    A ``hot`` event makes the picked session's producer outrun the
    tick: from then on it is offered three frames a tick. A frame
    refused at a full queue is dropped, as an open-loop producer would,
    and every tick must drain exactly one frame from each session that
    holds one. Returns ``(spec, accepted blocks, result)`` for every
    session closed cleanly, and the number of refused frames.
    """
    specs = {
        "single": single_session(),
        "multi": multi_session(max_people=2, room=through_wall_room()),
    }
    check = _assert_dense if not engine.distributed else lambda engine: None
    capacity = engine.scheduler.queue_capacity
    refused = 0
    # Live entries: [session, spec, source, blocks, frames per tick].
    live, closed = [], []
    for seed, (event, pick, ticks) in enumerate(events):
        if event in specs and len(live) < 6:
            spec = specs[event]
            source = SyntheticFrameSource(spec, seed=seed)
            live.append([engine.admit(spec), spec, source, [], 1])
        elif event in ("close", "evict") and live:
            session, spec, _, blocks, _ = live.pop(pick % len(live))
            if event == "close":
                closed.append((spec, blocks, engine.close(session)))
            else:
                engine.evict(session)
        elif event == "hot" and live:
            live[pick % len(live)][4] = 3
        check(engine)
        for _ in range(ticks):
            for session, _, source, blocks, rate in live:
                for _ in range(rate):
                    block = source.next_block()
                    room = len(session.queue) < capacity
                    assert engine.offer(session, block) == room
                    if room:
                        blocks.append(block)
                    else:
                        refused += 1
            held = [len(entry[0].queue) for entry in live]
            engine.tick()
            assert [
                h - len(entry[0].queue) for h, entry in zip(held, live)
            ] == [int(h > 0) for h in held]
            check(engine)
    for session, spec, _, blocks, _ in live:
        closed.append((spec, blocks, engine.close(session)))
        check(engine)
    return closed, refused


def _assert_serial(closed):
    """Each closed session equals its own serial ``run_stream``."""
    for spec, blocks, result in closed:
        reference = spec.build_pipeline().run_stream(blocks)
        if spec.kind == "single":
            assert_single_equal(result, reference)
        elif reference.tracks is None:
            assert result.tracks is None
        else:
            assert_tracks_equal(result, reference)


class TestDenseSlots:
    """Cohort slots stay ``0..n-1`` under churn: a leaving session's
    slot is refilled by the cohort's last member, and that move never
    changes anyone's answer."""

    @settings(max_examples=25, deadline=None)
    @given(events=CHURN)
    def test_in_process(self, events):
        engine = ServingEngine()
        _assert_serial(_churn(engine, events)[0])
        assert engine.scheduler.cohorts == {}

    @settings(max_examples=4, deadline=None)
    @given(events=CHURN)
    def test_sharded(self, events):
        with ServingEngine(workers=2) as engine:
            closed, _ = _churn(engine, events)
        _assert_serial(closed)

    @pytest.mark.parametrize("serving", list(SERVING))
    def test_hot_session_catches_up_under_churn(self, serving):
        """A fixed schedule whose hot session fills its queue and is
        refused frames while one cohort mate closes and the next is
        admitted beside it and evicted; closing the hot session drains
        its backlog, and it equals its serial run over the frames it
        accepted."""
        events = [
            ("single", 0, 1), ("single", 0, 1), ("single", 0, 1),
            ("hot", 0, 3), ("close", 2, 3), ("single", 0, 3),
            ("evict", 2, 3),
        ]
        workers, transport = SERVING[serving]
        with ServingEngine(
            queue_capacity=4, workers=workers, transport=transport
        ) as engine:
            closed, refused = _churn(engine, events)
        # Hot for 12 ticks at a queue of 4 that drains one a tick: it
        # fills on the second (one refused), and from the third on two
        # of every three offered frames are refused.
        assert refused == 1 + 2 * 10
        _assert_serial(closed)

    def test_shard_worker_placement_stays_dense(self):
        """Shard-side evictions move the last member and re-address it;
        admission and failover re-admission append."""
        spec = single_session()
        worker = ShardWorker()
        key = spec.cohort_key()

        def placed():
            cohort = worker.cohorts[key]
            slots = {sid: slot for sid, (k, slot) in worker._placement.items()
                     if k == key}
            assert sorted(slots.values()) == list(range(cohort.num_sessions))
            assert all(cohort.members[slot] == sid
                       for sid, slot in slots.items())
            return slots

        sources = {sid: SyntheticFrameSource(spec, seed=sid)
                   for sid in range(1, 6)}
        for sid in range(1, 5):
            worker.admit(sid, key, spec)
        for _ in range(3):
            worker.step([(sid, sources[sid].next_block())
                         for sid in placed()])
        worker.evict(2)
        assert placed()[4] == 1  # the last member moved into slot 1
        worker.admit(5, key, spec)  # admission appends
        worker.admit(6, key, spec, start_frame=3)  # failover appends
        assert placed() == {1: 0, 4: 1, 3: 2, 5: 3, 6: 4}
        worker.evict(1)
        worker.evict(6)
        assert placed() == {5: 0, 4: 1, 3: 2}
