"""Tests for the distributed serving tier (repro.serve.shard).

The load-bearing properties:

* distributed serving (workers >= 2) is **result-identical** to
  single-process serving — and to N serial ``run_stream`` runs — for
  the same admission schedule, across staggered joins, mixed
  single/multi cohorts, evictions and slot recycling (fuzzed);
* a shard worker that raises mid-tick is excluded and its sessions
  fail over to surviving shards without losing a queued frame, staying
  on the session clock, while sessions on other shards are untouched
  bitwise;
* a hot producer meets backpressure — its session drains one frame
  per pass like its cohort mates, its bounded queue refuses the excess,
  single- or K-person, in process or over shard workers — and both
  tiers drain and refuse the same frames on every pass, every session
  bitwise its serial run over the frames it accepted.
"""

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import default_config
from repro.core.tracker import WiTrack
from repro.exec.pool import pool_available
from repro.exec.transport import shm_available
from repro.loadgen import SyntheticFrameSource
from repro.multi import MultiScenario, MultiWiTrack
from repro.serve import ServingEngine, multi_session, single_session
from repro.sim import Scenario
from repro.sim.body import HumanBody
from repro.sim.motion import non_colliding_walks, random_walk
from repro.sim.room import through_wall_room

pytestmark = pytest.mark.skipif(
    not pool_available(), reason="platform cannot fork"
)


@pytest.fixture(params=["pipe", "shm"])
def transport(request):
    """Both shard IPC data planes; every pinned property must hold on
    each, bitwise — the transport moves bytes, never changes them."""
    if request.param == "shm" and not shm_available():
        pytest.skip("POSIX shared memory unavailable")
    return request.param


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
    spf = config.pipeline.sweeps_per_frame
    n = output.spectra.shape[1] // spf
    if limit is not None:
        n = min(n, limit)
    return [
        output.spectra[:, f * spf : (f + 1) * spf, :] for f in range(n)
    ]


def serial_single(config, range_bin_m, blocks):
    pipeline = WiTrack(config).pipeline(range_bin_m)
    return pipeline.run_stream(np.concatenate(blocks, axis=1))


def serial_multi(config, range_bin_m, blocks, room, max_people=2):
    pipeline = MultiWiTrack(
        config, max_people=max_people, room=room
    ).pipeline(range_bin_m)
    return pipeline.run_stream(np.concatenate(blocks, axis=1))


def assert_single_equal(result, reference):
    np.testing.assert_array_equal(
        result.frame_times_s, reference.frame_times_s
    )
    for name in ("tof_m", "raw_tof_m", "positions"):
        np.testing.assert_array_equal(
            getattr(result, name), getattr(reference, name)
        )
    np.testing.assert_array_equal(result.motion, reference.motion)


def assert_tracks_equal(result, reference):
    np.testing.assert_array_equal(
        result.frame_times_s, reference.frame_times_s
    )
    assert len(result.tracks) == len(reference.tracks)
    for ours, theirs in zip(result.tracks, reference.tracks):
        assert [tid for tid, _ in ours] == [tid for tid, _ in theirs]
        for (_, p1), (_, p2) in zip(ours, theirs):
            np.testing.assert_array_equal(p1, p2)


def assert_failed_over(config, range_bin_m, blocks, result):
    """A session that failed over once: every frame consumed, one extra
    priming frame lost at the failover boundary, clock intact — its
    output after the boundary equals a fresh pipeline resumed at the
    failover frame (the reset-boundary semantics of the sharded stream
    runner)."""
    reference = serial_single(config, range_bin_m, blocks)
    assert result.num_frames == reference.num_frames - 1
    split = np.flatnonzero(np.diff(result.frame_times_s) > 0.013)
    assert len(split) == 1  # exactly one reset boundary
    boundary = int(split[0]) + 1
    np.testing.assert_array_equal(
        result.frame_times_s[:boundary], reference.frame_times_s[:boundary]
    )
    np.testing.assert_array_equal(
        result.positions[:boundary], reference.positions[:boundary]
    )
    # Suffix: a fresh pipeline resumed on the session clock.
    consumed = boundary + 1  # prefix outputs + initial priming
    resumed = WiTrack(config).pipeline(range_bin_m)
    resumed.reset(start_frame=consumed)
    suffix_ref = resumed.run_stream(np.concatenate(blocks[consumed:], axis=1))
    np.testing.assert_array_equal(
        result.frame_times_s[boundary:], suffix_ref.frame_times_s
    )
    np.testing.assert_array_equal(
        result.positions[boundary:], suffix_ref.positions
    )


def drive(engine, plan):
    """Run admission/feeding/closing per plan; returns results by name.

    Same shape as the single-process serving tests: ``plan`` maps
    name -> dict(spec=..., blocks=..., start=step, evict=bool).
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


class TestDistributedIdentity:
    def test_distributed_equals_single_process_and_serial(
        self, config, room, short_walks, multi_output, transport
    ):
        """The acceptance pin: workers>=2 is result-identical to
        workers=0 — and to serial references — for one admission
        schedule with staggered joins and mixed cohorts."""
        range_bin_m = short_walks[0].range_bin_m
        single_spec = single_session(config, range_bin_m)
        multi_spec = multi_session(
            config, range_bin_m, max_people=2, room=room
        )
        plan = {
            "a": {"spec": single_spec,
                  "blocks": frame_blocks(short_walks[0], config, 150)},
            "b": {"spec": single_spec,
                  "blocks": frame_blocks(short_walks[1], config, 150),
                  "start": 11},
            "c": {"spec": single_spec,
                  "blocks": frame_blocks(short_walks[2], config, 90),
                  "start": 23},
            "m": {"spec": multi_spec,
                  "blocks": frame_blocks(multi_output, config)},
        }
        local_results, _ = drive(ServingEngine(), dict(plan))
        with ServingEngine(workers=2, transport=transport) as engine:
            dist_results, sessions = drive(engine, dict(plan))
            shards = {s.cohort.shard for s in sessions.values()}
            assert len(shards) == 2  # the tier actually spread the load
        for name in ("a", "b", "c"):
            reference = serial_single(
                config, range_bin_m, plan[name]["blocks"]
            )
            assert_single_equal(dist_results[name], reference)
            assert_single_equal(dist_results[name], local_results[name])
            # Same frames consumed -> same latency sample count, even
            # though the wall-clock values differ.
            assert len(dist_results[name].latency.latencies_s) == len(
                local_results[name].latency.latencies_s
            )
        reference = serial_multi(
            config, range_bin_m, plan["m"]["blocks"], room
        )
        assert_tracks_equal(dist_results["m"], reference)
        assert_tracks_equal(dist_results["m"], local_results["m"])

    def test_homogeneous_sessions_spread_across_shards(
        self, config, short_walks
    ):
        """One spec must not collapse onto one shard: sibling cohorts."""
        spec = single_session(config, short_walks[0].range_bin_m)
        with ServingEngine(workers=2) as engine:
            sessions = [engine.admit(spec) for _ in range(4)]
            assert {s.cohort.shard for s in sessions} == {0, 1}
            # Same-shard sessions share a cohort (one vectorized tick).
            by_shard = {}
            for s in sessions:
                by_shard.setdefault(s.cohort.shard, set()).add(s.cohort.key)
            assert all(len(keys) == 1 for keys in by_shard.values())
            for s in sessions:
                engine.evict(s)

    def test_fallback_and_facade(self, config, short_walks):
        engine = ServingEngine()  # workers=0
        assert not engine.distributed
        assert engine.pool is None
        with pytest.raises(ValueError):
            ServingEngine(workers=-1)
        with ServingEngine(workers=1) as dist:
            assert dist.distributed
            session = dist.admit(
                single_session(config, short_walks[0].range_bin_m)
            )
            with pytest.raises(RuntimeError, match="shard workers"):
                dist.track_manager(session)


class TestChurnFuzz:
    def test_fuzzed_admissions_evictions_recycling(
        self, config, short_walks, transport
    ):
        """Random churn across shards pins merged results to serial runs.

        Sessions come and go with random start steps, random stream
        lengths (sub-slices of the canonical recordings are valid
        independent streams), and random evictions; every cleanly
        closed session must match its own serial ``run_stream``
        reference bitwise, no matter which shard served it or whose
        slot it recycled.
        """
        rng = np.random.default_rng(1234)
        range_bin_m = short_walks[0].range_bin_m
        spec = single_session(config, range_bin_m)
        all_blocks = [frame_blocks(out, config) for out in short_walks]
        plan = {}
        for i in range(10):
            source = all_blocks[int(rng.integers(len(all_blocks)))]
            length = int(rng.integers(30, 120))
            plan[f"s{i}"] = {
                "spec": spec,
                "blocks": source[:length],
                "start": int(rng.integers(0, 60)),
                "evict": bool(rng.random() < 0.3),
            }
        with ServingEngine(workers=3, transport=transport) as engine:
            results, sessions = drive(engine, plan)
            assert engine.num_sessions == 0
            assert not engine.scheduler.excluded_shards
        served_shards = {s.cohort.shard for s in sessions.values()}
        assert len(served_shards) >= 2  # churn really crossed shards
        checked = 0
        for name, entry in plan.items():
            if entry["evict"]:
                assert results[name] is None
                continue
            reference = serial_single(config, range_bin_m, entry["blocks"])
            assert_single_equal(results[name], reference)
            checked += 1
        assert checked >= 3  # the seed must leave enough clean closures


class TestWorkerFailure:
    def test_shard_raising_mid_tick_fails_over(
        self, config, short_walks, transport
    ):
        """A crashed shard requeues its sessions onto survivors.

        The engine must stay up, sessions on surviving shards must be
        bitwise unperturbed, and failed-over sessions must keep every
        queued frame and the session clock — their post-failover output
        equals a fresh pipeline resumed at the failover frame, exactly
        the reset-boundary semantics of the sharded stream runner.
        """
        range_bin_m = short_walks[0].range_bin_m
        spec = single_session(config, range_bin_m)
        blocks = [frame_blocks(out, config, 120) for out in short_walks]
        with ServingEngine(workers=2, transport=transport) as engine:
            sessions = [engine.admit(spec) for _ in blocks]
            by_shard = {}
            for s in sessions:
                by_shard.setdefault(s.cohort.shard, []).append(s)
            assert len(by_shard) == 2
            victim_shard = sessions[0].cohort.shard
            survivor_shard = next(w for w in by_shard if w != victim_shard)

            fail_at = 40
            for f in range(fail_at):
                for s, bl in zip(sessions, blocks):
                    engine.submit(s, bl[f])
                engine.tick()
            engine.pool.invoke(victim_shard, "fail_next_step")
            for f in range(fail_at, 120):
                for s, bl in zip(sessions, blocks):
                    engine.submit(s, bl[f])
                engine.tick()
            engine.drain()
            results = [engine.close(s) for s in sessions]

            scheduler = engine.scheduler
            assert scheduler.failovers == 1
            assert scheduler.excluded_shards == {victim_shard}
            assert engine.pool.live_workers() == [survivor_shard]

        for s, result, bl in zip(sessions, results, blocks):
            if s in by_shard[survivor_shard]:
                # Survivors: bitwise as if nothing happened.
                reference = serial_single(config, range_bin_m, bl)
                assert_single_equal(result, reference)
            else:
                assert s.frames_in == 120
                assert_failed_over(config, range_bin_m, bl, result)

    def test_all_shards_failing_raises(self, config, short_walks):
        spec = single_session(config, short_walks[0].range_bin_m)
        blocks = frame_blocks(short_walks[0], config, 8)
        with ServingEngine(workers=1) as engine:
            session = engine.admit(spec)
            engine.pool.invoke(0, "fail_next_step")
            engine.submit(session, blocks[0])
            with pytest.raises(RuntimeError, match="no live shard"):
                engine.tick()


class Pass(NamedTuple):
    """One traced scheduler pass: per session, the frames its producer
    had refused at a full queue before the pass, the frames the pass
    drained and the queue depth after it; then the scheduler counters."""

    refused: tuple
    drained: tuple
    pending: tuple
    ticks: int
    frames: int


def feed_passes(engine, sessions, feeds, rates):
    """Offer each session its quota of frames, then tick, pass by pass.

    Before pass ``p`` session ``i`` is offered the next ``rates[p][i]``
    blocks of ``feeds[i]``. A block refused at a full queue is counted
    and dropped, as an open-loop producer would. Every pass is checked
    against the backpressure schedule: a queue accepts blocks only up to
    its capacity and refuses the rest, and the pass drains exactly one
    frame from every session that holds one. Returns the :class:`Pass`
    trace and each session's accepted blocks.
    """
    scheduler = engine.scheduler
    capacity = scheduler.queue_capacity
    cursors = [0] * len(sessions)
    accepted = [[] for _ in sessions]
    trace = []
    for quota in rates:
        refused = []
        for i, (session, feed, n) in enumerate(zip(sessions, feeds, quota)):
            blocks = feed[cursors[i] : cursors[i] + n]
            cursors[i] += len(blocks)
            space = capacity - len(session.queue)
            taken = [b for b in blocks if session.offer(b)]
            assert len(taken) == min(len(blocks), space)
            accepted[i].extend(taken)
            refused.append(len(blocks) - len(taken))
        held = [len(s.queue) for s in sessions]
        engine.tick()
        pending = tuple(len(s.queue) for s in sessions)
        drained = tuple(h - p for h, p in zip(held, pending))
        assert drained == tuple(int(h > 0) for h in held)
        trace.append(Pass(
            tuple(refused), drained, pending,
            scheduler.ticks, scheduler.frames_processed,
        ))
    return trace, accepted


#: Three cohort mates, the last a hot producer: three frames a pass for
#: 20 passes, then none while its backlog drains, then one again, each
#: session behind a queue of :data:`HOT_CAPACITY` frames.
HOT_RATES = [(1, 1, 3)] * 20 + [(1, 1, 0)] * 8 + [(1, 1, 1)] * 4
HOT_CAPACITY = 8


class TestAdaptiveRebatching:
    """Each pass rebatches every session holding a frame, one frame
    each: a hot producer fills its bounded queue and is refused the
    excess (backpressure), in process and over shard workers alike, and
    every session equals its serial run over the frames it accepted."""

    def _hot(self, engine, spec, outputs, config):
        """Serve three sessions of ``spec`` at :data:`HOT_RATES`.

        ``outputs`` holds each session's recording. Returns the
        sessions, the trace, the accepted blocks and the results."""
        feeds = [frame_blocks(out, config) for out in outputs]
        sessions = [engine.admit(spec) for _ in feeds]
        trace, accepted = feed_passes(engine, sessions, feeds, HOT_RATES)
        results = [engine.close(s) for s in sessions]
        return sessions, trace, accepted, results

    def _assert_hot_schedule(self, trace):
        """The hot session's queue fills by two a pass until it is full
        before the tick, and refuses the excess from then on; its mates
        refuse nothing. Once its producer stops it drains one frame a
        pass, and then drains in step with its mates."""
        hot = [t.pending[2] for t in trace]
        full = HOT_CAPACITY - 1  # after the tick
        assert hot[:20] == [min(2 * (p + 1), full) for p in range(20)]
        assert hot[20:28] == [6, 5, 4, 3, 2, 1, 0, 0]
        assert hot[28:] == [0] * 4
        assert [t.refused[2] for t in trace[:20]] == [0, 0, 0, 1] + [2] * 16
        assert sum(sum(t.refused[:2]) for t in trace) == 0
        assert all(t.drained == (1, 1, 1) for t in trace[28:])

    def test_both_tiers_make_the_same_decisions(
        self, config, short_walks, transport
    ):
        """In process and over shard workers, every pass drains one
        frame from every session that holds one and refuses the same
        frames: the two front ends record the same trace, and every
        session equals its serial run over the frames it accepted."""
        range_bin_m = short_walks[0].range_bin_m
        spec = single_session(config, range_bin_m)
        traces = []
        for workers in (0, 2):
            with ServingEngine(
                queue_capacity=HOT_CAPACITY, workers=workers,
                transport=transport,
            ) as engine:
                _, trace, accepted, results = self._hot(
                    engine, spec, short_walks[:3], config
                )
            for result, blocks in zip(results, accepted):
                reference = serial_single(config, range_bin_m, blocks)
                assert_single_equal(result, reference)
            traces.append(trace)
        assert traces[0] == traces[1]
        self._assert_hot_schedule(traces[0])

    def test_caught_up_straggler_rejoins_local(self, config, short_walks):
        """In process, the hot session stays in its mates' cohort and
        slot order throughout; once its backlog has drained it drains
        in step with them again."""
        engine = ServingEngine(queue_capacity=HOT_CAPACITY)
        range_bin_m = short_walks[0].range_bin_m
        spec = single_session(config, range_bin_m)
        feeds = [frame_blocks(out, config) for out in short_walks[:3]]
        sessions = [engine.admit(spec) for _ in feeds]
        trace, accepted = feed_passes(engine, sessions, feeds, HOT_RATES)
        assert len(engine.scheduler.cohorts) == 1
        assert [s.slot for s in sessions] == [0, 1, 2]
        self._assert_hot_schedule(trace)
        results = [engine.close(s) for s in sessions]
        assert engine.scheduler.cohorts == {}
        for result, blocks in zip(results, accepted):
            reference = serial_single(config, range_bin_m, blocks)
            assert_single_equal(result, reference)

    @pytest.mark.parametrize("serving", ["inproc", "pipe", "shm"])
    def test_k2_straggler_catches_up_bitwise(
        self, config, room, multi_output, serving
    ):
        """A hot K=2 session drains one frame a pass like its mates,
        is refused its excess, and catches up once its producer stops;
        every session stays bitwise its serial run over the frames it
        accepted."""
        if serving == "shm" and not shm_available():
            pytest.skip("POSIX shared memory unavailable")
        range_bin_m = multi_output.range_bin_m
        spec = multi_session(config, range_bin_m, max_people=2, room=room)
        workers = 0 if serving == "inproc" else 2
        with ServingEngine(
            queue_capacity=HOT_CAPACITY, workers=workers,
            transport=None if serving == "inproc" else serving,
        ) as engine:
            sessions, trace, accepted, results = self._hot(
                engine, spec, [multi_output] * 3, config
            )
            assert sessions[2].cohort is sessions[0].cohort
        self._assert_hot_schedule(trace)
        for result, blocks in zip(results, accepted):
            reference = serial_multi(config, range_bin_m, blocks, room)
            assert any(reference.tracks)
            assert_tracks_equal(result, reference)

    def test_a_lone_straggler_catches_up_beside_a_sibling_cohort(
        self, config, short_walks, transport
    ):
        """Two sessions of one spec on two shards sit in sibling
        cohorts, one each. Both tiers drain and refuse the same frames
        on every pass, the hot one catches up one frame a pass once
        its producer stops, and its outputs stay bitwise its serial
        run over the frames it accepted."""
        range_bin_m = short_walks[0].range_bin_m
        spec = single_session(config, range_bin_m)
        feeds = [frame_blocks(out, config) for out in short_walks[:2]]
        rates = [(1, 3)] * 20 + [(0, 0)] * 8
        traces = []
        for workers in (0, 2):
            with ServingEngine(
                queue_capacity=HOT_CAPACITY, workers=workers,
                transport=transport,
            ) as engine:
                sessions = [engine.admit(spec) for _ in feeds]
                if workers:
                    assert sessions[0].cohort is not sessions[1].cohort
                trace, accepted = feed_passes(engine, sessions, feeds, rates)
                results = [engine.close(s) for s in sessions]
            for result, blocks in zip(results, accepted):
                reference = serial_single(config, range_bin_m, blocks)
                assert_single_equal(result, reference)
            traces.append(trace)
        assert traces[0] == traces[1]
        trace = traces[0]
        assert [t.pending[1] for t in trace[19:]] == [
            7, 6, 5, 4, 3, 2, 1, 0, 0,
        ]
        assert sum(t.refused[1] for t in trace) == 33
        assert len(accepted[1]) == 60 - 33

    @settings(max_examples=8, deadline=None)
    @given(
        capacity=st.integers(1, 4),
        sessions=st.integers(1, 3),
        rates=st.lists(
            st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=10
        ),
        transport=st.sampled_from(["pipe", "shm"]),
    )
    def test_any_feed_rates_keep_the_tiers_in_step(
        self, capacity, sessions, rates, transport
    ):
        """For any per-session feed rates and queue bound, every pass
        drains one frame from each session that holds one, a full queue
        refuses the excess, both tiers record the same trace, and every
        session equals its serial run over the frames it accepted."""
        if transport == "shm" and not shm_available():
            transport = "pipe"
        spec = single_session()
        feeds = [
            [source.next_block() for _ in range(3 * len(rates))]
            for source in (
                SyntheticFrameSource(spec, seed=i) for i in range(sessions)
            )
        ]
        # Trailing empty passes drain every backlog inside the trace.
        rates = [r[:sessions] for r in rates] + [(0,) * sessions] * capacity
        traces = []
        for workers in (0, 2):
            with ServingEngine(
                queue_capacity=capacity, workers=workers, transport=transport
            ) as engine:
                live = [engine.admit(spec) for _ in feeds]
                trace, accepted = feed_passes(engine, live, feeds, rates)
                results = [engine.close(s) for s in live]
            assert not any(trace[-1].pending)
            for result, blocks in zip(results, accepted):
                if blocks:
                    reference = spec.build_pipeline().run_stream(blocks)
                    assert_single_equal(result, reference)
            traces.append(trace)
        assert traces[0] == traces[1]
