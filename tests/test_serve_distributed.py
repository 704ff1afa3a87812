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
* adaptive re-batching splits a persistent straggler into its own
  cohort — migrating its pipeline state bit-exactly, in-process or
  across worker processes — and burst-drains its backlog, and both
  tiers split and rejoin on the same ticks.
"""

import numpy as np
import pytest

from repro.config import default_config
from repro.core.tracker import WiTrack
from repro.exec.pool import pool_available
from repro.exec.transport import shm_available
from repro.multi import MultiScenario, MultiWiTrack
from repro.serve import ServingEngine, multi_session, single_session
from repro.serve.scheduler import StragglerDetector
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
            reference = serial_single(config, range_bin_m, bl)
            if s in by_shard[survivor_shard]:
                # Survivors: bitwise as if nothing happened.
                assert_single_equal(result, reference)
            else:
                # Failed over: every frame consumed, one extra priming
                # frame lost at the failover boundary, clock intact.
                assert s.frames_in == 120
                assert result.num_frames == reference.num_frames - 1
                split = np.flatnonzero(
                    np.diff(result.frame_times_s) > 0.013
                )
                assert len(split) == 1  # exactly one reset boundary
                boundary = int(split[0]) + 1
                prefix = reference.frame_times_s[:boundary]
                np.testing.assert_array_equal(
                    result.frame_times_s[:boundary], prefix
                )
                np.testing.assert_array_equal(
                    result.positions[:boundary],
                    reference.positions[:boundary],
                )
                # Suffix: a fresh pipeline resumed on the session clock.
                consumed = boundary + 1  # prefix outputs + initial priming
                resumed = WiTrack(config).pipeline(range_bin_m)
                resumed.reset(start_frame=consumed)
                suffix_ref = resumed.run_stream(
                    np.concatenate(bl[consumed:], axis=1)
                )
                np.testing.assert_array_equal(
                    result.frame_times_s[boundary:],
                    suffix_ref.frame_times_s,
                )
                np.testing.assert_array_equal(
                    result.positions[boundary:], suffix_ref.positions
                )

    def test_all_shards_failing_raises(self, config, short_walks):
        spec = single_session(config, short_walks[0].range_bin_m)
        blocks = frame_blocks(short_walks[0], config, 8)
        with ServingEngine(workers=1) as engine:
            session = engine.admit(spec)
            engine.pool.invoke(0, "fail_next_step")
            engine.submit(session, blocks[0])
            with pytest.raises(RuntimeError, match="no live shard"):
                engine.tick()


class TestAdaptiveRebatching:
    def _straggle(self, engine, config, short_walks, steps=30, cooldown=0):
        """Feed 3 cohort mates; the last gets 3 frames per step.

        A ``cooldown`` phase follows the hot phase: everyone (the
        ex-straggler included) back to one frame per step, so the
        split session's burst drain empties its backlog and the
        rejoin machinery has caught-up ticks to observe.
        """
        range_bin_m = short_walks[0].range_bin_m
        spec = single_session(config, range_bin_m)
        feeds = [
            frame_blocks(short_walks[0], config, steps + cooldown),
            frame_blocks(short_walks[1], config, steps + cooldown),
            frame_blocks(short_walks[2], config, 3 * steps + cooldown),
        ]
        sessions = [engine.admit(spec) for _ in feeds]
        cursors = [0, 0, 0]
        for phase_steps, hot in ((steps, True), (cooldown, False)):
            for _ in range(phase_steps):
                for i, (session, feed) in enumerate(zip(sessions, feeds)):
                    take = 3 if hot and i == 2 else 1
                    for _ in range(take):
                        if cursors[i] < len(feed):
                            assert session.offer(feed[cursors[i]])
                            cursors[i] += 1
                engine.tick()
        assert all(c == len(f) for c, f in zip(cursors, feeds))
        engine.drain()
        results = [engine.close(s) for s in sessions]
        return sessions, results, feeds, range_bin_m

    def test_straggler_splits_and_stays_bitwise_local(
        self, config, short_walks
    ):
        engine = ServingEngine(queue_capacity=64)
        engine.scheduler.detector = StragglerDetector(backlog=4, patience=2)
        engine.scheduler.catchup_burst = 4
        sessions, results, feeds, range_bin_m = self._straggle(
            engine, config, short_walks
        )
        assert engine.scheduler.splits >= 1
        assert "/split" in sessions[2].cohort.key  # re-batched
        assert sessions[2].cohort is not sessions[0].cohort
        for result, feed in zip(results, feeds):
            reference = serial_single(config, range_bin_m, feed)
            assert_single_equal(result, reference)

    def test_caught_up_straggler_rejoins_local(self, config, short_walks):
        """Splits are temporary: the backlog drains, the session merges
        back into its mates' cohort — still bitwise."""
        engine = ServingEngine(queue_capacity=64)
        engine.scheduler.detector = StragglerDetector(backlog=4, patience=2)
        engine.scheduler.catchup_burst = 4
        engine.scheduler.rejoin_patience = 3
        sessions, results, feeds, range_bin_m = self._straggle(
            engine, config, short_walks, cooldown=30
        )
        assert engine.scheduler.splits >= 1
        assert engine.scheduler.rejoins >= 1
        assert sessions[2].cohort is sessions[0].cohort  # back home
        assert len(engine.scheduler.cohorts) == 0  # all closed cleanly
        for result, feed in zip(results, feeds):
            reference = serial_single(config, range_bin_m, feed)
            assert_single_equal(result, reference)

    def test_straggler_migrates_across_processes_bitwise(
        self, config, short_walks, transport
    ):
        with ServingEngine(
            queue_capacity=64, workers=2, transport=transport
        ) as engine:
            engine.scheduler.detector = StragglerDetector(
                backlog=4, patience=2
            )
            engine.scheduler.catchup_burst = 4
            engine.scheduler.rejoin_patience = 3
            sessions, results, feeds, range_bin_m = self._straggle(
                engine, config, short_walks, cooldown=30
            )
            assert engine.scheduler.splits >= 1
            # Caught up during cooldown: migrated back into a sibling
            # non-split cohort (possibly on another shard), bit-exactly.
            assert engine.scheduler.rejoins >= 1
            assert not sessions[2].cohort.split
        for result, feed in zip(results, feeds):
            reference = serial_single(config, range_bin_m, feed)
            assert_single_equal(result, reference)

    def test_both_tiers_make_the_same_decisions(
        self, config, short_walks, transport
    ):
        """In process and over shard workers, the straggler is split
        and rejoined on the same ticks: the two front ends share one
        re-batching policy, so their counters agree after every tick."""
        traces = []
        for workers in (0, 2):
            with ServingEngine(
                queue_capacity=64, workers=workers, transport=transport
            ) as engine:
                scheduler = engine.scheduler
                scheduler.detector = StragglerDetector(backlog=4, patience=2)
                scheduler.catchup_burst = 4
                scheduler.rejoin_patience = 3
                trace = []
                tick = scheduler.tick

                def traced_tick():
                    consumed = tick()
                    trace.append((
                        scheduler.splits,
                        scheduler.rejoins,
                        scheduler.ticks,
                        scheduler.frames_processed,
                    ))
                    return consumed

                scheduler.tick = traced_tick
                _, results, feeds, range_bin_m = self._straggle(
                    engine, config, short_walks, cooldown=30
                )
            for result, feed in zip(results, feeds):
                reference = serial_single(config, range_bin_m, feed)
                assert_single_equal(result, reference)
            traces.append(trace)
        assert traces[0] == traces[1]
        splits, rejoins, _, _ = traces[0][-1]
        assert splits >= 1 and rejoins >= 1

    def test_stranded_split_cohort_becomes_base(self, config, short_walks):
        """An ex-split singleton with no base left is re-keyed as the
        base, so future same-spec admissions join it instead of
        founding a parallel pipeline."""
        engine = ServingEngine(queue_capacity=64)
        engine.scheduler.detector = StragglerDetector(backlog=3, patience=2)
        engine.scheduler.rejoin_patience = 2
        spec = single_session(config, short_walks[0].range_bin_m)
        blocks = frame_blocks(short_walks[0], config, 60)
        a, b = engine.admit(spec), engine.admit(spec)
        cursor = 0
        while engine.scheduler.splits == 0:
            engine.submit(a, blocks[cursor % len(blocks)])
            for _ in range(3):
                assert b.offer(blocks[cursor % len(blocks)])
            engine.tick()
            cursor += 1
            assert cursor < 100, "straggler never split"
        engine.drain()
        engine.close(a)  # base cohort empties and is dropped
        for _ in range(4):  # b caught up; rejoin pass re-keys its cohort
            engine.submit(b, blocks[0])
            engine.tick()
        assert b.cohort.key == spec.cohort_key()
        assert not b.cohort.split
        c = engine.admit(spec)
        assert c.cohort is b.cohort
        engine.evict(b)
        engine.evict(c)

    def test_detector_needs_persistence(self):
        class Stub:
            def __init__(self, sid):
                self.session_id = sid

        detector = StragglerDetector(backlog=2, patience=3)
        lagger, mate = Stub(1), Stub(2)
        assert detector.observe([(lagger, 5), (mate, 0)]) == []
        assert detector.observe([(lagger, 5), (mate, 0)]) == []
        # A recovery resets the counter...
        assert detector.observe([(lagger, 1), (mate, 0)]) == []
        assert detector.observe([(lagger, 5), (mate, 0)]) == []
        assert detector.observe([(lagger, 5), (mate, 0)]) == []
        # ...so the split fires only after `patience` consecutive lags.
        assert detector.observe([(lagger, 5), (mate, 0)]) == [lagger]
