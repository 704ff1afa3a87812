"""The distributed serving tier: shard cohorts across worker processes.

PR 4's lockstep tick made one process serve N sessions; this module
makes N *processes* serve N·M. The division of labor:

* :class:`ShardWorker` — the actor living inside each
  :class:`~repro.exec.pool.WorkerPool` worker process. It owns whole
  cohorts (shared vectorized pipelines plus slot bookkeeping) and
  advances them with the same :meth:`Pipeline.tick
  <repro.pipeline.Pipeline.tick>` the single-process engine uses, so a
  shard's outputs are bitwise the single-process outputs for the same
  frames — tick rows are independent sessions, and partitioning rows
  across processes changes nothing.
* :class:`DistributedScheduler` — the front-end mirror of
  :class:`~repro.serve.scheduler.Scheduler`. It places **whole
  cohorts** onto shards (least-loaded placement, Kadabra-style: where
  work lands adapts to observed load), keeps every session's bounded
  queue and accumulated results in the parent, and per tick sends each
  shard one batched ``step`` — all shards are submitted before any
  response is awaited, so shard compute overlaps.

Failure is survivable by construction: the parent owns the queues, so
when a shard dies mid-step (crash or a raised exception), its in-flight
frames are requeued at the head of their sessions' queues, the shard is
excluded (the ``excluded``-style bookkeeping the exec layer uses for
bad runners), and its cohorts are re-placed onto survivors. The
re-placed sessions restart their pipeline state at a reset boundary —
exactly the semantics of the sharded stream runner — so each failed-over
session re-primes background subtraction on its next frame and loses
one output frame, deterministically, while every other session is
untouched.

Adaptive re-batching crosses processes here: a straggling session's
state is pulled out of its shard via :meth:`Pipeline.snapshot_session`
(picklable by design), restored bit-exactly into a fresh singleton
cohort on the least-loaded shard, and drained at ``catchup_burst``
frames per tick.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ..exec.pool import WorkerCrash, WorkerPool, remote_failure
from ..kernels.profile import StageProfiler
from .scheduler import Cohort, SchedulerBase, drop_cohort, merged_profile
from .session import (
    AdmissionRefused,
    Session,
    SessionSpec,
    TickRows,
    tick_group,
)


class ShardWorker:
    """Cohort pipelines hosted inside one long-lived worker process.

    Instantiated by the worker pool *inside* the worker (actor
    factory); every method is an IPC entry point with picklable
    arguments and returns. Reuses :class:`~repro.serve.scheduler.Cohort`
    for pipeline construction and its dense slots, so shard-side slot
    lifecycle is the single-process lifecycle: an eviction moves the
    cohort's last member into the freed slot, and :meth:`step` ticks
    each cohort's batch in slot order. Slots never leave the worker;
    the parent addresses sessions by id.
    """

    def __init__(self) -> None:
        self.cohorts: dict[str, Cohort] = {}
        self._placement: dict[int, tuple[str, int]] = {}  # sid -> (key, slot)
        self.steps = 0
        self.frames_processed = 0
        self._fail_in: int | None = None
        self._retired_profile = StageProfiler()

    # -- session lifecycle -------------------------------------------------

    def _cohort(self, key: str, spec: SessionSpec) -> Cohort:
        cohort = self.cohorts.get(key)
        if cohort is None:
            cohort = Cohort(key, spec)
            self.cohorts[key] = cohort
        return cohort

    def admit(
        self, session_id: int, key: str, spec: SessionSpec, start_frame: int = 0
    ) -> int:
        """Open a fresh state slot for a session; returns the slot.

        Args:
            session_id: engine-wide session identity.
            key: placement key of the session's cohort.
            spec: pipeline structure (builds the cohort on first use).
            start_frame: index of the session's next input frame — 0
                for a new session; a failover re-admission passes the
                frames already consumed so the fresh state starts *on
                the session clock*, exactly like
                :meth:`Pipeline.reset(start_frame)
                <repro.pipeline.Pipeline.reset>` at a shard boundary.
        """
        if session_id in self._placement:
            raise RuntimeError(f"session {session_id} already on this shard")
        cohort = self._cohort(key, spec)
        slot = cohort.allocate_slot(session_id)
        if start_frame:
            pipeline = cohort.pipeline
            pipeline.restore_session(
                slot,
                {
                    "frames_in": start_frame,
                    "stages": [{} for _ in pipeline.stages],
                },
            )
        self._placement[session_id] = (key, slot)
        return slot

    def restore(
        self, session_id: int, key: str, spec: SessionSpec, state: dict
    ) -> None:
        """Admit a session and install a migrated pipeline snapshot."""
        slot = self.admit(session_id, key, spec)
        self.cohorts[key].pipeline.restore_session(slot, state)

    def snapshot(self, session_id: int) -> dict:
        """Hand off one session's pipeline state (for migration)."""
        key, slot = self._placement[session_id]
        return self.cohorts[key].pipeline.snapshot_session(slot)

    def evict(self, session_id: int) -> None:
        """Forget a session's state slot; drop its cohort when empty."""
        key, slot = self._placement.pop(session_id)
        cohort = self.cohorts[key]
        moved = cohort.release_slot(slot)
        if moved is not None:
            self._placement[moved] = (key, slot)
        if not cohort.members:
            drop_cohort(self.cohorts, cohort, self._retired_profile)

    @property
    def num_sessions(self) -> int:
        """Sessions currently placed on this shard."""
        return len(self._placement)

    # -- the unit of work --------------------------------------------------

    def step(
        self, batch: list[tuple[int, list[np.ndarray]]]
    ) -> tuple[list[TickRows], float]:
        """Advance this shard one scheduler tick.

        Args:
            batch: ``(session_id, [sweep_block, ...])`` pairs — usually
                one block each; split cohorts catching up send several.

        Returns:
            ``(groups, tick_s)``: one output group per (cohort, burst
            round) pipeline tick — the tick's emitted rows as column
            slabs with a parallel session-id routing vector (see
            :func:`~repro.serve.session.tick_group`; a tick may emit
            fewer rows than it was fed when frames only primed) — and
            the wall-clock seconds spent ticking pipelines, which the
            parent subtracts from the round-trip time to measure IPC
            overhead. Groups arrive in per-cohort round order, so each
            session's rows are in its frame order; the parent hands
            each row to :meth:`Session.collect
            <repro.serve.session.Session.collect>`, as the in-process
            scheduler hands it the tick.
        """
        if self._fail_in is not None:
            self._fail_in -= 1
            if self._fail_in <= 0:
                self._fail_in = None
                raise RuntimeError("injected shard failure (fail_next_step)")
        start = perf_counter()
        groups: list[TickRows] = []
        by_cohort: dict[str, list[tuple[int, int, list[np.ndarray]]]] = {}
        for sid, blocks in batch:
            key, slot = self._placement[sid]
            by_cohort.setdefault(key, []).append((slot, sid, blocks))
        for key, members in by_cohort.items():
            pipeline = self.cohorts[key].pipeline
            # Slot order: a step that covers the whole cohort ticks the
            # dense slot vector 0..n-1.
            members.sort(key=lambda m: m[0])
            rounds = max(len(blocks) for _, _, blocks in members)
            for r in range(rounds):
                active = [m for m in members if r < len(m[2])]
                slots = np.fromiter(
                    (slot for slot, _, _ in active),
                    dtype=np.intp,
                    count=len(active),
                )
                tick = pipeline.tick(
                    [blocks[r] for _, _, blocks in active], slots
                )
                if tick.num_rows:
                    sid_of_slot = {slot: sid for slot, sid, _ in active}
                    session_ids = np.fromiter(
                        (sid_of_slot[int(slot)] for slot in tick.slots),
                        dtype=np.int64,
                        count=tick.num_rows,
                    )
                    groups.append(tick_group(tick, session_ids))
                self.frames_processed += len(active)
        self.steps += 1
        return groups, perf_counter() - start

    # -- introspection / fault injection -----------------------------------

    def stats(self) -> dict:
        """Shard-side counters (steps, frames, cohorts, sessions)."""
        return {
            "steps": self.steps,
            "frames_processed": self.frames_processed,
            "cohorts": len(self.cohorts),
            "sessions": self.num_sessions,
        }

    def stage_profile(self) -> dict:
        """This shard's merged per-stage counters (picklable dict)."""
        return merged_profile(
            self._retired_profile, self.cohorts.values()
        ).as_dict()

    def fail_next_step(self, after: int = 1) -> None:
        """Arm fault injection: the ``after``-th next step raises.

        Test seam for the failover path — a shard that raises mid-tick
        must be excluded and its sessions requeued, not kill the engine.
        """
        self._fail_in = max(int(after), 1)


class PlacedCohort:
    """Front-end bookkeeping for one cohort living on a shard.

    The parent-side mirror of the shard's :class:`Cohort`: no pipeline,
    just membership, placement, and the catch-up burst budget. Unlike
    the single-process engine — where a spec has exactly one cohort —
    the distributed tier may run **one cohort per (spec, shard)**: the
    cohort is the placement unit (it always lives whole on one shard),
    and homogeneous traffic spreads across shards by founding sibling
    cohorts of the same spec. Partitioning sessions into more cohorts
    never changes outputs (tick rows are independent); it only changes
    where they are computed.

    Args:
        key: unique placement key (``<spec key>#<seq>`` in the
            distributed tier).
        spec_key: the spec's content key — shared by sibling cohorts.
        spec: the shared pipeline structure.
        shard: worker index currently hosting the cohort.
        burst: frames per session per tick the scheduler may drain.
    """

    def __init__(
        self,
        key: str,
        spec_key: str,
        spec: SessionSpec,
        shard: int,
        burst: int = 1,
    ) -> None:
        self.key = key
        self.spec_key = spec_key
        self.spec = spec
        self.shard = shard
        self.burst = burst
        #: True for cohorts born from an adaptive split (rejoin candidates).
        self.split = False
        #: Members in admission order (slots are worker-local).
        self.members: list[Session] = []

    @property
    def num_sessions(self) -> int:
        """Live sessions in this cohort."""
        return len(self.members)


class ShardStats:
    """Per-shard timing and IPC ledger kept by the front end.

    Attributes:
        tick_s: worker-reported pipeline-tick seconds per step.
        round_trip_s: submit-to-response wall seconds per step.
        bytes_pickled: array bytes that crossed this shard's pipe
            inline (both directions, cumulative).
        bytes_shm: array bytes that crossed through the shm arena.
        descriptor_rounds: IPC messages exchanged with the shard.
        arena_overflows: arrays that fell back to the pipe because the
            arena region was full.
    """

    def __init__(self) -> None:
        self.tick_s: list[float] = []
        self.round_trip_s: list[float] = []
        self.bytes_pickled = 0
        self.bytes_shm = 0
        self.descriptor_rounds = 0
        self.arena_overflows = 0

    def record_transport(self, stats: dict) -> None:
        """Refresh the cumulative IPC counters from the pool's ledger."""
        self.bytes_pickled = int(stats.get("bytes_pickled", 0))
        self.bytes_shm = int(stats.get("bytes_shm", 0))
        self.descriptor_rounds = int(stats.get("descriptor_rounds", 0))
        self.arena_overflows = int(stats.get("arena_overflows", 0))

    def summary(self) -> dict:
        """p50/p95/p99 tick time plus mean IPC overhead, in milliseconds."""
        transport = {
            "bytes_pickled": self.bytes_pickled,
            "bytes_shm": self.bytes_shm,
            "descriptor_rounds": self.descriptor_rounds,
            "arena_overflows": self.arena_overflows,
        }
        if not self.tick_s:
            return {
                "steps": 0,
                "tick_p50_ms": float("nan"),
                "tick_p95_ms": float("nan"),
                "tick_p99_ms": float("nan"),
                "ipc_overhead_mean_ms": float("nan"),
                **transport,
            }
        ticks = np.asarray(self.tick_s)
        overhead = np.asarray(self.round_trip_s) - ticks
        return {
            "steps": len(self.tick_s),
            "tick_p50_ms": 1e3 * float(np.median(ticks)),
            "tick_p95_ms": 1e3 * float(np.percentile(ticks, 95)),
            "tick_p99_ms": 1e3 * float(np.percentile(ticks, 99)),
            "ipc_overhead_mean_ms": 1e3 * float(np.mean(overhead)),
            **transport,
        }


class DistributedScheduler(SchedulerBase):
    """Place cohorts on shard workers; batch, route, merge, survive.

    The distributed front end, shaped like the in-process
    :class:`~repro.serve.scheduler.Scheduler` and sharing its
    :class:`~repro.serve.scheduler.SchedulerBase` bookkeeping and
    re-batching policy; placement *is* admission here. Sessions keep
    their bounded queues and accumulated results in the parent; shards
    hold only pipeline state.

    Args:
        pool: worker pool whose actors are :class:`ShardWorker`\\ s.
        queue_capacity: per-session input queue bound (backpressure).
        adaptive_split: enable straggler re-batching across shards.
        split_backlog: queue-depth lag that marks a straggler.
        split_patience: consecutive lagging ticks before splitting.
        catchup_burst: frames per tick a split cohort may drain.
        rejoin_patience: consecutive caught-up observations before a
            split session migrates back into a sibling cohort.
        memory_model: optional per-session memory estimator
            (``estimate(spec) -> bytes``). When present, placement
            weighs shards by *predicted committed bytes* instead of raw
            session counts — the predict-before-you-allocate placement
            of the memory-governed serving tier — so one heavy
            multi-person cohort does not count the same as one
            single-person session.
        shard_budget_bytes: per-shard cap on predicted bytes. With a
            ``memory_model``, an admission that fits no live shard
            raises :class:`~repro.serve.session.AdmissionRefused`
            (failover ignores the cap: keeping sessions alive on
            survivors beats refusing them mid-stream).
    """

    def __init__(
        self,
        pool: WorkerPool,
        queue_capacity: int = 64,
        adaptive_split: bool = True,
        split_backlog: int = 8,
        split_patience: int = 4,
        catchup_burst: int = 4,
        rejoin_patience: int = 4,
        memory_model=None,
        shard_budget_bytes: int | None = None,
    ) -> None:
        if shard_budget_bytes is not None and shard_budget_bytes <= 0:
            raise ValueError("shard_budget_bytes must be positive")
        super().__init__(
            queue_capacity,
            adaptive_split,
            split_backlog,
            split_patience,
            catchup_burst,
            rejoin_patience,
        )
        self.pool = pool
        self.memory_model = memory_model
        self.shard_budget_bytes = shard_budget_bytes
        self.excluded_shards: set[int] = set()
        self.shard_stats: dict[int, ShardStats] = {
            w: ShardStats() for w in range(pool.num_workers)
        }
        #: Most recent shard failure (surfaced when the tier goes down).
        self.last_failure: BaseException | None = None
        self.failovers = 0

    # -- placement ---------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Shards still serving (live and not excluded)."""
        return len(self._live_shards())

    def _live_shards(self) -> list[int]:
        return [
            w for w in self.pool.live_workers() if w not in self.excluded_shards
        ]

    def _session_cost(self, spec: SessionSpec) -> int:
        """Placement weight of one session (predicted bytes, or 1)."""
        if self.memory_model is None:
            return 1
        return int(self.memory_model.estimate(spec))

    def _shard_load(self) -> dict[int, int]:
        """Per-live-shard load: session counts, or predicted bytes when
        a memory model is installed."""
        load = {w: 0 for w in self._live_shards()}
        for cohort in self.cohorts.values():
            if cohort.shard in load:
                load[cohort.shard] += (
                    cohort.num_sessions * self._session_cost(cohort.spec)
                )
        return load

    def _least_loaded(self) -> int:
        load = self._shard_load()
        if not load:
            # Chain the last remote failure: when a poison input (e.g. a
            # malformed frame that deterministically raises) has burned
            # through every shard, the root cause must surface here, not
            # vanish into the failover bookkeeping.
            raise RuntimeError(
                "no live shard workers remain; the serving tier is down"
            ) from self.last_failure
        return min(load, key=lambda w: (load[w], w))

    def _exclude_shard(
        self,
        shard: int,
        in_flight: list[tuple[Session, list[tuple[np.ndarray, float]]]],
    ) -> None:
        """Mark a failed shard excluded and requeue its in-flight frames.

        In-flight frames go back to the *head* of their sessions'
        queues (oldest first, enqueue timestamps preserved), so no
        frame is lost and ordering holds. :meth:`_failover` re-places
        the dead shard's cohorts — kept separate so multiple failures
        in one tick are all excluded before any placement decision, and
        so re-admission never races a step still in flight elsewhere.
        """
        self.excluded_shards.add(shard)
        try:
            self.pool.kill(shard)
        except Exception:  # pragma: no cover - already dead
            pass
        self.failovers += 1
        for session, entries in in_flight:
            session.queue.extendleft(reversed(entries))

    def _failover(self) -> None:
        """Re-place every cohort stranded on an excluded shard.

        Re-placed sessions restart their pipeline state at a reset
        boundary on the new shard (the state died with the worker):
        their next frame re-primes background subtraction, exactly like
        a shard boundary in the sharded stream runner. Runs to a fixed
        point: a target shard dying *during* re-placement is excluded
        in turn and its strandees (including any just moved there) are
        re-placed again, until every cohort sits on a live shard — or
        none remain and the tier is declared down.
        """
        while True:
            cohort = next(
                (
                    c
                    for c in self.cohorts.values()
                    if c.shard in self.excluded_shards
                ),
                None,
            )
            if cohort is None:
                return
            target = self._least_loaded()
            try:
                for session in cohort.members:
                    consumed = session.frames_in - len(session.queue)
                    self.pool.invoke(
                        target, "admit", session.session_id, cohort.key,
                        cohort.spec, consumed,
                    )
            except Exception as exc:
                if not remote_failure(exc):
                    raise
                self.last_failure = exc
                self._exclude_shard(target, [])
                continue
            cohort.shard = target

    def _fail_shard(
        self,
        shard: int,
        in_flight: list[tuple[Session, list[tuple[np.ndarray, float]]]],
    ) -> None:
        """Exclude + fail over in one call (no other requests in flight)."""
        self._exclude_shard(shard, in_flight)
        self._failover()

    # -- admission / retirement --------------------------------------------

    def _cohort_for(self, spec: SessionSpec, spec_key: str) -> PlacedCohort:
        """The cohort an admission joins on the least-loaded shard.

        The session joins the same-spec cohort already living on that
        shard when there is one, and founds a sibling cohort there
        otherwise — so homogeneous traffic spreads across every shard
        while each shard still batches its same-spec sessions into one
        vectorized pipeline tick.

        With a memory model and shard budget installed, an admission
        whose predicted footprint overflows even the least-loaded shard
        raises :class:`~repro.serve.session.AdmissionRefused` — the
        session is refused *before* any state allocates anywhere.
        """
        target = self._least_loaded()
        if self.memory_model is not None and self.shard_budget_bytes is not None:
            projected = (
                self._shard_load()[target] + self._session_cost(spec)
            )
            if projected > self.shard_budget_bytes:
                raise AdmissionRefused(
                    f"predicted shard memory {projected} B exceeds the "
                    f"{self.shard_budget_bytes} B budget on every live shard"
                )
        cohort = next(
            (
                c
                for c in self.cohorts.values()
                # Never admit into a split cohort: it is mid-catch-up,
                # and a second member would stop it from ever rejoining.
                if c.spec_key == spec_key and c.shard == target and not c.split
            ),
            None,
        )
        if cohort is None:
            key = f"{spec_key}#{self._split_seq}"
            self._split_seq += 1
            cohort = PlacedCohort(key, spec_key, spec, target)
            self.cohorts[key] = cohort
        return cohort

    def _join(self, session: Session, cohort: PlacedCohort) -> None:
        """Open the session's state slot on its cohort's shard."""
        try:
            self.pool.invoke(
                cohort.shard, "admit", session.session_id, cohort.key,
                session.spec,
            )
        except Exception as exc:
            if not remote_failure(exc):
                raise
            self.last_failure = exc
            self._fail_shard(cohort.shard, [])
            self.pool.invoke(
                cohort.shard, "admit", session.session_id, cohort.key,
                session.spec,
            )
        cohort.members.append(session)

    def _leave(self, session: Session) -> None:
        """Free the session's shard slot; drop its cohort when empty."""
        cohort: PlacedCohort = session.cohort
        cohort.members.remove(session)
        try:
            self.pool.invoke(cohort.shard, "evict", session.session_id)
        except Exception as exc:
            if not remote_failure(exc):
                raise
            self.last_failure = exc
            self._fail_shard(cohort.shard, [])
        if not cohort.members:
            del self.cohorts[cohort.key]

    # -- the scheduling loop -----------------------------------------------

    def tick(self) -> int:
        """One distributed pass: batch per shard, overlap, route, merge.

        Pops up to ``burst`` queued frames per ready session, submits
        every involved shard its batch *before* awaiting any response
        (shard compute overlaps), then routes each shard's output rows
        and latency samples back as responses arrive. A shard that
        fails mid-step is excluded and failed over without dropping a
        frame.

        Returns:
            Number of frames consumed (0 means every queue was empty).
        """
        batches: dict[
            int, list[tuple[Session, list[tuple[np.ndarray, float]]]]
        ] = {}
        for cohort in list(self.cohorts.values()):
            for session in cohort.members:
                take = min(len(session.queue), cohort.burst)
                if take:
                    entries = [session.queue.popleft() for _ in range(take)]
                    batches.setdefault(cohort.shard, []).append(
                        (session, entries)
                    )
        consumed = 0
        submitted: dict[int, float] = {}
        failed: list[int] = []
        for shard, batch in batches.items():
            payload = [
                (session.session_id, [block for block, _ in entries])
                for session, entries in batch
            ]
            try:
                self.pool.submit(shard, "invoke", "step", (payload,))
            except WorkerCrash as exc:
                self.last_failure = exc
                failed.append(shard)
                continue
            submitted[shard] = perf_counter()
        pending = set(submitted)
        while pending:
            # Drain every ready response (timestamping each arrival)
            # before routing any rows, so one shard's parent-side row
            # routing cannot inflate a sibling's measured IPC overhead.
            arrivals = []
            for shard in self.pool.ready():
                if shard not in pending:
                    continue  # pragma: no cover - foreign response
                pending.discard(shard)
                try:
                    groups, tick_s = self.pool.result(shard)
                except Exception as exc:
                    if not remote_failure(exc):
                        raise
                    self.last_failure = exc
                    failed.append(shard)
                    continue
                arrivals.append((shard, groups, tick_s, perf_counter()))
            for shard, groups, tick_s, done in arrivals:
                stats = self.shard_stats[shard]
                stats.tick_s.append(tick_s)
                stats.round_trip_s.append(done - submitted[shard])
                stats.record_transport(self.pool.transport_stats(shard))
                for session, entries in batches[shard]:
                    for _, enqueued in entries:
                        session.latency.latencies_s.append(done - enqueued)
                    consumed += len(entries)
                for rows in groups:
                    for row, sid in enumerate(rows.session_ids.tolist()):
                        self.sessions[sid].collect(rows, row)
        if failed:
            # Every response is in (or lost); only now is it safe to
            # exclude the casualties and re-admit their sessions on
            # survivors — no step is in flight anywhere.
            for shard in failed:
                self._exclude_shard(shard, batches[shard])
            self._failover()
        if consumed:
            self.ticks += 1
            self.frames_processed += consumed
        if self.adaptive_split:
            self._rebatch()
        return consumed

    # -- adaptive re-batching ----------------------------------------------

    def _split(self, session: Session) -> None:
        """Migrate one straggler into a singleton cohort, bit-exactly.

        The session's pipeline state crosses processes as a
        :meth:`Pipeline.snapshot_session` hand-off; the new cohort gets
        the catch-up burst budget and lands on the least-loaded shard.
        A shard failure during migration falls back to the ordinary
        failover path (fresh state), never an inconsistent one — the
        session is registered in its new cohort *before* the restore,
        so failover finds it even when the restore target dies.
        """
        cohort: PlacedCohort = session.cohort
        if cohort.num_sessions <= 1:
            cohort.burst = max(cohort.burst, self.catchup_burst)
            cohort.split = True
            return
        source = cohort.shard
        try:
            state = self.pool.invoke(source, "snapshot", session.session_id)
            self.pool.invoke(source, "evict", session.session_id)
        except Exception as exc:
            if not remote_failure(exc):
                raise
            self.last_failure = exc
            self._fail_shard(source, [])
            return
        cohort.members.remove(session)
        key = f"{cohort.spec_key}#{self._split_seq}"
        self._split_seq += 1
        split = PlacedCohort(
            key,
            cohort.spec_key,
            cohort.spec,
            self._least_loaded(),
            burst=self.catchup_burst,
        )
        split.split = True
        self.cohorts[key] = split
        session.cohort = split
        split.members.append(session)
        self.splits += 1
        try:
            self.pool.invoke(
                split.shard, "restore", session.session_id, key,
                cohort.spec, state,
            )
        except Exception as exc:
            if not remote_failure(exc):
                raise
            # The migrated state died with the target; ordinary failover
            # re-places the (already-registered) session with fresh
            # state on the session clock.
            self._fail_shard(split.shard, [])

    def _rejoin(self, session: Session) -> None:
        """Merge a caught-up split session back into a sibling cohort.

        Splits are temporary: once the backlog is gone, the session
        migrates (bit-exactly, same snapshot hand-off) into a same-spec
        non-split cohort — preferring one already on its shard — so
        transient stragglers cannot fragment the lockstep batching
        permanently. With no sibling to rejoin, the cohort simply stops
        being special.
        """
        cohort: PlacedCohort = session.cohort
        siblings = [
            c
            for c in self.cohorts.values()
            if c is not cohort and c.spec_key == cohort.spec_key and not c.split
        ]
        if not siblings:
            cohort.burst = 1
            cohort.split = False
            return
        target = next(
            (c for c in siblings if c.shard == cohort.shard), siblings[0]
        )
        source = cohort.shard
        try:
            state = self.pool.invoke(source, "snapshot", session.session_id)
            self.pool.invoke(source, "evict", session.session_id)
        except Exception as exc:
            if not remote_failure(exc):
                raise
            self.last_failure = exc
            self._fail_shard(source, [])
            return
        cohort.members.remove(session)
        del self.cohorts[cohort.key]
        session.cohort = target
        target.members.append(session)
        self.rejoins += 1
        try:
            self.pool.invoke(
                target.shard, "restore", session.session_id, target.key,
                target.spec, state,
            )
        except Exception as exc:
            if not remote_failure(exc):
                raise
            self.last_failure = exc
            self._fail_shard(target.shard, [])

    # -- reporting ---------------------------------------------------------

    def stage_profile(self) -> StageProfiler:
        """Merged per-stage counters across every live shard.

        Each shard replies with its own merged dict (live cohorts plus
        the counters of cohorts already dropped on that shard); excluded
        or crashed shards are skipped — their counters are lost with the
        process, like any other shard-side state. Workers inherit the
        profiling switch at fork, so set ``REPRO_PROFILE=1`` (or call
        :func:`repro.kernels.enable_profiling` before building the
        engine) for the counters to exist at all.
        """
        merged = StageProfiler()
        for shard in self._live_shards():
            try:
                merged.merge(self.pool.invoke(shard, "stage_profile"))
            except Exception as exc:
                if not remote_failure(exc):
                    raise
                self.last_failure = exc
                self._fail_shard(shard, [])
        return merged

    def shard_report(self) -> list[dict]:
        """Per-shard summary: timings, exclusion, current placement."""
        counts: dict[int, int] = {}
        for cohort in self.cohorts.values():
            counts[cohort.shard] = (
                counts.get(cohort.shard, 0) + cohort.num_sessions
            )
        load = self._shard_load() if self.memory_model is not None else None
        report = []
        for shard in range(self.pool.num_workers):
            entry = {"shard": shard, "excluded": shard in self.excluded_shards}
            # Counters live parent-side, so a report after (or between)
            # ticks — even for a crashed shard — reflects all traffic.
            self.shard_stats[shard].record_transport(
                self.pool.transport_stats(shard)
            )
            entry.update(self.shard_stats[shard].summary())
            entry["sessions"] = counts.get(shard, 0)
            if load is not None:
                entry["predicted_bytes"] = load.get(shard, 0)
            report.append(entry)
        return report
