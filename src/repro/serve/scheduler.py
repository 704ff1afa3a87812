"""Session admission and the lockstep multiplexing scheduler.

:class:`Scheduler` owns the cohorts: it admits sessions (appending a
state slot to the cohort's shared vectorized pipeline), closes them
(evicting their slot without perturbing survivors), and ticks them. A
cohort's slots stay dense — a leaving session's slot is refilled by the
cohort's last member, its state moved bit-exactly — so a tick that
covers the whole cohort carries the slot vector ``0..n-1``, which the
stages read and write in place. :meth:`Scheduler.tick` batches, per
cohort, every session with a queued frame, in slot order, into **one**
:meth:`Pipeline.tick <repro.pipeline.Pipeline.tick>` call — N sessions,
one pass of numpy dispatch — and routes each output row back to its
session with its latency sample.

Stragglers cost nothing — until they do. A session with an empty queue
simply sits out the tick (its state rows are untouched), and a session
whose producer runs hot hits its bounded queue and is refused frames.
But a session whose queue depth *persistently* lags its same-spec mates is
a scheduling problem: in lockstep it can drain at most one frame per
cohort tick, so a producer that outpaces the tick rate backs it up
without bound. The scheduler's answer is **catch-up in place**: the
straggler's :attr:`~repro.serve.session.Session.burst` rises to
:attr:`SchedulerBase.CATCHUP_BURST`, and each pass adds rounds over its
cohort's catching-up members that still hold a frame, in the same
pipeline and the same slot, until its queue has stayed empty for
:attr:`SchedulerBase.CAUGHT_UP_PASSES` passes. No state moves; catch-up
never changes any output (the serving tests pin this), only *when*
frames are processed.

The distributed front end (:class:`~repro.serve.shard.DistributedScheduler`)
runs the same policy over shard workers. What the two share —
session registration, the closing half of ``retire``, ``drain`` and the
catch-up decisions — lives once, in :class:`SchedulerBase`.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ..kernels.profile import StageProfiler
from ..pipeline.outputs import RowBatch
from ..pipeline.runner import Pipeline, PipelineResult
from .session import BlockShape, Session, SessionSpec


class Cohort:
    """Sessions sharing one vectorized pipeline (same :class:`SessionSpec`).

    Slots are dense: :attr:`members` lists the cohort in slot order, so
    member ``k`` owns state slot ``k``. A freed slot is refilled by the
    last member (:meth:`release_slot`).

    Args:
        key: the cohort's key (the spec's content key in process).
        spec: the shared pipeline structure.
    """

    def __init__(self, key: str, spec: SessionSpec) -> None:
        self.key = key
        self.spec = spec
        self.pipeline: Pipeline = spec.build_pipeline()
        #: Members in slot order: a :class:`Session` in process, a
        #: session id inside a shard worker.
        self.members: list = []

    @property
    def num_sessions(self) -> int:
        """Live sessions currently in the cohort."""
        return len(self.members)

    def allocate_slot(self, member) -> int:
        """Give ``member`` slot ``n``, growing the pipeline if needed."""
        slot = len(self.members)
        self.members.append(member)
        self.pipeline.attach_sessions(slot + 1)
        return slot

    def release_slot(self, slot: int):
        """Free ``slot`` and keep the slots dense.

        The last member's state moves into ``slot``
        (:meth:`Pipeline.move_session`), which leaves the last slot
        fresh. Returns the moved member, whose slot is now ``slot``, or
        None when ``slot`` was the last.
        """
        moved = self.members.pop()
        last = len(self.members)
        if slot == last:
            self.pipeline.evict_session(last)
            return None
        self.pipeline.move_session(last, slot)
        self.members[slot] = moved
        return moved


def drop_cohort(cohorts: dict, cohort: Cohort, retired: StageProfiler) -> None:
    """Delete an emptied cohort, keeping its stage counters in ``retired``.

    Run when the last member leaves, so a long-running engine with
    churning heterogeneous specs cannot accumulate idle pipelines (and
    their grown state arrays) without bound; ``retired`` keeps the
    cohort's ticks in the profile (profiling runs only).
    """
    if cohort.pipeline.profiler is not None:
        retired.merge(cohort.pipeline.profiler)
    del cohorts[cohort.key]


def merged_profile(retired: StageProfiler, cohorts) -> StageProfiler:
    """Per-stage counters of ``retired`` plus every live cohort's.

    Empty unless pipelines were built with profiling enabled
    (``REPRO_PROFILE=1`` or :func:`repro.kernels.enable_profiling`).
    """
    merged = StageProfiler()
    merged.merge(retired)
    for cohort in cohorts:
        if cohort.pipeline.profiler is not None:
            merged.merge(cohort.pipeline.profiler)
    return merged


class StragglerDetector:
    """Spot sessions whose queue depth persistently lags their spec's.

    Both front ends run it through :meth:`SchedulerBase._rebatch`:
    after each tick, feed it every spec's ``(session, queue depth)``
    pairs, its catching-up sessions left out; it returns the sessions
    that have lagged the group's *shallowest* queue by at least
    ``backlog`` frames for ``patience`` consecutive ticks — the
    sessions to put into catch-up. A group of fewer than two has no
    one to lag.

    Args:
        backlog: queue-depth excess over the group minimum that counts
            as lagging.
        patience: consecutive lagging ticks before a catch-up starts (a
            transient burst should not start one).
    """

    def __init__(self, backlog: int = 8, patience: int = 4) -> None:
        if backlog < 1 or patience < 1:
            raise ValueError("backlog and patience must be >= 1")
        self.backlog = backlog
        self.patience = patience
        self._lagging: dict[int, int] = {}

    def observe(self, members: list[tuple[Session, int]]) -> list[Session]:
        """Update lag counters for one group; return sessions now due."""
        if len(members) < 2:
            for session, _ in members:
                self._lagging.pop(session.session_id, None)
            return []
        floor = min(depth for _, depth in members)
        due = []
        for session, depth in members:
            if depth - floor >= self.backlog:
                count = self._lagging.get(session.session_id, 0) + 1
                self._lagging[session.session_id] = count
                if count >= self.patience:
                    del self._lagging[session.session_id]
                    due.append(session)
            else:
                self._lagging.pop(session.session_id, None)
        return due

    def forget(self, session: Session) -> None:
        """Drop a session's counter (on retire/evict)."""
        self._lagging.pop(session.session_id, None)

    def prune(self, live_ids) -> None:
        """Drop counters of sessions that no longer exist."""
        self._lagging = {
            sid: count
            for sid, count in self._lagging.items()
            if sid in live_ids
        }

    def sweep(self, groups) -> list[Session]:
        """Observe every group; return all sessions due for catch-up.

        The per-tick detection loop: ``groups`` yields each spec's
        sessions.
        """
        due: list[Session] = []
        for sessions in groups:
            due.extend(self.observe([(s, len(s.queue)) for s in sessions]))
        return due


class SchedulerBase:
    """The session bookkeeping and catch-up policy of both front ends.

    :class:`Scheduler` (in process) and
    :class:`~repro.serve.shard.DistributedScheduler` differ only in how
    a tick runs and where a cohort's pipeline lives; the rest lives
    here once. A subclass supplies ``_cohort_for(spec, key)`` (the
    cohort an admission joins), ``_join(session, cohort)`` and
    ``_leave(session)`` (take and free a state slot there; ``_leave``
    drops an emptied cohort), ``tick`` (which drains up to each
    session's :attr:`~repro.serve.session.Session.burst` frames and
    ends with :meth:`_rebatch`) and ``stage_profile``.

    :attr:`catchups` counts the catch-ups :meth:`_rebatch` started and
    :attr:`catchups_ended` those that ran their course (a session
    retired mid-catch-up ends none).

    Args:
        queue_capacity: per-session input queue bound (backpressure).
    """

    #: Frames a catching-up session may drain per pass.
    CATCHUP_BURST = 4
    #: Consecutive passes that end with a catching-up session's queue
    #: empty before its burst returns to 1 — catch-up is temporary, so
    #: a transient hiccup cannot leave a session bursting for good.
    CAUGHT_UP_PASSES = 4

    def __init__(self, queue_capacity: int = 64) -> None:
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        self.queue_capacity = queue_capacity
        self.detector = StragglerDetector()
        #: Catching-up session ids, in the order their catch-ups
        #: started, mapped to the passes in a row that ended with the
        #: session's queue empty.
        self._catching_up: dict[int, int] = {}
        self.cohorts: dict = {}
        self.sessions: dict[int, Session] = {}
        #: One sweep-block shape check per live spec (cohort key).
        self.block_shapes: dict[str, BlockShape] = {}
        self._spec_sessions: dict[str, int] = {}
        self._next_id = 1
        self.ticks = 0
        self.frames_processed = 0
        self.catchups = 0
        self.catchups_ended = 0

    @property
    def num_sessions(self) -> int:
        """Live sessions across every cohort."""
        return len(self.sessions)

    def admit(self, spec: SessionSpec) -> Session:
        """Open a session for ``spec`` in the cohort its tier picks."""
        key = spec.cohort_key()
        cohort = self._cohort_for(spec, key)
        shape = self.block_shapes.get(key)
        if shape is None:
            shape = self.block_shapes[key] = BlockShape(spec)
        session = Session(self._next_id, spec, -1, self.queue_capacity, shape)
        self._next_id += 1
        self._join(session, cohort)
        session.cohort = cohort
        self.sessions[session.session_id] = session
        self._spec_sessions[key] = self._spec_sessions.get(key, 0) + 1
        return session

    def retire(self, session: Session) -> PipelineResult:
        """Close a session and free its slot; returns its final result.

        Any still-queued frames are dropped — call :meth:`drain` (or
        tick until the queue empties) first if they must be processed.
        Eviction resets only this session's state rows; cohort mates
        are unperturbed (the one moved into the freed slot carries its
        state along).
        """
        if session.closed:
            raise RuntimeError(f"session {session.session_id} already closed")
        result = session.result()
        session.closed = True
        session.queue.clear()
        self.detector.forget(session)
        self._catching_up.pop(session.session_id, None)
        del self.sessions[session.session_id]
        self._leave(session)
        # Its spec's last session (not cohort: shards split a spec).
        key = session.spec.cohort_key()
        self._spec_sessions[key] -= 1
        if not self._spec_sessions[key]:
            del self._spec_sessions[key], self.block_shapes[key]
        return result

    def drain(self) -> int:
        """Tick until every session queue is empty; frames consumed."""
        total = 0
        while True:
            consumed = self.tick()
            if consumed == 0:
                return total
            total += consumed

    def _rebatch(self) -> None:
        """Start catch-up for persistent stragglers; end it for the
        ones whose queue stayed empty."""
        detector = self.detector
        # A straggler is `backlog` deeper than its cohort's floor, which
        # requires a queue at least that deep — so with no lag counters
        # pending, one cheap depth scan replaces the full per-cohort
        # sweep (which would only pop from empty dicts).
        if detector._lagging or any(
            len(s.queue) >= detector.backlog for s in self.sessions.values()
        ):
            detector.prune(self.sessions)
            # One group per spec, over every cohort of it: the
            # distributed tier spreads a spec's sessions over sibling
            # cohorts, one per shard, and a straggler must still be
            # compared with all its mates. The sessions of a spec share
            # its one BlockShape, which keys the groups.
            groups: dict[BlockShape, list[Session]] = {}
            for s in self.sessions.values():
                if s.burst == 1:
                    groups.setdefault(s.block_shape, []).append(s)
            for session in detector.sweep(groups.values()):
                session.burst = self.CATCHUP_BURST
                self._catching_up[session.session_id] = 0
                self.catchups += 1
        for sid, passes in list(self._catching_up.items()):
            session = self.sessions[sid]
            if session.queue:
                self._catching_up[sid] = 0
            elif passes + 1 < self.CAUGHT_UP_PASSES:
                self._catching_up[sid] = passes + 1
            else:
                del self._catching_up[sid]
                session.burst = 1
                self.catchups_ended += 1


class Scheduler(SchedulerBase):
    """Own the cohorts and batch ready sessions into lockstep ticks.

    The in-process front end: each spec has one :class:`Cohort`, whose
    pipeline lives here. Takes the :class:`SchedulerBase` arguments.
    """

    def __init__(self, queue_capacity: int = 64) -> None:
        super().__init__(queue_capacity)
        #: Stage counters of dropped cohorts (profiling runs only), so
        #: retiring the last member of a cohort doesn't lose its ticks.
        self.retired_profile = StageProfiler()

    def stage_profile(self) -> StageProfiler:
        """Merged per-stage counters: live cohorts + dropped cohorts.

        Empty unless pipelines were built with profiling enabled
        (``REPRO_PROFILE=1`` or :func:`repro.kernels.enable_profiling`).
        """
        return merged_profile(self.retired_profile, self.cohorts.values())

    def _cohort_for(self, spec: SessionSpec, key: str) -> Cohort:
        cohort = self.cohorts.get(key)
        if cohort is None:
            cohort = self.cohorts[key] = Cohort(key, spec)
        return cohort

    def _join(self, session: Session, cohort: Cohort) -> None:
        session.slot = cohort.allocate_slot(session)

    def _leave(self, session: Session) -> None:
        """Free ``session``'s slot; the member moved into it learns so."""
        cohort = session.cohort
        moved = cohort.release_slot(session.slot)
        if moved is not None:
            moved.slot = session.slot
        if not cohort.members:
            drop_cohort(self.cohorts, cohort, self.retired_profile)

    def _tick_cohort(self, cohort: Cohort, ready: list[Session]) -> int:
        """One lockstep pipeline tick over the given ready sessions."""
        entries = [s.queue.popleft() for s in ready]
        slots = np.fromiter(
            (s.slot for s in ready), dtype=np.intp, count=len(ready)
        )
        tick = cohort.pipeline.tick([b for b, _ in entries], slots)
        done = perf_counter()
        batch = RowBatch(tick)
        if len(tick.slots) == len(ready):
            # Every session emitted a row; the pipeline preserves input
            # order, so row k belongs to ready[k] — no slot map needed.
            rows = range(len(ready))
        else:
            row_of_slot = {
                slot: row for row, slot in enumerate(tick.slots.tolist())
            }
            rows = [row_of_slot.get(session.slot) for session in ready]
        for session, (_, enqueued), row in zip(ready, entries, rows):
            session.latency.latencies_s.append(done - enqueued)
            if row is not None:
                session.outputs.append(batch, row)
        return len(ready)

    def tick(self) -> int:
        """One scheduling pass: every cohort, every ready session.

        Pops one queued frame from each session that has one, advances
        each cohort's batch through a single vectorized pipeline tick,
        and routes output rows and latency samples back per session.
        Then, while any of the cohort's catching-up members (``burst >
        1``) still holds a frame and has burst left, one more round
        ticks just those — a subset of the cohort's slots, in the same
        pipeline.

        Returns:
            Number of frames consumed (0 means every queue was empty).
        """
        consumed = 0
        for cohort in self.cohorts.values():
            ready = [s for s in cohort.members if s.queue]
            rounds = 1
            while ready:
                consumed += self._tick_cohort(cohort, ready)
                ready = [s for s in ready if s.burst > rounds and s.queue]
                rounds += 1
        if consumed:
            self.ticks += 1
            self.frames_processed += consumed
        self._rebatch()
        return consumed
