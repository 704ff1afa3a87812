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

Stragglers cost nothing. A session with an empty queue simply sits out
the tick (its state rows are untouched). A session whose producer
outpaces the tick rate drains one frame per pass like every other
member, and its bounded queue refuses the rest (**backpressure**): the
producer learns at ``offer`` that it is too fast, the backlog — and
with it the session's queueing latency — stops at ``queue_capacity``
frames, and the scheduler never drops or skips a queued frame, so a
session's outputs do not depend on when its frames arrive.

The distributed front end (:class:`~repro.serve.shard.DistributedScheduler`)
runs the same policy over shard workers. What the two share —
session registration, the closing half of ``retire`` and ``drain`` —
lives once, in :class:`SchedulerBase`.
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


class SchedulerBase:
    """The session bookkeeping of both front ends.

    :class:`Scheduler` (in process) and
    :class:`~repro.serve.shard.DistributedScheduler` differ only in how
    a tick runs and where a cohort's pipeline lives; the rest lives
    here once. A subclass supplies ``_cohort_for(spec, key)`` (the
    cohort an admission joins), ``_join(session, cohort)`` and
    ``_leave(session)`` (take and free a state slot there; ``_leave``
    drops an emptied cohort), ``tick`` (which drains one frame from
    every session that has one) and ``stage_profile``.

    Args:
        queue_capacity: per-session input queue bound (backpressure).
    """

    def __init__(self, queue_capacity: int = 64) -> None:
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        self.queue_capacity = queue_capacity
        self.cohorts: dict = {}
        self.sessions: dict[int, Session] = {}
        #: One sweep-block shape check per live spec (cohort key).
        self.block_shapes: dict[str, BlockShape] = {}
        self._spec_sessions: dict[str, int] = {}
        self._next_id = 1
        self.ticks = 0
        self.frames_processed = 0

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

        Returns:
            Number of frames consumed (0 means every queue was empty).
        """
        consumed = 0
        for cohort in self.cohorts.values():
            ready = [s for s in cohort.members if s.queue]
            if ready:
                consumed += self._tick_cohort(cohort, ready)
        if consumed:
            self.ticks += 1
            self.frames_processed += consumed
        return consumed
