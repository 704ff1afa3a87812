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
But a session whose queue depth *persistently* lags its cohort mates is
a scheduling problem: in lockstep it can drain at most one frame per
cohort tick, so a producer that outpaces the tick rate backs it up
without bound. The scheduler's answer is **adaptive re-batching**: the
straggler is split into its own single-session cohort — its pipeline
state handed off bit-exactly via :meth:`Pipeline.snapshot_session
<repro.pipeline.Pipeline.snapshot_session>` — where the scheduler may
drain up to ``catchup_burst`` frames per tick until it catches up.
Splitting never changes any output (the serving tests pin this); it
only changes *when* frames are processed.

The distributed front end (:class:`~repro.serve.shard.DistributedScheduler`)
runs the same policy over shard workers. What the two share —
session registration, the closing half of ``retire``, ``drain`` and the
re-batching decisions — lives once, in :class:`SchedulerBase`.
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
        key: the spec's content key (splits append a ``/split<n>``
            suffix, so split cohorts never merge back by key lookup).
        spec: the shared pipeline structure.
        burst: frames the scheduler may drain per session per tick —
            1 for ordinary cohorts, ``catchup_burst`` for cohorts born
            from an adaptive split.
    """

    def __init__(self, key: str, spec: SessionSpec, burst: int = 1) -> None:
        self.key = key
        self.spec = spec
        self.burst = burst
        #: True for cohorts born from an adaptive split (rejoin candidates).
        self.split = False
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

        The last member's state moves into ``slot`` through the
        :meth:`Pipeline.snapshot_session` /
        :meth:`Pipeline.restore_session` hand-off, then the last slot is
        evicted. Returns the moved member, whose slot is now ``slot``,
        or None when ``slot`` was the last.
        """
        pipeline = self.pipeline
        moved = self.members.pop()
        last = len(self.members)
        if slot != last:
            pipeline.restore_session(slot, pipeline.snapshot_session(last))
            self.members[slot] = moved
        pipeline.evict_session(last)
        return moved if slot != last else None


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
    """Spot sessions whose queue depth persistently lags their cohort.

    Both front ends run it through :meth:`SchedulerBase._rebatch`:
    after each tick, feed it every multi-member cohort's ``(session,
    queue depth)`` pairs; it returns the sessions that have lagged the
    cohort's *shallowest* queue by at least ``backlog`` frames for
    ``patience`` consecutive ticks — the candidates for an adaptive
    split.

    Args:
        backlog: queue-depth excess over the cohort minimum that counts
            as lagging.
        patience: consecutive lagging ticks before a split fires (a
            transient burst should not trigger a migration).
    """

    def __init__(self, backlog: int = 8, patience: int = 4) -> None:
        if backlog < 1 or patience < 1:
            raise ValueError("backlog and patience must be >= 1")
        self.backlog = backlog
        self.patience = patience
        self._lagging: dict[int, int] = {}

    def observe(self, members: list[tuple[Session, int]]) -> list[Session]:
        """Update lag counters for one cohort; return sessions to split."""
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
        """Observe every cohort; return all sessions due for a split.

        The per-tick detection loop: ``groups`` yields each cohort's
        sessions.
        """
        due: list[Session] = []
        for sessions in groups:
            due.extend(self.observe([(s, len(s.queue)) for s in sessions]))
        return due


class SchedulerBase:
    """The session bookkeeping and re-batching policy of both front ends.

    :class:`Scheduler` (in process) and
    :class:`~repro.serve.shard.DistributedScheduler` differ only in how
    a tick runs, where a cohort's pipeline lives and how a session's
    state moves; the rest lives here once. A subclass supplies
    ``_cohort_for(spec, key)`` (the cohort an admission joins),
    ``_join(session, cohort)`` and ``_leave(session)`` (take and free a
    state slot there; ``_leave`` drops an emptied cohort), ``_split``
    and ``_rejoin`` (the state moves of re-batching, each counting
    what it did in :attr:`splits` / :attr:`rejoins`), ``tick`` and
    ``stage_profile``.

    Args:
        queue_capacity: per-session input queue bound (backpressure).
        adaptive_split: enable straggler re-batching (see module doc).
        split_backlog: queue-depth lag that marks a straggler.
        split_patience: consecutive lagging ticks before splitting.
        catchup_burst: frames per tick a split cohort may drain.
        rejoin_patience: consecutive caught-up (empty queue at tick
            end) observations before a split session merges back into
            a cohort of its spec — splits are temporary, so transient
            hiccups cannot fragment the batching permanently.
    """

    def __init__(
        self,
        queue_capacity: int = 64,
        adaptive_split: bool = True,
        split_backlog: int = 8,
        split_patience: int = 4,
        catchup_burst: int = 4,
        rejoin_patience: int = 4,
    ) -> None:
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if catchup_burst < 1 or rejoin_patience < 1:
            raise ValueError("catchup_burst and rejoin_patience must be >= 1")
        self.queue_capacity = queue_capacity
        self.adaptive_split = adaptive_split
        self.catchup_burst = catchup_burst
        self.rejoin_patience = rejoin_patience
        self.detector = StragglerDetector(split_backlog, split_patience)
        self._caught_up: dict[int, int] = {}
        self.cohorts: dict = {}
        self.sessions: dict[int, Session] = {}
        #: One sweep-block shape check per spec (cohort key).
        self.block_shapes: dict[str, BlockShape] = {}
        self._next_id = 1
        self._split_seq = 0
        self.ticks = 0
        self.frames_processed = 0
        self.splits = 0
        self.rejoins = 0

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
        del self.sessions[session.session_id]
        self._leave(session)
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
        """Split persistent stragglers; rejoin the ones that caught up."""
        detector = self.detector
        # A split needs some session `backlog` deeper than its cohort's
        # floor, which requires a queue at least that deep — so with no
        # lag counters pending, one cheap depth scan replaces the full
        # per-cohort sweep (which would only pop from empty dicts).
        if detector._lagging or any(
            len(s.queue) >= detector.backlog for s in self.sessions.values()
        ):
            detector.prune(self.sessions)
            groups = (c.members for c in self.cohorts.values())
            for session in detector.sweep(groups):
                self._split(session)
        self._caught_up = {
            sid: count
            for sid, count in self._caught_up.items()
            if sid in self.sessions
        }
        for cohort in list(self.cohorts.values()):
            if not cohort.split or cohort.num_sessions != 1:
                continue
            (session,) = cohort.members
            if session.queue:
                self._caught_up.pop(session.session_id, None)
                continue
            count = self._caught_up.get(session.session_id, 0) + 1
            if count < self.rejoin_patience:
                self._caught_up[session.session_id] = count
                continue
            self._caught_up.pop(session.session_id, None)
            self._rejoin(session)


class Scheduler(SchedulerBase):
    """Own the cohorts and batch ready sessions into lockstep ticks.

    The in-process front end: each spec has one :class:`Cohort`, whose
    pipeline lives here. Takes the :class:`SchedulerBase` arguments.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
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

    def _move(self, session: Session, target: Cohort) -> None:
        """Hand ``session``'s pipeline state off into a slot of ``target``.

        Bit-exact: :meth:`Pipeline.snapshot_session
        <repro.pipeline.Pipeline.snapshot_session>` rows restored into a
        pipeline of the same spec, so the move is invisible in the
        session's outputs. A source cohort left empty is dropped.
        """
        state = session.cohort.pipeline.snapshot_session(session.slot)
        self._leave(session)
        self._join(session, target)
        target.pipeline.restore_session(session.slot, state)
        session.cohort = target

    def split(self, session: Session, burst: int = 1) -> Cohort:
        """Re-batch one session into its own fresh cohort, bit-exactly.

        The session's state is handed off (:meth:`_move`) into a freshly
        built pipeline of the same spec; only scheduling changes: a
        singleton cohort with ``burst > 1`` may drain several queued
        frames per scheduler tick.

        Args:
            session: the (live) session to split off.
            burst: frames per tick the new cohort may drain.

        Returns:
            The session's new single-member cohort.
        """
        old = session.cohort
        if old.num_sessions <= 1:
            # Already alone: let it catch up, and rejoin resets it.
            old.burst = max(old.burst, burst)
            old.split = True
            return old
        key = f"{old.key}/split{self._split_seq}"
        self._split_seq += 1
        cohort = Cohort(key, session.spec, burst=burst)
        cohort.split = True
        self.cohorts[key] = cohort
        self._move(session, cohort)
        return cohort

    def merge(self, session: Session, target: Cohort) -> None:
        """Move one session into an existing cohort, bit-exactly.

        The inverse of :meth:`split`: the session's pipeline state is
        handed off into a slot of ``target`` (same spec required), and
        its now-empty source cohort is dropped. Used to re-batch a
        straggler that caught up, so transient hiccups cannot fragment
        the lockstep batching permanently.
        """
        if session.cohort is target:
            return
        if target.spec.cohort_key() != session.spec.cohort_key():
            raise ValueError("sessions only merge into same-spec cohorts")
        self._move(session, target)

    def _split(self, session: Session) -> None:
        old = session.cohort
        if self.split(session, burst=self.catchup_burst) is not old:
            self.splits += 1

    def _rejoin(self, session: Session) -> None:
        cohort = session.cohort
        base = self.cohorts.get(session.spec.cohort_key())
        if base is not None and base is not cohort:
            self.merge(session, base)
            self.rejoins += 1
            return
        if base is None:
            # Nobody left to rejoin: this cohort *becomes* the base
            # (re-keyed to the spec key so future admissions join it
            # instead of founding a parallel pipeline).
            del self.cohorts[cohort.key]
            cohort.key = session.spec.cohort_key()
            self.cohorts[cohort.key] = cohort
        cohort.burst = 1
        cohort.split = False

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
        Split cohorts (``burst > 1``) may drain several frames in the
        same pass — the catch-up mechanics of adaptive re-batching.

        Returns:
            Number of frames consumed (0 means every queue was empty).
        """
        consumed = 0
        for cohort in list(self.cohorts.values()):
            for _ in range(cohort.burst):
                ready = [s for s in cohort.members if s.queue]
                if not ready:
                    break
                consumed += self._tick_cohort(cohort, ready)
        if consumed:
            self.ticks += 1
            self.frames_processed += consumed
        if self.adaptive_split:
            self._rebatch()
        return consumed
