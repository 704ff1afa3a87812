"""The serving engine facade: admit, feed, tick, close — local or sharded.

:class:`ServingEngine` glues admission and scheduling into the object
an application embeds. One engine serves any number of concurrent
tracking sessions — heterogeneous configurations land in separate
cohorts, each advanced in lockstep through a shared session-vectorized
pipeline.

The engine holds one front end, :attr:`ServingEngine.scheduler`, and
drives it the same way whichever tier it is. With ``workers=0`` (the
default) that is a :class:`~repro.serve.Scheduler`, and everything runs
in this process. With ``workers=N`` the engine becomes the **front end
of a distributed tier**: N long-lived shard worker processes (one
:class:`~repro.serve.shard.ShardWorker` each, behind a
:class:`~repro.exec.pool.WorkerPool`) host the cohort pipelines, and a
:class:`~repro.serve.shard.DistributedScheduler` places whole cohorts,
routes admissions/frames/evictions, and merges per-session results and
latency reports. Both share their session bookkeeping
(:class:`~repro.serve.scheduler.SchedulerBase`). For the same
admission schedule the two modes produce identical outputs
(test-pinned): tick rows are independent sessions, so partitioning
them across processes changes where the arithmetic runs, never what it
computes.

The N=1 degenerate case is exactly ``Pipeline.run_stream``, for any
numeric block dtype: a tick with one session is the same
``Pipeline.tick`` call ``Pipeline.push`` makes, averaging in complex128
whether its blocks come stacked or as a list, so the realtime apps are
thin single-session views over this engine with no second code path
(pinned bitwise by ``tests/test_serve.py``).
"""

from __future__ import annotations

import numpy as np

from ..exec.pool import WorkerPool, pool_available
from ..exec.transport import DEFAULT_ARENA_BYTES, MAX_ARENA_BYTES
from ..multi.tracks import TrackManager
from ..pipeline.multi import Associate
from ..pipeline.runner import PipelineResult
from .scheduler import Scheduler
from .session import AdmissionRefused, Session, SessionSpec
from .shard import DistributedScheduler, ShardWorker


class ServingEngine:
    """Serve many concurrent tracking sessions, from one process or many.

    Args:
        queue_capacity: per-session input queue bound. A producer that
            outruns the scheduler is refused frames (``offer`` returns
            False) once its queue holds this many.
        workers: shard worker processes. 0 (default) serves everything
            in-process — today's single-process path, unchanged. N >= 1
            forks N long-lived shard workers and distributes cohorts
            across them; on platforms without ``fork`` the engine falls
            back to in-process serving (check :attr:`workers` for the
            effective count).
        admission: optional admission gate — an object with
            ``admit(spec, engine) -> bool`` plus ``admitted(session)``
            / ``retired(session)`` callbacks (see
            :class:`repro.loadgen.MemoryGovernor`). A refused admission
            makes :meth:`try_admit` return None and :meth:`admit` raise
            :class:`~repro.serve.session.AdmissionRefused`, counted in
            :attr:`rejected_admissions`.
        memory_model: optional per-session memory estimator
            (``estimate(spec) -> bytes``) the distributed scheduler
            uses to place cohorts by *predicted bytes* instead of raw
            session counts.
        shard_budget_bytes: per-shard memory cap — with a
            ``memory_model``, an admission whose predicted footprint
            fits no shard is refused.
        transport: shard IPC data plane — ``"pipe"`` (pickle
            everything, the default) or ``"shm"`` (bulk arrays through
            per-worker shared-memory arenas); ``None`` defers to
            ``REPRO_TRANSPORT``. Identical outputs either way.
        arena_bytes: per-direction shm region size per shard worker.
            ``None`` derives it from ``shard_budget_bytes`` when a
            memory model governs placement — every session's estimate
            includes its whole bounded input queue, so a budget-sized
            arena provably holds any one step's payload — and falls
            back to :data:`~repro.exec.transport.DEFAULT_ARENA_BYTES`
            otherwise. An undersized arena is safe: overflowing arrays
            ride the pipe (counted in ``arena_overflows``).

    Example:
        >>> from repro.serve import ServingEngine, single_session
        >>> engine = ServingEngine()          # or ServingEngine(workers=4)
        >>> spec = single_session()
        >>> a, b = engine.admit(spec), engine.admit(spec)  # one cohort
        >>> # engine.offer(a, block); engine.tick(); a.last_position ...
    """

    def __init__(
        self,
        queue_capacity: int = 64,
        workers: int = 0,
        admission=None,
        memory_model=None,
        shard_budget_bytes: int | None = None,
        transport: str | None = None,
        arena_bytes: int | None = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if workers and not pool_available():
            workers = 0  # graceful serial fallback (no fork, no shards)
        self.workers = workers
        self.admission = admission
        self.rejected_admissions = 0
        self.pool: WorkerPool | None = None
        if workers:
            if arena_bytes is None and (
                memory_model is not None and shard_budget_bytes is not None
            ):
                # Predict-before-allocate arena sizing: admission keeps
                # Σ estimate(spec) ≤ budget per shard, and each estimate
                # already counts the session's full queue_capacity of
                # frames — a superset of the one block a step sends per
                # session — so the budget upper-bounds a step payload.
                arena_bytes = max(
                    DEFAULT_ARENA_BYTES,
                    min(int(shard_budget_bytes), MAX_ARENA_BYTES),
                )
            self.pool = WorkerPool(
                workers,
                actor_factory=ShardWorker,
                transport=transport,
                arena_bytes=arena_bytes,
            )
            self.scheduler: Scheduler | DistributedScheduler = (
                DistributedScheduler(
                    self.pool,
                    queue_capacity,
                    memory_model=memory_model,
                    shard_budget_bytes=shard_budget_bytes,
                )
            )
        else:
            self.scheduler = Scheduler(queue_capacity)

    @property
    def distributed(self) -> bool:
        """True when sessions are served by shard worker processes."""
        return self.pool is not None

    @property
    def transport(self) -> str:
        """Effective shard IPC transport (``"local"`` in-process)."""
        if self.pool is None:
            return "local"
        return self.pool.transport

    def transport_stats(self) -> dict | None:
        """Pool-wide IPC byte/round counters (None in-process)."""
        if self.pool is None:
            return None
        return self.pool.transport_stats()

    @property
    def num_sessions(self) -> int:
        """Live sessions across every cohort."""
        return self.scheduler.num_sessions

    def admit(self, spec: SessionSpec) -> Session:
        """Open a session; joins an existing cohort when specs match.

        Raises :class:`~repro.serve.session.AdmissionRefused` when an
        admission gate or shard memory budget declines the session.
        """
        session = self.try_admit(spec)
        if session is None:
            raise AdmissionRefused(
                "admission refused: the engine's admission gate or shard "
                "memory budget declined this session"
            )
        return session

    def try_admit(self, spec: SessionSpec) -> Session | None:
        """Open a session, or return None when admission is refused.

        The open-loop flavor of :meth:`admit`: a load source that keeps
        arriving regardless of engine health checks the return value and
        counts the rejection instead of unwinding. Every refusal — gate
        or shard budget — increments :attr:`rejected_admissions`.
        """
        if self.admission is not None and not self.admission.admit(spec, self):
            self.rejected_admissions += 1
            return None
        try:
            session = self.scheduler.admit(spec)
        except AdmissionRefused:
            self.rejected_admissions += 1
            return None
        if self.admission is not None:
            self.admission.admitted(session)
        return session

    def offer(self, session: Session, sweep_block: np.ndarray) -> bool:
        """Enqueue one frame for a session; False on backpressure."""
        return session.offer(sweep_block)

    def submit(self, session: Session, sweep_block: np.ndarray) -> None:
        """Enqueue one frame, ticking the scheduler until accepted.

        The blocking flavor of :meth:`offer`: backpressure is resolved
        by advancing the whole engine (which drains this session's
        queue along with everyone else's).
        """
        while not session.offer(sweep_block):
            if self.scheduler.tick() == 0:  # pragma: no cover - defensive
                raise RuntimeError(
                    "queue full but nothing to schedule; "
                    "this indicates an engine bug"
                )

    def tick(self) -> int:
        """One lockstep pass over all cohorts; frames consumed."""
        return self.scheduler.tick()

    def drain(self) -> int:
        """Tick until all queues are empty; total frames consumed."""
        return self.scheduler.drain()

    def close(self, session: Session) -> PipelineResult:
        """Finish a session: drain its queue, free its slot, return all.

        Closing evicts only this session's state rows — cohort mates
        continue bit-identically, which the serving tests pin.
        """
        while session.queue:
            self.scheduler.tick()
        return self._retire(session)

    def evict(self, session: Session) -> None:
        """Drop a session immediately, discarding any queued frames."""
        self._retire(session)

    def _retire(self, session: Session) -> PipelineResult:
        result = self.scheduler.retire(session)
        if self.admission is not None:
            self.admission.retired(session)
        return result

    def stage_profile(self) -> "StageProfiler":
        """Merged per-stage {calls, wall, bytes} across the whole engine.

        Counters accumulate while pipelines run with profiling enabled
        (``REPRO_PROFILE=1`` or
        :func:`repro.kernels.enable_profiling` before the engine is
        built) and include cohorts already retired; with profiling off
        the result is empty. Render with
        :meth:`~repro.kernels.StageProfiler.table` or serialize with
        :meth:`~repro.kernels.StageProfiler.as_dict`.
        """
        return self.scheduler.stage_profile()

    def resync(self) -> None:
        """Recover the shard IPC after an interrupted wait (Ctrl-C).

        No-op in-process. Distributed, an interrupt may have left shard
        responses unread mid-``tick``; dropping them re-arms the pool so
        live sessions can still be drained and closed for a partial
        summary.
        """
        if self.pool is not None:
            self.pool.resync()

    def shutdown(self) -> None:
        """Stop the shard workers (no-op for an in-process engine).

        Idempotent; live sessions' accumulated results stay readable
        (they live in the front end), but no further frames can be
        processed.
        """
        if self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def track_manager(self, session: Session) -> TrackManager:
        """A view of a live multi-person session's tracks.

        The manager views the session's slot of its cohort's
        :class:`~repro.multi.tracks.TrackBank`; a cohort mate's
        retirement can move the session to another slot, so fetch the
        view again rather than keep it. In-process engines only: a
        distributed session's track bank lives inside its shard worker
        and has no parent-side object.
        """
        if self.distributed:
            raise RuntimeError(
                "track managers live inside shard workers when serving "
                "distributed; use workers=0 for in-process access"
            )
        stage = session.cohort.pipeline.stage(Associate)
        return stage.manager_for(session.slot)
