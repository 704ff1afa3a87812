"""Memory-governed admission: predict a session's footprint, then gate.

The predict-before-you-allocate idea (PAPERS.md arXiv:2307.04488 —
where a cheap structural feature predicts peak memory, and jobs are
placed so no machine's predicted total exceeds its budget) applied to
the serving tier: a session's marginal memory is *measurable before
admission* — it is the per-slot growth of its spec's stage state
(structure-of-arrays rows) plus its bounded input queue at worst case
— so the engine can refuse the session *before* anything allocates,
instead of OOMing a shard after.

Two pieces:

* :class:`SpecMemoryModel` — calibrates bytes-per-session per
  :class:`~repro.serve.SessionSpec` by building the spec's pipeline
  once and measuring state growth across attached slots (cached by
  cohort key, so calibration is paid once per spec ever).
* :class:`MemoryGovernor` — the admission gate a
  :class:`~repro.serve.ServingEngine` consults: tracks committed bytes
  across live sessions and refuses admissions that would exceed the
  budget. The same model plugs into
  :class:`~repro.serve.shard.DistributedScheduler` as ``memory_model``
  so cohort *placement* weighs predicted bytes instead of raw session
  counts, and ``shard_budget_bytes`` caps any one shard.
"""

from __future__ import annotations

import numpy as np

from ..serve.session import Session, SessionSpec
from .workload import frame_shape

#: Bytes per complex128 spectrum sample (the queue entries' dtype).
_COMPLEX_BYTES = 16

#: Flat per-session allowance for non-array bookkeeping (queue deque,
#: output buffers, Session object itself). Deliberately coarse — the
#: array state dominates — but nonzero so even an array-free spec has a
#: positive footprint.
_SESSION_OVERHEAD_BYTES = 16 * 1024


def _state_nbytes(obj, seen: set[int] | None = None) -> int:
    """Total ndarray bytes reachable from ``obj`` (cycle-safe).

    Recurses through dicts, sequences, and plain-object ``__dict__``\\ s
    — deep enough to reach e.g. the
    :class:`~repro.multi.tracks.TrackBank` record slab inside an
    ``Associate`` stage.
    """
    if seen is None:
        seen = set()
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_state_nbytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple, set)):
        return sum(_state_nbytes(v, seen) for v in obj)
    if hasattr(obj, "__dict__") and not isinstance(obj, type):
        return _state_nbytes(vars(obj), seen)
    return 0


def pipeline_state_nbytes(pipeline) -> int:
    """Bytes of mutable stage state a pipeline currently holds."""
    return _state_nbytes([s.__dict__ for s in pipeline.stages]) + int(
        pipeline._frames_in.nbytes
    )


class SpecMemoryModel:
    """Calibrated bytes-per-session estimates, one probe per spec.

    Stage state allocates *lazily* — slots grow their structure-of-
    arrays rows on the first frame that flows, not at attach — so
    calibration must actually serve frames: it builds the spec's
    pipeline twice (1 slot vs ``1 + probe_slots`` slots), ticks a few
    deterministic synthetic frames through every slot of each, and
    takes the per-slot difference in reachable ndarray bytes. The
    estimate adds the session's bounded input queue at worst case
    (``queue_capacity`` raw sweep blocks) and a flat bookkeeping
    allowance. Estimates are cached by cohort key, so calibration is
    paid once per spec ever.

    Args:
        queue_capacity: the engine's per-session queue bound (sizes the
            worst-case queue term).
        probe_slots: extra slots served during calibration; more slots
            average out one-off allocation rounding.
        probe_ticks: frames ticked through each calibration pipeline —
            enough that lazily allocated state (backgrounds, trackers)
            has materialized.
    """

    def __init__(
        self,
        queue_capacity: int = 64,
        probe_slots: int = 8,
        probe_ticks: int = 3,
    ) -> None:
        if queue_capacity < 1 or probe_slots < 1 or probe_ticks < 1:
            raise ValueError(
                "queue_capacity, probe_slots, and probe_ticks must be >= 1"
            )
        self.queue_capacity = queue_capacity
        self.probe_slots = probe_slots
        self.probe_ticks = probe_ticks
        self._per_session: dict[str, int] = {}

    def _served_state_nbytes(self, spec: SessionSpec, n_slots: int) -> int:
        """Stage-state bytes after serving frames through ``n_slots``."""
        from .workload import SyntheticFrameSource

        pipeline = spec.build_pipeline()
        pipeline.attach_sessions(n_slots)
        source = SyntheticFrameSource(spec, seed=0)
        slots = list(range(n_slots))
        for _ in range(self.probe_ticks):
            block = source.next_block()
            pipeline.tick(np.stack([block] * n_slots), slots=slots)
        return pipeline_state_nbytes(pipeline)

    def estimate(self, spec: SessionSpec) -> int:
        """Predicted bytes one live session of ``spec`` will commit."""
        key = spec.cohort_key()
        cached = self._per_session.get(key)
        if cached is not None:
            return cached
        one = self._served_state_nbytes(spec, 1)
        many = self._served_state_nbytes(spec, 1 + self.probe_slots)
        marginal = max((many - one) // self.probe_slots, 0)
        n_rx, spf, n_bins = frame_shape(spec)
        queue_bytes = self.queue_capacity * n_rx * spf * n_bins * _COMPLEX_BYTES
        estimate = int(marginal + queue_bytes + _SESSION_OVERHEAD_BYTES)
        self._per_session[key] = estimate
        return estimate

    def arena_estimate(
        self,
        spec: SessionSpec,
        shard_budget_bytes: int | None = None,
        burst: int = 4,
    ) -> int:
        """Predicted shm arena bytes (per direction) one shard needs.

        The transport analogue of :meth:`estimate`: a step's
        parent→shard payload is at most one ``burst`` of raw sweep
        blocks per session, and the number of sessions a shard can
        host is itself bounded by the memory budget — so the arena,
        like the shard, is sized before anything allocates. Without a
        budget, sizes for ``probe_slots`` worth of sessions (a
        deliberate floor, not a cap: overflow degrades to the pipe,
        counted, never wrong).

        Args:
            spec: the (dominant) session spec the tier will serve.
            shard_budget_bytes: per-shard predicted-bytes cap, when the
                tier runs memory-governed placement.
            burst: worst-case frames per session per step (the
                scheduler's ``CATCHUP_BURST``).
        """
        n_rx, spf, n_bins = frame_shape(spec)
        frame_bytes = n_rx * spf * n_bins * _COMPLEX_BYTES
        if shard_budget_bytes is None:
            sessions = self.probe_slots
        else:
            sessions = max(
                int(shard_budget_bytes) // max(self.estimate(spec), 1), 1
            )
        return int(max(burst, 1) * sessions * frame_bytes)


class MemoryGovernor:
    """Budget-enforcing admission gate for a :class:`ServingEngine`.

    Plug into ``ServingEngine(admission=governor)``: before every
    admission the engine asks :meth:`admit`; the governor projects the
    spec's calibrated footprint onto the bytes already committed by
    live sessions and refuses when the budget would be exceeded. The
    engine reports back :meth:`admitted`/:meth:`retired` so the ledger
    tracks actual membership (rejected sessions commit nothing).

    Args:
        budget_bytes: total bytes live sessions may commit.
        model: the estimator (built from ``queue_capacity`` when None).
        queue_capacity: used only when ``model`` is None.
    """

    def __init__(
        self,
        budget_bytes: int,
        model: SpecMemoryModel | None = None,
        queue_capacity: int = 64,
    ) -> None:
        if budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive")
        self.budget_bytes = int(budget_bytes)
        self.model = model or SpecMemoryModel(queue_capacity=queue_capacity)
        self.committed_bytes = 0
        self.peak_committed_bytes = 0
        self.rejections = 0
        self._per_session: dict[int, int] = {}

    def admit(self, spec: SessionSpec, engine=None) -> bool:
        """True when the spec's footprint fits the remaining budget."""
        if self.committed_bytes + self.model.estimate(spec) <= self.budget_bytes:
            return True
        self.rejections += 1
        return False

    def admitted(self, session: Session) -> None:
        """Commit an admitted session's predicted footprint."""
        cost = self.model.estimate(session.spec)
        self._per_session[session.session_id] = cost
        self.committed_bytes += cost
        self.peak_committed_bytes = max(
            self.peak_committed_bytes, self.committed_bytes
        )

    def retired(self, session: Session) -> None:
        """Release a retired session's committed footprint."""
        self.committed_bytes -= self._per_session.pop(session.session_id, 0)

    def stats(self) -> dict:
        """Governor counters for the SLO artifact."""
        return {
            "budget_bytes": self.budget_bytes,
            "committed_bytes": self.committed_bytes,
            "peak_committed_bytes": self.peak_committed_bytes,
            "rejections": self.rejections,
        }
