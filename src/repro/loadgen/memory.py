"""Memory-governed admission: predict a session's footprint, then gate.

Predict before you allocate (PAPERS.md arXiv:2307.04488, where a
structural feature predicts a job's memory before it runs): a session's
marginal memory is what its spec's stages *declare* per slot — state
rows, kernel work registers, the track bank's records — plus its
bounded input queue, so the engine refuses a session *before* anything
allocates instead of OOMing a shard after.

* :class:`SpecMemoryModel` — bytes per session of a
  :class:`~repro.serve.SessionSpec`, from declarations alone.
* :class:`MemoryGovernor` — the admission gate a
  :class:`~repro.serve.ServingEngine` consults: it refuses admissions
  whose predicted bytes would exceed its budget. The same model lets
  :class:`~repro.serve.shard.DistributedScheduler` place cohorts by
  predicted bytes (``memory_model``) and cap each shard
  (``shard_budget_bytes``).
"""

from __future__ import annotations

import numpy as np

from ..exec.transport import ARENA_ALIGN
from ..pipeline import multi, stages
from ..serve.session import Session, SessionSpec
from .workload import frame_shape

#: Bytes per complex128 spectrum sample (the queue entries' dtype).
_COMPLEX_BYTES = 16

#: Flat per-session allowance for non-array bookkeeping (queue deque,
#: output buffers, Session object itself). Deliberately coarse — the
#: array state dominates — but nonzero so even an array-free spec has a
#: positive footprint.
_SESSION_OVERHEAD_BYTES = 16 * 1024

#: Sessions an arena is sized for when no shard budget bounds them.
_ARENA_FLOOR_SESSIONS = 8

#: The stage classes of each session kind's pipeline, in order.
STAGES = {
    "single": (stages.BackgroundSubtract, stages.ContourExtract,
               stages.OutlierGate, stages.HoldInterpolate,
               stages.KalmanSmooth, stages.Localize),
    "multi": (stages.BackgroundSubtract, multi.SuccessiveCancel,
              multi.Associate),
}


def slot_nbytes(spec: SessionSpec) -> int:
    """Declared bytes one slot of ``spec``'s pipeline holds: every
    stage's :meth:`~repro.pipeline.stages.Stage.slot_nbytes` at the dims
    the spec fixes, and the slot's int64 frame counter."""
    n_rx, _, n_bins = frame_shape(spec)
    frames = spec.config.pipeline.jump_confirmation_frames
    dims = dict(n_rx=n_rx, n_bins=n_bins, confirmation_frames=frames)
    return np.dtype(np.int64).itemsize + sum(
        stage.slot_nbytes(dims) for stage in STAGES[spec.kind]
    )


class SpecMemoryModel:
    """Bytes per session of a spec, kept per model by cohort key: its
    slot's declared state (:func:`slot_nbytes`), its input queue full
    (``queue_capacity`` raw sweep blocks) and a flat allowance."""

    def __init__(self, queue_capacity: int = 64) -> None:
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        self.queue_capacity = queue_capacity
        self._per_session: dict[str, int] = {}

    def estimate(self, spec: SessionSpec) -> int:
        """Predicted bytes one live session of ``spec`` will commit."""
        key = spec.cohort_key()
        if key not in self._per_session:
            n_rx, spf, n_bins = frame_shape(spec)
            queue = self.queue_capacity * n_rx * spf * n_bins * _COMPLEX_BYTES
            self._per_session[key] = (
                slot_nbytes(spec) + queue + _SESSION_OVERHEAD_BYTES
            )
        return self._per_session[key]

    def arena_estimate(
        self, spec: SessionSpec, shard_budget_bytes: int | None = None
    ) -> int:
        """Predicted shm arena bytes (per direction) one shard needs.

        A step sends a shard one raw sweep block per session, for as
        many sessions as ``shard_budget_bytes`` holds at
        :meth:`estimate` each, or :data:`_ARENA_FLOOR_SESSIONS` without
        a budget (a floor, not a cap: overflow rides the pipe, counted,
        never wrong). Each block takes whole
        :data:`~repro.exec.transport.ARENA_ALIGN` units of the arena.
        So the arena, like the shard, is sized before anything
        allocates.
        """
        n_rx, spf, n_bins = frame_shape(spec)
        frame_bytes = n_rx * spf * n_bins * _COMPLEX_BYTES
        frame_bytes = -(-frame_bytes // ARENA_ALIGN) * ARENA_ALIGN
        if shard_budget_bytes is None:
            sessions = _ARENA_FLOOR_SESSIONS
        else:
            sessions = max(
                int(shard_budget_bytes) // max(self.estimate(spec), 1), 1
            )
        return int(sessions * frame_bytes)


class MemoryGovernor:
    """Budget-enforcing admission gate for a :class:`ServingEngine`.

    Plug into ``ServingEngine(admission=governor)``: before every
    admission the engine asks :meth:`admit`; the governor projects the
    spec's predicted footprint onto the bytes already committed by
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
