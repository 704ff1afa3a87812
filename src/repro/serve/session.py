"""Serving sessions: what one connected user looks like to the engine.

A :class:`SessionSpec` is the immutable description of a session's
pipeline — single- or multi-person, full system configuration, range
axis, solver. Specs that hash to the same content key are *cohort
mates*: their sessions share one session-vectorized
:class:`~repro.pipeline.Pipeline` instance and advance together in
lockstep ticks. Heterogeneous deployments simply produce several
cohorts.

A :class:`Session` is one live stream: a bounded input queue of raw
sweep blocks (the backpressure seam), its outputs kept once as columns
(:class:`~repro.pipeline.outputs.OutputColumns`, the accumulator
``Pipeline.run_stream`` uses too), and a per-session
:class:`~repro.pipeline.LatencyReport` measuring enqueue-to-emit wall
time against the paper's 75 ms budget (§7).
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import deque
from dataclasses import dataclass, fields
from time import perf_counter
from typing import Any, NamedTuple

import numpy as np

from ..config import SystemConfig, default_config
from ..core.localize import make_solver
from ..geometry.antennas import AntennaArray, t_array
from ..multi.tracks import TrackColumns, TrackManagerConfig
from ..pipeline.frame import SessionTick
from ..pipeline.outputs import OutputColumns
from ..pipeline.runner import (
    LatencyReport,
    Pipeline,
    PipelineResult,
    single_person_pipeline,
)
from ..sim.room import Room


class AdmissionRefused(RuntimeError):
    """Admission control declined to open a session.

    Raised by :meth:`ServingEngine.admit
    <repro.serve.ServingEngine.admit>` when an admission gate or a
    shard memory budget refuses the session (use :meth:`try_admit
    <repro.serve.ServingEngine.try_admit>` for the non-raising flavor
    open-loop load generators want).
    """


def _hash_update(h: "hashlib._Hash", value: Any) -> None:
    """Fold one (possibly nested) value into the digest, type-tagged."""
    if value is None:
        h.update(b"\x00none")
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        h.update(f"\x00nd{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    elif isinstance(value, (bool, int, float, complex, str, bytes)):
        h.update(f"\x00{type(value).__name__}{value!r}".encode())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(f"\x00dc{type(value).__qualname__}".encode())
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            _hash_update(h, getattr(value, f.name))
    elif isinstance(value, dict):
        h.update(b"\x00dict")
        for k in sorted(value):
            h.update(str(k).encode())
            _hash_update(h, value[k])
    elif isinstance(value, (list, tuple)):
        h.update(f"\x00seq{len(value)}".encode())
        for item in value:
            _hash_update(h, item)
    else:
        raise TypeError(
            f"cannot content-hash {type(value).__name__!r}; add picklable "
            "primitives, arrays, or dataclasses only"
        )


def content_key(*parts: Any) -> str:
    """SHA-256 hex digest of arbitrarily nested parameter content."""
    h = hashlib.sha256()
    for part in parts:
        _hash_update(h, part)
    return h.hexdigest()


@dataclass(frozen=True)
class SessionSpec:
    """Everything that determines a session's pipeline structure.

    Two specs with equal content keys are guaranteed interchangeable
    pipelines, so their sessions can share one vectorized instance.

    Attributes:
        kind: ``"single"`` (one tracked person per session) or
            ``"multi"`` (successive cancellation + track bank).
        config: full system configuration.
        range_bin_m: round-trip distance per spectrum bin.
        array: antenna array override (None: the configured T).
        solver_method: localization solver selection.
        max_people: multi-person only — upper bound K per session.
        num_candidates: multi-person only — cancellation rounds
            (None: ``max_people + 4`` as in MultiWiTrack).
        room: multi-person only — tightens ghost gating.
        track_config: multi-person only — track lifecycle tunables.
    """

    kind: str
    config: SystemConfig
    range_bin_m: float
    array: AntennaArray | None = None
    solver_method: str = "auto"
    max_people: int = 3
    num_candidates: int | None = None
    room: Room | None = None
    track_config: TrackManagerConfig | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("single", "multi"):
            raise ValueError(
                f"unknown session kind: {self.kind!r} "
                "(expected 'single' or 'multi')"
            )

    def cohort_key(self) -> str:
        """Content key grouping interchangeable sessions into cohorts,
        hashed once and kept outside the fields (and the pickle)."""
        key = self.__dict__.get("_cohort_key")
        if key is None:
            values = [getattr(self, f.name) for f in fields(self)]
            key = content_key("serve.cohort.v1", *values)
            object.__setattr__(self, "_cohort_key", key)
        return key

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_cohort_key"}

    def build_pipeline(self) -> Pipeline:
        """A fresh pipeline of this spec's structure (slot 0 attached)."""
        if self.kind == "single":
            array = self.array if self.array is not None else t_array(
                self.config.array
            )
            solver = make_solver(array, method=self.solver_method)
            return single_person_pipeline(
                self.config, self.range_bin_m, solver=solver
            )
        from ..multi.tracker import MultiWiTrack

        tracker = MultiWiTrack(
            self.config,
            array=self.array,
            max_people=self.max_people,
            num_candidates=self.num_candidates,
            track_config=self.track_config,
            room=self.room,
            solver_method=self.solver_method,
        )
        return tracker.pipeline(self.range_bin_m)


def single_session(
    config: SystemConfig | None = None,
    range_bin_m: float = 0.1774,
    array: AntennaArray | None = None,
    solver_method: str = "auto",
) -> SessionSpec:
    """Spec for a single-person tracking session."""
    return SessionSpec(
        kind="single",
        config=config or default_config(),
        range_bin_m=range_bin_m,
        array=array,
        solver_method=solver_method,
    )


def multi_session(
    config: SystemConfig | None = None,
    range_bin_m: float = 0.1774,
    array: AntennaArray | None = None,
    max_people: int = 3,
    num_candidates: int | None = None,
    room: Room | None = None,
    track_config: TrackManagerConfig | None = None,
    solver_method: str = "auto",
) -> SessionSpec:
    """Spec for a K-person tracking session."""
    return SessionSpec(
        kind="multi",
        config=config or default_config(),
        range_bin_m=range_bin_m,
        array=array,
        max_people=max_people,
        num_candidates=num_candidates,
        room=room,
        track_config=track_config,
        solver_method=solver_method,
    )


class TickRows(NamedTuple):
    """A tick's emitted rows as a shard worker replies with them.

    The shard→parent transport unit of the distributed tier: the output
    columns of a :class:`~repro.pipeline.frame.SessionTick`, under the
    same names, plus the parallel ``session_ids`` routing vector — the
    tick's own fixed-dtype slabs (K-person tracks included, as
    :class:`~repro.multi.tracks.TrackColumns`), which the shm transport
    moves without pickling, so building one copies nothing. The parent
    packs either into one :class:`~repro.pipeline.outputs.RowBatch`, and
    each routed row goes to its session's ``outputs``.
    """

    session_ids: np.ndarray
    times_s: np.ndarray
    tof_m: np.ndarray | None
    raw_tof_m: np.ndarray | None
    motion: np.ndarray | None
    positions: np.ndarray | None
    tracks: TrackColumns | None


def tick_group(tick: SessionTick, session_ids: np.ndarray) -> TickRows:
    """One pipeline tick's emitted rows as a :class:`TickRows` record.

    Args:
        tick: the tick (fresh arrays, produced by this call — groups
            are shipped before the pipeline ticks again).
        session_ids: engine-wide session id of each tick row,
            shape ``(tick.num_rows,)``.
    """
    return TickRows(
        session_ids,
        tick.times_s,
        tick.tof_m,
        tick.raw_tof_m,
        tick.motion,
        tick.positions,
        tick.tracks,
    )


def frame_shape(spec: SessionSpec) -> tuple[int, int, int]:
    """The ``(n_rx, sweeps_per_frame, n_bins)`` block shape a spec eats.

    ``n_bins`` is the spec pipeline's *cropped* bin count, the
    max-range crop ``ceil(max_range_m / range_bin_m) + 1``: the bins a
    tick reads of every block.
    """
    config = spec.config
    array = spec.array if spec.array is not None else config.array
    max_range_m = config.pipeline.max_range_m
    n_bins = int(np.ceil(max_range_m / spec.range_bin_m)) + 1
    return array.num_receivers, config.pipeline.sweeps_per_frame, n_bins


class BlockShape:
    """The sweep blocks every session of one spec must send.

    Cohort mates share one pipeline, whose tick averages their raw
    blocks, each cropped to the spec's max range, into one cohort
    array: a block of another shape would fail the whole cohort's tick
    (in process) or its shard worker (distributed). So a block is
    accepted only as a 3-D numeric array of shape ``(n_rx,
    sweeps_per_frame, n_bins)`` with at least the spec's cropped bin
    count (:func:`frame_shape`); the spec fixes the contract, so no
    sender can change it for its mates. A session keeps only the crop
    of a wider block (:meth:`check` returns it), so what it queues and
    ships is what its spec's memory model prices.
    """

    def __init__(self, spec: SessionSpec) -> None:
        n_rx, spf, self.n_bins = frame_shape(spec)
        self.lead = (n_rx, spf)

    def check(self, block) -> np.ndarray:
        """Raise ``ValueError`` unless ``block`` has the spec's shape;
        return what a session keeps of it: the block itself at the crop
        width, a contiguous copy of its crop when wider."""
        shape = getattr(block, "shape", None)
        dtype = getattr(block, "dtype", None)
        if shape is None or len(shape) != 3 or dtype is None or (
            dtype.kind not in "iufc"
        ):
            kind = dtype if dtype is not None else type(block).__name__
            raise ValueError(
                f"a sweep block must be a 3-D numeric array; got {kind} "
                f"with shape {shape}"
            )
        if shape[:2] != self.lead:
            raise ValueError(
                f"a sweep block must have shape (n_rx, sweeps_per_frame, "
                f"n_bins) = {self.lead + ('n_bins',)}; got {shape}"
            )
        if shape[2] < self.n_bins:
            raise ValueError(
                f"a sweep block must have at least {self.n_bins} bins, "
                f"its spec's max-range crop; got {shape[2]}"
            )
        if shape[2] > self.n_bins:
            return np.ascontiguousarray(block[..., : self.n_bins])
        return block


class Session:
    """One live stream being served.

    Created by a scheduler's ``admit``; users feed raw
    ``(n_rx, sweeps_per_frame, n_bins)`` sweep blocks through
    :meth:`offer` and read results from :attr:`last_position` /
    :attr:`last_tracks` (realtime) or :meth:`result` (accumulated).

    Args:
        session_id: stable engine-wide identity.
        spec: the pipeline structure this session runs.
        slot: state row in the cohort's vectorized pipeline. It moves
            when a cohort mate leaves (slots stay dense), and is -1 for
            a session served by shard workers, whose slots are
            worker-local.
        queue_capacity: bound on frames queued ahead of processing;
            a full queue refuses new frames (backpressure) instead of
            letting one straggler grow without limit.
        block_shape: the sweep-block check shared by every session of
            this spec.
    """

    def __init__(
        self,
        session_id: int,
        spec: SessionSpec,
        slot: int,
        queue_capacity: int,
        block_shape: BlockShape,
    ) -> None:
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        self.session_id = session_id
        self.spec = spec
        self.block_shape = block_shape
        self.slot = slot
        self.queue_capacity = queue_capacity
        self.queue: deque[tuple[np.ndarray, float]] = deque()
        self.latency = LatencyReport()
        self.frames_in = 0
        #: Blocks :meth:`offer` refused for their shape or dtype.
        self.rejected_malformed = 0
        self.closed = False
        #: Set by the scheduler's admit — the cohort serving this session.
        self.cohort = None
        #: Every emitted row, kept once; the scheduler appends each row
        #: it routes here.
        self.outputs = OutputColumns()

    @property
    def pending(self) -> int:
        """Frames queued but not yet processed."""
        return len(self.queue)

    @property
    def frames_out(self) -> int:
        """Output rows emitted so far."""
        return len(self.outputs)

    @property
    def last_position(self) -> np.ndarray | None:
        """The latest emitted 3D fix (single-person sessions)."""
        return self.outputs.last("positions")

    @property
    def last_tracks(self) -> list[tuple[int, np.ndarray]] | None:
        """The latest emitted ``(track_id, position)`` pairs (K-person)."""
        return self.outputs.last_pairs()

    def offer(self, sweep_block: np.ndarray) -> bool:
        """Enqueue one frame; False when the bounded queue is full.

        The enqueue timestamp starts this frame's latency clock — queue
        wait counts against the 75 ms budget, exactly as it would for a
        real user. A block of the wrong shape raises ``ValueError``
        here, before it is queued (:class:`BlockShape`), so it never
        reaches the sender's cohort mates, and counts in
        :attr:`rejected_malformed`. A block wider than the spec's crop
        is queued as a copy of its crop (:meth:`BlockShape.check`).
        """
        if self.closed:
            raise RuntimeError(
                f"session {self.session_id} is closed and takes no frames"
            )
        try:
            sweep_block = self.block_shape.check(sweep_block)
        except ValueError:
            self.rejected_malformed += 1
            raise
        if len(self.queue) >= self.queue_capacity:
            return False
        self.queue.append((sweep_block, perf_counter()))
        self.frames_in += 1
        return True

    def result(self) -> PipelineResult:
        """Everything this session has produced, ``run_stream``-shaped."""
        return self.outputs.result(latency=self.latency)
