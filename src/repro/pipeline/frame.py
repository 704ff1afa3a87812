"""The data that flows through the pipeline engine.

A :class:`Frame` is one 12.5 ms time step of the whole deployment: the
averaged complex spectra of *every* receive antenna plus the fields the
stages progressively fill in (subtracted power, contours, candidate TOF
sets, the 3D fix, the per-person tracks). Stages communicate only
through these fields, so the same stage graph serves the single-person
and the multi-person pipelines.

A :class:`SessionTick` is the unit of work every stage processes: the
same fields with a leading ``n_active`` **session** axis — many
independent sessions advanced one time step each, in lockstep. An
offline recording or a realtime stream is the one-session case; the
serving engine in :mod:`repro.serve` batches many. ``slots`` maps each
row to the pipeline session slot whose structure-of-arrays state it
advances, so ticks may carry any subset of the attached sessions (late
joiners, stragglers, drained queues).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: SessionTick array fields whose leading axis is the session row.
_TICK_ARRAYS = (
    "spectrum",
    "power",
    "raw_tof_m",
    "tof_m",
    "motion",
    "candidates_m",
    "candidate_powers",
    "positions",
)
#: Frame attribute corresponding to each tick array field.
_FRAME_OF_TICK = {name: name for name in _TICK_ARRAYS}
_FRAME_OF_TICK["positions"] = "position"


@dataclass
class Frame:
    """One frame of the streaming pipeline (all antennas together).

    Attributes:
        index: index of the *input* averaged frame this was built from.
        time_s: center time of that averaged frame.
        spectrum: complex averaged spectra, shape ``(n_rx, n_bins)``;
            after :class:`~repro.pipeline.stages.BackgroundSubtract`
            this is the frame-to-frame difference.
        power: background-subtracted power, shape ``(n_rx, n_bins)``.
        raw_tof_m: raw bottom-contour round trips, shape ``(n_rx,)``.
        tof_m: working round trips, progressively cleaned by the
            outlier/interpolation/Kalman stages, shape ``(n_rx,)``.
        motion: per-antenna motion detections, shape ``(n_rx,)``.
        candidates_m: multi-person candidate round trips per antenna,
            shape ``(n_rx, max_targets)``.
        candidate_powers: echo power of each candidate, same shape.
        position: the 3D fix, shape ``(3,)`` (NaN when unlocalizable).
        tracks: ``(track_id, position)`` of every reportable person
            (multi-person pipelines only).
    """

    index: int
    time_s: float
    spectrum: np.ndarray | None = None
    power: np.ndarray | None = None
    raw_tof_m: np.ndarray | None = None
    tof_m: np.ndarray | None = None
    motion: np.ndarray | None = None
    candidates_m: np.ndarray | None = None
    candidate_powers: np.ndarray | None = None
    position: np.ndarray | None = None
    tracks: list[tuple[int, np.ndarray]] | None = None


@dataclass
class SessionTick:
    """One lockstep step of many sessions, session-major.

    Every array mirrors the corresponding :class:`Frame` field with a
    leading ``n_active`` axis (e.g. ``spectrum`` has shape
    ``(n_active, n_rx, n_bins)``, ``tof_m`` has ``(n_active, n_rx)``,
    ``positions`` has ``(n_active, 3)``). Rows are independent sessions:
    no stage may let one row's values influence another's.

    Attributes:
        slots: pipeline session slot of each row, shape ``(n_active,)``.
        indices: per-session input frame index of each row.
        times_s: per-session frame center time of each row.
        tracks: per-row reportable ``(track_id, position)`` lists
            (multi-person pipelines only).
        dense: the rows are the slots ``0..n-1`` in order, so stages
            may address their state slabs as ``[:n]`` views. Set by
            the pipeline once per tick; :meth:`select` clears it.
    """

    slots: np.ndarray
    indices: np.ndarray
    times_s: np.ndarray
    spectrum: np.ndarray | None = None
    power: np.ndarray | None = None
    raw_tof_m: np.ndarray | None = None
    tof_m: np.ndarray | None = None
    motion: np.ndarray | None = None
    candidates_m: np.ndarray | None = None
    candidate_powers: np.ndarray | None = None
    positions: np.ndarray | None = None
    tracks: list[list[tuple[int, np.ndarray]]] | None = None
    dense: bool = False

    @property
    def num_rows(self) -> int:
        """Number of sessions carried by this tick."""
        return len(self.slots)

    @property
    def nbytes(self) -> int:
        """Bytes of array payload the tick currently carries.

        The working-set footprint the profiler attributes to each
        stage's output (not an allocation count — stages may hand out
        views or reused buffers).
        """
        total = 0
        for name in _TICK_ARRAYS:
            value = getattr(self, name)
            if value is not None:
                total += value.nbytes
        return total

    def select(self, keep: np.ndarray) -> "SessionTick":
        """A tick holding only the rows where ``keep`` is True."""
        out = SessionTick(
            slots=self.slots[keep],
            indices=self.indices[keep],
            times_s=self.times_s[keep],
        )
        for name in _TICK_ARRAYS:
            value = getattr(self, name)
            if value is not None:
                setattr(out, name, value[keep])
        if self.tracks is not None:
            out.tracks = [t for t, k in zip(self.tracks, keep) if k]
        return out

    def write_frame(self, frame: Frame, row: int = 0) -> Frame:
        """Copy one row's fields into a :class:`Frame` (views, no copy)."""
        for name, frame_name in _FRAME_OF_TICK.items():
            value = getattr(self, name)
            if value is not None:
                setattr(frame, frame_name, value[row])
        if self.tracks is not None:
            frame.tracks = self.tracks[row]
        return frame
