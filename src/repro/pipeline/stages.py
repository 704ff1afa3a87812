"""Composable, stateful pipeline stages (paper Section 4 + Section 7).

Each stage implements one entry point, ``process_tick(tick)``: advance
**many independent sessions one frame each**, in lockstep, over a
:class:`~repro.pipeline.frame.SessionTick`. All mutable stage state
(background reference, outlier history, hold buffer, Kalman
covariances, warm starts, track banks) lives in structure-of-arrays form
with a leading *session* axis; ``tick.slots`` selects which state rows
this tick advances. Rows are independent: batching sessions never
changes any session's output relative to running it alone, which is the
equivalence the serving tests pin. An offline recording and the
realtime stream of Section 7 are the single-row case on slot 0 — there
is no second code path.

Declared state: a stage lists its per-slot state once, as the class
constant :attr:`Stage.STATE` (field -> dtype and fill value); field
``f`` is the slab attribute ``_f``, allocated on the stage's first
frame, which fixes its trailing shape. :class:`Stage` alone runs the
slot lifecycle over those slabs: :meth:`Stage.attach` grows the session
axis (existing rows are preserved, new rows hold the fill),
:meth:`Stage.evict` resets one slot's rows to the fill — an evicted
slot is a fresh slot, so it can be reused by a newly admitted session —
without perturbing any other row, and :meth:`Stage.move_slot` copies one
slot's rows into another and refills the source (a cohort keeping its
slots dense).

State addressing: a tick whose rows are the slots ``0..n-1`` in order
(``tick.dense``, set once per tick by the pipeline) updates the state
slabs in place through ``[:n]`` views; any other tick gathers its rows
and writes them back (:func:`state_rows` / :func:`write_back`). Each
stage's arithmetic is one backend-dispatched kernel over those rows,
so both backends share the addressing.

The single-person chain is

    BackgroundSubtract -> ContourExtract -> OutlierGate
    -> HoldInterpolate -> KalmanSmooth -> Localize

and the multi-person chain swaps the middle for
:class:`~repro.pipeline.multi.SuccessiveCancel` and
:class:`~repro.pipeline.multi.Associate`.
"""

from __future__ import annotations

import sys

import numpy as np

from ..core.kalman import dwna_process_noise
from ..kernels.contour import background_power, contour_tick
from ..kernels.gate import outlier_gate
from ..kernels.kalman import kalman_tick
from .frame import SessionTick


def state_rows(tick: SessionTick, slabs) -> list:
    """The tick's rows of each state slab.

    ``[:n]`` views on a dense tick (updates land in the slab); gathered
    copies otherwise, which :func:`write_back` scatters back.
    """
    if tick.dense:
        n = len(tick.slots)
        return [slab[:n] for slab in slabs]
    slots = tick.slots
    return [slab[slots] for slab in slabs]


def write_back(tick: SessionTick, slabs, rows) -> None:
    """Scatter :func:`state_rows`' gathered rows back (dense: nothing)."""
    if not tick.dense:
        slots = tick.slots
        for slab, part in zip(slabs, rows):
            slab[slots] = part


class Stage:
    """One stateful step of the pipeline.

    Subclasses fill in :meth:`process_tick` and declare their per-slot
    state once, in :attr:`STATE`; this class alone runs the slot
    lifecycle over it. :meth:`attach` / :meth:`evict` manage the
    session axis of the state slabs, :meth:`move_slot` moves one slot's
    state to another, and :meth:`reset` forgets all online state so a
    pipeline can be reused for a fresh recording.
    """

    #: Per-slot state: field -> ``(dtype, fill)``. Field ``f`` is the
    #: slab attribute ``_f``, shaped ``(capacity, *trailing)``: ``None``
    #: until :meth:`_allocate` fixes the trailing shape on the stage's
    #: first frame. A fresh slot's rows hold the fill.
    STATE: dict = {}

    #: ``(field, attribute, dtype, fill)`` per :attr:`STATE` entry,
    #: built once per class so no lifecycle call formats a name.
    _SLABS: tuple = ()

    #: Sessions the state slabs are sized for (slot 0 always exists).
    _capacity: int = 1

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._SLABS = tuple(
            (field, sys.intern("_" + field), np.dtype(dtype), fill)
            for field, (dtype, fill) in cls.STATE.items()
        )

    def __init__(self) -> None:
        self.reset()

    def _allocate(self, **trailing: tuple) -> None:
        """Allocate every slab at capacity, each row at its fill.

        ``trailing`` gives each field's per-slot shape (``()`` for one
        value per slot).
        """
        for field, attr, dtype, fill in self._SLABS:
            shape = (self._capacity, *trailing[field])
            setattr(self, attr, np.full(shape, fill, dtype))

    def attach(self, n_sessions: int) -> None:
        """Ensure state capacity for ``n_sessions`` slots.

        Existing rows keep their state; new rows start fresh. Capacity
        only grows — eviction frees *state*, not rows.
        """
        if n_sessions < 1:
            raise ValueError("n_sessions must be >= 1")
        if n_sessions > self._capacity:
            self._capacity = n_sessions
            self._grow(n_sessions)

    def _grow(self, capacity: int) -> None:
        """Pad the allocated slabs with fresh rows up to ``capacity``."""
        for _, attr, dtype, fill in self._SLABS:
            slab = getattr(self, attr)
            if slab is not None:
                rows = (capacity - len(slab), *slab.shape[1:])
                pad = np.full(rows, fill, dtype)
                setattr(self, attr, np.concatenate([slab, pad]))

    def evict(self, slot: int) -> None:
        """Forget one slot's state: its rows go back to their fill."""
        for _, attr, _, fill in self._SLABS:
            slab = getattr(self, attr)
            if slab is not None:
                slab[slot] = fill

    def move_slot(self, src: int, dst: int) -> None:
        """Copy slot ``src``'s rows into ``dst``; ``src`` is refilled."""
        for _, attr, _, fill in self._SLABS:
            slab = getattr(self, attr)
            if slab is not None:
                slab[dst] = slab[src]
                slab[src] = fill

    def fuse_spec(self) -> str | None:
        """The stage's kind for :func:`~repro.kernels.tick.compile_tick_plan`.

        A kind string (``"background"``, ``"contour"``, ...) the plan
        compiler pattern-matches against the single- and multi-person
        chains; ``None`` (the default) marks a stage no plan covers.
        """
        return None

    def process_tick(self, tick: SessionTick) -> SessionTick:
        """Advance every session row of the tick by one frame.

        Rows may be dropped — e.g. a session's first frame only primes
        the background subtractor — and later stages then skip them.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Forget all online state (every slot)."""
        for _, attr, _, _ in self._SLABS:
            setattr(self, attr, None)


class BackgroundSubtract(Stage):
    """Frame-to-frame subtraction: removing the Flash Effect (§4.2).

    Static reflectors keep a constant TOF, so subtracting consecutive
    averaged frames cancels them; a moving body decorrelates across the
    ~5 cm carrier wavelength and survives. Each session's first frame
    only primes that session's reference row and produces no output —
    priming rows are dropped from the tick.
    """

    STATE = {"previous": (np.complex128, 0.0), "primed": (bool, False)}

    def __init__(self) -> None:
        super().__init__()
        #: Reused per-tick |diff|^2 buffer. ``tick.power`` is consumed
        #: within the tick (contour scan) and never retained by the
        #: collectors, so handing out the same buffer every tick is
        #: safe — and drops two array allocations per frame.
        self._power_scratch: np.ndarray | None = None

    def fuse_spec(self) -> str:
        return "background"

    def process_tick(self, tick):
        current = tick.spectrum
        n, n_rx, n_bins = current.shape
        if self._previous is None:
            self._allocate(previous=(n_rx, n_bins), primed=())
        if tick.dense and np.count_nonzero(self._primed[:n]) == n:
            previous = self._previous[:n]
            diff = current - previous
            np.copyto(previous, current)  # the next tick's reference
        else:
            slots = tick.slots
            primed = self._primed[slots]
            previous = self._previous[slots]
            self._previous[slots] = current
            if not primed.all():
                # Some session's first frame: it only primes its row.
                self._primed[slots] = True
                tick = tick.select(primed)
                if tick.num_rows == 0:
                    return tick
                current = tick.spectrum
                previous = previous[primed]
            diff = current - previous
        tick.spectrum = diff
        scratch = self._power_scratch
        if scratch is None or scratch.shape != diff.shape:
            scratch = self._power_scratch = np.empty(diff.shape)
        tick.power = background_power(diff, scratch)
        return tick


class ContourExtract(Stage):
    """Bottom-contour tracking: defeating dynamic multipath (§4.3).

    Per antenna, the closest local maximum substantially above the noise
    floor. Writes ``raw_tof_m`` (kept for the pointing pipeline),
    ``tof_m`` (the same array: downstream stages read it and write
    fresh outputs), and ``motion``. Stateless, and the contour kernel
    is row-independent, so a tick stacks every (session, antenna) row
    into one :func:`~repro.kernels.contour.contour_tick` call.
    """

    def __init__(
        self,
        range_bin_m: float,
        threshold_db: float = 12.0,
        min_range_m: float = 1.0,
        relative_threshold_db: float = 26.0,
    ) -> None:
        self.range_bin_m = range_bin_m
        self.threshold_db = threshold_db
        self.min_range_m = min_range_m
        self.relative_threshold_db = relative_threshold_db
        self._scratch: dict = {}

    def fuse_spec(self) -> str:
        return "contour"

    def process_tick(self, tick):
        n_rows, n_rx, n_bins = tick.power.shape
        contour, motion = contour_tick(
            tick.power.reshape(n_rows * n_rx, n_bins),
            self.range_bin_m,
            self.threshold_db,
            self.min_range_m,
            self.relative_threshold_db,
            self._scratch,
        )
        tick.raw_tof_m = tick.tof_m = contour.reshape(n_rows, n_rx)
        tick.motion = motion.reshape(n_rows, n_rx)
        return tick


class OutlierGate(Stage):
    """Online outlier rejection (§4.4 / §7).

    "The contour should not jump significantly between two successive
    FFT frames (because a person cannot move much in 12.5 ms)." A jump
    is accepted only once several consecutive frames agree on the new
    distance — a streaming-causal variant of
    :func:`repro.core.outliers.reject_outliers` that never rewrites
    already-emitted frames.

    State is structure-of-arrays over (session, antenna): the last
    accepted value, frames since acceptance, and a bounded pending
    buffer of jump candidates (at most ``confirmation_frames`` values,
    NaN-padded) with its fill count. Every update is elementwise, so
    the whole gate advances one
    :func:`~repro.kernels.gate.outlier_gate` step per tick.
    """

    STATE = {
        "last": (float, np.nan),
        "since": (np.int64, 1),
        "pending": (float, np.nan),
        "pending_len": (np.int64, 0),
    }

    def __init__(
        self,
        max_jump_m: float = 0.15,
        confirmation_frames: int = 4,
        agreement_m: float | None = None,
    ) -> None:
        if max_jump_m <= 0:
            raise ValueError("max_jump_m must be positive")
        if confirmation_frames < 1:
            raise ValueError("confirmation_frames must be >= 1")
        self.max_jump_m = max_jump_m
        self.confirmation_frames = confirmation_frames
        self.agreement_m = (
            agreement_m if agreement_m is not None else 2.0 * max_jump_m
        )
        super().__init__()
        self._scratch: dict = {}

    def fuse_spec(self) -> str:
        return "outlier"

    def process_tick(self, tick):
        if self._last is None:
            n_rx = tick.tof_m.shape[1]
            self._allocate(
                last=(n_rx,),
                since=(n_rx,),
                pending=(n_rx, self.confirmation_frames),
                pending_len=(n_rx,),
            )
        slabs = (self._last, self._since, self._pending, self._pending_len)
        rows = state_rows(tick, slabs)
        tick.tof_m = outlier_gate(
            tick.tof_m, *rows, self.max_jump_m, self.agreement_m,
            self._scratch,
        )
        write_back(tick, slabs, rows)
        return tick


class HoldInterpolate(Stage):
    """Hold-last interpolation through silence (§4.4).

    "We assume that the person is still in the same position and
    interpolate the latest location estimate throughout the period
    during which we do not observe any motion." Frames before the first
    detection stay NaN — a causal tracker has no earlier knowledge.
    One masked copy per tick: finite values overwrite the held rows,
    which are then the tick's ``tof_m`` (copied off the slab on a dense
    tick, so no output aliases state).
    """

    STATE = {"held": (float, np.nan)}

    def __init__(self, enabled: bool = True) -> None:
        super().__init__()
        self.enabled = enabled

    def fuse_spec(self) -> str:
        return "hold"

    def process_tick(self, tick):
        values = tick.tof_m
        if self._held is None:
            self._allocate(held=(values.shape[1],))
        rows = state_rows(tick, (self._held,))
        held = rows[0]
        np.copyto(held, values, where=np.isfinite(values))
        write_back(tick, (self._held,), rows)
        if self.enabled:
            tick.tof_m = held.copy() if tick.dense else held
        return tick


class KalmanSmooth(Stage):
    """Per-antenna constant-velocity Kalman smoothing (§4.4).

    The ``[distance, velocity]`` means and 2x2 covariances are kept in
    structure-of-arrays form over (session, antenna); the unrolled
    predict+update itself is the backend-dispatched
    :func:`repro.kernels.kalman.kalman_tick` kernel (velocity decay 1.0)
    — one in-place call advances every antenna of every session, and
    the offline :func:`~repro.core.kalman.smooth_series` and the track
    bank run the same kernel. NaN inputs advance the filter without a
    measurement (prediction), exactly as the realtime loop needs.
    """

    STATE = {
        "mean": (float, 0.0),
        "cov": (float, 0.0),
        "initialized": (bool, False),
    }

    def __init__(
        self,
        frame_dt_s: float,
        process_noise: float = 10.0,
        measurement_noise: float = 1e-3,
    ) -> None:
        if frame_dt_s <= 0:
            raise ValueError("frame_dt_s must be positive")
        if process_noise <= 0 or measurement_noise <= 0:
            raise ValueError("noise parameters must be positive")
        self.frame_dt_s = frame_dt_s
        self.process_noise = process_noise
        self.measurement_noise = measurement_noise
        self._q = dwna_process_noise(frame_dt_s, process_noise)
        super().__init__()
        self._scratch: dict = {}

    def fuse_spec(self) -> str:
        return "kalman"

    def process_tick(self, tick):
        if self._mean is None:
            n_rx = tick.tof_m.shape[1]
            self._allocate(
                mean=(n_rx, 2), cov=(n_rx, 2, 2), initialized=(n_rx,)
            )
        slabs = (self._mean, self._cov, self._initialized)
        rows = state_rows(tick, slabs)
        tick.tof_m = kalman_tick(
            tick.tof_m, *rows, self.frame_dt_s, *self._q,
            self.measurement_noise, 1.0, self._scratch,
        )
        write_back(tick, slabs, rows)
        return tick


class Localize(Stage):
    """Ellipsoid-intersection 3D localization (§5).

    Solves the smoothed per-antenna round trips into one 3D position per
    frame. The closed-form T solver is row-independent and fully
    vectorized, so a lockstep tick hands it one stacked call. Solvers
    without ``row_independent`` (the warm-started least-squares solver)
    run ``solve_row`` per row instead, each seeded from its own slot's
    last accepted fix — the per-session state of ``solver.solve``'s
    frame loop, so one session's iterate never seeds another's.
    """

    #: Last accepted fix per slot (NaN row: none yet); allocated only
    #: for solvers that are not row-independent.
    STATE = {"last_fix": (float, np.nan)}

    def __init__(self, solver) -> None:
        super().__init__()
        self.solver = solver

    def fuse_spec(self) -> str | None:
        # Only a row-independent solver (the closed-form T solver) is a
        # pure rowwise function; a chain with the warm-started
        # least-squares solver, which carries a per-slot iterate,
        # matches no tick plan.
        if getattr(self.solver, "row_independent", False):
            return "localize"
        return None

    def process_tick(self, tick):
        solver = self.solver
        if getattr(solver, "row_independent", False):
            # Pipeline.tick already silences the warnings of NaN rows.
            tick.positions = solver.solve_unguarded(tick.tof_m).positions
            return tick
        if self._last_fix is None:
            self._allocate(last_fix=(3,))
        positions = np.full((tick.num_rows, 3), np.nan)
        for row, slot in enumerate(tick.slots):
            last = self._last_fix[slot]
            fix = solver.solve_row(
                tick.tof_m[row], None if np.isnan(last[0]) else last
            )
            if fix is not None:
                positions[row] = self._last_fix[slot] = fix
        tick.positions = positions
        return tick
