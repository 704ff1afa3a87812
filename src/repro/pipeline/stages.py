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

Session lifecycle: :meth:`Stage.attach` grows the session axis to a
requested capacity (existing state rows are preserved), and
:meth:`Stage.evict` forgets one slot's state so the slot can be reused
by a newly admitted session — without perturbing any other row.

The single-person chain is

    BackgroundSubtract -> ContourExtract -> OutlierGate
    -> HoldInterpolate -> KalmanSmooth -> Localize

and the multi-person chain swaps the middle for
:class:`~repro.pipeline.multi.SuccessiveCancel` and
:class:`~repro.pipeline.multi.Associate`.
"""

from __future__ import annotations

import numpy as np

from ..core.contour import track_bottom_contour
from ..core.kalman import dwna_process_noise
from ..kernels.contour import background_power
from ..kernels.kalman import kalman_tick
from .frame import SessionTick


def _grow_rows(array: np.ndarray, capacity: int, fill) -> np.ndarray:
    """Pad an SoA state array with default rows up to ``capacity``."""
    if len(array) >= capacity:
        return array
    pad_shape = (capacity - len(array),) + array.shape[1:]
    return np.concatenate([array, np.full(pad_shape, fill, dtype=array.dtype)])


class Stage:
    """One stateful step of the pipeline.

    Subclasses fill in :meth:`process_tick`. :meth:`reset` forgets all
    online state so a pipeline can be reused for a fresh recording;
    :meth:`attach` / :meth:`evict` manage the session axis of the state
    arrays.
    """

    #: Sessions the state arrays are sized for (slot 0 always exists).
    _capacity: int = 1

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
        """Grow already-allocated state arrays (default: stateless)."""

    def evict(self, slot: int) -> None:
        """Forget one slot's state (default: stateless, nothing held)."""

    def snapshot_slot(self, slot: int) -> dict:
        """Picklable hand-off of one slot's state (default: stateless).

        The returned mapping is everything :meth:`restore_slot` needs to
        continue the slot bit-exactly in *another* pipeline of the same
        structure — possibly in another process (cohort migration). It
        is a **hand-off**, not a shared view: restore it into exactly
        one slot and :meth:`evict` the source, or discard it.
        """
        return {}

    def restore_slot(self, slot: int, state: dict) -> None:
        """Install a :meth:`snapshot_slot` hand-off into one slot.

        An empty state means the source slot held nothing yet (the
        stage had not allocated, or the slot was fresh) and restores to
        a fresh slot. The slot must already be attached.
        """
        if not state:
            self.evict(slot)

    def fuse_spec(self) -> str | None:
        """Kernel-form descriptor for the tick compiler, or ``None``.

        A stage that can run inside a compiled
        :class:`~repro.kernels.tick.TickPlan` — its per-tick update is a
        pure function over SoA state slabs plus the frame block, with no
        Python objects in the loop — returns a kind string the compiler
        pattern-matches (``"background"``, ``"contour"``, ...). ``None``
        (the default) marks the stage unfusable and keeps the whole
        chain on the staged loop.
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


class BackgroundSubtract(Stage):
    """Frame-to-frame subtraction: removing the Flash Effect (§4.2).

    Static reflectors keep a constant TOF, so subtracting consecutive
    averaged frames cancels them; a moving body decorrelates across the
    ~5 cm carrier wavelength and survives. Each session's first frame
    only primes that session's reference row and produces no output —
    priming rows are dropped from the tick.
    """

    def __init__(self) -> None:
        self._capacity = 1
        self._previous: np.ndarray | None = None  # (capacity, n_rx, n_bins)
        self._primed: np.ndarray | None = None  # (capacity,)
        #: Reused per-tick |diff|^2 buffer. ``tick.power`` is consumed
        #: within the tick (contour scan) and never retained by the
        #: collectors, so handing out the same buffer every tick is
        #: safe — and drops two array allocations per frame.
        self._power_scratch: np.ndarray | None = None

    def _ensure(self, n_rx: int, n_bins: int) -> None:
        if self._previous is None:
            self._previous = np.zeros(
                (self._capacity, n_rx, n_bins), dtype=np.complex128
            )
            self._primed = np.zeros(self._capacity, dtype=bool)

    def _grow(self, capacity: int) -> None:
        if self._previous is not None:
            self._previous = _grow_rows(self._previous, capacity, 0.0)
            self._primed = _grow_rows(self._primed, capacity, False)

    def evict(self, slot: int) -> None:
        if self._primed is not None:
            self._primed[slot] = False

    def snapshot_slot(self, slot: int) -> dict:
        if self._previous is None or not self._primed[slot]:
            return {}
        return {"previous": self._previous[slot].copy()}

    def restore_slot(self, slot: int, state: dict) -> None:
        if not state:
            self.evict(slot)
            return
        previous = state["previous"]
        self._ensure(*previous.shape)
        self._previous[slot] = previous
        self._primed[slot] = True

    def fuse_spec(self) -> str:
        return "background"

    def process_tick(self, tick):
        current = tick.spectrum
        _, n_rx, n_bins = current.shape
        self._ensure(n_rx, n_bins)
        slots = tick.slots
        primed = self._primed[slots]
        previous = self._previous[slots]
        self._previous[slots] = current
        self._primed[slots] = True
        if not primed.all():
            tick = tick.select(primed)
            current = current[primed]
            previous = previous[primed]
            if tick.num_rows == 0:
                return tick
        diff = current - previous
        tick.spectrum = diff
        scratch = self._power_scratch
        if scratch is None or scratch.shape != diff.shape:
            scratch = self._power_scratch = np.empty(diff.shape)
        tick.power = background_power(diff, scratch)
        return tick

    def reset(self) -> None:
        self._previous = None
        self._primed = None
        self._power_scratch = None


class ContourExtract(Stage):
    """Bottom-contour tracking: defeating dynamic multipath (§4.3).

    Per antenna, the closest local maximum substantially above the noise
    floor. Writes ``raw_tof_m`` (kept for the pointing pipeline),
    ``tof_m`` (the working copy downstream stages clean), and
    ``motion``. Stateless, and the contour kernel is row-independent,
    so a tick stacks every (session, antenna) row into one vectorized
    call.
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

    def fuse_spec(self) -> str:
        return "contour"

    def process_tick(self, tick):
        n_rows, n_rx, n_bins = tick.power.shape
        result = track_bottom_contour(
            tick.power.reshape(n_rows * n_rx, n_bins),
            self.range_bin_m,
            threshold_db=self.threshold_db,
            min_range_m=self.min_range_m,
            relative_threshold_db=self.relative_threshold_db,
        )
        tick.raw_tof_m = result.round_trip_m.reshape(n_rows, n_rx)
        tick.tof_m = tick.raw_tof_m.copy()
        tick.motion = result.motion_mask.reshape(n_rows, n_rx)
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
    the whole gate advances one vectorized step per tick.
    """

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
        self._capacity = 1
        self._last: np.ndarray | None = None  # (capacity, n_rx)
        self._since: np.ndarray | None = None  # (capacity, n_rx)
        self._pending: np.ndarray | None = None  # (capacity, n_rx, P)
        self._pending_len: np.ndarray | None = None  # (capacity, n_rx)
        #: Reused per-tick work buffers keyed by (n_rows, n_rx); see
        #: :meth:`_scratch_for`.
        self._scratch: dict | None = None

    def _ensure(self, n_rx: int) -> None:
        if self._last is None:
            capacity = self._capacity
            self._last = np.full((capacity, n_rx), np.nan)
            self._since = np.ones((capacity, n_rx), dtype=np.int64)
            self._pending = np.full(
                (capacity, n_rx, self.confirmation_frames), np.nan
            )
            self._pending_len = np.zeros((capacity, n_rx), dtype=np.int64)

    def _grow(self, capacity: int) -> None:
        if self._last is not None:
            self._last = _grow_rows(self._last, capacity, np.nan)
            self._since = _grow_rows(self._since, capacity, 1)
            self._pending = _grow_rows(self._pending, capacity, np.nan)
            self._pending_len = _grow_rows(self._pending_len, capacity, 0)

    def evict(self, slot: int) -> None:
        if self._last is not None:
            self._last[slot] = np.nan
            self._since[slot] = 1
            self._pending_len[slot] = 0

    def snapshot_slot(self, slot: int) -> dict:
        if self._last is None:
            return {}
        return {
            "last": self._last[slot].copy(),
            "since": self._since[slot].copy(),
            "pending": self._pending[slot].copy(),
            "pending_len": self._pending_len[slot].copy(),
        }

    def restore_slot(self, slot: int, state: dict) -> None:
        if not state:
            self.evict(slot)
            return
        self._ensure(len(state["last"]))
        self._last[slot] = state["last"]
        self._since[slot] = state["since"]
        self._pending[slot] = state["pending"]
        self._pending_len[slot] = state["pending_len"]

    def _scratch_for(self, n_rows: int, n_rx: int) -> dict:
        """Per-tick work buffers, reallocated only when the tick shape
        changes (a steady serving cohort reuses them every frame)."""
        p = self.confirmation_frames
        sc = self._scratch
        if sc is None or sc["last"].shape != (n_rows, n_rx):
            shape = (n_rows, n_rx)
            self._scratch = sc = {
                "last": np.empty(shape),
                "since": np.empty(shape, dtype=np.int64),
                "pending": np.empty(shape + (p,)),
                "pending_len": np.empty(shape, dtype=np.int64),
                "f2": np.empty(shape),
                "i2": np.empty(shape, dtype=np.int64),
                "f3": np.empty(shape + (p,)),
                "b3": np.empty(shape + (p,), dtype=bool),
                "keep": np.empty(shape + (p,), dtype=bool),
                "missing": np.empty(shape, dtype=bool),
                "no_last": np.empty(shape, dtype=bool),
                "small": np.empty(shape, dtype=bool),
                "direct": np.empty(shape, dtype=bool),
                "candidate": np.empty(shape, dtype=bool),
                "accept": np.empty(shape, dtype=bool),
                "n_keep": np.empty(shape, dtype=np.int64),
                "w_idx": np.arange(p, dtype=np.int64)[None, None, :],
            }
        return sc

    def fuse_spec(self) -> str:
        return "outlier"

    def process_tick(self, tick):
        """Gate the tick's ``(n_rows, n_rx)`` ToFs; advances its slots.

        Same elementwise update as always, written through preallocated
        scratch buffers (gathers via ``np.take(out=)``, ufuncs with
        ``out=``, merges via ``np.copyto(where=)``) so a steady tick
        performs no per-frame array allocations beyond the returned
        gated values and the two argsort/take_along_axis packs — the
        output is pinned bitwise against the original formulation.
        """
        values, slots = tick.tof_m, tick.slots
        self._ensure(values.shape[1])
        n_rows, n_rx = values.shape
        sc = self._scratch_for(n_rows, n_rx)
        last = np.take(self._last, slots, axis=0, out=sc["last"])
        since = np.take(self._since, slots, axis=0, out=sc["since"])
        pending = np.take(self._pending, slots, axis=0, out=sc["pending"])
        pending_len = np.take(
            self._pending_len, slots, axis=0, out=sc["pending_len"]
        )

        missing = np.isnan(values, out=sc["missing"])
        no_last = np.isnan(last, out=sc["no_last"])
        f2 = sc["f2"]
        np.subtract(values, last, out=f2)
        np.abs(f2, out=f2)
        with np.errstate(invalid="ignore"):
            small = np.less_equal(
                f2, self.max_jump_m * since, out=sc["small"]
            )
        # direct = ~missing & (no_last | small);
        # candidate = ~missing & ~no_last & ~small.
        direct = np.logical_or(no_last, small, out=sc["direct"])
        candidate = np.logical_or(no_last, small, out=sc["candidate"])
        np.logical_not(candidate, out=candidate)
        np.greater(direct, missing, out=direct)  # direct & ~missing
        np.greater(candidate, missing, out=candidate)

        # Candidate relocation: keep only pending values that agree with
        # the newest one, append it, and accept once enough agree.
        p = self.confirmation_frames
        filled = np.less(sc["w_idx"], pending_len[:, :, None], out=sc["b3"])
        f3 = sc["f3"]
        np.subtract(pending, values[:, :, None], out=f3)
        np.abs(f3, out=f3)
        with np.errstate(invalid="ignore"):
            keep = np.less_equal(f3, self.agreement_m, out=sc["keep"])
        np.logical_and(filled, keep, out=keep)
        order = np.argsort(~keep, axis=-1, kind="stable")
        packed = np.take_along_axis(pending, order, axis=-1)
        n_keep = np.sum(keep, axis=-1, out=sc["n_keep"])
        i2 = np.minimum(n_keep, p - 1, out=sc["i2"])
        np.put_along_axis(packed, i2[:, :, None], values[:, :, None], axis=-1)
        np.add(n_keep, 1, out=i2)  # n_keep + 1
        confirmed = np.greater_equal(i2, p, out=sc["b3"][..., 0])
        np.logical_and(candidate, confirmed, out=confirmed)
        accept = np.logical_or(direct, confirmed, out=sc["accept"])

        out = np.where(accept, values, np.nan)
        np.copyto(last, values, where=accept)
        self._last[slots] = last
        np.add(since, 1, out=since)
        np.copyto(since, 1, where=accept)
        self._since[slots] = since
        np.copyto(pending, packed, where=candidate[:, :, None])
        self._pending[slots] = pending
        np.copyto(pending_len, i2, where=candidate)
        np.copyto(pending_len, 0, where=accept)
        self._pending_len[slots] = pending_len
        tick.tof_m = out
        return tick

    def reset(self) -> None:
        self._last = None
        self._since = None
        self._pending = None
        self._pending_len = None
        self._scratch = None


class HoldInterpolate(Stage):
    """Hold-last interpolation through silence (§4.4).

    "We assume that the person is still in the same position and
    interpolate the latest location estimate throughout the period
    during which we do not observe any motion." Frames before the first
    detection stay NaN — a causal tracker has no earlier knowledge.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._capacity = 1
        self._held: np.ndarray | None = None  # (capacity, n_rx)

    def _ensure(self, n_rx: int) -> None:
        if self._held is None:
            self._held = np.full((self._capacity, n_rx), np.nan)

    def _grow(self, capacity: int) -> None:
        if self._held is not None:
            self._held = _grow_rows(self._held, capacity, np.nan)

    def evict(self, slot: int) -> None:
        if self._held is not None:
            self._held[slot] = np.nan

    def snapshot_slot(self, slot: int) -> dict:
        if self._held is None:
            return {}
        return {"held": self._held[slot].copy()}

    def restore_slot(self, slot: int, state: dict) -> None:
        if not state:
            self.evict(slot)
            return
        self._ensure(len(state["held"]))
        self._held[slot] = state["held"]

    def fuse_spec(self) -> str:
        return "hold"

    def process_tick(self, tick):
        values, slots = tick.tof_m, tick.slots
        self._ensure(values.shape[1])
        held = self._held[slots]
        finite = np.isfinite(values)
        if self.enabled:
            tick.tof_m = np.where(finite, values, held)
        self._held[slots] = np.where(finite, values, held)
        return tick

    def reset(self) -> None:
        self._held = None


class KalmanSmooth(Stage):
    """Per-antenna constant-velocity Kalman smoothing (§4.4).

    The same filter as :class:`~repro.core.kalman.KalmanFilter1D`, but
    with the ``[distance, velocity]`` means and 2x2 covariances kept in
    structure-of-arrays form over (session, antenna); the unrolled
    predict+update itself is the backend-dispatched
    :func:`repro.kernels.kalman.kalman_tick` kernel — one call advances
    every antenna of every session. NaN inputs advance the filter
    without a measurement (prediction), exactly as the realtime loop
    needs.
    """

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
        self._q00, self._q01, self._q11 = dwna_process_noise(
            frame_dt_s, process_noise
        )
        self._capacity = 1
        self._mean: np.ndarray | None = None  # (capacity, n_rx, 2)
        self._cov: np.ndarray | None = None  # (capacity, n_rx, 2, 2)
        self._initialized: np.ndarray | None = None  # (capacity, n_rx)

    def _ensure(self, n_rx: int) -> None:
        if self._mean is None:
            capacity = self._capacity
            self._mean = np.zeros((capacity, n_rx, 2))
            self._cov = np.zeros((capacity, n_rx, 2, 2))
            self._initialized = np.zeros((capacity, n_rx), dtype=bool)

    def _grow(self, capacity: int) -> None:
        if self._mean is not None:
            self._mean = _grow_rows(self._mean, capacity, 0.0)
            self._cov = _grow_rows(self._cov, capacity, 0.0)
            self._initialized = _grow_rows(self._initialized, capacity, False)

    def evict(self, slot: int) -> None:
        if self._initialized is not None:
            self._initialized[slot] = False

    def snapshot_slot(self, slot: int) -> dict:
        if self._mean is None:
            return {}
        return {
            "mean": self._mean[slot].copy(),
            "cov": self._cov[slot].copy(),
            "initialized": self._initialized[slot].copy(),
        }

    def restore_slot(self, slot: int, state: dict) -> None:
        if not state:
            self.evict(slot)
            return
        self._ensure(len(state["mean"]))
        self._mean[slot] = state["mean"]
        self._cov[slot] = state["cov"]
        self._initialized[slot] = state["initialized"]

    def fuse_spec(self) -> str:
        return "kalman"

    def process_tick(self, tick):
        slots = tick.slots
        self._ensure(tick.tof_m.shape[1])
        tick.tof_m, new, newc, new_live = kalman_tick(
            tick.tof_m,
            self._mean[slots],
            self._cov[slots],
            self._initialized[slots],
            self.frame_dt_s,
            self._q00,
            self._q01,
            self._q11,
            self.measurement_noise,
        )
        self._mean[slots] = new
        self._cov[slots] = newc
        self._initialized[slots] = new_live
        return tick

    def reset(self) -> None:
        self._mean = None
        self._cov = None
        self._initialized = None


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

    def __init__(self, solver) -> None:
        self.solver = solver
        self._capacity = 1
        #: Last accepted fix per slot (NaN row: none yet); allocated
        #: only for solvers that are not row-independent.
        self._last_fix: np.ndarray | None = None  # (capacity, 3)

    def _ensure(self) -> None:
        if self._last_fix is None:
            self._last_fix = np.full((self._capacity, 3), np.nan)

    def _grow(self, capacity: int) -> None:
        if self._last_fix is not None:
            self._last_fix = _grow_rows(self._last_fix, capacity, np.nan)

    def evict(self, slot: int) -> None:
        if self._last_fix is not None:
            self._last_fix[slot] = np.nan

    def snapshot_slot(self, slot: int) -> dict:
        if self._last_fix is None:
            return {}
        return {"last_fix": self._last_fix[slot].copy()}

    def restore_slot(self, slot: int, state: dict) -> None:
        if not state:
            self.evict(slot)
            return
        self._ensure()
        self._last_fix[slot] = state["last_fix"]

    def fuse_spec(self) -> str | None:
        # Only the closed-form T solver is a pure rowwise function; the
        # warm-started least-squares solver carries a per-slot iterate
        # and stays staged.
        if getattr(self.solver, "fuse_kind", None) == "t_geometry":
            return "localize"
        return None

    def process_tick(self, tick):
        solver = self.solver
        if getattr(solver, "row_independent", False):
            tick.positions = solver.solve(tick.tof_m).positions
            return tick
        self._ensure()
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

    def reset(self) -> None:
        self._last_fix = None
