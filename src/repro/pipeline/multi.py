"""Multi-person stages for the unified pipeline engine.

The multi-person chain reuses the single-person
:class:`~repro.pipeline.stages.BackgroundSubtract` front end, then swaps
the contour/denoise/localize tail for

* :class:`SuccessiveCancel` — K bottom contours per antenna by
  successive echo cancellation (:mod:`repro.multi.cancellation`);
* :class:`Associate` — cross-antenna association, ghost gating and the
  per-target Kalman track bank (:mod:`repro.multi.tracks`).

Both advance session-lockstep ticks, so
:class:`~repro.multi.tracker.MultiWiTrack` (offline),
:class:`~repro.apps.realtime.RealtimeMultiTracker` (streaming) and a
multi-person serving cohort (:mod:`repro.serve`) are the same code
path. Session state: cancellation keeps none across ticks (only its
kernel's work registers), and the association state is one slot of a
:class:`~repro.multi.tracks.TrackBank`, which a row-independent cohort
advances through one bank step per tick.
"""

from __future__ import annotations

from ..kernels.cancellation import CANCEL_REGISTERS, successive_cancel
from ..multi.cancellation import NULL_HALFWIDTH_M, check_cancel_args
from ..multi.tracks import TrackBank, TrackColumns, TrackManager
from .stages import Stage


class SuccessiveCancel(Stage):
    """K candidate bottom contours per antenna (successive cancellation).

    Per frame and antenna: trace the bottom contour, null the detected
    reflector's energy band, repeat up to ``max_targets`` times. Writes
    ``candidates_m`` and ``candidate_powers`` of shape
    ``(n_rx, max_targets)``. Every round is per-frame independent, so a
    lockstep tick is one call with every (session, antenna) row stacked.
    The kernel's work registers are declared per antenna row; their
    padded width is the dim ``padded_bins``
    (:func:`~repro.kernels.cancellation.padded_bins`).
    """

    REGISTERS = ((CANCEL_REGISTERS, ("n_rx",)),)

    def __init__(
        self,
        range_bin_m: float,
        max_targets: int = 3,
        threshold_db: float = 10.0,
        min_range_m: float = 1.0,
        null_halfwidth_m: float = NULL_HALFWIDTH_M,
        relative_threshold_db: float = 36.0,
    ) -> None:
        # process_tick calls the kernel directly, so the stage refuses
        # here what successive_contours refuses per call.
        check_cancel_args(max_targets, null_halfwidth_m)
        super().__init__()
        self.range_bin_m = range_bin_m
        self.max_targets = max_targets
        self.threshold_db = threshold_db
        self.min_range_m = min_range_m
        self.null_halfwidth_m = null_halfwidth_m
        self.relative_threshold_db = relative_threshold_db

    def fuse_spec(self) -> str:
        """Fusable: the rounds loop is one backend kernel call
        (:func:`repro.kernels.cancellation.successive_cancel`) over the
        tick's stacked (session, antenna) rows, stateless across ticks.
        """
        return "cancel"

    def process_tick(self, tick):
        n_rows, n_rx, n_bins = tick.power.shape
        round_trips, peaks, _, _ = successive_cancel(
            tick.power.reshape(n_rows * n_rx, n_bins),
            self.range_bin_m,
            self.max_targets,
            self.threshold_db,
            self.min_range_m,
            self.null_halfwidth_m,
            self.relative_threshold_db,
            self._scratch,
        )
        shape = (n_rows, n_rx, self.max_targets)
        tick.candidates_m = round_trips.T.reshape(shape)
        tick.candidate_powers = peaks.T.reshape(shape)
        return tick


class Associate(Stage):
    """Track birth/claim/coast/kill over the candidate TOF sets.

    Stage wrapper around a :class:`~repro.multi.tracks.TrackBank`
    (inherently sequential — association depends on every previous
    frame). Writes ``tracks``: the rows' reportable tracks after this
    frame, as :class:`~repro.multi.tracks.TrackColumns`.

    Session state is one slot of the bank: every session's tracks are
    rows of the bank's ``(slot, track)`` slab, grown on demand. The bank
    is the one passed in by its slot-0 manager, preserving the
    single-session API, and every slot shares its spec (frame interval,
    lifecycle config, fix gate, solver). A tick over a row-independent
    solver advances every ticking slot through one
    :meth:`TrackBank.step <repro.multi.tracks.TrackBank.step>`; any
    other solver steps each slot's manager view on its own
    (:meth:`TrackManager.step <repro.multi.tracks.TrackManager.step>`,
    which is also the bank's executable spec).
    """

    def __init__(self, manager: TrackManager) -> None:
        self._bank = manager.bank

    @property
    def manager(self) -> TrackManager:
        """Slot 0's track manager (the single-session view)."""
        return self._bank.manager(0)

    def manager_for(self, slot: int) -> TrackManager:
        """The track manager view of the given session slot."""
        return self._bank.manager(slot)

    @classmethod
    def slot_nbytes(cls, dims):
        return TrackBank.slot_nbytes(dims["n_rx"])

    def _grow(self, capacity: int) -> None:
        self._bank.attach(capacity)

    def evict(self, slot: int) -> None:
        self._bank.evict(slot)

    def move_slot(self, src: int, dst: int) -> None:
        self._bank.move(src, dst)

    def fuse_spec(self) -> str | None:
        """``"associate"`` when the cohort can advance as one track bank.

        The bank's batched localization solve must equal the per-track
        ``solve_one`` calls bitwise — true only for row-independent
        solvers (the closed-form T geometry); the warm-started
        least-squares solver steps slot by slot.
        """
        if getattr(self._bank.solver, "row_independent", False):
            return "associate"
        return None

    def process_tick(self, tick):
        if self.fuse_spec() is None:
            tick.tracks = TrackColumns.of([
                self._bank.manager(slot).step(list(candidates), list(powers))
                for slot, candidates, powers in zip(
                    tick.slots, tick.candidates_m, tick.candidate_powers
                )
            ])
        else:
            tick.tracks = self._bank.step(
                tick.slots, tick.candidates_m, tick.candidate_powers
            )
        return tick

    def reset(self) -> None:
        self._bank.clear()
