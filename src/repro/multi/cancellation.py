"""Successive echo cancellation: K bottom contours per antenna.

The single-person pipeline keeps only the *first* strong local maximum
per frame (the paper's bottom contour, Section 4.3) — every later echo is
assumed to be multipath of the same person. With K people, the later
echoes may be other people. This module extends the contour stage by
successive cancellation, the radar analogue of successive interference
cancellation in communications:

1. trace the bottom contour of the background-subtracted spectrogram;
2. null the detected reflector's energy band (its kernel footprint plus
   body extent) out of a working copy of the spectrogram;
3. repeat, up to ``max_targets`` times.

Each round returns the closest *remaining* strong reflector, so the
output is an unordered per-frame candidate set of round-trip distances:
the direct echoes of up to K people, inevitably polluted by residual
multipath. Sorting the candidates into people is deliberately NOT done
here — that requires cross-antenna geometry and temporal continuity and
lives in :mod:`repro.multi.association` / :mod:`repro.multi.tracks`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.contour import ContourResult
from ..kernels.cancellation import successive_cancel


@dataclass(frozen=True)
class MultiContourResult:
    """Per-frame candidate TOF sets for one receive antenna.

    Attributes:
        round_trips_m: candidate round-trip distances, shape
            ``(max_targets, n_frames)``; NaN marks exhausted rounds.
            Row ``k`` is the bottom contour of cancellation round ``k``
            (rows are detection rounds, not person identities).
        peak_powers: power at each detection, same shape.
        rounds: the raw :class:`ContourResult` of every round.
    """

    round_trips_m: np.ndarray
    peak_powers: np.ndarray
    rounds: tuple[ContourResult, ...]

    @property
    def num_frames(self) -> int:
        """Number of frames processed."""
        return self.round_trips_m.shape[1]

    @property
    def max_targets(self) -> int:
        """Cancellation rounds attempted."""
        return self.round_trips_m.shape[0]

    @property
    def detections_per_frame(self) -> np.ndarray:
        """Number of candidates found in each frame, shape ``(n_frames,)``."""
        return np.sum(~np.isnan(self.round_trips_m), axis=0)

    def candidates_at(self, frame: int) -> np.ndarray:
        """Sorted finite candidate round trips of one frame."""
        values = self.round_trips_m[:, frame]
        return np.sort(values[~np.isnan(values)])


def null_band(
    power: np.ndarray,
    round_trips_m: np.ndarray,
    range_bin_m: float,
    halfwidth_m: float,
) -> np.ndarray:
    """Zero each frame's bins within ``halfwidth_m`` of its detection.

    Args:
        power: spectrogram power, shape ``(n_frames, n_bins)``; modified
            in place and returned.
        round_trips_m: per-frame detected round trip (NaN = leave frame).
        range_bin_m: round-trip distance per bin.
        halfwidth_m: half-width of the nulled band, in round-trip meters.

    Returns:
        The same ``power`` array with the bands nulled.
    """
    n_frames, n_bins = power.shape
    detected = ~np.isnan(round_trips_m)
    if not np.any(detected):
        return power
    centers = np.where(detected, round_trips_m, 0.0) / range_bin_m
    half_bins = int(np.ceil(halfwidth_m / range_bin_m))
    cols = np.arange(n_bins)
    band = np.abs(cols[None, :] - centers[:, None]) <= half_bins
    power[band & detected[:, None]] = 0.0
    return power


def check_cancel_args(max_targets: int, null_halfwidth_m: float) -> None:
    """Refuse cancellation parameters the rounds loop cannot run on.

    Without a finite, positive band every round would re-detect the
    same reflector, and the kernel's band width in bins must be an
    integer. Shared by :func:`successive_contours` and the
    :class:`~repro.pipeline.multi.SuccessiveCancel` stage.
    """
    if max_targets < 1:
        raise ValueError("max_targets must be at least 1")
    if not 0.0 < null_halfwidth_m < np.inf:
        raise ValueError("null_halfwidth_m must be finite and positive")


def successive_contours(
    power: np.ndarray,
    range_bin_m: float,
    max_targets: int = 3,
    threshold_db: float = 10.0,
    min_range_m: float = 1.0,
    null_halfwidth_m: float = 0.5,
    relative_threshold_db: float = 36.0,
) -> MultiContourResult:
    """Extract up to ``max_targets`` bottom contours per frame.

    Args:
        power: background-subtracted power, shape ``(n_frames, n_bins)``.
        range_bin_m: round-trip distance per bin.
        max_targets: cancellation rounds (candidate slots) per frame.
        threshold_db: per-round excess over the frame's noise floor.
        min_range_m: ignore bins below this round-trip range.
        null_halfwidth_m: round-trip half-width nulled around every
            detection before the next round. Must cover the reflector's
            kernel leakage plus torso extent; too wide and two people
            closer than the width merge into one candidate (they then
            coast through the merge at the track level).
        relative_threshold_db: per-round dynamic-range gate, as in
            :func:`repro.core.contour.track_bottom_contour` but more
            permissive than the single-person default: a far person can
            legitimately sit ~30 dB below a near person's echo, a gap
            the single-person pipeline never has to admit.

    Returns:
        A :class:`MultiContourResult` with one candidate row per round.
    """
    check_cancel_args(max_targets, null_halfwidth_m)
    # The whole rounds loop is one backend kernel call
    # (:mod:`repro.kernels.cancellation`); the per-round
    # :class:`ContourResult` views are rebuilt from its dense outputs —
    # a round's motion mask is exactly the finite cells of its
    # round-trip row.
    round_trips, peaks, thresholds, n_rounds = successive_cancel(
        np.asarray(power),
        range_bin_m,
        max_targets,
        threshold_db,
        min_range_m,
        null_halfwidth_m,
        relative_threshold_db,
    )
    rounds = tuple(
        ContourResult(
            round_trip_m=round_trips[k],
            peak_power=peaks[k],
            motion_mask=~np.isnan(round_trips[k]),
            threshold_power=thresholds[k],
        )
        for k in range(n_rounds)
    )
    return MultiContourResult(
        round_trips_m=round_trips,
        peak_powers=peaks,
        rounds=rounds,
    )
