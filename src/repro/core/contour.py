"""Bottom-contour tracking: defeating dynamic multipath (Section 4.3).

After background subtraction, everything left involves the moving human —
but some of it bounced off a wall after her body and arrives along a
longer path. "At any point in time, the direct signal reflected from the
human to our device has travelled a shorter path than indirect
reflections", so the pipeline traces "the bottom contour of all strong
reflectors": per frame, the *closest local maximum* that is substantially
above the noise floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels.contour import first_local_max_above, row_median


def noise_floor(power: np.ndarray) -> np.ndarray:
    """Per-frame noise-floor estimate from the median bin power.

    The human occupies a handful of bins; the median across bins is a
    robust floor estimate even with multipath present. Returns shape
    ``(n_frames,)``. The selection runs in :mod:`repro.kernels.contour`
    behind the array-backend seam.
    """
    if power.ndim != 2:
        raise ValueError("power must have shape (n_frames, n_bins)")
    return row_median(power)


@dataclass(frozen=True)
class ContourResult:
    """Output of bottom-contour tracking.

    Attributes:
        round_trip_m: contour range per frame (NaN when no reflector
            exceeded the threshold — e.g. the person stopped moving).
        peak_power: power at the selected contour bin (NaN when silent).
        motion_mask: True where a reflector was found.
        threshold_power: per-frame absolute power threshold used.
    """

    round_trip_m: np.ndarray
    peak_power: np.ndarray
    motion_mask: np.ndarray
    threshold_power: np.ndarray

    @property
    def num_frames(self) -> int:
        """Number of frames processed."""
        return len(self.round_trip_m)

    @property
    def detection_fraction(self) -> float:
        """Fraction of frames with a detected moving reflector."""
        return float(np.mean(self.motion_mask))


def _first_local_max_above(
    power: np.ndarray, threshold: np.ndarray, min_bin: int
) -> np.ndarray:
    """Per-row index of the first local maximum above threshold, or -1.

    The scan itself lives in :mod:`repro.kernels.contour` behind the
    array-backend seam (the numpy implementation is this module's
    original vectorized scan, moved there verbatim); this wrapper is
    kept so every contour consumer keeps one import path.
    """
    return first_local_max_above(power, threshold, min_bin)


def track_bottom_contour(
    power: np.ndarray,
    range_bin_m: float,
    threshold_db: float = 12.0,
    min_range_m: float = 1.0,
    subpixel: bool = True,
    relative_threshold_db: float = 26.0,
) -> ContourResult:
    """Trace the bottom contour of a background-subtracted spectrogram.

    Args:
        power: background-subtracted power, shape ``(n_frames, n_bins)``.
        range_bin_m: round-trip distance per bin.
        threshold_db: required excess over the per-frame noise floor.
        min_range_m: ignore bins below this round-trip range (antenna
            coupling / HPF stopband).
        subpixel: refine each peak with a 3-point parabolic fit, the
            standard trick to beat the FFT bin quantization.
        relative_threshold_db: a peak must also be within this many dB of
            the frame's strongest reflector. This keeps residual window
            sidelobes (-31 dB for Hann) of a strong echo from posing as a
            closer reflector at high SNR, while still admitting a direct
            path that is genuinely weaker than indirect multipath.

    Returns:
        A :class:`ContourResult` with one entry per frame.
    """
    if power.ndim != 2:
        raise ValueError("power must have shape (n_frames, n_bins)")
    n_frames, n_bins = power.shape
    floor = noise_floor(power)
    frame_peak = power.max(axis=1)
    threshold = np.maximum(
        floor * 10.0 ** (threshold_db / 10.0),
        frame_peak * 10.0 ** (-relative_threshold_db / 10.0),
    )
    min_bin = int(np.ceil(min_range_m / range_bin_m))

    contour = np.full(n_frames, np.nan)
    peak_power = np.full(n_frames, np.nan)
    mask = np.zeros(n_frames, dtype=bool)

    first = _first_local_max_above(power, threshold, min_bin)
    rows = np.flatnonzero(first >= 0)
    if rows.size:
        k = first[rows]
        offset = np.zeros(len(rows))
        if subpixel:
            # The scan never selects an edge bin, so k-1/k+1 exist.
            left = power[rows, k - 1]
            mid = power[rows, k]
            right = power[rows, k + 1]
            with np.errstate(invalid="ignore", divide="ignore"):
                denom = left - 2.0 * mid + right
                refined = np.clip(0.5 * (left - right) / denom, -0.5, 0.5)
            offset = np.where(np.abs(denom) > 1e-30, refined, 0.0)
        contour[rows] = (k + offset) * range_bin_m
        peak_power[rows] = power[rows, k]
        mask[rows] = True

    return ContourResult(
        round_trip_m=contour,
        peak_power=peak_power,
        motion_mask=mask,
        threshold_power=threshold,
    )


def dominant_peak_contour(
    power: np.ndarray,
    range_bin_m: float,
    threshold_db: float = 9.0,
    min_range_m: float = 1.0,
) -> ContourResult:
    """Track the *strongest* reflector per frame instead of the closest.

    This is the strawman the paper rejects in Section 4.3: "the point of
    maximum reflection may abruptly shift due to different indirect paths
    in the environment". Kept here (and exposed through
    :mod:`repro.baselines.peak_tracker`) for the ablation benchmark.
    """
    n_frames, n_bins = power.shape
    floor = noise_floor(power)
    threshold = floor * 10.0 ** (threshold_db / 10.0)
    min_bin = int(np.ceil(min_range_m / range_bin_m))

    contour = np.full(n_frames, np.nan)
    peak_power = np.full(n_frames, np.nan)
    mask = np.zeros(n_frames, dtype=bool)
    for i in range(n_frames):
        row = power[i, min_bin:]
        k = int(np.argmax(row)) + min_bin
        if power[i, k] < threshold[i]:
            continue
        contour[i] = k * range_bin_m
        peak_power[i] = power[i, k]
        mask[i] = True
    return ContourResult(
        round_trip_m=contour,
        peak_power=peak_power,
        motion_mask=mask,
        threshold_power=threshold,
    )


def motion_extent(
    power: np.ndarray,
    range_bin_m: float,
    threshold_db: float = 9.0,
    min_range_m: float = 1.0,
) -> np.ndarray:
    """Power-weighted spatial spread of moving reflectors, per frame (m).

    Section 6.1 distinguishes an arm from a whole body by "the size of
    the reflection surface ... the signal variance along the vertical
    [range] axis is significantly larger when the reflector is the entire
    human body". We measure that as the power-weighted standard deviation
    of range across the bins above threshold; frames with no detection
    yield NaN.
    """
    n_frames, n_bins = power.shape
    floor = noise_floor(power)
    threshold = floor * 10.0 ** (threshold_db / 10.0)
    min_bin = int(np.ceil(min_range_m / range_bin_m))
    ranges = np.arange(n_bins) * range_bin_m

    extent = np.full(n_frames, np.nan)
    for i in range(n_frames):
        row = power[i].copy()
        row[:min_bin] = 0.0
        hot = row > threshold[i]
        if not np.any(hot):
            continue
        weights = row[hot]
        locs = ranges[hot]
        mean = float(np.average(locs, weights=weights))
        var = float(np.average((locs - mean) ** 2, weights=weights))
        extent[i] = np.sqrt(var)
    return extent
