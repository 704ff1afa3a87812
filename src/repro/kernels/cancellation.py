"""Successive-cancellation kernel: all K contour rounds in one call.

The multi-person chain's hot loop (:func:`repro.multi.cancellation.
successive_contours`) traces the bottom contour of a background-
subtracted spectrogram, nulls the detected reflector's energy band,
and repeats up to ``max_targets`` times. The staged implementation
re-entered :func:`~repro.core.contour.track_bottom_contour` per round,
paying a fresh set of result allocations and kernel dispatches every
time; here the whole rounds loop is one backend call over all
(session, antenna) rows of a cohort tick.

Contract (every backend):

    successive_cancel(power, range_bin_m, max_targets, threshold_db,
                      min_range_m, null_halfwidth_m,
                      relative_threshold_db)
        -> (round_trips, peak_powers, thresholds, n_rounds)

with ``round_trips``/``peak_powers`` of shape ``(max_targets, n_rows)``
(NaN marks exhausted rounds), ``thresholds`` of shape ``(n_rounds,
n_rows)`` holding the absolute power threshold each round applied to
each row, and ``n_rounds`` the number of rounds that detected anything
anywhere. The input ``power`` is never mutated — rounds carve their
null bands out of an internal residual copy with one masked scatter
per round instead of per-round array copies.

* ``reference`` is the verbatim pre-kernel loop (``track_bottom_contour``
  + ``null_band`` per round), kept as the executable specification.
* ``numpy`` runs the same rounds loop against preallocated outputs with
  the contour math inlined (partition median, threshold, scan,
  subpixel) — bit-identical to the staged numpy path.
"""

from __future__ import annotations

import numpy as np

from .backend import kernel, register
from .contour import first_local_max_above, row_median


def successive_cancel(
    power: np.ndarray,
    range_bin_m: float,
    max_targets: int,
    threshold_db: float,
    min_range_m: float,
    null_halfwidth_m: float,
    relative_threshold_db: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """All cancellation rounds for ``power`` rows, on the active backend."""
    if power.ndim != 2:
        raise ValueError("power must have shape (n_frames, n_bins)")
    return kernel("successive_cancel")(
        power,
        range_bin_m,
        max_targets,
        threshold_db,
        min_range_m,
        null_halfwidth_m,
        relative_threshold_db,
    )


@register("numpy", "successive_cancel")
def _successive_cancel_numpy(
    power: np.ndarray,
    range_bin_m: float,
    max_targets: int,
    threshold_db: float,
    min_range_m: float,
    null_halfwidth_m: float,
    relative_threshold_db: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    residual = np.array(power, dtype=np.float64, copy=True)
    n_rows, n_bins = residual.shape
    round_trips = np.full((max_targets, n_rows), np.nan)
    peaks = np.full((max_targets, n_rows), np.nan)
    thresholds = np.empty((max_targets, n_rows))
    thr_mul = 10.0 ** (threshold_db / 10.0)
    rel_mul = 10.0 ** (-relative_threshold_db / 10.0)
    min_bin = int(np.ceil(min_range_m / range_bin_m))
    half_bins = int(np.ceil(null_halfwidth_m / range_bin_m))
    cols = np.arange(n_bins)
    n_rounds = 0
    for k in range(max_targets):
        floor = row_median(residual)
        frame_peak = residual.max(axis=1)
        threshold = np.maximum(floor * thr_mul, frame_peak * rel_mul)
        first = first_local_max_above(residual, threshold, min_bin)
        rows = np.flatnonzero(first >= 0)
        if not rows.size:
            break
        thresholds[k] = threshold
        n_rounds = k + 1
        sel = first[rows]
        left = residual[rows, sel - 1]
        mid = residual[rows, sel]
        right = residual[rows, sel + 1]
        denom = left - 2.0 * mid + right
        with np.errstate(invalid="ignore", divide="ignore"):
            refined = np.clip(0.5 * (left - right) / denom, -0.5, 0.5)
        offset = np.where(np.abs(denom) > 1e-30, refined, 0.0)
        round_trips[k, rows] = (sel + offset) * range_bin_m
        peaks[k, rows] = mid
        if k + 1 < max_targets:
            # Null carve: one vectorized masked scatter into the
            # residual (the staged path's null_band, without its
            # per-round mask allocations feeding a fresh result object).
            detected = np.zeros(n_rows, dtype=bool)
            detected[rows] = True
            centers = (
                np.where(detected, round_trips[k], 0.0) / range_bin_m
            )
            band = np.abs(cols[None, :] - centers[:, None]) <= half_bins
            residual[band & detected[:, None]] = 0.0
    return round_trips, peaks, thresholds[:n_rounds], n_rounds


@register("reference", "successive_cancel")
def _successive_cancel_reference(
    power: np.ndarray,
    range_bin_m: float,
    max_targets: int,
    threshold_db: float,
    min_range_m: float,
    null_halfwidth_m: float,
    relative_threshold_db: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    # Deferred: multi.cancellation imports this module at load time.
    from ..core.contour import track_bottom_contour
    from ..multi.cancellation import null_band

    residual = np.array(power, dtype=np.float64, copy=True)
    n_rows = residual.shape[0]
    round_trips = np.full((max_targets, n_rows), np.nan)
    peaks = np.full((max_targets, n_rows), np.nan)
    collected: list[np.ndarray] = []
    for k in range(max_targets):
        result = track_bottom_contour(
            residual,
            range_bin_m,
            threshold_db=threshold_db,
            min_range_m=min_range_m,
            relative_threshold_db=relative_threshold_db,
        )
        if not np.any(result.motion_mask):
            break
        collected.append(result.threshold_power)
        round_trips[k] = result.round_trip_m
        peaks[k] = result.peak_power
        if k + 1 < max_targets:
            null_band(
                residual, result.round_trip_m, range_bin_m, null_halfwidth_m
            )
    thresholds = (
        np.stack(collected) if collected else np.empty((0, n_rows))
    )
    return round_trips, peaks, thresholds, len(collected)
