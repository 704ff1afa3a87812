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
anywhere. The input ``power`` is never mutated: rounds carve their
null bands out of an internal residual copy.

* ``reference`` is the verbatim pre-kernel loop (``track_bottom_contour``
  + ``null_band`` per round), kept as the executable specification.
* ``numpy`` runs the same rounds with the contour math inlined and
  every row processed in lockstep, so a round is a fixed, short list
  of array calls. One sort per round yields each row's median and
  frame peak. The local-maximum scan covers only bins ``[lo,
  n_bins - 2]`` into preallocated scratch. One flat gather reads each
  row's subpixel neighbours, and the null band is a fixed window of
  ``2 * half_bins + 1`` columns of a zero-padded residual, written
  through the same flat indices. Outputs are written under the
  detection mask, so rows without a detection need no separate path.
  Bitwise equal to ``reference``, NaN and inf cells included
  (``tests/test_kernels.py``).
"""

from __future__ import annotations

import numpy as np

from .backend import kernel, register


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
    n_rows, n_bins = power.shape
    round_trips = np.full((max_targets, n_rows), np.nan)
    peaks = np.full((max_targets, n_rows), np.nan)
    thresholds = np.empty((max_targets, n_rows))
    half_bins = int(np.ceil(null_halfwidth_m / range_bin_m))
    lo = max(int(np.ceil(min_range_m / range_bin_m)), 1)
    if lo > n_bins - 2:  # no bin can be a local maximum
        return round_trips, peaks, thresholds[:0], 0
    thr_mul = 10.0 ** (threshold_db / 10.0)
    rel_mul = 10.0 ** (-relative_threshold_db / 10.0)
    # The residual sits in a zero-padded buffer, so each row's subpixel
    # neighbours and null band are one fixed window of columns around
    # its detection bin, read and written through flat indices with no
    # bounds handling. The window spans ``half_bins`` bins either side
    # (at least one, for the neighbours): the subpixel offset is
    # clipped to +-0.5 (or is 0), so no band reaches further.
    reach = max(half_bins, 1)
    width = n_bins + 2 * (reach + 1)
    buf = np.zeros((n_rows, width))
    residual = buf[:, reach + 1 : reach + 1 + n_bins]
    residual[...] = power
    flat = buf.reshape(-1)
    window = np.arange(-reach, reach + 1)
    window_cols = lo + window
    window_cells = (
        np.arange(n_rows)[:, None] * width + (reach + 1) + window_cols
    )
    left = residual[:, lo - 1 : n_bins - 2]
    centre = residual[:, lo : n_bins - 1]
    right = residual[:, lo + 1 :]
    bound = np.empty(centre.shape)
    candidate = np.empty(centre.shape, dtype=bool)
    candidate_at = np.arange(n_rows) * centre.shape[1]
    gate = np.empty(n_rows)
    ordered = np.empty((n_rows, n_bins))
    lower, upper = (n_bins - 1) // 2, n_bins // 2
    n_rounds = 0
    with np.errstate(all="ignore"):
        for k in range(max_targets):
            # The median (np.median's (a + b) / 2 on even rows) and the
            # frame peak from one sort; NaN sorts last, as it does in
            # np.partition. Each round sorts into the same buffer
            # (np.sort's copy-then-sort, without its fresh copy).
            np.copyto(ordered, residual)
            ordered.sort(axis=1)
            floor = ordered[:, upper]
            if lower != upper:
                floor = (ordered[:, lower] + floor) / 2.0
            threshold = thresholds[k]
            np.maximum(
                floor * thr_mul, ordered[:, -1] * rel_mul, out=threshold
            )
            # First bin >= max(left, right, threshold). A NaN neighbour
            # fails it; a NaN threshold, as -inf, gates nothing (the
            # scan's ``~(x < t)`` rule).
            np.fmax(threshold, -np.inf, out=gate)
            np.maximum(left, gate[:, None], out=bound)
            np.maximum(bound, right, out=bound)
            np.greater_equal(centre, bound, out=candidate)
            first = candidate.argmax(axis=1)
            found = candidate.reshape(-1)[candidate_at + first]
            if not found.any():
                break
            n_rounds = k + 1
            # Every row is refined and written under ``found``; a row
            # without a detection keeps NaN and so carves nothing.
            first = first[:, None]
            cols = first + window_cols
            cells = first + window_cells
            near = flat[cells]
            sel = cols[:, reach]
            before, mid, after = near[:, reach - 1 : reach + 2].T
            denom = before - 2.0 * mid + after
            # np.clip's values, without its Python-level wrapper.
            refined = np.minimum(
                np.maximum(0.5 * (before - after) / denom, -0.5), 0.5
            )
            offset = np.where(np.abs(denom) > 1e-30, refined, 0.0)
            np.multiply(
                sel + offset, range_bin_m, out=round_trips[k], where=found
            )
            np.copyto(peaks[k], mid, where=found)
            if k + 1 < max_targets:
                centres = round_trips[k] / range_bin_m
                band = np.abs(cols - centres[:, None]) <= half_bins
                flat[cells[band]] = 0.0
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
