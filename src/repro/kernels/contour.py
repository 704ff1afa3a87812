"""Background-power + contour-scan kernels.

Four row-independent kernels behind the backend seam:

* :func:`background_power` — ``|diff|^2`` of the background-subtracted
  complex spectra, written into a caller-provided buffer (the stage
  reuses it across ticks; the per-tick ``np.abs`` temporary is gone).
* :func:`first_local_max_above` — per-row index of the first local
  maximum above threshold: the bottom-contour scan of §4.3, one
  vectorized scan shared by both backends.
* :func:`row_median` — per-row median (the §4.3 noise-floor estimate).
  The numpy implementation selects via ``np.partition`` instead of
  paying ``np.median``'s dispatch overhead on the small per-tick rows;
  identical values for the finite, NaN-free power rows it is fed.
* :func:`contour_tick` — one pipeline tick's bottom contours (§4.3):
  noise floor, threshold, scan and subpixel refinement over every
  (session, antenna) row. The numpy implementation partitions and scans
  in place over :data:`CONTOUR_REGISTERS` views; its spec is
  :func:`~repro.core.contour.track_bottom_contour`.
"""

from __future__ import annotations

import math

import numpy as np

from .backend import Registers, kernel, register


def background_power(diff: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``|diff|**2`` into ``out`` (float64, same shape); returns ``out``."""
    return kernel("background_power")(diff, out)


def first_local_max_above(
    power: np.ndarray, threshold: np.ndarray, min_bin: int
) -> np.ndarray:
    """Per-row index of the first local maximum above threshold, or -1.

    A bin is a local maximum if it is not smaller than both neighbours;
    ``min_bin`` skips the DC/Tx-leakage region. Row-independent: the
    result for a row does not depend on which other rows share the
    call, so frames batch across time, antennas, or serving sessions
    interchangeably.
    """
    return kernel("first_local_max_above")(power, threshold, min_bin)


def row_median(power: np.ndarray) -> np.ndarray:
    """Median of each row of a ``(n_rows, n_bins)`` array.

    Caller contract: rows are finite (background-subtracted power is
    ``|diff|^2 >= 0``); NaN handling is unspecified and backends may
    disagree on NaN rows.
    """
    return kernel("row_median")(power)


def contour_tick(
    power: np.ndarray,
    range_bin_m: float,
    threshold_db: float,
    min_range_m: float,
    relative_threshold_db: float,
    scratch: dict,
) -> tuple[np.ndarray, np.ndarray]:
    """Bottom contour of every row of a ``(n_rows, n_bins)`` power block.

    The parameters are :func:`~repro.core.contour.track_bottom_contour`'s
    (subpixel refinement on). ``scratch`` is a dict the caller keeps
    across calls; the numpy kernel keeps its work buffers in it. Returns
    fresh ``(round_trip_m, motion)`` arrays of shape ``(n_rows,)``.
    """
    return kernel("contour_tick")(
        power, range_bin_m, threshold_db, min_range_m,
        relative_threshold_db, scratch,
    )


# A huge sample's power overflows to inf in its sender's rows only, so
# the overflow warning is ignored.
@register("numpy", "background_power")
def _background_power_numpy(diff, out):
    np.abs(diff, out=out)
    with np.errstate(over="ignore"):
        np.multiply(out, out, out=out)
    return out


@register("reference", "background_power")
def _background_power_reference(diff, out):
    # Original form: allocates the |diff| temporary and the result.
    with np.errstate(over="ignore"):
        return np.abs(diff) ** 2


@register("numpy", "first_local_max_above")
@register("reference", "first_local_max_above")
def _first_local_max_numpy(power, threshold, min_bin):
    n_bins = power.shape[1]
    if n_bins < 3:  # no interior bin can be a local maximum
        return np.full(power.shape[0], -1)
    center = power[:, 1:-1]
    # ``~(x < t)`` rather than ``x >= t`` keeps the scalar code's NaN
    # semantics: a NaN threshold rejects nothing.
    candidate = (
        ~(center < threshold[:, None])
        & (center >= power[:, :-2])
        & (center >= power[:, 2:])
    )
    lo = max(min_bin, 1)
    if lo > 1:
        candidate[:, : lo - 1] = False
    found = candidate.any(axis=1)
    first = np.argmax(candidate, axis=1) + 1
    return np.where(found, first, -1)


@register("numpy", "row_median")
def _row_median_numpy(power):
    half = power.shape[1] // 2
    if power.shape[1] % 2:
        return np.partition(power, half, axis=1)[:, half]
    part = np.partition(power, (half - 1, half), axis=1)
    # (a + b) / 2, matching np.median's even-count mean bit for bit.
    return (part[:, half - 1] + part[:, half]) / 2.0


@register("reference", "row_median")
def _row_median_reference(power):
    return np.median(power, axis=1)


#: The numpy contour kernel's work registers, per power row (the scan
#: masks cover the interior bins).
CONTOUR_REGISTERS = Registers(
    ("n_bins",), msc=(float, ("n_bins",)), cand=(bool, (("n_bins", -2),)),
    c1=(bool, (("n_bins", -2),)), fpeak=(float, ()), thr=(float, ()),
    found=(bool, ()), first=(np.intp, ()), sub=(float, (), 4),
)


@register("numpy", "contour_tick")
def _contour_tick_numpy(power, range_bin_m, threshold_db, min_range_m,
                        relative_threshold_db, scratch):
    # The median floor partitions a scratch copy in place (it selects
    # the elements row_median selects); the scan writes its masks into
    # scratch. Rows holding a NaN get a NaN threshold here as in the
    # spec: the frame peak propagates it, whatever the floor reads.
    rows, n_bins = power.shape
    sc = CONTOUR_REGISTERS.views(scratch, power.shape)
    msc = sc["msc"]
    np.copyto(msc, power)
    half = n_bins // 2
    if n_bins % 2:
        msc.partition(half, axis=1)
        floor = msc[:, half]
    else:
        msc.partition((half - 1, half), axis=1)
        floor = np.add(msc[:, half - 1], msc[:, half], out=sc["thr"])
        floor /= 2.0
    frame_peak = np.maximum.reduce(power, axis=1, out=sc["fpeak"])
    threshold = np.multiply(floor, 10.0 ** (threshold_db / 10.0),
                            out=sc["thr"])
    np.multiply(frame_peak, 10.0 ** (-relative_threshold_db / 10.0),
                out=frame_peak)
    np.maximum(threshold, frame_peak, out=threshold)

    found = sc["found"]
    first = sc["first"]
    if n_bins >= 3:
        center = power[:, 1:-1]
        cand = np.less(center, threshold[:, None], out=sc["cand"])
        np.logical_not(cand, out=cand)  # ~(center < threshold)
        c1 = np.greater_equal(center, power[:, :-2], out=sc["c1"])
        np.logical_and(cand, c1, out=cand)
        np.greater_equal(center, power[:, 2:], out=c1)
        np.logical_and(cand, c1, out=cand)
        lo = max(math.ceil(min_range_m / range_bin_m), 1)
        if lo > 1:
            cand[:, : lo - 1] = False
        np.logical_or.reduce(cand, axis=1, out=found)
        cand.argmax(axis=1, out=first)
        np.add(first, 1, out=first)
    else:  # no interior bin can be a local maximum
        found[:] = False

    contour = np.empty(rows)
    contour.fill(np.nan)
    hit = np.nonzero(found)[0]
    if hit.size:
        # Parabolic subpixel refinement on the hit rows, through slices
        # of one register block.
        m = hit.size
        k = first[hit]
        idx = hit * n_bins
        np.add(idx, k, out=idx)
        flat = power.reshape(-1)
        sub = sc["sub"]
        np.subtract(idx, 1, out=idx)
        left = np.take(flat, idx, out=sub[0][:m])
        np.add(idx, 1, out=idx)
        mid = np.take(flat, idx, out=sub[1][:m])
        np.add(idx, 1, out=idx)
        right = np.take(flat, idx, out=sub[2][:m])
        denom = sub[3][:m]  # left - 2.0*mid + right
        np.multiply(mid, 2.0, out=denom)
        np.subtract(left, denom, out=denom)
        np.add(denom, right, out=denom)
        num = np.subtract(left, right, out=sub[1][:m])
        np.multiply(num, 0.5, out=num)
        refined = np.divide(num, denom, out=num)
        np.maximum(refined, -0.5, out=refined)
        np.minimum(refined, 0.5, out=refined)
        np.abs(denom, out=sub[0][:m])
        ok = np.greater(sub[0][:m], 1e-30, out=sc["c1"].reshape(-1)[:m])
        offset = np.where(ok, refined, 0.0)
        np.add(offset, k, out=offset)
        np.multiply(offset, range_bin_m, out=offset)
        contour[hit] = offset
    return contour, found.copy()


@register("reference", "contour_tick")
def _contour_tick_reference(power, range_bin_m, threshold_db, min_range_m,
                            relative_threshold_db, scratch):
    # Imported here: repro.core.contour imports this module.
    from ..core.contour import track_bottom_contour

    result = track_bottom_contour(
        power,
        range_bin_m,
        threshold_db=threshold_db,
        min_range_m=min_range_m,
        relative_threshold_db=relative_threshold_db,
    )
    return result.round_trip_m, result.motion_mask
