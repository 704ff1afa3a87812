"""Background-power + contour-scan kernels.

Three row-independent kernels behind the backend seam:

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
"""

from __future__ import annotations

import numpy as np

from .backend import kernel, register


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


@register("numpy", "background_power")
def _background_power_numpy(diff, out):
    np.abs(diff, out=out)
    np.multiply(out, out, out=out)
    return out


@register("reference", "background_power")
def _background_power_reference(diff, out):
    # Original form: allocates the |diff| temporary and the result.
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
