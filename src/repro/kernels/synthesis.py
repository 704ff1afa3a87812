r"""Sweep-synthesis scatter kernel: the factored Hann-Dirichlet write.

One kernel serves every synthesis call in the repo: *scatter each
propagation path's leakage footprint into a stack of sweep spectra*.
The output rows are sweeps — possibly many independent streams
(antennas x sessions of a cohort) stacked into one array — and each
path ``p`` writes its window into rows ``row_base[p] + s`` for sweep
``s``. Fusing streams into one call is what makes cohort-fused
synthesis (all N sessions per tick in one kernel pass) a batching
change instead of a math change.

Equivalence invariants the tests pin:

* **Stream fusion is exact.** Paths scatter one at a time, in input
  order, and a cell's contributing paths all belong to one stream —
  so each (row, bin) cell sees the same sequence of adds whether its
  stream is scattered alone or stacked with others. Fused ==
  per-stream bitwise (up to elementwise transcendental passes, which
  numpy evaluates identically at the sizes the serving tier uses).
* **Sweep chunking is exact.** Chunking splits each path's scatter
  into consecutive sweep ranges; per cell it is the same adds in the
  same order, so results are chunk-size invariant.

The ``reference`` implementation is the pre-kernel-tier code moved
here verbatim (valid-mask gather + unpadded bincount); ``numpy``
replaces it with rank-grouped fancy-index accumulation (streams never
share rows and a path's window cells are distinct, so each stream's
k-th paths scatter together in one exact ``out[rows, bins] +=``; no
dense row x bin accumulator is ever materialized) and evaluates the
window denominators by angle addition against cached per-window
constants — one sin/cos pair per (path, sweep) instead of a
window-sized transcendental pass.
"""

from __future__ import annotations

import numpy as np

from .backend import kernel, register


def accumulate_spectra(
    out: np.ndarray,
    frac_bin: np.ndarray,
    coeff: np.ndarray,
    row_base: np.ndarray,
    half: int,
    n_samples: int,
    hann: bool,
) -> None:
    """Scatter every path's leakage footprint into ``out`` (dispatched).

    Args:
        out: complex128 ``(n_rows, n_bins)`` — stacked sweep spectra,
            modified in place. Path ``p``'s sweep ``s`` writes into row
            ``row_base[p] + s``.
        frac_bin: ``(n_paths, n_sweeps)`` fractional bin position.
        coeff: ``(n_paths, n_sweeps)`` complex amplitude (linear
            amplitude x carrier/reflection phase), precomputed by the
            caller so every backend sees identical inputs.
        row_base: ``(n_paths,)`` int64 first output row of each path's
            stream.
        half: kernel halfwidth in bins (window is ``2*half + 1`` wide).
        n_samples: FMCW samples per sweep (the Dirichlet length).
        hann: True for the Hann three-term combination, False for rect.
    """
    kernel("accumulate_spectra")(
        out, frac_bin, coeff, row_base, half, n_samples, hann
    )


# ---------------------------------------------------------------------------
# numpy backend: angle-addition denominators + per-path fancy scatter.
# ---------------------------------------------------------------------------

#: (half, n_samples, hann) -> (g, rot, pattern) window constants.
_WINDOW_CACHE: dict = {}

#: (half, n_samples) -> (n cos(pi w/n), n sin(pi w/n)) over the
#: extended window, for the angle-addition denominator pass.
_DEN_CACHE: dict = {}


def _den_constants(half: int, n_samples: int):
    key = (half, n_samples)
    cached = _DEN_CACHE.get(key)
    if cached is None:
        n = float(n_samples)
        w_ext = np.arange(-(half + 1), half + 2, dtype=np.float64)
        cached = _DEN_CACHE[key] = (
            n * np.cos(np.pi * w_ext / n),
            n * np.sin(np.pi * w_ext / n),
        )
    return cached


def window_constants(half: int, n_samples: int, hann: bool):
    """Per-window constants of the factored kernel (cached).

    ``g[w] = (-1)^w exp(-j pi ratio w)`` is the integer-offset part of
    the factored Dirichlet numerator; ``rot = exp(j pi ratio)`` is the
    constant phase rotation between adjacent Hann terms; ``pattern`` is
    the exact integer-offset limit (1 at w=0 and, for Hann, -0.5 at
    |w|=1).
    """
    key = (half, n_samples, hann)
    cached = _WINDOW_CACHE.get(key)
    if cached is None:
        n = float(n_samples)
        ratio = (n - 1.0) / n
        w = np.arange(-half, half + 1)
        sign = np.where(w % 2 == 0, 1.0, -1.0)
        g = sign * np.exp(-1j * np.pi * ratio * w)
        rot = complex(np.exp(1j * np.pi * ratio))
        if hann:
            pattern = np.where(
                w == 0, 1.0 + 0j, np.where(np.abs(w) == 1, -0.5 + 0j, 0j)
            )
        else:
            pattern = (w == 0).astype(np.complex128)
        cached = _WINDOW_CACHE[key] = (g, rot, np.ascontiguousarray(pattern))
    return cached


#: Sweep-tile size target, in (path, sweep, window) cells. The window
#: pipeline makes ~15 elementwise passes over its temporaries; tiling
#: the sweep axis keeps them cache-resident so those passes run at
#: cache bandwidth instead of DRAM bandwidth. Sweep chunking is exact
#: (see the module docstring), so tiling never changes a value.
_TILE_CELLS = 1 << 16

#: Single-slot tile-shaped work-buffer cache: every full tile of a
#: call (and of a steady serving cohort's every chunk) reuses the same
#: buffers; a partial final tile uses sliced views of them. One slot
#: bounds the footprint; a shape change just reallocates.
_SCRATCH: list = [None, None]


def _scratch(n_paths: int, tile: int, width: int) -> dict:
    key = (n_paths, tile, width)
    if _SCRATCH[0] != key:
        ext = (n_paths, tile, width + 2)
        win = (n_paths, tile, width)
        _SCRATCH[0] = key
        _SCRATCH[1] = {
            "den": np.empty(ext),
            "tmp": np.empty(ext),
            "re": np.empty(win),
            "im": np.empty(win),
            "contrib": np.empty(win, dtype=np.complex128),
            "sm": np.empty(win, dtype=np.complex128),
        }
    return _SCRATCH[1]


def _stream_ranks(row_base: np.ndarray) -> list:
    """Paths grouped by rank within their stream (see scatter note)."""
    order = np.argsort(row_base, kind="stable")
    rb_sorted = row_base[order]
    new_run = np.empty(len(order), dtype=bool)
    new_run[0] = True
    np.not_equal(rb_sorted[1:], rb_sorted[:-1], out=new_run[1:])
    run_start = np.flatnonzero(new_run)
    rank = np.arange(len(order), dtype=np.int64)
    rank -= run_start[np.cumsum(new_run) - 1]
    return [order[rank == k] for k in range(int(rank.max()) + 1)]


def _tile_contrib(e, coeff, sc, g, rot, pattern, cw, sw, n, ratio, hann):
    """The factored window values for one sweep tile, into scratch."""
    # Per-(path, sweep) factor: sin(pi e) exp(-j pi ratio e) coeff.
    small = np.sin(np.pi * e) * np.exp(-1j * np.pi * ratio * e)
    small *= coeff

    # Denominators n sin(pi (e + w) / n) over the extended window by
    # angle addition — one sin/cos pair per (path, sweep), two fused
    # broadcasts over the window, one shared reciprocal pass, all
    # through the scratch buffers (same ops, same order as the
    # allocating form — reuse never changes a value).
    m = e.shape[1]
    arg = (np.pi / n) * e
    den = np.multiply(np.sin(arg)[:, :, None], cw, out=sc["den"][:, :m])
    den += np.multiply(np.cos(arg)[:, :, None], sw, out=sc["tmp"][:, :m])
    den[den == 0.0] = 1.0
    r = np.divide(1.0, den, out=den)
    contrib = sc["contrib"][:, :m]
    if hann:
        cr = 0.5 * rot.real
        ci = 0.5 * rot.imag
        r0, r1, r2 = r[:, :, :-2], r[:, :, 1:-1], r[:, :, 2:]
        re = np.add(r0, r2, out=sc["re"][:, :m])
        re *= cr
        re += r1
        contrib.real = re
        im = np.subtract(r0, r2, out=sc["im"][:, :m])
        im *= ci
        contrib.imag = im
    else:
        contrib.real = r[:, :, 1:-1]
        contrib.imag = 0.0
    contrib *= np.multiply(small[:, :, None], g, out=sc["sm"][:, :m])

    exact = np.abs(e) < 1e-12
    if np.any(exact):
        contrib[exact] = coeff[exact][:, None] * pattern
    return contrib


@register("numpy", "accumulate_spectra")
def _accumulate_numpy(out, frac_bin, coeff, row_base, half, n_samples, hann):
    n_rows, n_b = out.shape
    n_paths, n_sweeps = frac_bin.shape
    n = float(n_samples)
    ratio = (n - 1.0) / n
    width = 2 * half + 1
    g, rot, pattern = window_constants(half, n_samples, hann)
    cw, sw = _den_constants(half, n_samples)
    w_win = np.arange(-half, half + 1, dtype=np.int64)

    # Clip far-out-of-range centers; a clipped center's whole window
    # falls outside [0, n_b) so its (garbage-phase) cells are dropped
    # by the scatter, and every unclipped path keeps |e| <= 0.5.
    center = np.rint(frac_bin)
    np.clip(center, -(half + 1.0), float(n_b + half), out=center)
    e_all = center - frac_bin
    binc_all = center.astype(np.int64)

    if n_sweeps == 1:
        # Template case (many static paths, one sweep): a padded
        # bincount touches few rows and beats a per-path loop. The
        # branch depends only on n_sweeps, which fusion preserves, so
        # fused and per-stream calls always scatter the same way.
        sc = _scratch(n_paths, 1, width)
        contrib = _tile_contrib(
            e_all, coeff, sc, g, rot, pattern, cw, sw, n, ratio, hann
        )
        pad = width
        n_pad = n_b + 2 * pad
        flat = (
            row_base[:, None] * n_pad + (binc_all[:, 0, None] + w_win + pad)
        ).ravel()
        total = n_rows * n_pad
        acc = np.bincount(
            flat, weights=contrib.real.ravel(), minlength=total
        )
        out.real += acc.reshape(n_rows, n_pad)[:, pad : pad + n_b]
        acc = np.bincount(
            flat, weights=contrib.imag.ravel(), minlength=total
        )
        out.imag += acc.reshape(n_rows, n_pad)[:, pad : pad + n_b]
        return

    # Rank-grouped scatter: a fancy-index add is exact only when its
    # cells are distinct, and only paths of the *same* stream can share
    # a (row, bin) cell (rows already separate sweeps and streams). So
    # paths are grouped by rank within their stream — group k holds
    # each stream's k-th path, whose row ranges are mutually disjoint —
    # and each group scatters in one fancy-index add: max-paths-per-
    # stream dispatches instead of one per path. A cell's colliding
    # paths still land in ascending rank = original within-stream
    # order, so the result is bitwise the per-path loop's.
    groups = _stream_ranks(row_base)
    tile = max(1, _TILE_CELLS // max(n_paths * (width + 2), 1))
    sc = _scratch(n_paths, min(tile, n_sweeps), width)
    for s0 in range(0, n_sweeps, tile):
        s1 = min(s0 + tile, n_sweeps)
        e = e_all[:, s0:s1]
        binc = binc_all[:, s0:s1]
        contrib = _tile_contrib(
            e, coeff[:, s0:s1], sc, g, rot, pattern, cw, sw, n, ratio, hann
        )
        sweep_idx = np.arange(s0, s1, dtype=np.int64)[:, None]
        for sel in groups:
            rows = row_base[sel][:, None, None] + sweep_idx
            bins = binc[sel][:, :, None] + w_win
            if bins[..., 0].min() >= 0 and bins[..., -1].max() < n_b:
                out[rows, bins] += contrib[sel]
            else:
                m = (bins >= 0) & (bins < n_b)
                if m.any():
                    rr = np.broadcast_to(rows, bins.shape)
                    out[rr[m], bins[m]] += contrib[sel][m]


# ---------------------------------------------------------------------------
# reference backend: the pre-kernel-tier implementation, verbatim
# (valid-mask gather + unpadded bincount), generalized only by row_base.
# ---------------------------------------------------------------------------


def reference_fast_kernel(
    e: np.ndarray, window: np.ndarray, n_samples: int, hann: bool
) -> np.ndarray:
    """The original factored leakage kernel (executable specification)."""
    n = n_samples
    ratio = (n - 1.0) / n
    sin_pe = np.sin(np.pi * e)
    phase_e = np.exp(-1j * np.pi * ratio * e)
    sign = np.where(window % 2 == 0, 1.0, -1.0)
    phase_w = np.exp(-1j * np.pi * ratio * window)
    s_c = (sin_pe * phase_e)[:, :, None] * (sign * phase_w)[None, None, :]
    w_ext = np.arange(window[0] - 1, window[-1] + 2)
    den_ext = n * np.sin(np.pi * (w_ext[None, None, :] + e[:, :, None]) / n)
    den_ext = np.where(den_ext == 0.0, 1.0, den_ext)
    inv0 = 1.0 / den_ext[:, :, 1:-1]
    if not hann:
        kernel_v = s_c * inv0
    else:
        rot = np.exp(1j * np.pi * ratio)
        kernel_v = s_c * (
            inv0
            + 0.5 * rot / den_ext[:, :, :-2]
            + 0.5 * np.conj(rot) / den_ext[:, :, 2:]
        )
    exact = np.abs(e) < 1e-12
    if np.any(exact):
        if not hann:
            pattern = (window == 0).astype(np.complex128)
        else:
            pattern = np.where(
                window == 0,
                1.0 + 0j,
                np.where(np.abs(window) == 1, -0.5 + 0j, 0j),
            )
        kernel_v[exact] = pattern
    return kernel_v


@register("reference", "accumulate_spectra")
def _accumulate_reference(
    out, frac_bin, coeff, row_base, half, n_samples, hann
):
    n_rows, n_b = out.shape
    window = np.arange(-half, half + 1)
    center = np.round(frac_bin).astype(np.int64)
    bins = center[:, :, None] + window[None, None, :]
    kernel_v = reference_fast_kernel(
        center - frac_bin, window, n_samples, hann
    )
    contrib = coeff[:, :, None] * kernel_v
    n_sweeps = frac_bin.shape[1]
    rows = np.broadcast_to(
        (row_base[:, None] + np.arange(n_sweeps, dtype=np.int64))[:, :, None],
        bins.shape,
    )
    valid = (bins >= 0) & (bins < n_b)
    flat = rows[valid] * n_b + bins[valid]
    values = contrib[valid]
    total = n_rows * n_b
    acc = np.bincount(
        flat, weights=values.real, minlength=total
    ).astype(np.complex128)
    acc += 1j * np.bincount(flat, weights=values.imag, minlength=total)
    out += acc.reshape(n_rows, n_b)
