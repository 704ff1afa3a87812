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
here verbatim (valid-mask gather + unpadded bincount). ``numpy``
replaces it with a rank-grouped window scatter and evaluates the
window denominators by angle addition against cached per-window
constants — one sin/cos pair per (path, sweep) instead of a
window-sized transcendental pass. Streams never share rows, so each
stream's k-th paths form one group whose (path, sweep) windows lie in
distinct rows. An interior group's ``2h+1``-bin windows are gathered,
added to and stored back whole, one row per (path, sweep), through a
strided window view of the flat output (which must therefore be
C-contiguous); a group with a window over a row edge adds its in-row
cells one by one instead. No dense row x bin accumulator is ever
materialized.

**Sweep tiles on every core.** The numpy kernel evaluates and scatters
the sweep axis in cache-sized tiles, and a tile writes only its own
sweeps' rows, so :func:`repro.kernels.backend.parallel_ranges` hands
each worker thread a contiguous range of tiles: every cell still gets
the same adds in the same order, whatever the worker count (tests pin
1, 2 and 3 workers bitwise equal). Each worker index owns one
persistent scratch slot, and a tile's window values and temporaries
all live in it; what a worker allocates per tile is one group's
index arrays and its window gather at a time, so the memory the
threads hold together barely depends on how they interleave. The
caller fills the window-constant caches, orders the paths and builds
the window view before the split, and the helper threads run only the
private tile loop: never :func:`accumulate_spectra` dispatch, whose
wrappers (profilers, tracers) keep state that is not per thread.
"""

from __future__ import annotations

import numpy as np

from .backend import kernel, parallel_ranges, register


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
            ``row_base[p] + s``. The numpy backend requires it
            C-contiguous (``ValueError`` otherwise).
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
# numpy backend: angle-addition denominators + rank-grouped window scatter.
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

#: Tile-shaped work buffers, one slot per worker index: every full
#: tile a worker runs (in every call, and every chunk of a steady
#: serving cohort) reuses its slot's buffers; a partial final tile uses
#: sliced views of them. One slot per worker bounds the footprint and
#: keeps it the same however the threads interleave; a shape change
#: just reallocates that worker's slot.
_SCRATCH: dict = {}


def _scratch(worker: int, n_paths: int, tile: int, width: int) -> dict:
    key = (n_paths, tile, width)
    slot = _SCRATCH.get(worker)
    if slot is None or slot[0] != key:
        ext = (n_paths, tile, width + 2)
        win = (n_paths, tile, width)
        slot = _SCRATCH[worker] = (key, {
            "den": np.empty(ext),
            "tmp": np.empty(ext),
            "re": np.empty(win),
            "im": np.empty(win),
            "contrib": np.empty(win, dtype=np.complex128),
            "sm": np.empty(win, dtype=np.complex128),
            "mask": np.empty(ext, dtype=bool),
            "f0": np.empty(n_paths * tile),
            "f1": np.empty(n_paths * tile),
            "c0": np.empty(n_paths * tile, dtype=np.complex128),
            "exact": np.empty(n_paths * tile, dtype=bool),
        })
    return slot[1]


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
    """The factored window values for one sweep tile, into scratch.

    Allocates nothing the size of the tile: every (path, sweep) and
    window temporary is a view of the worker's scratch slot. The
    (path, sweep) ones are contiguous, like the fresh arrays of the
    allocating form, so numpy runs the same loops on them (same ops,
    same order — reuse never changes a value).
    """
    # Per-(path, sweep) factor: sin(pi e) exp(-j pi ratio e) coeff.
    m = e.shape[1]
    f0 = sc["f0"][: e.size].reshape(e.shape)
    f1 = sc["f1"][: e.size].reshape(e.shape)
    small = sc["c0"][: e.size].reshape(e.shape)
    np.sin(np.multiply(np.pi, e, out=f0), out=f0)
    np.exp(np.multiply(-1j * np.pi * ratio, e, out=small), out=small)
    np.multiply(f0, small, out=small)
    small *= coeff

    # Denominators n sin(pi (e + w) / n) over the extended window by
    # angle addition — one sin/cos pair per (path, sweep), two fused
    # broadcasts over the window, one shared reciprocal pass.
    arg = np.multiply(np.pi / n, e, out=f1)
    den = np.multiply(
        np.sin(arg, out=f0)[:, :, None], cw, out=sc["den"][:, :m]
    )
    den += np.multiply(
        np.cos(arg, out=f0)[:, :, None], sw, out=sc["tmp"][:, :m]
    )
    np.copyto(den, 1.0, where=np.equal(den, 0.0, out=sc["mask"][:, :m]))
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

    exact = np.less(
        np.abs(e, out=f1), 1e-12,
        out=sc["exact"][: e.size].reshape(e.shape),
    )
    if np.any(exact):
        contrib[exact] = coeff[exact][:, None] * pattern
    return contrib


@register("numpy", "accumulate_spectra")
def _accumulate_numpy(out, frac_bin, coeff, row_base, half, n_samples, hann):
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    n_rows, n_b = out.shape
    n_paths, n_sweeps = frac_bin.shape
    if n_paths == 0 or n_sweeps == 0:
        return
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
        sc = _scratch(0, n_paths, 1, width)
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

    # Rank-grouped window scatter. Only paths of the *same* stream can
    # share a (row, bin) cell (rows already separate sweeps and
    # streams), so paths are grouped by rank within their stream:
    # group k holds each stream's k-th path, whose rows are mutually
    # disjoint. A path's sweep row takes its 2h+1 bins as one window
    # of the flat output, so a group whose windows all lie inside
    # their rows is one gather-add-store of whole windows through a
    # strided window view: its windows never overlap, so every cell
    # gets exactly one add, and colliding paths still land in
    # ascending rank = original within-stream order — bitwise the
    # per-path loop. A group with a window over a row edge scatters
    # its in-row cells one by one instead. The paths are put in group
    # order first, so each group is a slice of every per-path array
    # and its window values are added without being copied.
    #
    # A sweep tile writes only its own sweeps' rows, so the tiles are
    # independent: each worker runs a contiguous range of them in
    # order, through its own scratch slot, and every cell still gets
    # the same adds in the same order.
    groups = _stream_ranks(row_base)
    order = np.concatenate(groups)
    e_all, binc_all, coeff = e_all[order], binc_all[order], coeff[order]
    row_base = row_base[order]
    ends = np.cumsum([len(sel) for sel in groups]).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    windows = None
    if n_b >= width:  # else no window fits inside a row
        windows = np.lib.stride_tricks.as_strided(
            out.reshape(-1),
            shape=(n_rows * n_b - width + 1, width),
            strides=(out.itemsize, out.itemsize),
        )
    tile = max(1, _TILE_CELLS // (n_paths * (width + 2)))

    def run_tiles(worker: int, t0: int, t1: int) -> None:
        sc = _scratch(worker, n_paths, min(tile, n_sweeps), width)
        for s0 in range(t0 * tile, min(t1 * tile, n_sweeps), tile):
            s1 = min(s0 + tile, n_sweeps)
            e = e_all[:, s0:s1]
            binc = binc_all[:, s0:s1]
            contrib = _tile_contrib(
                e, coeff[:, s0:s1], sc, g, rot, pattern, cw, sw, n, ratio,
                hann,
            )
            sweep_idx = np.arange(s0, s1, dtype=np.int64)
            for g0, g1 in spans:
                rows = row_base[g0:g1, None] + sweep_idx
                lo = binc[g0:g1] - half
                if lo.min() >= 0 and lo.max() + width <= n_b:
                    windows[rows * n_b + lo] += contrib[g0:g1]
                else:
                    bins = lo[:, :, None] + (w_win + half)
                    m = (bins >= 0) & (bins < n_b)
                    if m.any():
                        rr = np.broadcast_to(rows[:, :, None], bins.shape)
                        out[rr[m], bins[m]] += contrib[g0:g1][m]

    parallel_ranges(-(-n_sweeps // tile), run_tiles)


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
