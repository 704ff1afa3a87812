"""The tick compiler: one cohort's stage chain as a single kernel call.

The staged serving loop walks 5-6 ``process_tick`` Python calls per
cohort per frame, each paying dataclass plumbing, kernel dispatch, and
intermediate allocations that dwarf the actual math on small cohorts.
:func:`compile_tick_plan` pattern-matches a pipeline's stage list
(each stage advertises its kernel-form update via
:meth:`~repro.pipeline.stages.Stage.fuse_spec`) against the
single-person chain — emitting a :class:`TickPlan`: the whole chain
stitched into one backend call over the stages' own SoA state slabs —
or the multi-person chain (successive cancellation + association over
a row-independent solver), emitting a :class:`MultiTickPlan` that runs
the cancellation rounds as one kernel call and every slot's tracks
through one :class:`~repro.multi.tracks.TrackBank` step.

Two fused implementations sit behind the usual backend seam:

* ``numpy`` — the chain inlined into one function over preallocated
  scratch slabs. On the steady path the only per-tick allocations are
  the output arrays that sessions retain (spectrum diff, ToFs, motion
  mask, positions) plus the small subpixel subset temporaries; every
  intermediate reuses plan scratch. The plan also keeps each stage's
  *gathered* state resident between ticks: when the same slot vector
  ticks again and no lifecycle event touched the slabs
  (``state_epoch``), the gathers are skipped — state round-trips
  through the same buffers, bit-identical to regathering.
* ``numba`` — a whole-chain ``@njit`` kernel: one compiled loop over
  (session, antenna) rows covering subtract, |diff|^2, median floor,
  contour scan, outlier gate, hold, Kalman, and the closed-form T
  localization. Compiled lazily; a compile failure warns once and
  permanently falls back to the staged loop (the probe runs before any
  state is touched, so nothing double-advances).

The ``reference`` backend never fuses (``Backend.fuse_ticks`` is
False), keeping it the executable specification: the parity suite pins
fused ≡ staged **bitwise** per backend — outputs and every state slab,
including NaN hold/outlier paths, mid-stream attach/evict, and
snapshot/restore migration across a fused↔staged boundary.

Escape hatch: ``REPRO_FUSED=0`` (read once per process, or
:func:`enable_fusion`\\ (False)) forces the staged loop everywhere.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

from .backend import active_backend, kernel, register

_TRUE = {"1", "true", "yes", "on"}


def _read_env() -> bool:
    return os.environ.get("REPRO_FUSED", "1").strip().lower() in _TRUE


#: ``REPRO_FUSED`` parsed once (re-read by :func:`reset_fusion_override`
#: so tests that monkeypatch the environment can refresh it); per-tick
#: checks must not re-read the environment.
_env_default: bool = _read_env()
#: Programmatic override (None = follow the env var).
_forced: bool | None = None


def fused_enabled() -> bool:
    """Whether tick fusion is requested (``REPRO_FUSED``, default on)."""
    return _env_default if _forced is None else _forced


def enable_fusion(on: bool = True) -> None:
    """Programmatic override of ``REPRO_FUSED`` (benchmarks, tests)."""
    global _forced
    _forced = bool(on)


def reset_fusion_override() -> None:
    """Return control of fusion to the ``REPRO_FUSED`` variable."""
    global _forced, _env_default
    _forced = None
    _env_default = _read_env()


def fusion_active() -> bool:
    """True when ``Pipeline.tick`` should take the compiled-plan path.

    Requires both the user-facing switch (``REPRO_FUSED``) and a
    backend that opts in (``reference`` never does).
    """
    return fused_enabled() and active_backend().fuse_ticks


class FusionUnavailable(RuntimeError):
    """Raised by a fused kernel *before touching any state* when it
    cannot run (e.g. the numba whole-chain kernel failed to compile).
    ``Pipeline.tick`` catches it and continues on the staged loop; the
    plan disables itself so the probe happens once."""


#: The fusable single-person chain, in order (localize optional).
_CHAIN = ("background", "contour", "outlier", "hold", "kalman")

#: The fusable multi-person chain: shared front end, then successive
#: cancellation and the cohort track bank.
_MULTI_CHAIN = ("background", "cancel", "associate")


def compile_tick_plan(stages) -> "TickPlan | MultiTickPlan | None":
    """Compile a stage list into a tick plan, or ``None``.

    The single-person chain compiles to a :class:`TickPlan`, the
    multi-person chain (``SuccessiveCancel`` + ``Associate`` over a
    row-independent solver) to a :class:`MultiTickPlan`. ``None`` means
    at least one stage is unfusable (the warm-started least-squares
    solver, custom stages) or the chain shape matches neither pattern —
    the pipeline then stays on the staged loop.
    """
    kinds = tuple(stage.fuse_spec() for stage in stages)
    if kinds == _CHAIN:
        return TickPlan(
            stages[0], stages[1], stages[2], stages[3], stages[4], None
        )
    if kinds == _CHAIN + ("localize",):
        return TickPlan(
            stages[0], stages[1], stages[2], stages[3], stages[4], stages[5]
        )
    if kinds == _MULTI_CHAIN:
        return MultiTickPlan(stages[0], stages[1], stages[2])
    return None


class TickPlan:
    """One cohort spec's per-tick stage chain, compiled.

    Holds references to the stages' SoA state slabs (fused and staged
    execution share state, so a pipeline can cross the boundary
    mid-stream), the chain's scalar parameters folded once exactly as
    the staged stages fold them per call (same expressions, same
    floats), and per-shape scratch slabs reused across ticks.

    State-residency contract: while the same slot vector ticks fused
    back to back, the *scratch copies* are authoritative and the slabs
    lag (:attr:`_dirty`) — the pipeline calls :meth:`flush` as a read
    barrier before anything reads or mutates the slabs directly
    (``snapshot_session``, staged execution, lifecycle events), so
    observable state is always current at those boundaries.
    :attr:`state_epoch` (bumped by the pipeline on attach/evict/
    restore/reset and on any staged execution) invalidates the resident
    copies, and a changed slot vector flushes and re-gathers.
    """

    #: Set per tick by the owning pipeline when profiling is on (the
    #: single-person fused kernels don't attribute sub-rows; the
    #: multi-person plan does).
    profiler = None

    def __init__(self, bg, contour, gate, hold, kalman, localize) -> None:
        self.bg = bg
        self.gate = gate
        self.hold = hold
        self.kalman = kalman
        self.localize = localize
        # ContourExtract parameters.
        self.range_bin_m = contour.range_bin_m
        self.thr_mul = 10.0 ** (contour.threshold_db / 10.0)
        self.rel_mul = 10.0 ** (-contour.relative_threshold_db / 10.0)
        self.min_bin = int(np.ceil(contour.min_range_m / contour.range_bin_m))
        self.hold_enabled = bool(hold.enabled)
        solver = localize.solver if localize is not None else None
        if solver is not None:
            d = solver.separation_m
            h = solver.below_m
            self.sep_m = d
            self.below_m = h
            self.min_y_sq = solver.min_y_m**2
            self.two_dd = 2.0 * d * d
            self.four_d = 4.0 * d
            self.hh = h * h
            self.two_h = 2.0 * h
            self.range_gate = np.array([d, d, h])
        #: Set by a fused kernel that probed and failed (numba compile
        #: error): the pipeline stops consulting this plan.
        self.disabled = False
        #: Bumped by the owning pipeline whenever stage state changes
        #: outside a fused tick; invalidates the resident gathers.
        self.state_epoch = 0
        #: (slots bytes, epoch) the resident state gathers are valid
        #: for, or None.
        self._hot = None
        #: The slot vector the resident state belongs to (flush target).
        self._hot_slots = None
        #: True while the resident scratch copies are newer than the
        #: slabs; :meth:`flush` writes them back.
        self._dirty = False
        self._scratch: dict | None = None

    def run(self, tick):
        """Advance the whole chain one tick via the active backend."""
        return kernel("fused_tick_single")(self, tick)

    def flush(self) -> None:
        """Write the resident scratch state back to the stage slabs.

        The read barrier of the lazy-writeback contract: the pipeline
        calls this before anything else reads or mutates the slabs
        (snapshot, staged execution, lifecycle events). Idempotent and
        cheap when nothing is dirty.
        """
        if not self._dirty:
            return
        self._dirty = False
        slots = self._hot_slots
        sc = self._scratch
        if slots is None or sc is None:
            return
        self.bg._previous[slots] = sc["prev"]
        g = self.gate
        g._last[slots] = sc["glast"]
        g._since[slots] = sc["gsince"]
        g._pending[slots] = sc["gpending"]
        g._pending_len[slots] = sc["gplen"]
        self.hold._held[slots] = sc["hheld"]
        k = self.kalman
        k._mean[slots] = sc["kmean"]
        k._cov[slots] = sc["kcov"]
        k._initialized[slots] = sc["klive"]

    def discard(self) -> None:
        """Drop the resident state without writing it back.

        For paths that have already replaced the slab contents wholesale
        (``Pipeline.reset``): flushing would resurrect pre-reset state.
        """
        self._dirty = False
        self._hot = None
        self._hot_slots = None

    def _scratch_for(self, n: int, n_rx: int, n_bins: int) -> dict:
        """Per-tick scratch slabs, reallocated only on shape change."""
        sc = self._scratch
        if sc is not None and sc["shape"] == (n, n_rx, n_bins):
            return sc
        rows = n * n_rx
        p = self.gate.confirmation_frames
        shape = (n, n_rx)
        # A shape change only happens on a not-hot tick, and every
        # not-hot tick flushes before reaching here — the old buffers
        # hold nothing the slabs don't.
        self.discard()
        self._scratch = sc = {
            "shape": (n, n_rx, n_bins),
            # Background subtract.
            "prev": np.empty((n, n_rx, n_bins), dtype=np.complex128),
            "power": np.empty((n, n_rx, n_bins)),
            # Contour: median / threshold / scan.
            "msc": np.empty((rows, n_bins)),
            "fpeak": np.empty(rows),
            "thr": np.empty(rows),
            "cand": np.empty((rows, max(n_bins - 2, 0)), dtype=bool),
            "c1": np.empty((rows, max(n_bins - 2, 0)), dtype=bool),
            "found": np.empty(rows, dtype=bool),
            "first": np.empty(rows, dtype=np.intp),
            "sub": np.empty((4, rows)),
            # Outlier gate: resident state + work buffers.
            "glast": np.empty(shape),
            "gsince": np.empty(shape, dtype=np.int64),
            "gpending": np.empty(shape + (p,)),
            "gplen": np.empty(shape, dtype=np.int64),
            "gmiss": np.empty(shape, dtype=bool),
            "gnl": np.empty(shape, dtype=bool),
            "gsmall": np.empty(shape, dtype=bool),
            "gdir": np.empty(shape, dtype=bool),
            "gcand": np.empty(shape, dtype=bool),
            "gacc": np.empty(shape, dtype=bool),
            "gf2": np.empty(shape),
            "gth": np.empty(shape),
            "gout": np.empty(shape),
            "b3": np.empty(shape + (p,), dtype=bool),
            "keep": np.empty(shape + (p,), dtype=bool),
            "f3": np.empty(shape + (p,)),
            "i3": np.empty(shape + (p,), dtype=np.int64),
            "d3": np.empty(shape + (p,), dtype=np.int64),
            "nk": np.empty(shape, dtype=np.int64),
            "i2": np.empty(shape, dtype=np.int64),
            "w_idx": np.arange(p, dtype=np.int64)[None, None, :],
            # Flat base index of each (session, antenna) row's pending
            # lane 0, for put_along_axis-free scatters.
            "gbase3": (np.arange(rows, dtype=np.int64) * p).reshape(
                n, n_rx, 1
            ),
            "gpos": np.empty(shape, dtype=np.int64),
            # Hold: resident state.
            "hheld": np.empty(shape),
            "hfin": np.empty(shape, dtype=bool),
            # Kalman: resident state + temp registers.
            "kmean": np.empty(shape + (2,)),
            "kcov": np.empty(shape + (2, 2)),
            "klive": np.empty(shape, dtype=bool),
            "kmiss": np.empty(shape, dtype=bool),
            "kml": np.empty(shape, dtype=bool),
            "knml": np.empty(shape, dtype=bool),
            "kmeas": np.empty(shape, dtype=bool),
            "kt": [np.empty(shape) for _ in range(13)],
            # Component views into kmean/kcov, precomputed so the
            # steady path doesn't re-slice per tick.
            "kviews": None,  # filled right below
            # Localize.
            "w3": np.empty((n, 3)),
            "sq3": np.empty((n, 3)),
            "l1": np.empty(n),
            "l2": np.empty(n),
            "l3": np.empty(n),
            "vb3": np.empty(shape, dtype=bool),
            "vc3": np.empty((n, 3), dtype=bool),
            "vb": np.empty(n, dtype=bool),
            "v2": np.empty(n, dtype=bool),
        }
        km, kcv = sc["kmean"], sc["kcov"]
        sc["kviews"] = (
            km[..., 0], km[..., 1],
            kcv[..., 0, 0], kcv[..., 0, 1], kcv[..., 1, 0], kcv[..., 1, 1],
        )
        return sc


def _prologue(plan: TickPlan, tick, hot: bool = False):
    """BackgroundSubtract's gather/scatter + priming compaction.

    Shared by the fused backends. Mirrors the staged stage exactly:
    gather each slot's previous frame *before* scattering the current
    one, and drop still-priming rows from the tick (a session's first
    frame only primes its reference row). Returns
    ``(tick, current, previous, scratch)`` — ``current`` is None when
    every row primed. ``hot`` certifies these slots completed a full
    steady tick since the last lifecycle event, so every row is primed
    without checking — and the previous frame is already resident in
    ``sc["prev"]`` (the fused kernel parks each tick's frame there),
    so the slab round-trip is skipped entirely.
    """
    bg = plan.bg
    current = tick.spectrum
    _, n_rx, n_bins = current.shape
    bg._ensure(n_rx, n_bins)
    slots = tick.slots
    if hot:
        return tick, current, plan._scratch["prev"], plan._scratch
    if bg._primed[slots].all():
        sc = plan._scratch_for(len(slots), n_rx, n_bins)
        previous = np.take(bg._previous, slots, axis=0, out=sc["prev"])
        bg._previous[slots] = current
        return tick, current, previous, sc
    primed = bg._primed[slots]
    # Priming tick (some session's first frame): rare, so it takes the
    # allocating path and drops the resident gathers.
    plan._hot = None
    previous = bg._previous[slots]
    bg._previous[slots] = current
    bg._primed[slots] = True
    tick = tick.select(primed)
    if tick.num_rows == 0:
        return tick, None, None, None
    current = tick.spectrum
    previous = previous[primed]
    sc = plan._scratch_for(tick.num_rows, n_rx, n_bins)
    return tick, current, previous, sc


def _gate_fused(plan: TickPlan, v: np.ndarray, slots, sc: dict, hot: bool):
    """The outlier gate, lean: same elementwise update as the staged
    ``OutlierGate.process_tick`` (bit-identical outputs and state,
    including the NaN-padded pending tails), with the stable-argsort
    pack replaced by an equivalent cumsum-addressed scatter and a fast
    path when no row is relocating."""
    g = plan.gate
    last = sc["glast"]
    since = sc["gsince"]
    pending = sc["gpending"]
    plen = sc["gplen"]
    if not hot:
        np.take(g._last, slots, axis=0, out=last)
        np.take(g._since, slots, axis=0, out=since)
        np.take(g._pending, slots, axis=0, out=pending)
        np.take(g._pending_len, slots, axis=0, out=plen)

    missing = np.isnan(v, out=sc["gmiss"])
    no_last = np.isnan(last, out=sc["gnl"])
    f2 = sc["gf2"]
    np.subtract(v, last, out=f2)
    np.abs(f2, out=f2)
    jump = np.multiply(since, g.max_jump_m, out=sc["gth"])
    small = np.less_equal(f2, jump, out=sc["gsmall"])
    # direct = ~missing & (no_last | small);
    # candidate = ~missing & ~no_last & ~small.
    direct = np.logical_or(no_last, small, out=sc["gdir"])
    candidate = np.logical_not(direct, out=sc["gcand"])
    np.greater(direct, missing, out=direct)  # direct & ~missing
    np.greater(candidate, missing, out=candidate)

    if candidate.any():
        # Candidate relocation: keep only pending values that agree
        # with the newest one, append it, accept once enough agree.
        p = g.confirmation_frames
        filled = np.less(sc["w_idx"], plen[:, :, None], out=sc["b3"])
        f3 = sc["f3"]
        np.subtract(pending, v[:, :, None], out=f3)
        np.abs(f3, out=f3)
        keep = np.less_equal(f3, g.agreement_m, out=sc["keep"])
        np.logical_and(filled, keep, out=keep)
        # Stable partition (kept first, in order) via cumsum addressing
        # — the same permutation the staged stable argsort produces.
        # Scatters go through flat indices (row-base + lane) rather than
        # ``put_along_axis``: same writes, none of the wrapper's
        # index-grid construction. Lanes within a row are a permutation
        # of 0..p-1, so the flat positions never collide.
        kc = np.add.accumulate(keep, axis=-1, dtype=np.int64, out=sc["i3"])
        nk = sc["nk"]
        np.copyto(nk, kc[..., -1])
        d3 = np.subtract(sc["w_idx"], kc, out=sc["d3"])
        np.add(d3, nk[:, :, None], out=d3)  # dropped -> after the kept
        np.subtract(kc, 1, out=kc)  # kept -> rank among kept
        np.copyto(d3, kc, where=keep)
        np.add(d3, sc["gbase3"], out=d3)
        f3.reshape(-1)[d3.reshape(-1)] = pending.reshape(-1)  # packed
        i2 = np.minimum(nk, p - 1, out=sc["i2"])
        pos = np.add(i2, sc["gbase3"][..., 0], out=sc["gpos"])
        f3.reshape(-1)[pos.reshape(-1)] = v.reshape(-1)
        np.add(nk, 1, out=i2)
        confirmed = np.greater_equal(i2, p, out=sc["b3"][..., 0])
        np.logical_and(candidate, confirmed, out=confirmed)
        accept = np.logical_or(direct, confirmed, out=sc["gacc"])
        np.copyto(pending, f3, where=candidate[:, :, None])
        np.copyto(plen, i2, where=candidate)
    else:
        # No relocations: pending buffers are untouched this tick (the
        # slab already matches the resident copy), only lengths clear
        # on acceptance.
        accept = direct

    out = sc["gout"]
    np.copyto(out, np.nan)
    np.copyto(out, v, where=accept)
    np.copyto(last, v, where=accept)
    np.add(since, 1, out=since)
    np.copyto(since, 1, where=accept)
    np.copyto(plen, 0, where=accept)
    return out


def _kalman_fused(plan: TickPlan, v: np.ndarray, slots, sc: dict, hot: bool):
    """The Kalman bank, lean: the measured-and-initialized steady case
    unrolled over scratch registers (bit-identical to the dispatched
    kernel's arithmetic); mixed ticks (NaN frames, fresh filters) fall
    back to the staged kernel on the resident state."""
    k = plan.kalman
    mean = sc["kmean"]
    cov = sc["kcov"]
    live = sc["klive"]
    if not hot:
        np.take(k._mean, slots, axis=0, out=mean)
        np.take(k._cov, slots, axis=0, out=cov)
        np.take(k._initialized, slots, axis=0, out=live)
    dt = k.frame_dt_s
    q00, q01, q11 = k._q00, k._q01, k._q11
    r = k.measurement_noise

    miss = np.isnan(v, out=sc["kmiss"])
    if miss.any() or not live.all():
        return _kalman_fused_mixed(plan, v, sc, miss, live, dt,
                                   q00, q01, q11, r)

    # Steady case: every filter initialized and measured. Same unrolled
    # predict+update as the kernel, written through registers.
    m0, m1, c00, c01, c10, c11 = sc["kviews"]
    ka, kb, kc, kd, ke, kf, kg, kh, kj = sc["kt"][:9]
    np.multiply(m1, dt, out=ka)
    np.add(m0, ka, out=ka)  # ka = pm0
    np.multiply(c10, dt, out=kb)
    np.add(c00, kb, out=kb)  # kb = a00
    np.multiply(c11, dt, out=kc)
    np.add(c01, kc, out=kc)  # kc = a01
    np.multiply(kc, dt, out=kd)
    np.add(kb, kd, out=kd)
    np.add(kd, q00, out=kd)  # kd = p00
    np.add(kc, q01, out=kc)  # kc = p01
    np.multiply(c11, dt, out=ke)
    np.add(c10, ke, out=ke)
    np.add(ke, q01, out=ke)  # ke = p10
    np.add(c11, q11, out=kf)  # kf = p11
    np.subtract(v, ka, out=kg)  # kg = innovation
    np.add(kd, r, out=kh)  # kh = s
    np.divide(kd, kh, out=kb)  # kb = g0
    np.divide(ke, kh, out=kh)  # kh = g1
    out = np.empty_like(v)  # retained by sessions: fresh
    np.multiply(kb, kg, out=kj)
    np.add(ka, kj, out=out)  # out = um0
    np.multiply(kh, kg, out=kj)
    np.add(m1, kj, out=m1)  # m1 = um1
    np.copyto(m0, out)  # m0 = um0
    np.subtract(1.0, kb, out=kj)  # kj = 1 - g0
    np.multiply(kj, kd, out=c00)  # u00
    np.multiply(kj, kc, out=c01)  # u01
    np.negative(kh, out=kj)  # kj = -g1
    np.multiply(kj, kd, out=kh)
    np.add(kh, ke, out=c10)  # u10
    np.multiply(kj, kc, out=kh)
    np.add(kh, kf, out=c11)  # u11
    # live | measured == live here: the resident copy is current.
    return out


def _kalman_fused_mixed(plan: TickPlan, v, sc, miss, live,
                        dt, q00, q01, q11, r):
    """Mixed ticks (NaN frames and/or fresh filters), fully resident.

    Computes the staged kernel's vectorized predict+update over the
    resident registers — the same expression trees as
    ``_kalman_tick_numpy``, so identical rounding and NaN propagation —
    then applies its nested ``where`` selections as in-place masked
    copies per row class (live update / live predict / initialize).
    Bit-identical to routing the tick through the staged kernel,
    without its fresh mean/cov allocations or the scratch round trip.
    """
    m0, m1, c00, c01, c10, c11 = sc["kviews"]
    measured = np.logical_not(miss, out=sc["kmeas"])
    ml = np.logical_and(measured, live, out=sc["kml"])  # live update
    nml = np.logical_and(miss, live, out=sc["knml"])  # live predict
    mnl = np.greater(measured, live, out=miss)  # first measurement
    (pm0, a00, p00, p01, p10, p11, inn,
     g0, g1, um0, u00, u10, u11) = sc["kt"]
    # Predict — same grouping as the staged kernel.
    np.multiply(m1, dt, out=pm0)
    np.add(m0, pm0, out=pm0)  # pm0 = m0 + dt*m1
    np.multiply(c10, dt, out=a00)
    np.add(c00, a00, out=a00)  # a00 = c00 + dt*c10
    np.multiply(c11, dt, out=p01)
    np.add(c01, p01, out=p01)  # a01 = c01 + dt*c11
    np.multiply(p01, dt, out=p00)
    np.add(a00, p00, out=p00)
    np.add(p00, q00, out=p00)  # p00 = (a00 + a01*dt) + q00
    np.add(p01, q01, out=p01)  # p01 = a01 + q01
    np.multiply(c11, dt, out=p10)
    np.add(c10, p10, out=p10)
    np.add(p10, q01, out=p10)  # p10 = (c10 + c11*dt) + q01
    np.add(c11, q11, out=p11)  # p11 = c11 + q11
    # Update — NaN innovations flow through um*, exactly as in the
    # staged kernel, and are never selected by the merges below.
    np.subtract(v, pm0, out=inn)
    np.add(p00, r, out=g0)  # s
    np.divide(p10, g0, out=g1)  # g1 = p10 / s
    np.divide(p00, g0, out=g0)  # g0 = p00 / s
    np.multiply(g0, inn, out=um0)
    np.add(pm0, um0, out=um0)  # um0 = pm0 + g0*innovation
    um1 = np.multiply(g1, inn, out=inn)
    np.add(m1, um1, out=um1)  # um1 = m1 + g1*innovation
    omg = np.subtract(1.0, g0, out=a00)  # 1 - g0
    np.multiply(omg, p00, out=u00)  # u00 = (1-g0)*p00
    u01 = np.multiply(omg, p01, out=g0)  # u01 = (1-g0)*p01
    ng1 = np.negative(g1, out=omg)  # -g1
    np.multiply(ng1, p00, out=u10)
    np.add(u10, p10, out=u10)  # u10 = (-g1)*p00 + p10
    np.multiply(ng1, p01, out=u11)
    np.add(u11, p11, out=u11)  # u11 = (-g1)*p01 + p11
    # Merges: the staged kernel's where(measured, where(live, ...))
    # nesting, one masked copy per (class, slab).
    out = np.empty_like(v)  # retained by sessions: fresh
    np.copyto(out, np.nan)
    np.copyto(out, pm0, where=nml)
    np.copyto(out, v, where=mnl)
    np.copyto(out, um0, where=ml)
    np.copyto(m0, pm0, where=nml)
    np.copyto(m0, v, where=mnl)
    np.copyto(m0, um0, where=ml)
    np.copyto(m1, 0.0, where=mnl)
    np.copyto(m1, um1, where=ml)
    np.copyto(c00, p00, where=nml)
    np.copyto(c00, r, where=mnl)
    np.copyto(c00, u00, where=ml)
    np.copyto(c01, p01, where=nml)
    np.copyto(c01, 0.0, where=mnl)
    np.copyto(c01, u01, where=ml)
    np.copyto(c10, p10, where=nml)
    np.copyto(c10, 0.0, where=mnl)
    np.copyto(c10, u10, where=ml)
    np.copyto(c11, p11, where=nml)
    np.copyto(c11, 1.0, where=mnl)
    np.copyto(c11, u11, where=ml)
    np.logical_or(live, measured, out=live)
    return out


@register("numpy", "fused_tick_single")
def _fused_tick_numpy(plan: TickPlan, tick):
    """The whole single-person chain, inlined over scratch slabs.

    Every step reproduces its staged stage's arithmetic operation for
    operation (restructured only in where results land and how merges
    are addressed), so the output arrays and every state slab are
    bit-identical to the staged loop — the parity suite holds this to
    ``np.array_equal``.
    """
    hot = plan._hot is not None and plan._hot == (
        tick.slots.tobytes(),
        plan.state_epoch,
    )
    # Cleared while the chain mutates state; restored once the tick
    # completes, so a mid-chain error can never leave a stale key.
    plan._hot = None
    if not hot:
        # Different slots (or invalidated): park the previous cohort's
        # resident state in the slabs before re-gathering.
        plan.flush()
    tick, current, previous, sc = _prologue(plan, tick, hot)
    if current is None:
        return tick
    n, n_rx, n_bins = current.shape
    slots = tick.slots
    plan.gate._ensure(n_rx)
    plan.hold._ensure(n_rx)
    plan.kalman._ensure(n_rx)

    with np.errstate(invalid="ignore", divide="ignore"):
        # BackgroundSubtract: the diff is an output (sessions retain
        # row views of the spectrum), the power slab is scratch.
        diff = current - previous
        tick.spectrum = diff
        power = sc["power"]
        np.abs(diff, out=power)
        np.multiply(power, power, out=power)
        tick.power = power

        # ContourExtract, flattened to (session*antenna, bins): median
        # noise floor (in-place partition selects the same elements as
        # the staged partition copy), absolute + relative threshold,
        # then the vectorized local-max scan.
        rows = n * n_rx
        p2 = power.reshape(rows, n_bins)
        msc = sc["msc"]
        np.copyto(msc, p2)
        half = n_bins // 2
        if n_bins % 2:
            msc.partition(half, axis=1)
            floor = msc[:, half]
        else:
            msc.partition((half - 1, half), axis=1)
            floor = np.add(msc[:, half - 1], msc[:, half], out=sc["thr"])
            floor /= 2.0
        frame_peak = np.maximum.reduce(p2, axis=1, out=sc["fpeak"])
        threshold = np.multiply(floor, plan.thr_mul, out=sc["thr"])
        np.multiply(frame_peak, plan.rel_mul, out=frame_peak)
        np.maximum(threshold, frame_peak, out=threshold)

        found = sc["found"]
        first = sc["first"]
        if n_bins >= 3:
            center = p2[:, 1:-1]
            cand = np.less(center, threshold[:, None], out=sc["cand"])
            np.logical_not(cand, out=cand)  # ~(center < threshold)
            c1 = np.greater_equal(center, p2[:, :-2], out=sc["c1"])
            np.logical_and(cand, c1, out=cand)
            np.greater_equal(center, p2[:, 2:], out=c1)
            np.logical_and(cand, c1, out=cand)
            lo = max(plan.min_bin, 1)
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
            # Parabolic subpixel refinement on the hit subset, through
            # slices of a dedicated register block.
            m = hit.size
            k = first[hit]
            idx = hit * n_bins
            np.add(idx, k, out=idx)
            p2f = p2.reshape(-1)
            sub = sc["sub"]
            np.subtract(idx, 1, out=idx)
            left = np.take(p2f, idx, out=sub[0, :m])
            np.add(idx, 1, out=idx)
            mid = np.take(p2f, idx, out=sub[1, :m])
            np.add(idx, 1, out=idx)
            right = np.take(p2f, idx, out=sub[2, :m])
            denom = sub[3, :m]  # denom = left - 2.0*mid + right
            np.multiply(mid, 2.0, out=denom)
            np.subtract(left, denom, out=denom)
            np.add(denom, right, out=denom)
            num = np.subtract(left, right, out=sub[1, :m])
            np.multiply(num, 0.5, out=num)
            refined = np.divide(num, denom, out=num)
            np.maximum(refined, -0.5, out=refined)
            np.minimum(refined, 0.5, out=refined)
            np.abs(denom, out=sub[0, :m])
            ok = np.greater(sub[0, :m], 1e-30, out=sc["c1"].reshape(-1)[:m])
            offset = np.where(ok, refined, 0.0)
            np.add(offset, k, out=offset)
            np.multiply(offset, plan.range_bin_m, out=offset)
            contour[hit] = offset
        raw = contour.reshape(n, n_rx)
        tick.raw_tof_m = raw
        tick.motion = found.copy().reshape(n, n_rx)

        # OutlierGate -> HoldInterpolate -> KalmanSmooth over the
        # resident state.
        tof = _gate_fused(plan, raw, slots, sc, hot)
        hold = plan.hold
        finite = np.isfinite(tof, out=sc["hfin"])
        held = sc["hheld"]
        if not hot:
            np.take(hold._held, slots, axis=0, out=held)
        np.copyto(held, tof, where=finite)  # held = where(finite, v, held)
        if plan.hold_enabled:
            tof = held
        tof = _kalman_fused(plan, tof, slots, sc, hot)
        tick.tof_m = tof
        # Lazy writeback: the scratch copies (including this frame as
        # the next tick's background reference) are now authoritative;
        # the pipeline flushes them before any slab-level read.
        np.copyto(sc["prev"], current)
        plan._hot = (slots.tobytes(), plan.state_epoch)
        plan._hot_slots = slots
        plan._dirty = True

        # Localize: the closed-form T solver, inlined (same expression
        # grouping as TGeometrySolver.solve, constants prefolded).
        if plan.localize is not None:
            k1 = tof[:, 0]
            k2 = tof[:, 1]
            k3 = tof[:, 2]
            t3 = tof[:, :3]
            sq3 = np.multiply(t3, t3, out=sc["sq3"])
            w3 = sc["w3"]  # columns: r0, x, z
            l1, l2, l3 = sc["l1"], sc["l2"], sc["l3"]
            np.add(sq3[:, 0], sq3[:, 1], out=l1)
            np.subtract(l1, plan.two_dd, out=l1)
            np.add(k1, k2, out=l2)
            np.multiply(l2, 2.0, out=l2)
            r0 = np.divide(l1, l2, out=w3[:, 0])
            np.subtract(sq3[:, 0], sq3[:, 1], out=l1)
            np.multiply(r0, 2.0, out=l2)
            np.subtract(k2, k1, out=l3)
            np.multiply(l2, l3, out=l2)
            np.add(l1, l2, out=l1)
            np.divide(l1, plan.four_d, out=w3[:, 1])  # x
            np.subtract(sq3[:, 2], plan.hh, out=l1)
            np.multiply(k3, 2.0, out=l2)
            np.multiply(l2, r0, out=l2)
            np.subtract(l1, l2, out=l1)
            np.divide(l1, plan.two_h, out=w3[:, 2])  # z
            np.multiply(w3, w3, out=sq3)  # r0^2, x^2, z^2
            y_sq = np.subtract(sq3[:, 0], sq3[:, 1], out=l1)
            np.subtract(y_sq, sq3[:, 2], out=y_sq)
            y = np.maximum(y_sq, 0.0, out=l2)
            np.sqrt(y, out=y)
            positions = np.empty((n, 3))  # retained: fresh
            positions[:, 0] = w3[:, 1]
            positions[:, 1] = y
            positions[:, 2] = w3[:, 2]
            # valid = isfinite(all antennas) & k1>d & k2>d & k3>h & r0>0
            #         & y_sq > min_y^2
            vb3 = np.isfinite(tof, out=sc["vb3"])
            valid = np.logical_and.reduce(vb3, axis=1, out=sc["vb"])
            vc3 = np.greater(t3, plan.range_gate, out=sc["vc3"])
            v2 = np.logical_and.reduce(vc3, axis=1, out=sc["v2"])
            np.logical_and(valid, v2, out=valid)
            np.greater(r0, 0.0, out=v2)
            np.logical_and(valid, v2, out=valid)
            np.greater(y_sq, plan.min_y_sq, out=v2)
            np.logical_and(valid, v2, out=valid)
            np.logical_not(valid, out=v2)
            positions[v2] = np.nan
            tick.positions = positions
    return tick


class MultiTickPlan:
    """One multi-person cohort spec's stage chain, compiled.

    The multi-person analogue of :class:`TickPlan`: background subtract,
    successive cancellation, and the association track bank as one
    ``fused_tick_multi`` kernel call per cohort tick. Same lazy-
    writeback protocol (:meth:`flush` / :meth:`discard` /
    :attr:`state_epoch` / the hot-key skip), but the only plan-resident
    state is the background stage's previous-frame slab: cancellation is
    stateless, and the association state lives in the
    :class:`~repro.multi.tracks.TrackManager` objects, which the
    cohort :class:`~repro.multi.tracks.TrackBank` scatters back into
    every tick — so snapshot/restore, eviction, and direct manager
    access need no extra barriers beyond the background flush.

    Only the ``numpy`` backend registers ``fused_tick_multi``; under
    the ``numba`` backend the dispatch falls back to it, and the inner
    ``successive_cancel`` call re-dispatches to the JIT row kernel —
    the association stage is Python/numpy on every backend.
    """

    #: Set per tick by the owning pipeline when profiling is on; the
    #: fused kernel then records ``fused_cancel`` / ``fused_associate``
    #: sub-rows next to the pipeline's ``fused_tick`` total.
    profiler = None

    def __init__(self, bg, cancel, assoc) -> None:
        # Deferred: repro.multi imports the kernels package at load time.
        from ..multi.tracks import TrackBank

        self.bg = bg
        self.assoc = assoc
        # SuccessiveCancel parameters, folded once.
        self.range_bin_m = cancel.range_bin_m
        self.max_targets = cancel.max_targets
        self.threshold_db = cancel.threshold_db
        self.min_range_m = cancel.min_range_m
        self.null_halfwidth_m = cancel.null_halfwidth_m
        self.relative_threshold_db = cancel.relative_threshold_db
        self.bank = TrackBank()
        #: See :class:`TickPlan` for the protocol these implement.
        self.disabled = False
        self.state_epoch = 0
        self._hot = None
        self._hot_slots = None
        self._dirty = False
        self._scratch: dict | None = None

    def run(self, tick):
        """Advance the whole chain one tick via the active backend."""
        return kernel("fused_tick_multi")(self, tick)

    def flush(self) -> None:
        """Write the resident background reference back to the slab."""
        if not self._dirty:
            return
        self._dirty = False
        slots = self._hot_slots
        sc = self._scratch
        if slots is None or sc is None:
            return
        self.bg._previous[slots] = sc["prev"]

    def discard(self) -> None:
        """Drop the resident state without writing it back."""
        self._dirty = False
        self._hot = None
        self._hot_slots = None

    def _scratch_for(self, n: int, n_rx: int, n_bins: int) -> dict:
        """Per-tick scratch slabs, reallocated only on shape change."""
        sc = self._scratch
        if sc is not None and sc["shape"] == (n, n_rx, n_bins):
            return sc
        self.discard()
        self._scratch = sc = {
            "shape": (n, n_rx, n_bins),
            "prev": np.empty((n, n_rx, n_bins), dtype=np.complex128),
            "power": np.empty((n, n_rx, n_bins)),
        }
        return sc


@register("numpy", "fused_tick_multi")
def _fused_tick_multi_numpy(plan: MultiTickPlan, tick):
    """The multi-person chain as one call over plan scratch.

    Stage for stage the staged loop's arithmetic: the cancellation
    kernel sees the identical ``(session*antenna, bins)`` row stacking
    (one call, one global rounds break), and the track bank runs the
    staged managers' own claim/filter/lifecycle/birth code batched over
    the ``(slot, track)`` axis — so outputs, manager state, and track
    identities are bit-identical to the staged loop on every backend.
    """
    hot = plan._hot is not None and plan._hot == (
        tick.slots.tobytes(),
        plan.state_epoch,
    )
    plan._hot = None
    if not hot:
        plan.flush()
    tick, current, previous, sc = _prologue(plan, tick, hot)
    if current is None:
        return tick
    n, n_rx, n_bins = current.shape
    profiler = plan.profiler
    with np.errstate(invalid="ignore", divide="ignore"):
        # BackgroundSubtract: the diff is an output (sessions retain
        # row views of the spectrum), the power slab is scratch.
        diff = current - previous
        tick.spectrum = diff
        power = sc["power"]
        np.abs(diff, out=power)
        np.multiply(power, power, out=power)
        tick.power = power

        # SuccessiveCancel: all rounds of all rows, one kernel call.
        t0 = perf_counter() if profiler is not None else 0.0
        round_trips, peaks, _, _ = kernel("successive_cancel")(
            power.reshape(n * n_rx, n_bins),
            plan.range_bin_m,
            plan.max_targets,
            plan.threshold_db,
            plan.min_range_m,
            plan.null_halfwidth_m,
            plan.relative_threshold_db,
        )
        candidates = round_trips.T.reshape(n, n_rx, plan.max_targets)
        powers = peaks.T.reshape(n, n_rx, plan.max_targets)
        tick.candidates_m = candidates
        tick.candidate_powers = powers
        if profiler is not None:
            t1 = perf_counter()
            profiler.record("fused_cancel", t1 - t0, candidates.nbytes)
            t0 = t1

        # Associate: every slot's tracks through one bank step.
        managers = [plan.assoc._managers[s] for s in tick.slots]
        tick.tracks = plan.bank.step(managers, candidates, powers)
        if profiler is not None:
            profiler.record("fused_associate", perf_counter() - t0)

        # Lazy writeback: this frame is the next tick's background
        # reference; the pipeline flushes before any slab-level read.
        np.copyto(sc["prev"], current)
        plan._hot = (tick.slots.tobytes(), plan.state_epoch)
        plan._hot_slots = tick.slots
        plan._dirty = True
    return tick
