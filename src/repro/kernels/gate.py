"""The streaming outlier-gate kernel (§4.4 / §7).

One gate step for a ``(n_sessions, n_antennas)`` bank: a value within
``max_jump_m`` per elapsed frame of the last accepted one passes at
once; a jump is held as a candidate until ``confirmation_frames``
consecutive candidates agree within ``agreement_m``. State is four
arrays updated in place: the last accepted value, frames since it, and
a NaN-padded pending buffer of candidates with its fill count.

* ``reference`` — the elementwise update with the pending buffer
  packed by a stable argsort (agreeing candidates first, in order).
* ``numpy`` — the same update over :data:`GATE_REGISTERS` views,
  packing by cumsum-addressed scatters (the same permutation), and
  skipping the pack when no row holds a candidate. Bitwise the spec,
  pending tails included.
"""

from __future__ import annotations

import numpy as np

from .backend import Registers, kernel, register


def outlier_gate(
    values: np.ndarray,
    last: np.ndarray,
    since: np.ndarray,
    pending: np.ndarray,
    pending_len: np.ndarray,
    max_jump_m: float,
    agreement_m: float,
    scratch: dict,
) -> np.ndarray:
    """Gate one frame of ``(n, a)`` values (dispatched).

    Args:
        values: contour distances ``(n, a)``; NaN = no detection.
        last: last accepted value ``(n, a)`` (NaN: none yet).
        since: frames since that acceptance ``(n, a)`` int64.
        pending: candidate buffer ``(n, a, P)``, ``P`` the number of
            agreeing frames that confirm a jump.
        pending_len: filled candidates per row ``(n, a)`` int64.
        max_jump_m: largest accepted move per frame.
        agreement_m: how close candidates must be to agree.
        scratch: a dict the caller keeps across calls (work buffers).

    The four state arrays are updated in place. Returns the gated
    values, a fresh ``(n, a)`` array (NaN where rejected).
    """
    return kernel("outlier_gate")(
        values, last, since, pending, pending_len, max_jump_m,
        agreement_m, scratch,
    )


@register("reference", "outlier_gate")
def _outlier_gate_reference(values, last, since, pending, pending_len,
                            max_jump_m, agreement_m, scratch):
    p = pending.shape[-1]
    missing = np.isnan(values)
    no_last = np.isnan(last)
    with np.errstate(invalid="ignore"):
        small = np.abs(values - last) <= max_jump_m * since
    direct = ~missing & (no_last | small)
    candidate = ~missing & ~(no_last | small)

    # Candidate relocation: keep only pending values that agree with
    # the newest one, append it, and accept once enough agree.
    filled = np.arange(p) < pending_len[:, :, None]
    with np.errstate(invalid="ignore"):
        keep = filled & (np.abs(pending - values[:, :, None]) <= agreement_m)
    order = np.argsort(~keep, axis=-1, kind="stable")
    packed = np.take_along_axis(pending, order, axis=-1)
    n_keep = np.sum(keep, axis=-1)
    np.put_along_axis(
        packed, np.minimum(n_keep, p - 1)[:, :, None], values[:, :, None],
        axis=-1,
    )
    accept = direct | (candidate & (n_keep + 1 >= p))

    out = np.where(accept, values, np.nan)
    np.copyto(last, values, where=accept)
    since += 1
    since[accept] = 1
    np.copyto(pending, packed, where=candidate[:, :, None])
    np.copyto(pending_len, n_keep + 1, where=candidate)
    pending_len[accept] = 0
    return out


_A, _AP = ("n_rx",), ("n_rx", "confirmation_frames")  # per antenna, lane

#: The numpy kernel's work registers, per session row; ``base`` holds each
#: (session, antenna) row's flat lane-0 index for the packing scatters.
GATE_REGISTERS = Registers(
    _AP, miss=(bool, _A), no_last=(bool, _A), small=(bool, _A),
    direct=(bool, _A), cand=(bool, _A), accept=(bool, _A), f2=(float, _A),
    jump=(float, _A), n_keep=(np.int64, _A), i2=(np.int64, _A),
    pos=(np.int64, _A), base=(np.int64, (*_A, 1)), b3=(bool, _AP),
    keep=(bool, _AP), f3=(float, _AP), i3=(np.int64, _AP), d3=(np.int64, _AP),
)


@register("numpy", "outlier_gate")
def _outlier_gate_numpy(values, last, since, pending, pending_len,
                        max_jump_m, agreement_m, scratch):
    n, a, p = pending.shape
    sc = GATE_REGISTERS.views(scratch, pending.shape)
    if "lanes" not in sc:  # fresh views: fill in the lane addresses
        sc["lanes"] = np.arange(p, dtype=np.int64)[None, None, :]
        np.multiply(np.arange(n * a).reshape(n, a, 1), p, out=sc["base"])
    missing = np.isnan(values, out=sc["miss"])
    no_last = np.isnan(last, out=sc["no_last"])
    f2 = np.subtract(values, last, out=sc["f2"])
    np.abs(f2, out=f2)
    jump = np.multiply(since, max_jump_m, out=sc["jump"])
    small = np.less_equal(f2, jump, out=sc["small"])
    # direct = ~missing & (no_last | small);
    # candidate = ~missing & ~(no_last | small).
    direct = np.logical_or(no_last, small, out=sc["direct"])
    candidate = np.logical_not(direct, out=sc["cand"])
    np.greater(direct, missing, out=direct)  # direct & ~missing
    np.greater(candidate, missing, out=candidate)

    if np.count_nonzero(candidate):
        filled = np.less(sc["lanes"], pending_len[:, :, None], out=sc["b3"])
        f3 = np.subtract(pending, values[:, :, None], out=sc["f3"])
        np.abs(f3, out=f3)
        keep = np.less_equal(f3, agreement_m, out=sc["keep"])
        np.logical_and(filled, keep, out=keep)
        # Stable partition (kept first, in order) by cumsum addressing —
        # the spec's stable-argsort permutation. Lanes within a row are
        # a permutation of 0..P-1, so the flat positions never collide.
        kc = np.add.accumulate(keep, axis=-1, dtype=np.int64, out=sc["i3"])
        n_keep = sc["n_keep"]
        np.copyto(n_keep, kc[..., -1])
        d3 = np.subtract(sc["lanes"], kc, out=sc["d3"])
        np.add(d3, n_keep[:, :, None], out=d3)  # dropped -> after the kept
        np.subtract(kc, 1, out=kc)  # kept -> rank among kept
        np.copyto(d3, kc, where=keep)
        np.add(d3, sc["base"], out=d3)
        f3.reshape(-1)[d3.reshape(-1)] = pending.reshape(-1)  # packed
        i2 = np.minimum(n_keep, p - 1, out=sc["i2"])
        pos = np.add(i2, sc["base"][..., 0], out=sc["pos"])
        f3.reshape(-1)[pos.reshape(-1)] = values.reshape(-1)
        np.add(n_keep, 1, out=i2)
        confirmed = np.greater_equal(i2, p, out=sc["b3"][..., 0])
        np.logical_and(candidate, confirmed, out=confirmed)
        accept = np.logical_or(direct, confirmed, out=sc["accept"])
        np.copyto(pending, f3, where=candidate[:, :, None])
        np.copyto(pending_len, i2, where=candidate)
    else:
        # No candidates: the pending buffers are untouched this tick,
        # only lengths clear on acceptance.
        accept = direct

    out = np.empty_like(values)
    np.copyto(out, np.nan)
    np.copyto(out, values, where=accept)
    np.copyto(last, values, where=accept)
    np.add(since, 1, out=since)
    np.copyto(since, 1, where=accept)
    np.copyto(pending_len, 0, where=accept)
    return out
