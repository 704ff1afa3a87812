"""The unrolled 2x2 constant-velocity Kalman tick kernel (§4.4).

One vectorized predict+update over a bank of scalar constant-velocity
filters of any shape, with every 2x2 matrix product unrolled to
elementwise arithmetic, updating the bank in place. It is the
package's one such filter: sessions
(:class:`~repro.pipeline.stages.KalmanSmooth`), tracks
(:class:`~repro.multi.tracks.TrackBank`) and
:func:`~repro.core.kalman.smooth_series` all run it.

* ``reference`` — the nested ``np.where`` formulation over fresh
  temporaries, scattered back into the bank.
* ``numpy`` — the same expression trees written through scratch
  registers: the steady case (every filter live and measured) as one
  unrolled chain, mixed ticks as the spec's merges applied with masked
  copies. Bitwise the spec, NaN propagation included.

NaN inputs advance an initialized filter without a measurement
(prediction, its velocity damped by ``decay``); the first measurement
initializes a filter; NaN before that stays NaN.
"""

from __future__ import annotations

import numpy as np

from .backend import kernel, register


def kalman_tick(
    values: np.ndarray,
    mean: np.ndarray,
    cov: np.ndarray,
    live: np.ndarray,
    dt: float,
    q00: float,
    q01: float,
    q11: float,
    r: float,
    decay: float,
    scratch: dict,
) -> np.ndarray:
    """One Kalman frame for a bank of filters (dispatched).

    Args:
        values: measurements, any shape ``S`` (``(n, a)`` for
            sessions x antennas); NaN = no measurement.
        mean: ``[distance, velocity]`` means, ``S + (2,)``; updated
            in place.
        cov: covariances, ``S + (2, 2)``; updated in place.
        live: which filters are initialized, ``S`` bool; updated in
            place.
        dt: frame interval.
        q00/q01/q11: discrete white-noise-acceleration process noise.
        r: measurement variance.
        decay: per-frame factor on the velocity of a live filter with
            no measurement (1.0: plain constant-velocity prediction).
        scratch: a dict the caller keeps across calls (work buffers).

    Returns:
        The filtered distances, a fresh array of shape ``S``.
    """
    return kernel("kalman_tick")(
        values, mean, cov, live, dt, q00, q01, q11, r, decay, scratch
    )


@register("reference", "kalman_tick")
def _kalman_tick_reference(values, mean, cov, live, dt, q00, q01, q11, r,
                           decay, scratch):
    measured = ~np.isnan(values)

    # Predict (all initialized filters advance, measured or not).
    m0, m1 = mean[..., 0], mean[..., 1]
    c00, c01 = cov[..., 0, 0], cov[..., 0, 1]
    c10, c11 = cov[..., 1, 0], cov[..., 1, 1]
    pm0 = m0 + dt * m1
    a00 = c00 + dt * c10
    a01 = c01 + dt * c11
    p00 = (a00 + a01 * dt) + q00
    p01 = a01 + q01
    p10 = (c10 + c11 * dt) + q01
    p11 = c11 + q11

    # Update (initialized filters with a measurement).
    innovation = values - pm0
    s = p00 + r
    g0 = p00 / s
    g1 = p10 / s
    um0 = pm0 + g0 * innovation
    um1 = m1 + g1 * innovation
    u00 = (1.0 - g0) * p00
    u01 = (1.0 - g0) * p01
    u10 = (-g1) * p00 + p10
    u11 = (-g1) * p01 + p11

    # First measurement initializes; NaN before that stays NaN.
    out = np.where(
        measured,
        np.where(live, um0, values),
        np.where(live, pm0, np.nan),
    )
    new = np.empty_like(mean)
    new[..., 0] = np.where(
        measured, np.where(live, um0, values), np.where(live, pm0, m0)
    )
    new[..., 1] = np.where(
        measured, np.where(live, um1, 0.0), np.where(live, m1 * decay, m1)
    )
    newc = np.empty_like(cov)
    newc[..., 0, 0] = np.where(
        measured, np.where(live, u00, r), np.where(live, p00, c00)
    )
    newc[..., 0, 1] = np.where(
        measured, np.where(live, u01, 0.0), np.where(live, p01, c01)
    )
    newc[..., 1, 0] = np.where(
        measured, np.where(live, u10, 0.0), np.where(live, p10, c10)
    )
    newc[..., 1, 1] = np.where(
        measured, np.where(live, u11, 1.0), np.where(live, p11, c11)
    )
    mean[...] = new
    cov[...] = newc
    live |= measured
    return out


def _registers(scratch: dict, shape: tuple) -> dict:
    """The numpy kernel's work buffers for one bank shape."""
    if scratch.get("shape") != shape:
        scratch.clear()
        scratch.update(
            shape=shape,
            miss=np.empty(shape, dtype=bool),
            ml=np.empty(shape, dtype=bool),
            nml=np.empty(shape, dtype=bool),
            meas=np.empty(shape, dtype=bool),
            t=[np.empty(shape) for _ in range(13)],
        )
    return scratch


@register("numpy", "kalman_tick")
def _kalman_tick_numpy(values, mean, cov, live, dt, q00, q01, q11, r,
                       decay, scratch):
    sc = _registers(scratch, values.shape)
    views = (
        mean[..., 0], mean[..., 1],
        cov[..., 0, 0], cov[..., 0, 1], cov[..., 1, 0], cov[..., 1, 1],
    )
    miss = np.isnan(values, out=sc["miss"])
    all_live = np.count_nonzero(live) == live.size
    if np.count_nonzero(miss) or not all_live:
        return _kalman_mixed(values, sc, miss, live, all_live, views, dt,
                             q00, q01, q11, r, decay)

    # Steady case: every filter initialized and measured. The spec's
    # predict+update, written through registers.
    m0, m1, c00, c01, c10, c11 = views
    ka, kb, kc, kd, ke, kf, kg, kh, kj = sc["t"][:9]
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
    np.subtract(values, ka, out=kg)  # kg = innovation
    np.add(kd, r, out=kh)  # kh = s
    np.divide(kd, kh, out=kb)  # kb = g0
    np.divide(ke, kh, out=kh)  # kh = g1
    out = np.empty_like(values)
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
    # live | measured == live here: ``live`` needs no update.
    return out


def _kalman_mixed(values, sc, miss, live, all_live, views, dt,
                  q00, q01, q11, r, decay):
    """Mixed ticks (NaN frames and/or fresh filters).

    The spec's predict+update over the bank's component ``views`` (same
    expression trees, so identical rounding and NaN propagation), then
    its nested ``where`` selections as in-place masked copies per row
    class (live update / live predict / initialize). With ``all_live``
    (a track bank) every cell is a live update or a live predict, so
    the initialize class and the NaN prefill of the output are skipped.
    """
    m0, m1, c00, c01, c10, c11 = views
    measured = np.logical_not(miss, out=sc["meas"])
    if all_live:
        ml, nml, mnl = measured, miss, None
    else:
        ml = np.logical_and(measured, live, out=sc["ml"])  # live update
        nml = np.logical_and(miss, live, out=sc["nml"])  # live predict
        mnl = np.greater(measured, live, out=miss)  # first measurement
    (pm0, a00, p00, p01, p10, p11, inn,
     g0, g1, um0, u00, u10, u11) = sc["t"]
    # Predict — same grouping as the spec.
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
    # Update — NaN innovations flow through um*, exactly as in the spec,
    # and are never selected by the merges below.
    np.subtract(values, pm0, out=inn)
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
    # Merges: the spec's where(measured, where(live, ...)) nesting, one
    # masked copy per (class, component).
    out = np.empty_like(values)
    if mnl is not None:
        np.copyto(out, np.nan)
        np.copyto(out, values, where=mnl)
        np.copyto(m0, values, where=mnl)
        np.copyto(m1, 0.0, where=mnl)
        np.copyto(c00, r, where=mnl)
        np.copyto(c01, 0.0, where=mnl)
        np.copyto(c10, 0.0, where=mnl)
        np.copyto(c11, 1.0, where=mnl)
        np.logical_or(live, measured, out=live)
    np.copyto(out, pm0, where=nml)
    np.copyto(out, um0, where=ml)
    np.copyto(m0, pm0, where=nml)
    np.copyto(m0, um0, where=ml)
    if decay != 1.0:
        np.multiply(m1, decay, out=m1, where=nml)
    np.copyto(m1, um1, where=ml)
    np.copyto(c00, p00, where=nml)
    np.copyto(c00, u00, where=ml)
    np.copyto(c01, p01, where=nml)
    np.copyto(c01, u01, where=ml)
    np.copyto(c10, p10, where=nml)
    np.copyto(c10, u10, where=ml)
    np.copyto(c11, p11, where=nml)
    np.copyto(c11, u11, where=ml)
    return out
