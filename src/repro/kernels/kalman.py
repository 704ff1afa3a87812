"""The unrolled 2x2 constant-velocity Kalman tick kernel.

One vectorized predict+update over a ``(n_sessions, n_antennas)``
bank of scalar constant-velocity filters (§4.4), with every 2x2
matrix product unrolled to elementwise arithmetic. Both backends
share this one implementation.

NaN inputs advance an initialized filter without a measurement
(prediction); the first measurement initializes a filter; NaN before
that stays NaN.
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
):
    """One Kalman frame for a bank of filters (dispatched).

    Args:
        values: measurements ``(n, a)``; NaN = no measurement.
        mean: ``[distance, velocity]`` means, ``(n, a, 2)``.
        cov: covariances, ``(n, a, 2, 2)``.
        live: which filters are initialized, ``(n, a)`` bool.
        dt: frame interval.
        q00/q01/q11: discrete white-noise-acceleration process noise.
        r: measurement variance.

    Returns:
        ``(out, new_mean, new_cov, new_live)`` — fresh arrays; the
        caller scatters them back into its state bank.
    """
    return kernel("kalman_tick")(values, mean, cov, live, dt, q00, q01, q11, r)


@register("numpy", "kalman_tick")
@register("reference", "kalman_tick")
def _kalman_tick_numpy(values, mean, cov, live, dt, q00, q01, q11, r):
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
    new[..., 1] = np.where(measured, np.where(live, um1, 0.0), m1)
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
    return out, new, newc, live | measured
