"""Constant-velocity Kalman smoothing (paper Section 4.4).

"Because human motion is continuous, the variation in a reflector's
distance to each receive antenna should stay smooth over time. Thus,
WiTrack uses a Kalman Filter to smooth the distance estimates."

The filter runs on the 1D round-trip distance per antenna with a
constant-velocity state ``[distance, velocity]``. Its one
implementation is the backend-dispatched
:func:`repro.kernels.kalman.kalman_tick` bank kernel, which the session
stages and the track bank run online; :func:`smooth_series` runs it
offline over one whole series.
"""

from __future__ import annotations

import numpy as np

from ..kernels.kalman import kalman_tick


def dwna_process_noise(dt_s: float, q: float) -> tuple[float, float, float]:
    """Discrete white-noise-acceleration covariance entries.

    Returns ``(q00, q01, q11)`` of the symmetric 2x2 process-noise
    matrix ``q * [[dt^4/4, dt^3/2], [dt^3/2, dt^2]]``, the process noise
    every :func:`~repro.kernels.kalman.kalman_tick` caller passes
    (:func:`smooth_series`, :class:`repro.pipeline.stages.KalmanSmooth`
    and :class:`repro.multi.tracks.TrackBank`).
    """
    return (
        q * (dt_s**4 / 4.0),
        q * (dt_s**3 / 2.0),
        q * (dt_s**2),
    )


def smooth_series(
    series: np.ndarray,
    dt_s: float,
    process_noise: float = 5e-4,
    measurement_noise: float = 4e-3,
) -> np.ndarray:
    """One-call Kalman smoothing of distance series.

    Runs :func:`~repro.kernels.kalman.kalman_tick` frame by frame on a
    bank of one filter per series: a series' first measurement
    initializes its filter, NaN samples before it stay NaN, and later
    NaN samples become predictions. Series never mix, so a column
    smoothed beside others is bitwise the column smoothed alone.

    Args:
        series: distances, one per frame: shape ``(n_frames,)``, or
            ``(n_frames, n_series)`` for one series per column; NaN =
            no measurement.
        dt_s: frame interval (12.5 ms for the paper's 5-sweep frames).
        process_noise: white-acceleration spectral density; larger
            values trust the measurements more.
        measurement_noise: variance of one distance measurement (m^2).

    Returns:
        The smoothed series, shaped like ``series``.
    """
    if dt_s <= 0:
        raise ValueError("dt_s must be positive")
    if process_noise <= 0 or measurement_noise <= 0:
        raise ValueError("noise parameters must be positive")
    series = np.asarray(series, dtype=np.float64)
    n = series.shape[1] if series.ndim == 2 else 1
    values = series.reshape(len(series), 1, n)
    q = dwna_process_noise(dt_s, process_noise)
    mean, cov = np.zeros((1, n, 2)), np.zeros((1, n, 2, 2))
    live = np.zeros((1, n), dtype=bool)
    scratch: dict = {}
    out = np.empty(values.shape)
    for i, value in enumerate(values):
        out[i] = kalman_tick(
            value, mean, cov, live, dt_s, *q, measurement_noise, 1.0,
            scratch,
        )
    return out.reshape(series.shape)
