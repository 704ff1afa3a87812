"""Tests for outlier rejection, interpolation and Kalman smoothing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.interpolation import gap_lengths, interpolate_gaps
from repro.core.kalman import smooth_series
from repro.core.outliers import jump_statistics, reject_outliers
from repro.pipeline import KalmanSmooth
from repro.pipeline.frame import SessionTick


class TestOutlierRejection:
    def test_keeps_smooth_series(self):
        series = np.linspace(8.0, 10.0, 100)
        out = reject_outliers(series, max_jump_m=0.15)
        assert np.allclose(out, series, equal_nan=True)

    def test_rejects_single_spike(self):
        series = np.full(50, 8.0)
        series[20] = 14.0  # 6 m jump in one frame: impossible
        out = reject_outliers(series, max_jump_m=0.15)
        assert np.isnan(out[20])
        assert np.allclose(np.delete(out, 20), 8.0)

    def test_accepts_persistent_relocation(self):
        """If the person genuinely is at the new distance, the track
        must relocate after the confirmation window."""
        series = np.concatenate([np.full(30, 8.0), np.full(30, 12.0)])
        out = reject_outliers(series, max_jump_m=0.15, confirmation_frames=4)
        assert np.allclose(out[-20:], 12.0)

    def test_scattered_outliers_not_confirmed(self):
        rng = np.random.default_rng(0)
        series = np.full(100, 8.0)
        # Five outliers at random positions and random values.
        idx = rng.choice(100, 5, replace=False)
        series[idx] = rng.uniform(12.0, 25.0, 5)
        out = reject_outliers(series, max_jump_m=0.15)
        assert np.all(np.isnan(out[idx]))

    def test_gap_widens_allowance(self):
        series = np.full(40, 8.0)
        series[10:20] = np.nan
        series[20:] = 9.0  # 1 m change over a 10-frame gap: plausible
        out = reject_outliers(series, max_jump_m=0.15)
        assert np.allclose(out[20:], 9.0)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            reject_outliers(np.ones(5), max_jump_m=0.0)
        with pytest.raises(ValueError):
            reject_outliers(np.ones(5), confirmation_frames=0)

    def test_jump_statistics(self):
        stats = jump_statistics(np.array([1.0, 1.1, np.nan, 5.0]))
        assert stats["max_jump_m"] == pytest.approx(3.9)
        assert stats["nan_fraction"] == pytest.approx(0.25)


class TestInterpolation:
    def test_holds_last_value(self):
        series = np.array([1.0, 2.0, np.nan, np.nan, 3.0])
        out = interpolate_gaps(series)
        assert np.allclose(out, [1.0, 2.0, 2.0, 2.0, 3.0])

    def test_backfills_leading_gap(self):
        series = np.array([np.nan, np.nan, 5.0, 6.0])
        out = interpolate_gaps(series)
        assert np.allclose(out, [5.0, 5.0, 5.0, 6.0])

    def test_trailing_gap_held(self):
        series = np.array([1.0, np.nan, np.nan])
        out = interpolate_gaps(series)
        assert np.allclose(out, [1.0, 1.0, 1.0])

    def test_max_gap_limit(self):
        series = np.array([1.0] + [np.nan] * 10 + [2.0])
        out = interpolate_gaps(series, max_gap_frames=5)
        assert np.isnan(out[5])
        assert out[-1] == 2.0

    def test_all_nan_stays_nan(self):
        out = interpolate_gaps(np.full(5, np.nan))
        assert np.all(np.isnan(out))

    def test_gap_lengths(self):
        series = np.array([1.0, np.nan, np.nan, 2.0, np.nan])
        assert gap_lengths(series) == [2, 1]


class TestKalman:
    def test_smooths_noise(self):
        rng = np.random.default_rng(0)
        truth = np.linspace(5.0, 8.0, 400)
        noisy = truth + rng.normal(0, 0.05, 400)
        smoothed = smooth_series(noisy, 0.0125)
        raw_err = np.abs(noisy[50:] - truth[50:]).mean()
        kf_err = np.abs(smoothed[50:] - truth[50:]).mean()
        assert kf_err < raw_err

    def test_tracks_walking_speed_without_lag(self):
        """The filter must follow a person walking at ~2 m/s of
        round-trip change (the calibration bug we fixed)."""
        truth = 5.0 + 2.0 * np.arange(400) * 0.0125
        smoothed = smooth_series(truth, 0.0125)
        assert np.abs(smoothed[100:] - truth[100:]).max() < 0.05

    def test_predicts_through_gaps(self):
        series = np.concatenate(
            [np.linspace(5, 6, 100), np.full(20, np.nan), np.linspace(6.2, 7, 100)]
        )
        smoothed = smooth_series(series, 0.0125)
        # Gap is filled by prediction, continuing the trend.
        assert np.all(np.isfinite(smoothed[100:120]))
        assert 5.9 < smoothed[110] < 6.6

    def test_rejects_bad_params(self):
        series = np.linspace(5.0, 6.0, 10)
        with pytest.raises(ValueError, match="dt_s must be positive"):
            smooth_series(series, 0.0)
        for noise in ({"process_noise": -1.0}, {"measurement_noise": 0.0}):
            with pytest.raises(ValueError, match="noise parameters"):
                smooth_series(series, 0.0125, **noise)

    def test_all_nan_series(self):
        out = smooth_series(np.full(5, np.nan), 0.0125)
        assert np.all(np.isnan(out))

    @given(
        columns=st.integers(1, 40).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.one_of(st.floats(-50.0, 50.0), st.just(float("nan"))),
                    min_size=n,
                    max_size=n,
                ),
                min_size=1,
                max_size=4,
            )
        ),
        q=st.sampled_from([5e-4, 10.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_columns_smooth_as_if_alone(self, columns, q):
        """Series smoothed in one call, one per column, are each bitwise
        the series smoothed alone: NaN gaps, all-NaN columns and
        staggered first measurements included."""
        series = np.array(columns).T
        together = smooth_series(series, 0.0125, process_noise=q)
        assert together.shape == series.shape
        for column, alone in zip(together.T, columns):
            expected = smooth_series(np.array(alone), 0.0125, process_noise=q)
            assert column.tobytes() == expected.tobytes()

    @given(
        values=st.lists(
            st.one_of(
                st.floats(-50.0, 50.0), st.just(float("nan"))
            ),
            min_size=1,
            max_size=60,
        ),
        dt=st.sampled_from([0.0125, 0.05, 1.0]),
        q=st.sampled_from([5e-4, 10.0]),
        r=st.sampled_from([1e-3, 4e-3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_the_session_stage(self, values, dt, q, r):
        """The offline smoother is, bitwise, the session pipeline's
        :class:`KalmanSmooth` stage run over the series as a
        one-session, one-antenna stream."""
        series = np.asarray(values)
        stage = KalmanSmooth(dt, process_noise=q, measurement_noise=r)
        streamed = []
        for i, value in enumerate(series):
            tick = SessionTick(
                slots=np.zeros(1, dtype=np.intp),
                indices=np.array([i]),
                times_s=np.array([i * dt]),
                tof_m=np.array([[value]]),
                dense=True,
            )
            streamed.append(stage.process_tick(tick).tof_m[0, 0])
        got = smooth_series(series, dt, process_noise=q, measurement_noise=r)
        assert got.tobytes() == np.array(streamed).tobytes()
