"""Tests for bottom-contour tracking (dynamic multipath rejection)."""

import numpy as np
import pytest

from repro.core.contour import (
    dominant_peak_contour,
    motion_extent,
    noise_floor,
    track_bottom_contour,
)

BIN_M = 0.177


def _power_with_peaks(n_frames, n_bins, peaks, floor=1.0, rng=None):
    """Synthetic power map: exponential noise + (bin, power) peaks."""
    rng = rng or np.random.default_rng(0)
    power = rng.exponential(floor, size=(n_frames, n_bins))
    for frame, bin_idx, level in peaks:
        power[frame, bin_idx] = level
        # Make it a genuine local max with shoulders.
        power[frame, bin_idx - 1] = max(power[frame, bin_idx - 1], level / 4)
        power[frame, bin_idx + 1] = max(power[frame, bin_idx + 1], level / 4)
    return power


class TestNoiseFloor:
    def test_matches_median(self):
        rng = np.random.default_rng(0)
        power = rng.exponential(2.0, size=(50, 200))
        floor = noise_floor(power)
        assert floor.shape == (50,)
        assert np.median(floor) == pytest.approx(2.0 * np.log(2), rel=0.1)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            noise_floor(np.ones(10))


class TestBottomContour:
    def test_finds_single_reflector(self):
        peaks = [(i, 40, 1e4) for i in range(20)]
        power = _power_with_peaks(20, 120, peaks)
        result = track_bottom_contour(power, BIN_M)
        assert result.detection_fraction == 1.0
        assert np.allclose(result.round_trip_m, 40 * BIN_M, atol=BIN_M)

    def test_prefers_closer_of_two_reflectors(self):
        """The defining behavior (4.3): direct path beats a *stronger*
        multipath reflection that arrives later."""
        peaks = []
        for i in range(20):
            peaks.append((i, 35, 1e4))   # direct (weaker)
            peaks.append((i, 70, 1e5))   # multipath (10x stronger)
        power = _power_with_peaks(20, 120, peaks)
        result = track_bottom_contour(power, BIN_M)
        assert np.allclose(result.round_trip_m, 35 * BIN_M, atol=BIN_M)

    def test_silence_gives_nan(self):
        power = _power_with_peaks(10, 120, [])
        result = track_bottom_contour(power, BIN_M, threshold_db=15.0)
        assert result.detection_fraction < 0.3
        assert np.all(np.isnan(result.round_trip_m[~result.motion_mask]))

    def test_min_range_skips_coupling_ridge(self):
        peaks = [(i, 2, 1e6) for i in range(10)] + [
            (i, 50, 1e4) for i in range(10)
        ]
        power = _power_with_peaks(10, 120, peaks)
        result = track_bottom_contour(power, BIN_M, min_range_m=1.0)
        assert np.allclose(result.round_trip_m, 50 * BIN_M, atol=BIN_M)

    def test_subpixel_refinement(self):
        """A tone between bins is located to a fraction of a bin."""
        n_bins = 120
        power = np.full((5, n_bins), 1.0)
        true_bin = 40.3
        for k in range(38, 44):
            # Quadratic peak centered at 40.3.
            power[:, k] = 1e4 * np.exp(-((k - true_bin) ** 2) / 2.0)
        result = track_bottom_contour(power, BIN_M)
        assert np.allclose(result.round_trip_m, true_bin * BIN_M, atol=0.2 * BIN_M)

    def test_relative_threshold_blocks_weak_sidelobe(self):
        """A -30 dB artifact below a strong peak must not hijack the
        contour even when it clears the noise floor."""
        power = np.ones((5, 120))
        power[:, 60] = 1e6          # strong reflector
        power[:, 59] = 2.5e5
        power[:, 61] = 2.5e5
        power[:, 40] = 1e3          # -30 dB artifact, 30 dB over floor
        result = track_bottom_contour(
            power, BIN_M, threshold_db=12.0, relative_threshold_db=26.0
        )
        assert np.allclose(result.round_trip_m, 60 * BIN_M, atol=BIN_M)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            track_bottom_contour(np.ones(10), BIN_M)


class TestDominantPeak:
    def test_tracks_strongest_not_closest(self):
        peaks = []
        for i in range(10):
            peaks.append((i, 35, 1e4))
            peaks.append((i, 70, 1e5))
        power = _power_with_peaks(10, 120, peaks)
        result = dominant_peak_contour(power, BIN_M)
        assert np.allclose(result.round_trip_m, 70 * BIN_M, atol=BIN_M)


class TestMotionExtent:
    def test_wide_reflector_has_larger_extent(self):
        rng = np.random.default_rng(1)
        narrow = _power_with_peaks(
            10, 120, [(i, 40, 1e4) for i in range(10)], rng=rng
        )
        wide_peaks = [
            (i, b, 1e4) for i in range(10) for b in range(36, 46, 2)
        ]
        wide = _power_with_peaks(10, 120, wide_peaks, rng=rng)
        e_narrow = np.nanmedian(motion_extent(narrow, BIN_M))
        e_wide = np.nanmedian(motion_extent(wide, BIN_M))
        assert e_wide > 2 * e_narrow

    def test_silence_gives_nan(self):
        power = _power_with_peaks(5, 120, [])
        extent = motion_extent(power, BIN_M, threshold_db=20.0)
        assert np.isnan(extent).all()


class TestTinySpectra:
    def test_fewer_than_three_bins_is_no_detection(self):
        """No interior bin exists, so nothing can be a local maximum."""
        for n_bins in (1, 2):
            result = track_bottom_contour(
                np.ones((3, n_bins)), BIN_M, min_range_m=0.0
            )
            assert not result.motion_mask.any()
            assert np.isnan(result.round_trip_m).all()


class TestNonFiniteCells:
    """A non-finite or huge cell next to a peak raises no warning.

    A corrupt frame must not turn into a warning (an error under a
    strict filter) in the contour tracker: the subpixel fit's
    denominator is computed under the same ``errstate`` as its ratio.
    """

    CELLS = ([1.0, np.inf, np.inf], [np.inf, np.inf, 1.0],
             [np.inf, np.inf, np.inf], [-np.inf, 5.0, np.inf],
             [1.0, np.nan, 5.0], [np.nan, 5.0, np.nan],
             [1e300, 1e300, 1e300], [1.0, 1e300, 1e300],
             [np.inf, 1e300, -np.inf])

    def _rows(self):
        rows = []
        for cells in self.CELLS:
            for at in (20, 21, 22):
                row = np.ones(60)
                row[at + 3] = 50.0  # a finite peak just past the cells
                row[at:at + 3] = cells
                rows.append(row)
        return np.array(rows)

    @pytest.mark.filterwarnings("error")
    def test_track_bottom_contour(self):
        power = self._rows()
        result = track_bottom_contour(power, 0.1, min_range_m=0.5)
        assert result.round_trip_m.shape == (len(power),)
        for row in power:
            track_bottom_contour(row[None], 0.1, min_range_m=0.5)

    @pytest.mark.filterwarnings("error")
    def test_reference_successive_cancel(self):
        from repro.kernels import use_backend
        from repro.kernels.cancellation import successive_cancel

        power = self._rows()
        with use_backend("reference"):
            round_trips, _, _, _ = successive_cancel(
                power, 0.1, 3, 12.0, 0.5, 0.5, 26.0
            )
        assert round_trips.shape == (3, len(power))
