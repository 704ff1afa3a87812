"""Successive echo cancellation: candidate TOF sets per antenna."""

import numpy as np
import pytest

from repro.multi.cancellation import (
    MultiContourResult,
    null_band,
    successive_contours,
)
from repro.pipeline.multi import SuccessiveCancel

BIN_M = 0.2


def two_blob_power(
    n_frames: int = 20,
    n_bins: int = 120,
    near_bin: int = 25,
    far_bin: int = 60,
    near_amp: float = 1000.0,
    far_amp: float = 200.0,
) -> np.ndarray:
    """Noise floor plus two well-separated reflector blobs."""
    rng = np.random.default_rng(0)
    power = rng.uniform(0.5, 1.5, (n_frames, n_bins))
    for center, amp in ((near_bin, near_amp), (far_bin, far_amp)):
        for offset in (-1, 0, 1):
            power[:, center + offset] += amp * (1.0 if offset == 0 else 0.4)
    return power


class TestSuccessiveContours:
    def test_finds_both_reflectors(self):
        power = two_blob_power()
        result = successive_contours(power, BIN_M, max_targets=3)
        assert isinstance(result, MultiContourResult)
        for frame in range(result.num_frames):
            candidates = result.candidates_at(frame)
            assert len(candidates) >= 2
            assert np.any(np.abs(candidates - 25 * BIN_M) < 2 * BIN_M)
            assert np.any(np.abs(candidates - 60 * BIN_M) < 2 * BIN_M)

    def test_first_round_is_bottom_contour(self):
        power = two_blob_power()
        result = successive_contours(power, BIN_M, max_targets=2)
        # Round 0 must pick the *closest* strong reflector, as in the
        # single-person pipeline.
        assert np.all(np.abs(result.round_trips_m[0] - 25 * BIN_M) < 2 * BIN_M)

    def test_max_targets_bounds_candidates(self):
        power = two_blob_power()
        result = successive_contours(power, BIN_M, max_targets=1)
        assert result.max_targets == 1
        assert np.all(result.detections_per_frame <= 1)

    def test_silent_spectrogram_yields_no_candidates(self):
        rng = np.random.default_rng(1)
        power = rng.uniform(0.9, 1.1, (10, 80))
        result = successive_contours(power, BIN_M, max_targets=3)
        assert np.all(result.detections_per_frame == 0)

    def test_input_power_not_mutated(self):
        power = two_blob_power()
        copy = power.copy()
        successive_contours(power, BIN_M, max_targets=3)
        np.testing.assert_array_equal(power, copy)

    def test_rejects_bad_args(self):
        power = two_blob_power()
        with pytest.raises(ValueError):
            successive_contours(power, BIN_M, max_targets=0)
        with pytest.raises(ValueError):
            successive_contours(power, BIN_M, null_halfwidth_m=0.0)
        for halfwidth in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="null_halfwidth_m"):
                successive_contours(power, BIN_M, null_halfwidth_m=halfwidth)

    @pytest.mark.parametrize("halfwidth", [0.0, -0.5, np.nan, np.inf])
    def test_stage_rejects_bad_null_halfwidth(self, halfwidth):
        # The stage reads its half-width straight into the kernel, so it
        # must refuse what successive_contours refuses.
        with pytest.raises(ValueError, match="null_halfwidth_m"):
            SuccessiveCancel(
                BIN_M, max_targets=4, null_halfwidth_m=halfwidth
            )


class TestNullBand:
    def test_nulls_band_around_detection(self):
        power = np.ones((3, 50))
        detections = np.array([np.nan, 10 * BIN_M, 40 * BIN_M])
        null_band(power, detections, BIN_M, halfwidth_m=2 * BIN_M)
        assert np.all(power[0] == 1.0)
        assert np.all(power[1, 8:13] == 0.0)
        assert power[1, 6] == 1.0 and power[1, 14] == 1.0
        assert np.all(power[2, 38:43] == 0.0)

    def test_detections_per_frame_counts(self):
        power = two_blob_power()
        result = successive_contours(power, BIN_M, max_targets=3)
        counts = result.detections_per_frame
        assert counts.shape == (power.shape[0],)
        manual = np.sum(~np.isnan(result.round_trips_m), axis=0)
        np.testing.assert_array_equal(counts, manual)
