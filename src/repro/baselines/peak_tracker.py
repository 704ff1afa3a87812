"""Dominant-peak TOF tracking: the ablation of Section 4.3.

"In practice, this approach [contour tracking] has proved to be more
robust than tracking the dominant frequency in each sweep of the
spectrogram ... the point of maximum reflection may abruptly shift due
to different indirect paths in the environment."

This module swaps the bottom-contour stage for an argmax-of-power stage
while keeping every other pipeline stage identical, so the ablation
benchmark isolates exactly the design choice the paper discusses.
"""

from __future__ import annotations

import numpy as np

from ..config import PipelineConfig, SystemConfig, default_config
from ..core.contour import dominant_peak_contour
from ..core.interpolation import interpolate_gaps
from ..core.kalman import smooth_series
from ..core.outliers import reject_outliers
from ..core.spectrogram import spectrogram_from_sweeps
from ..core.background import background_subtract
from ..core.tof import TOFEstimate
from ..core.tracker import TrackResult, WiTrack
from ..geometry.antennas import AntennaArray


class DominantPeakTOFEstimator:
    """Section 4 pipeline with argmax tracking instead of the contour.

    Args:
        sweep_duration_s: FMCW sweep period.
        range_bin_m: round-trip distance per spectrum bin.
        config: shared pipeline tunables (thresholds, Kalman noise).
    """

    def __init__(
        self,
        sweep_duration_s: float,
        range_bin_m: float,
        config: PipelineConfig | None = None,
    ) -> None:
        self.sweep_duration_s = sweep_duration_s
        self.range_bin_m = range_bin_m
        self.config = config or PipelineConfig()

    def estimate(self, sweep_spectra: np.ndarray) -> TOFEstimate:
        """Run the modified pipeline on one antenna's sweeps."""
        return self.estimate_all(np.asarray(sweep_spectra)[None])[0]

    def estimate_all(self, spectra: np.ndarray) -> tuple[TOFEstimate, ...]:
        """Run the modified pipeline on every antenna's sweeps.

        ``spectra`` is ``(n_rx, n_sweeps, n_bins)``. Every antenna's
        cleaned series is Kalman-smoothed in one :func:`smooth_series`
        call, each bitwise its own smoothing.
        """
        cfg = self.config
        stages = []
        for sweep_spectra in spectra:
            spectrogram = spectrogram_from_sweeps(
                sweep_spectra,
                self.sweep_duration_s,
                self.range_bin_m,
                sweeps_per_frame=cfg.sweeps_per_frame,
            ).crop(cfg.max_range_m)
            subtracted = background_subtract(spectrogram)
            contour = dominant_peak_contour(
                subtracted.power,
                subtracted.range_bin_m,
                threshold_db=cfg.contour_threshold_db,
            )
            cleaned = reject_outliers(
                contour.round_trip_m,
                max_jump_m=cfg.max_jump_m,
                confirmation_frames=cfg.jump_confirmation_frames,
            )
            if cfg.interpolate_when_static:
                cleaned = interpolate_gaps(cleaned)
            stages.append((subtracted, contour, cleaned))
        smoothed = smooth_series(
            np.stack([cleaned for _, _, cleaned in stages], axis=1),
            cfg.sweeps_per_frame * self.sweep_duration_s,
            process_noise=cfg.kalman_process_noise,
            measurement_noise=cfg.kalman_measurement_noise,
        ).T.copy()
        return tuple(
            TOFEstimate(
                frame_times_s=subtracted.frame_times_s,
                round_trip_m=round_trip_m,
                raw_contour_m=contour.round_trip_m,
                motion_mask=contour.motion_mask,
                spectrogram=subtracted,
            )
            for (subtracted, contour, _), round_trip_m in zip(stages, smoothed)
        )


class DominantPeakTracker(WiTrack):
    """WiTrack with the dominant-peak TOF stage (ablation baseline)."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        array: AntennaArray | None = None,
    ) -> None:
        super().__init__(config or default_config(), array=array)

    def track(self, spectra: np.ndarray, range_bin_m: float) -> TrackResult:
        """Track using argmax TOF estimates (see base class docs)."""
        spectra = np.asarray(spectra)
        if spectra.ndim != 3:
            raise ValueError("spectra must have shape (n_rx, n_sweeps, n_bins)")
        estimator = DominantPeakTOFEstimator(
            self.config.fmcw.sweep_duration_s, range_bin_m, self.config.pipeline
        )
        return self.localize_estimates(estimator.estimate_all(spectra))
