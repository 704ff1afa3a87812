"""The assembled per-antenna TOF estimator (paper Section 4 end to end).

Raw sweep spectra in, clean round-trip distances out:

    sweeps -> 5-sweep frames -> background subtraction -> bottom contour
    -> outlier rejection -> gap interpolation -> Kalman smoothing

Since the unified engine landed, :class:`TOFEstimator` is a thin wrapper
around a single-antenna :class:`~repro.pipeline.Pipeline` — the same
stage objects and lockstep tick that drive the tracker and the realtime
app, so offline and online estimates cannot drift apart. The estimator
is *causal* throughout: a relocation is accepted only once confirmed
(never rewritten into the past) and frames before the first detection
stay NaN, exactly as a live tracker would emit them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import PipelineConfig
from .spectrogram import Spectrogram


@dataclass(frozen=True)
class TOFEstimate:
    """De-noised round-trip distance track for one receive antenna.

    Attributes:
        frame_times_s: time of each background-subtracted frame.
        round_trip_m: final clean estimate (the red plot of Fig. 3c).
        raw_contour_m: contour before de-noising (the blue plot).
        motion_mask: frames where motion was actually observed (False
            during interpolated stretches).
        spectrogram: the background-subtracted spectrogram (power input
            to the contour stage), kept for the pointing pipeline and
            for plotting Fig. 3(b).
    """

    frame_times_s: np.ndarray
    round_trip_m: np.ndarray
    raw_contour_m: np.ndarray
    motion_mask: np.ndarray
    spectrogram: Spectrogram

    @property
    def num_frames(self) -> int:
        """Number of output frames."""
        return len(self.frame_times_s)

    @property
    def valid_mask(self) -> np.ndarray:
        """Frames with a finite final estimate."""
        return ~np.isnan(self.round_trip_m)


class TOFEstimator:
    """Section 4's pipeline for a single receive antenna.

    Args:
        sweep_duration_s: FMCW sweep period.
        range_bin_m: round-trip distance per spectrum bin.
        config: pipeline tunables (thresholds, Kalman noise, ...).
    """

    def __init__(
        self,
        sweep_duration_s: float,
        range_bin_m: float,
        config: PipelineConfig | None = None,
    ) -> None:
        if sweep_duration_s <= 0 or range_bin_m <= 0:
            raise ValueError("sweep_duration_s and range_bin_m must be positive")
        self.sweep_duration_s = sweep_duration_s
        self.range_bin_m = range_bin_m
        self.config = config or PipelineConfig()

    @property
    def frame_duration_s(self) -> float:
        """Duration of one averaged frame."""
        return self.config.sweeps_per_frame * self.sweep_duration_s

    def pipeline(self):
        """A fresh single-antenna :class:`~repro.pipeline.Pipeline`."""
        # Deferred import: repro.pipeline composes repro.core primitives.
        from ..config import FMCWConfig, SystemConfig
        from ..pipeline.runner import single_person_pipeline

        cfg = SystemConfig(
            fmcw=FMCWConfig(sweep_duration_s=self.sweep_duration_s),
            pipeline=self.config,
        )
        return single_person_pipeline(cfg, self.range_bin_m, localize=False)

    def estimate(self, sweep_spectra: np.ndarray) -> TOFEstimate:
        """Run the full Section 4 pipeline on one antenna's sweeps.

        Args:
            sweep_spectra: complex spectra, shape ``(n_sweeps, n_bins)``.

        Returns:
            The de-noised TOF track.
        """
        sweep_spectra = np.asarray(sweep_spectra)
        if sweep_spectra.ndim != 2:
            raise ValueError("sweep_spectra must have shape (n_sweeps, n_bins)")
        result = self.pipeline().run_stream(
            sweep_spectra[None, :, :], record_spectra=True
        ).require_frames()
        return TOFEstimate(
            frame_times_s=result.frame_times_s,
            round_trip_m=result.tof_m[:, 0],
            raw_contour_m=result.raw_tof_m[:, 0],
            motion_mask=result.motion[:, 0],
            spectrogram=Spectrogram(
                frames=result.subtracted[:, 0, :],
                frame_times_s=result.frame_times_s,
                range_bin_m=self.range_bin_m,
            ),
        )

    def contour(self, subtracted: Spectrogram):
        """Bottom-contour stage, exposed for the pointing pipeline."""
        from .contour import track_bottom_contour

        return track_bottom_contour(
            subtracted.power,
            subtracted.range_bin_m,
            threshold_db=self.config.contour_threshold_db,
        )
