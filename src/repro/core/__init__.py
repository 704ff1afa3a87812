"""WiTrack's core signal-processing pipeline (the paper's contribution).

The processing chain mirrors Sections 4-6 of the paper:

1. :mod:`spectrogram` — per-sweep FFT and 5-sweep frame averaging;
2. :mod:`background` — static-multipath removal by frame subtraction;
3. :mod:`contour` — bottom-contour tracking against dynamic multipath;
4. :mod:`outliers`, :mod:`interpolation`, :mod:`kalman` — de-noising;
5. :mod:`tof` — the assembled per-antenna TOF estimator;
6. :mod:`localize` — ellipsoid-intersection 3D localization;
7. :mod:`tracker` — the public :class:`~repro.core.tracker.WiTrack` API;
8. :mod:`pointing`, :mod:`falls` — the Section 6 capabilities.
"""

from .spectrogram import Spectrogram, average_frames, spectrogram_from_sweeps
from .background import background_subtract
from .contour import ContourResult, noise_floor, track_bottom_contour
from .outliers import reject_outliers
from .interpolation import interpolate_gaps
from .kalman import smooth_series
from .tof import TOFEstimate, TOFEstimator
from .localize import (
    LeastSquaresSolver,
    LocalizationResult,
    TGeometrySolver,
    make_solver,
)
from .tracker import TrackResult, WiTrack
from .regression import huber_regression, theil_sen
from .pointing import PointingEstimator, PointingResult
from .falls import FallDetector, FallVerdict

__all__ = [
    "Spectrogram",
    "average_frames",
    "spectrogram_from_sweeps",
    "background_subtract",
    "ContourResult",
    "noise_floor",
    "track_bottom_contour",
    "reject_outliers",
    "interpolate_gaps",
    "smooth_series",
    "TOFEstimate",
    "TOFEstimator",
    "LeastSquaresSolver",
    "LocalizationResult",
    "TGeometrySolver",
    "make_solver",
    "TrackResult",
    "WiTrack",
    "huber_regression",
    "theil_sen",
    "PointingEstimator",
    "PointingResult",
    "FallDetector",
    "FallVerdict",
]
