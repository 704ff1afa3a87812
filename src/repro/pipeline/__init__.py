"""Unified streaming pipeline engine: one stage graph for every tracker.

The paper's processing chain (background subtraction → contour tracking
→ outlier rejection → interpolation → Kalman smoothing → 3D
localization) used to exist three times with drifting semantics: offline
in ``WiTrack``, online in the realtime app, and again in the
multi-person tracker. This package is the single implementation all of
them now compose:

* :mod:`frame` — the :class:`Frame`/:class:`SessionTick` records
  stages communicate through;
* :mod:`stages` — the stateful single-person stages;
* :mod:`multi` — the multi-person stages (successive cancellation and
  track association);
* :mod:`outputs` — :class:`OutputColumns`, the one accumulator that
  keeps a stream's emitted rows (``run_stream`` and serving sessions);
* :mod:`runner` — the :class:`Pipeline` runner plus the stage-graph
  factories.

There is one execution mode: the session-lockstep ``Pipeline.tick``.
Offline tracking (``run_stream``), the realtime apps, and the serving
engine (:mod:`repro.serve`, N sessions per tick) all drive it. Stage
state is structure-of-arrays over a session axis (``Stage.attach`` /
``Stage.evict``), so one pipeline instance advances any number of
independent sessions without a second code path.
"""

from .frame import Frame, SessionTick
from .outputs import OutputColumns, RowBatch
from .runner import (
    LatencyReport,
    Pipeline,
    PipelineResult,
    multi_person_pipeline,
    single_person_pipeline,
)
from .stages import (
    BackgroundSubtract,
    ContourExtract,
    HoldInterpolate,
    KalmanSmooth,
    Localize,
    OutlierGate,
    Stage,
)
from .multi import Associate, SuccessiveCancel

__all__ = [
    "Frame",
    "SessionTick",
    "OutputColumns",
    "RowBatch",
    "LatencyReport",
    "Pipeline",
    "PipelineResult",
    "single_person_pipeline",
    "multi_person_pipeline",
    "Stage",
    "BackgroundSubtract",
    "ContourExtract",
    "OutlierGate",
    "HoldInterpolate",
    "KalmanSmooth",
    "Localize",
    "SuccessiveCancel",
    "Associate",
]
