"""WiTrack reproduction: 3D tracking via body radio reflections.

A full-system reproduction of *3D Tracking via Body Radio Reflections*
(Adib, Kabelac, Katabi, Miller — NSDI 2014): the FMCW front end (as a
physics-level simulator), the TOF-estimation pipeline, ellipsoid-based 3D
localization, pointing-direction estimation, fall detection, baselines,
and the paper's full evaluation harness.

Quickstart::

    import numpy as np
    from repro import WiTrack, default_config
    from repro.sim import Scenario, random_walk, through_wall_room

    room = through_wall_room()
    walk = random_walk(room, np.random.default_rng(0), duration_s=15.0)
    measured = Scenario(walk, room=room, seed=1).run()
    track = WiTrack(measured.config).track(
        measured.spectra, measured.range_bin_m
    )
    print(track.positions)
"""

from . import constants
from .config import (
    ArrayConfig,
    FMCWConfig,
    PipelineConfig,
    SimulationConfig,
    SystemConfig,
    default_config,
)
from .core.falls import FallDetector, FallVerdict
from .core.localize import LeastSquaresSolver, TGeometrySolver, make_solver
from .core.pointing import PointingEstimator, PointingResult
from .core.tof import TOFEstimate, TOFEstimator
from .core.tracker import TrackResult, WiTrack
from .exec import (
    ExperimentPlan,
    ProcessPoolRunner,
    SerialRunner,
    ShardedStreamRunner,
    WorkItem,
    default_runner,
)
from .multi import MultiScenario, MultiTrack, MultiWiTrack
from .pipeline import (
    Pipeline,
    PipelineResult,
    multi_person_pipeline,
    single_person_pipeline,
)
from .serve import ServingEngine, multi_session, single_session

__version__ = "1.3.0"

__all__ = [
    "constants",
    "ArrayConfig",
    "FMCWConfig",
    "PipelineConfig",
    "SimulationConfig",
    "SystemConfig",
    "default_config",
    "FallDetector",
    "FallVerdict",
    "LeastSquaresSolver",
    "TGeometrySolver",
    "make_solver",
    "PointingEstimator",
    "PointingResult",
    "TOFEstimate",
    "TOFEstimator",
    "TrackResult",
    "WiTrack",
    "ExperimentPlan",
    "ProcessPoolRunner",
    "SerialRunner",
    "ServingEngine",
    "ShardedStreamRunner",
    "WorkItem",
    "default_runner",
    "multi_session",
    "single_session",
    "MultiScenario",
    "MultiTrack",
    "MultiWiTrack",
    "Pipeline",
    "PipelineResult",
    "single_person_pipeline",
    "multi_person_pipeline",
    "__version__",
]
