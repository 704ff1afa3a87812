"""Experiment runner: the paper's Section 8 protocol in code.

One tracking experiment = one subject moving at will for a minute while
WiTrack (through the wall) and the simulated VICON both record her; the
evaluation compensates the per-person center-to-surface depth offline and
scores per-dimension errors — exactly the Section 8(a) procedure.

Scale control: the paper runs 100 x 1-minute experiments per figure.
``REPRO_SCALE=paper`` reproduces that; the default "ci" scale trims to a
few short experiments so the whole benchmark suite finishes in minutes.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

import numpy as np

from ..config import ArrayConfig, SystemConfig, default_config
from ..exec.cache import synthesize, tracked_multi_scenario, tracked_scenario
from ..core.falls import FallDetector, FallVerdict
from ..core.pointing import PointingEstimator
from ..core.tof import TOFEstimator
from ..core.tracker import TrackResult, WiTrack
from ..multi import MultiScenario, MultiTrack, MultiWiTrack
from ..sim.body import HumanBody, sample_population
from ..sim.gestures import PointingGesture, pointing_session
from ..sim.motion import (
    Trajectory,
    fall_trace,
    non_colliding_walks,
    random_walk,
    sit_on_chair_trace,
    sit_on_floor_trace,
    stand_still,
    walk_trace,
)
from ..sim.room import Room, line_of_sight_room, through_wall_room
from ..sim.vicon import DepthCalibration, ViconSystem
from ..sim.scenario import Scenario
from .metrics import (
    ErrorSummary,
    MotSummary,
    mot_metrics,
    ospa_series,
    summarize_errors,
)


@dataclass(frozen=True)
class ExperimentScale:
    """How much data to collect per figure.

    Attributes:
        num_experiments: experiments per configuration point.
        duration_s: duration of each experiment.
        name: scale label.
    """

    num_experiments: int
    duration_s: float
    name: str


#: The paper's protocol: "100 experiments each lasting for 1 minute".
PAPER_SCALE = ExperimentScale(num_experiments=100, duration_s=60.0, name="paper")

#: Reduced default so benches complete in minutes (documented in DESIGN.md).
CI_SCALE = ExperimentScale(num_experiments=6, duration_s=12.0, name="ci")


def current_scale() -> ExperimentScale:
    """Resolve the active scale from the ``REPRO_SCALE`` environment.

    Accepted forms: ``ci`` (the default), ``paper`` (the full Section 8
    protocol), or ``<n>x<secs>`` for a custom scale — e.g.
    ``REPRO_SCALE=20x30`` runs 20 experiments of 30 seconds each
    (fractional seconds allowed: ``20x7.5``).
    """
    value = os.environ.get("REPRO_SCALE", "ci").strip().lower()
    if value == "paper":
        return PAPER_SCALE
    if value == "ci":
        return CI_SCALE
    match = re.fullmatch(r"(\d+)x(\d+(?:\.\d+)?)", value)
    if match:
        num, secs = int(match.group(1)), float(match.group(2))
        if num >= 1 and secs > 0:
            return ExperimentScale(
                num_experiments=num, duration_s=secs, name=value
            )
    raise ValueError(
        f"unknown REPRO_SCALE: {value!r} — accepted forms: 'ci' "
        f"({CI_SCALE.num_experiments} x {CI_SCALE.duration_s:.0f} s), "
        f"'paper' ({PAPER_SCALE.num_experiments} x "
        f"{PAPER_SCALE.duration_s:.0f} s), or '<n>x<secs>' for n >= 1 "
        "experiments of <secs> > 0 seconds each (e.g. '20x30')"
    )


@dataclass(frozen=True)
class TrackingExperiment:
    """Parameters of one tracking experiment.

    Attributes:
        seed: controls subject draw, trajectory and RF noise.
        through_wall: device behind the wall (Fig. 8b) or inside (8a).
        duration_s: session length.
        antenna_separation_m: Tx-Rx spacing (Fig. 10 sweeps this).
        walk_area: x/y ranges the subject walks in (Fig. 9 moves it
            deeper to increase distance from the device).
        config: full system configuration override.
    """

    seed: int
    through_wall: bool = True
    duration_s: float = 60.0
    antenna_separation_m: float = 1.0
    walk_area: tuple[tuple[float, float], tuple[float, float]] | None = None
    config: SystemConfig | None = None


@dataclass(frozen=True)
class TrackingOutcome:
    """Result of one tracking experiment.

    Attributes:
        errors_xyz: absolute per-dimension errors, shape ``(n, 3)``.
        distances_m: subject distance from the device per frame.
        track: the WiTrack output.
        truth_surface: the depth-compensated ground truth the errors are
            measured against.
        body: the simulated subject.
    """

    errors_xyz: np.ndarray
    distances_m: np.ndarray
    track: TrackResult
    truth_surface: np.ndarray
    body: HumanBody

    def summaries(self) -> tuple[ErrorSummary, ErrorSummary, ErrorSummary]:
        """Per-dimension error summaries (x, y, z)."""
        return (
            summarize_errors(self.errors_xyz[:, 0]),
            summarize_errors(self.errors_xyz[:, 1]),
            summarize_errors(self.errors_xyz[:, 2]),
        )


def _experiment_config(exp: TrackingExperiment) -> SystemConfig:
    config = exp.config or default_config()
    if exp.antenna_separation_m != config.array.separation_m:
        config = config.replace(
            array=ArrayConfig(
                separation_m=exp.antenna_separation_m,
                height_m=config.array.height_m,
                beam_exponent=config.array.beam_exponent,
                num_receivers=config.array.num_receivers,
            )
        )
    return config


def _experiment_room(exp: TrackingExperiment) -> Room:
    return through_wall_room() if exp.through_wall else line_of_sight_room()


def run_tracking_experiment(exp: TrackingExperiment) -> TrackingOutcome:
    """Run one full tracking experiment and score it like the paper.

    The error of a frame is the absolute per-dimension difference between
    WiTrack's output and the VICON-recorded body center *after depth
    compensation* (Section 8a): the center is shifted toward the device
    by the person's offline-calibrated center-to-surface depth.
    """
    rng = np.random.default_rng(exp.seed)
    body = sample_population(rng, count=11)[exp.seed % 11]
    room = _experiment_room(exp)
    config = _experiment_config(exp)

    trajectory = random_walk(
        room,
        rng,
        duration_s=exp.duration_s,
        area=exp.walk_area,
    )
    scenario = Scenario(
        trajectory, room=room, body=body, config=config, seed=exp.seed + 1
    )
    # Through the result-level cache (REPRO_CACHE): an unchanged
    # (scenario, pipeline) rerun skips tracking too.
    track = tracked_scenario(scenario, WiTrack(config, array=scenario.array))

    # Ground truth: VICON capture of the body center, then the paper's
    # offline depth compensation.
    vicon = ViconSystem()
    captured = vicon.capture(trajectory, np.random.default_rng(exp.seed + 2))
    centers = captured.resample(track.frame_times_s)
    depth = DepthCalibration().measure_depth(
        body, np.random.default_rng(exp.seed + 3)
    )
    truth_surface = DepthCalibration().compensate(centers, depth)

    valid = track.valid_mask
    errors = np.full((track.num_frames, 3), np.nan)
    errors[valid] = np.abs(track.positions[valid] - truth_surface[valid])
    distances = np.linalg.norm(centers, axis=1)
    return TrackingOutcome(
        errors_xyz=errors,
        distances_m=distances,
        track=track,
        truth_surface=truth_surface,
        body=body,
    )


@dataclass(frozen=True)
class MultiTrackingOutcome:
    """Result of one multi-person tracking experiment.

    Attributes:
        mot: CLEAR-MOT accounting vs. the depth-compensated truth.
        ospa_series_m: per-frame OSPA distance.
        result: the :class:`~repro.multi.MultiTrack` produced.
        truths: depth-compensated ground truth, shape
            ``(n_people, n_frames, 3)``.
        bodies: the simulated subjects.
    """

    mot: MotSummary
    ospa_series_m: np.ndarray
    result: MultiTrack
    truths: np.ndarray
    bodies: tuple[HumanBody, ...]

    @property
    def ospa_mean_m(self) -> float:
        """Session-mean OSPA distance."""
        return float(np.mean(self.ospa_series_m))

    def person_error_summary(self, person: int) -> ErrorSummary:
        """Matched-frame 3D error summary of one person."""
        return summarize_errors(self.mot.per_truth_errors[person])


def run_multi_tracking_experiment(
    num_people: int,
    seed: int,
    duration_s: float = 12.0,
    through_wall: bool = True,
    min_separation_m: float = 1.0,
    config: SystemConfig | None = None,
    match_threshold_m: float = 1.0,
) -> MultiTrackingOutcome:
    """Run one K-person experiment and score it like the paper would.

    ``num_people`` walkers random-walk in depth-separated bands (the
    well-separated workload); the multi-person tracker runs on the
    superimposed spectra, and each person's track is scored against her
    VICON-captured, depth-compensated body center — the single-person
    Section 8(a) protocol applied per target — plus the multi-target
    OSPA and CLEAR-MOT scores.
    """
    if num_people < 1:
        raise ValueError("num_people must be at least 1")
    rng = np.random.default_rng(seed)
    bodies = tuple(
        sample_population(rng, count=max(11, num_people))[:num_people]
    )
    room = through_wall_room() if through_wall else line_of_sight_room()
    config = config or default_config()
    walks = non_colliding_walks(
        room,
        rng,
        num_people,
        duration_s=duration_s,
        min_separation_m=min_separation_m,
    )
    scenario = MultiScenario(
        list(zip(bodies, walks)), room=room, config=config, seed=seed + 1
    )
    tracker = MultiWiTrack(
        config, max_people=num_people, room=room
    )
    # Through the result-level cache (REPRO_CACHE): an unchanged
    # (scenario, pipeline) rerun skips synthesis *and* tracking.
    result = tracked_multi_scenario(scenario, tracker)

    vicon = ViconSystem()
    calibration = DepthCalibration()
    truths = np.empty((num_people, result.num_frames, 3))
    for p, (body, walk) in enumerate(zip(bodies, walks)):
        captured = vicon.capture(
            walk, np.random.default_rng(seed + 2 + 7 * p)
        )
        centers = captured.resample(result.frame_times_s)
        depth = calibration.measure_depth(
            body, np.random.default_rng(seed + 3 + 7 * p)
        )
        truths[p] = calibration.compensate(centers, depth)

    mot = mot_metrics(
        truths, result.positions, match_threshold_m=match_threshold_m
    )
    ospa = ospa_series(truths, result.positions)
    return MultiTrackingOutcome(
        mot=mot,
        ospa_series_m=ospa,
        result=result,
        truths=truths,
        bodies=bodies,
    )


@dataclass(frozen=True)
class PointingOutcome:
    """Result of one pointing experiment.

    Attributes:
        error_deg: angle between estimated and true pointing direction
            (NaN when the estimator found no gesture).
        gesture: the simulated ground-truth gesture.
    """

    error_deg: float
    gesture: PointingGesture


def run_pointing_experiment(
    seed: int,
    through_wall: bool = True,
    config: SystemConfig | None = None,
) -> PointingOutcome:
    """One Section 9.4 pointing experiment.

    The subject stands at a random spot in the capture area, stays still,
    performs a lift-hold-drop pointing gesture, and stays still again.
    """
    rng = np.random.default_rng(seed)
    body = sample_population(rng, count=11)[seed % 11]
    room = through_wall_room() if through_wall else line_of_sight_room()
    config = config or default_config()

    position = np.array(
        [rng.uniform(-2.0, 2.0), rng.uniform(3.0, 6.5), 0.0]
    )
    gesture = pointing_session(position, rng)
    lead = 1.0
    duration = lead + gesture.duration_s + 1.0
    trajectory = stand_still(position, duration_s=duration, label="point")

    scenario = Scenario(
        trajectory,
        room=room,
        body=body,
        config=config,
        gesture=gesture,
        gesture_start_s=lead,
        seed=seed + 1,
    )
    measured = synthesize(scenario)

    estimator = TOFEstimator(
        config.fmcw.sweep_duration_s, measured.range_bin_m, config.pipeline
    )
    estimates = tuple(
        estimator.estimate(measured.spectra[i])
        for i in range(measured.num_rx)
    )
    tracker = WiTrack(config, array=scenario.array)
    pointing = PointingEstimator(tracker.solver)
    result = pointing.estimate(estimates)
    if result is None:
        return PointingOutcome(error_deg=float("nan"), gesture=gesture)
    return PointingOutcome(
        error_deg=result.error_deg(gesture.true_direction()),
        gesture=gesture,
    )


@dataclass(frozen=True)
class FallOutcome:
    """Result of one fall-detection experiment.

    Attributes:
        verdict: the detector's decision.
        true_label: ground-truth activity label.
        elevation_trace: tracked elevation above floor (diagnostics).
    """

    verdict: FallVerdict
    true_label: str
    elevation_trace: np.ndarray


def make_activity_trajectory(
    activity: str,
    room: Room,
    rng: np.random.Generator,
    duration_s: float = 24.0,
) -> Trajectory:
    """Build one of the four Section 9.5 activity trajectories."""
    spot = np.array([rng.uniform(-1.5, 1.5), rng.uniform(3.5, 6.0)])
    if activity == "walk":
        return walk_trace(room, rng, duration_s=duration_s)
    if activity == "sit_chair":
        return sit_on_chair_trace(spot, rng, duration_s=duration_s)
    if activity == "sit_floor":
        return sit_on_floor_trace(
            spot, rng, duration_s=duration_s,
            device_height_m=room.device_height_m,
        )
    if activity == "fall":
        return fall_trace(
            spot, rng, duration_s=duration_s,
            device_height_m=room.device_height_m,
        )
    raise ValueError(f"unknown activity: {activity!r}")


def run_fall_experiment(
    seed: int,
    activity: str,
    through_wall: bool = True,
    config: SystemConfig | None = None,
    detector: FallDetector | None = None,
    duration_s: float = 24.0,
) -> FallOutcome:
    """One Section 9.5 experiment: track an activity, classify the trace."""
    rng = np.random.default_rng(seed)
    body = sample_population(rng, count=11)[seed % 11]
    room = through_wall_room() if through_wall else line_of_sight_room()
    config = config or default_config()

    trajectory = make_activity_trajectory(activity, room, rng, duration_s)
    scenario = Scenario(
        trajectory, room=room, body=body, config=config, seed=seed + 1
    )
    track = tracked_scenario(scenario, WiTrack(config, array=scenario.array))

    elevation = track.positions[:, 2] - room.floor_z
    detector = detector or FallDetector()
    verdict = detector.classify(track.frame_times_s, elevation)
    return FallOutcome(
        verdict=verdict, true_label=activity, elevation_trace=elevation
    )
