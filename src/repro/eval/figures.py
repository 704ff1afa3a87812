"""One data generator per paper figure/table (DESIGN.md Section 4).

Each function regenerates the data series behind a figure of the paper.
Benchmarks call these, assert the qualitative shape, and print the same
rows the paper reports. Scale is controlled by
:func:`repro.eval.harness.current_scale` (``REPRO_SCALE=paper`` for the
full protocol).

Every experiment grid here is submitted as one
:class:`~repro.exec.ExperimentPlan` to a
:class:`~repro.exec.Runner` — pass ``runner=`` (or set
``REPRO_WORKERS``) to fan a figure's experiments across a process
pool; results are independent of the runner, so serial and parallel
figures are bitwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..config import SystemConfig, default_config
from ..core.background import background_subtract
from ..core.spectrogram import Spectrogram, spectrogram_from_sweeps
from ..core.tof import TOFEstimator
from ..exec import ExperimentPlan, Runner, WorkItem, default_runner
from ..sim.motion import random_walk, stand_still
from ..sim.room import through_wall_room
from ..sim.scenario import Scenario
from ..sim.gestures import pointing_session
from .harness import (
    ExperimentScale,
    MultiTrackingOutcome,
    TrackingExperiment,
    current_scale,
    run_fall_experiment,
    run_multi_tracking_experiment,
    run_pointing_experiment,
    run_tracking_experiment,
)
from .metrics import (
    Cdf,
    ClassificationScores,
    ErrorSummary,
    classification_scores,
    error_cdf,
    summarize_errors,
)

#: Ordered activity labels of the Section 9.5 protocol.
FALL_ACTIVITIES = ("walk", "sit_chair", "sit_floor", "fall")


# -- Fig. 3: the TOF pipeline stages ---------------------------------------


@dataclass(frozen=True)
class Fig3Data:
    """The three panels of Fig. 3 for one receive antenna.

    Attributes:
        raw: spectrogram before background subtraction (panel a).
        subtracted: after background subtraction (panel b).
        contour_m: raw bottom contour (panel c, blue).
        denoised_m: de-noised contour (panel c, red).
        truth_m: true round-trip distance per frame.
        frame_times_s: frame timestamps.
    """

    raw: Spectrogram
    subtracted: Spectrogram
    contour_m: np.ndarray
    denoised_m: np.ndarray
    truth_m: np.ndarray
    frame_times_s: np.ndarray


def fig3_tof_pipeline(
    seed: int = 0,
    duration_s: float = 20.0,
    config: SystemConfig | None = None,
) -> Fig3Data:
    """Regenerate Fig. 3: spectrogram -> subtraction -> contour."""
    config = config or default_config()
    rng = np.random.default_rng(seed)
    room = through_wall_room()
    walk = random_walk(room, rng, duration_s=duration_s)
    measured = Scenario(walk, room=room, seed=seed + 1, config=config).run()

    raw = spectrogram_from_sweeps(
        measured.spectra[0],
        config.fmcw.sweep_duration_s,
        measured.range_bin_m,
        config.pipeline.sweeps_per_frame,
    ).crop(config.pipeline.max_range_m)
    subtracted = background_subtract(raw)

    estimator = TOFEstimator(
        config.fmcw.sweep_duration_s, measured.range_bin_m, config.pipeline
    )
    estimate = estimator.estimate(measured.spectra[0])

    spf = config.pipeline.sweeps_per_frame
    true_rt = measured.true_round_trips[0]
    n_frames = len(true_rt) // spf
    frame_truth = true_rt[: n_frames * spf].reshape(-1, spf).mean(axis=1)
    return Fig3Data(
        raw=raw,
        subtracted=subtracted,
        contour_m=estimate.raw_contour_m,
        denoised_m=estimate.round_trip_m,
        truth_m=frame_truth[1 : 1 + estimate.num_frames],
        frame_times_s=estimate.frame_times_s,
    )


# -- Fig. 5: whole-body vs arm gesture spectrogram --------------------------


@dataclass(frozen=True)
class Fig5Data:
    """Fig. 5: spectrogram of walk -> stop -> point, plus extents.

    Attributes:
        subtracted: background-subtracted spectrogram.
        extent_m: per-frame mover spatial extent (body >> arm).
        walk_frames: mask of frames during the walk phase.
        gesture_frames: mask of frames during lift/drop motion.
    """

    subtracted: Spectrogram
    extent_m: np.ndarray
    walk_frames: np.ndarray
    gesture_frames: np.ndarray


def fig5_gesture(
    seed: int = 0, config: SystemConfig | None = None
) -> Fig5Data:
    """Regenerate Fig. 5: a human walks, stops, then points."""
    from ..core.contour import motion_extent
    from ..sim.motion import Trajectory

    config = config or default_config()
    rng = np.random.default_rng(seed)
    room = through_wall_room()

    walk_s = 10.0
    walk = random_walk(room, rng, duration_s=walk_s)
    stand_pos = walk.positions[-1].copy()
    gesture = pointing_session(stand_pos, rng)
    stand = stand_still(
        stand_pos, duration_s=2.0 + gesture.duration_s + 1.0
    )
    times = np.concatenate(
        [walk.times_s, walk.times_s[-1] + stand.times_s[1:] + walk.dt_s]
    )
    positions = np.vstack([walk.positions, stand.positions[1:]])
    combined = Trajectory(times, positions, label="walk_then_point")

    measured = Scenario(
        combined,
        room=room,
        seed=seed + 1,
        config=config,
        gesture=gesture,
        gesture_start_s=walk_s + 2.0,
    ).run()

    raw = spectrogram_from_sweeps(
        measured.spectra[0],
        config.fmcw.sweep_duration_s,
        measured.range_bin_m,
        config.pipeline.sweeps_per_frame,
    ).crop(config.pipeline.max_range_m)
    subtracted = background_subtract(raw)
    extent = motion_extent(subtracted.power, subtracted.range_bin_m)

    frame_t = subtracted.frame_times_s
    walk_mask = frame_t < walk_s
    hand_moving = gesture.hand_is_moving(frame_t - (walk_s + 2.0))
    return Fig5Data(
        subtracted=subtracted,
        extent_m=extent,
        walk_frames=walk_mask,
        gesture_frames=hand_moving,
    )


# -- Fig. 6: elevation traces of the four activities -------------------------


@dataclass(frozen=True)
class Fig6Data:
    """Fig. 6: tracked elevation-vs-time per activity.

    Attributes:
        traces: activity label -> (times_s, elevation_above_floor_m).
    """

    traces: dict[str, tuple[np.ndarray, np.ndarray]]


def fig6_fall_elevations(
    seed: int = 0,
    config: SystemConfig | None = None,
    runner: Runner | None = None,
) -> Fig6Data:
    """Regenerate Fig. 6's four elevation traces via full tracking."""
    runner = runner or default_runner()
    plan = ExperimentPlan.from_grid(
        run_fall_experiment,
        [
            {"seed": seed * 17 + i, "activity": activity, "config": config}
            for i, activity in enumerate(FALL_ACTIVITIES)
        ],
        name="fig6",
    )
    traces: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for activity, outcome in zip(FALL_ACTIVITIES, runner.run(plan)):
        n = len(outcome.elevation_trace)
        times = np.arange(n) * 0.0125
        traces[activity] = (times, outcome.elevation_trace)
    return Fig6Data(traces=traces)


# -- Fig. 8: localization-error CDFs ----------------------------------------


@dataclass(frozen=True)
class Fig8Data:
    """Fig. 8: per-dimension error CDFs for one deployment.

    Attributes:
        cdf_x, cdf_y, cdf_z: per-dimension CDFs.
        summary_x, summary_y, summary_z: median/p90 summaries.
        through_wall: which panel this is (b when True, a when False).
    """

    cdf_x: Cdf
    cdf_y: Cdf
    cdf_z: Cdf
    summary_x: ErrorSummary
    summary_y: ErrorSummary
    summary_z: ErrorSummary
    through_wall: bool


def fig8_error_cdf(
    through_wall: bool,
    scale: ExperimentScale | None = None,
    config: SystemConfig | None = None,
    runner: Runner | None = None,
) -> Fig8Data:
    """Regenerate Fig. 8(a) (line of sight) or 8(b) (through wall)."""
    scale = scale or current_scale()
    runner = runner or default_runner()
    plan = ExperimentPlan.from_grid(
        run_tracking_experiment,
        [
            {
                "exp": TrackingExperiment(
                    seed=seed,
                    through_wall=through_wall,
                    duration_s=scale.duration_s,
                    config=config,
                )
            }
            for seed in range(scale.num_experiments)
        ],
        name="fig8",
    )
    stacked = np.vstack([o.errors_xyz for o in runner.run(plan)])
    return Fig8Data(
        cdf_x=error_cdf(stacked[:, 0]),
        cdf_y=error_cdf(stacked[:, 1]),
        cdf_z=error_cdf(stacked[:, 2]),
        summary_x=summarize_errors(stacked[:, 0]),
        summary_y=summarize_errors(stacked[:, 1]),
        summary_z=summarize_errors(stacked[:, 2]),
        through_wall=through_wall,
    )


# -- Figs. 9 & 10 share one submit/aggregate shape ----------------------------


def _tracking_error_grid(
    values: Sequence[float],
    experiment_for: Callable[[float, int], TrackingExperiment],
    per_point: int,
    runner: Runner,
    name: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Run ``per_point`` tracking experiments per grid value, in one plan.

    The whole (value × seed) grid is submitted as a single
    :class:`~repro.exec.ExperimentPlan`, so a process pool balances the
    full figure instead of one grid point at a time. Returns per-value
    per-dimension ``(median_cm, p90_cm)``, each ``(len(values), 3)``.
    """
    items = tuple(
        WorkItem(
            fn=run_tracking_experiment,
            kwargs={"exp": experiment_for(value, seed)},
            key=f"{name}[{value}] seed={seed}",
        )
        for value in values
        for seed in range(per_point)
    )
    outcomes = runner.run(ExperimentPlan(items=items, name=name))
    medians = []
    p90s = []
    for i in range(len(values)):
        group = outcomes[i * per_point : (i + 1) * per_point]
        stacked = np.vstack([o.errors_xyz for o in group])
        medians.append(np.nanmedian(stacked, axis=0) * 100.0)
        p90s.append(np.nanpercentile(stacked, 90, axis=0) * 100.0)
    return np.asarray(medians), np.asarray(p90s)


# -- Fig. 9: error vs distance ------------------------------------------------


@dataclass(frozen=True)
class Fig9Data:
    """Fig. 9: error vs subject distance.

    Attributes:
        distances_m: bin centers (distance from device).
        median_cm: per-dimension medians, shape ``(n_bins, 3)``.
        p90_cm: per-dimension 90th percentiles, shape ``(n_bins, 3)``.
    """

    distances_m: np.ndarray
    median_cm: np.ndarray
    p90_cm: np.ndarray


def fig9_error_vs_distance(
    scale: ExperimentScale | None = None,
    distances: tuple[float, ...] = (3.0, 5.0, 7.0, 9.0, 11.0),
    config: SystemConfig | None = None,
    runner: Runner | None = None,
) -> Fig9Data:
    """Regenerate Fig. 9 by walking the subject at varying depths."""
    scale = scale or current_scale()
    per_point = max(scale.num_experiments // len(distances), 2)

    def experiment_for(d: float, seed: int) -> TrackingExperiment:
        return TrackingExperiment(
            seed=seed + int(d * 1000),
            through_wall=True,
            duration_s=scale.duration_s,
            walk_area=((-2.0, 2.0), (max(d - 1.0, 1.0), d + 1.0)),
            config=config,
        )

    medians, p90s = _tracking_error_grid(
        distances,
        experiment_for,
        per_point,
        runner or default_runner(),
        name="fig9",
    )
    return Fig9Data(
        distances_m=np.asarray(distances),
        median_cm=medians,
        p90_cm=p90s,
    )


# -- Fig. 10: error vs antenna separation -------------------------------------


@dataclass(frozen=True)
class Fig10Data:
    """Fig. 10: error vs Tx-Rx antenna separation.

    Attributes:
        separations_m: the five separations evaluated.
        median_cm: per-dimension medians, shape ``(n_seps, 3)``.
        p90_cm: per-dimension 90th percentiles, shape ``(n_seps, 3)``.
    """

    separations_m: np.ndarray
    median_cm: np.ndarray
    p90_cm: np.ndarray


def fig10_error_vs_separation(
    scale: ExperimentScale | None = None,
    separations: tuple[float, ...] = (0.25, 0.5, 1.0, 1.5, 2.0),
    config: SystemConfig | None = None,
    runner: Runner | None = None,
) -> Fig10Data:
    """Regenerate Fig. 10: five T sizes, through-wall workload."""
    scale = scale or current_scale()
    per_point = max(scale.num_experiments // len(separations), 2)

    def experiment_for(sep: float, seed: int) -> TrackingExperiment:
        return TrackingExperiment(
            seed=seed + int(sep * 10000),
            through_wall=True,
            duration_s=scale.duration_s,
            antenna_separation_m=sep,
            config=config,
        )

    medians, p90s = _tracking_error_grid(
        separations,
        experiment_for,
        per_point,
        runner or default_runner(),
        name="fig10",
    )
    return Fig10Data(
        separations_m=np.asarray(separations),
        median_cm=medians,
        p90_cm=p90s,
    )


# -- Fig. 11: pointing-orientation CDF ----------------------------------------


@dataclass(frozen=True)
class Fig11Data:
    """Fig. 11: CDF of the pointing-direction error.

    Attributes:
        cdf: orientation-error CDF (degrees).
        detected_fraction: gestures the estimator managed to segment.
    """

    cdf: Cdf
    detected_fraction: float


def fig11_pointing_cdf(
    scale: ExperimentScale | None = None,
    config: SystemConfig | None = None,
    runner: Runner | None = None,
) -> Fig11Data:
    """Regenerate Fig. 11 from repeated pointing experiments."""
    scale = scale or current_scale()
    runner = runner or default_runner()
    num = max(scale.num_experiments * 2, 8)
    plan = ExperimentPlan.from_grid(
        run_pointing_experiment,
        [{"seed": seed, "config": config} for seed in range(num)],
        name="fig11",
    )
    arr = np.asarray([o.error_deg for o in runner.run(plan)])
    detected = float(np.mean(np.isfinite(arr)))
    return Fig11Data(cdf=error_cdf(arr), detected_fraction=detected)


# -- Section 9.5: the fall-detection table ------------------------------------


@dataclass(frozen=True)
class FallTableData:
    """Section 9.5: fall-detection confusion and scores.

    Attributes:
        scores: precision/recall/F-measure against "is a fall".
        confusion: (true activity, predicted activity) -> count.
        per_activity_runs: experiments per activity.
    """

    scores: ClassificationScores
    confusion: dict[tuple[str, str], int]
    per_activity_runs: int


def fall_detection_table(
    scale: ExperimentScale | None = None,
    config: SystemConfig | None = None,
    runner: Runner | None = None,
) -> FallTableData:
    """Regenerate the Section 9.5 results (paper: 33 runs x 4 activities)."""
    scale = scale or current_scale()
    runner = runner or default_runner()
    runs = (
        33 if scale.name == "paper" else max(scale.num_experiments, 4)
    )
    grid = [
        (activity, i * 41 + a_idx * 1009)
        for a_idx, activity in enumerate(FALL_ACTIVITIES)
        for i in range(runs)
    ]
    plan = ExperimentPlan.from_grid(
        run_fall_experiment,
        [
            {"seed": seed, "activity": activity, "config": config}
            for activity, seed in grid
        ],
        name="fall-table",
    )
    predictions: list[bool] = []
    labels: list[bool] = []
    confusion: dict[tuple[str, str], int] = {}
    for (activity, _), outcome in zip(grid, runner.run(plan)):
        predictions.append(outcome.verdict.is_fall)
        labels.append(activity == "fall")
        key = (activity, outcome.verdict.activity)
        confusion[key] = confusion.get(key, 0) + 1
    return FallTableData(
        scores=classification_scores(predictions, labels),
        confusion=confusion,
        per_activity_runs=runs,
    )


# -- Multi-person sweep: accuracy vs K ----------------------------------------


def multi_person_sweep(
    ks: tuple[int, ...] = (1, 2, 3),
    seed: int = 0,
    duration_s: float = 12.0,
    through_wall: bool = True,
    min_separation_m: float = 1.0,
    config: SystemConfig | None = None,
    runner: Runner | None = None,
) -> dict[int, MultiTrackingOutcome]:
    """One scored K-person experiment per K, submitted as one plan.

    This is the grid behind ``benchmarks/bench_multi_person.py`` (and
    any accuracy-vs-K study): K walkers per point, everything else
    fixed, each point an independent work item.
    """
    runner = runner or default_runner()
    plan = ExperimentPlan.from_grid(
        run_multi_tracking_experiment,
        [
            {
                "num_people": k,
                "seed": seed,
                "duration_s": duration_s,
                "through_wall": through_wall,
                "min_separation_m": min_separation_m,
                "config": config,
            }
            for k in ks
        ],
        name="multi-sweep",
    )
    return dict(zip(ks, runner.run(plan)))
