"""Multi-person scenario: K bodies superimposed in one set of spectra.

WiTrack itself "tracks one person" (paper Section 8); this module is the
simulation half of our multi-target extension. A :class:`MultiScenario`
takes a list of ``(body, trajectory)`` pairs and superimposes every
person's direct reflection and dynamic-multipath images — plus one shared
static-clutter field — into the same per-antenna sweep spectra, exactly
as a real receiver would see them. All single-person physics (Flash
Effect clutter, through-wall attenuation, in-wall TOF jitter, reflection
-surface wander) is reused from :mod:`repro.sim.scenario` unchanged.

People may enter with trajectories of different durations: a person whose
trajectory ends simply stands still for the rest of the session (and so
fades out of the background-subtracted spectrogram, as in reality).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..config import SystemConfig, default_config
from ..geometry.antennas import AntennaArray, t_array
from ..rf.noise import NoiseModel
from ..rf.receiver import SweepSynthesizer
from ..sim.body import HumanBody, ReflectionModel
from ..sim.motion import Trajectory
from ..sim.room import Room
from ..sim.scenario import PathGeometry, Scenario, _segment_lengths


@dataclass
class MultiScenarioOutput:
    """Everything a multi-person run and its evaluation need.

    Attributes:
        spectra: complex sweep spectra, shape ``(n_rx, n_sweeps, n_bins)``.
        sweep_times_s: time of each sweep, shape ``(n_sweeps,)``.
        range_bin_m: round-trip distance per spectrum bin.
        truths: ground-truth body-center trajectory per person.
        surface_truths: per-sweep reflection-surface points, shape
            ``(n_people, n_sweeps, 3)``.
        true_round_trips: ideal per-person, per-antenna round-trip
            distances, shape ``(n_people, n_rx, n_sweeps)``.
        config: the system configuration used.
        room: the room simulated.
        bodies: the subjects simulated.
    """

    spectra: np.ndarray
    sweep_times_s: np.ndarray
    range_bin_m: float
    truths: tuple[Trajectory, ...]
    surface_truths: np.ndarray
    true_round_trips: np.ndarray
    config: SystemConfig
    room: Room
    bodies: tuple[HumanBody, ...]

    @property
    def num_people(self) -> int:
        """Number of simulated people."""
        return len(self.truths)

    @property
    def num_sweeps(self) -> int:
        """Number of sweeps synthesized."""
        return self.spectra.shape[1]

    @property
    def num_rx(self) -> int:
        """Number of receive antennas."""
        return self.spectra.shape[0]

    def truth_at(self, times_s: np.ndarray) -> np.ndarray:
        """Body-center positions of every person at arbitrary times.

        Returns shape ``(n_people, len(times_s), 3)``.
        """
        return np.stack([t.resample(times_s) for t in self.truths])


class MultiScenario:
    """A complete simulated multi-person experiment.

    Args:
        people: one ``(body, trajectory)`` pair per person; trajectories
            are in the device frame and may differ in duration.
        room: room geometry; defaults to the paper's through-wall room.
        config: full system configuration.
        seed: seed for every random draw in the scenario.
        array: override antenna array (defaults to the configured T).
    """

    def __init__(
        self,
        people: Sequence[tuple[HumanBody, Trajectory]],
        room: Room | None = None,
        config: SystemConfig | None = None,
        seed: int = 0,
        array: AntennaArray | None = None,
    ) -> None:
        if len(people) < 1:
            raise ValueError("need at least one (body, trajectory) pair")
        self.people = [(body, traj) for body, traj in people]
        self.room = room if room is not None else Room()
        self.config = config or default_config()
        self.seed = seed
        self.array = array if array is not None else t_array(self.config.array)

    @property
    def num_people(self) -> int:
        """Number of simulated people."""
        return len(self.people)

    def run(self) -> MultiScenarioOutput:
        """Synthesize the received spectra for the whole session."""
        cfg = self.config
        fmcw = cfg.fmcw
        rng = np.random.default_rng(self.seed)

        duration_s = max(traj.duration_s for _, traj in self.people)
        n_sweeps = max(int(duration_s / fmcw.sweep_duration_s), 2)
        sweep_times = np.arange(n_sweeps) * fmcw.sweep_duration_s

        noise = NoiseModel(
            noise_figure_db=cfg.simulation.noise_figure_db,
            bandwidth_hz=1.0 / fmcw.sweep_duration_s,
        )
        synthesizer = SweepSynthesizer(
            fmcw, noise, max_range_m=cfg.pipeline.max_range_m
        )

        # Per-person kinematics: one reflection surface and one activity
        # trace each, shared across antennas (it is the same body).
        scenarios: list[Scenario] = []
        surfaces: list[np.ndarray] = []
        activities: list[np.ndarray] = []
        for p, (body, traj) in enumerate(self.people):
            scenario = Scenario(
                traj,
                room=self.room,
                body=body,
                config=cfg,
                seed=self.seed + 101 * (p + 1),
                array=self.array,
            )
            person_rng = np.random.default_rng(
                self.seed * 104_729 + 13 * p + 7
            )
            centers = traj.resample(sweep_times)
            surface = ReflectionModel(body).surface_points(
                centers,
                fmcw.sweep_duration_s,
                person_rng,
                self.array.tx.position,
                floor_z=self.room.floor_z,
            )
            step = np.linalg.norm(np.diff(centers, axis=0), axis=1)
            speed = np.concatenate([step[:1], step]) / fmcw.sweep_duration_s
            scenarios.append(scenario)
            surfaces.append(surface)
            activities.append(np.clip(speed / 0.5, 0.0, 1.0))

        # One clutter field: static reflectors are a property of the
        # room, not of who walks through it.
        clutter = scenarios[0]._clutter(rng)

        n_rx = self.array.num_receivers
        n_people = self.num_people
        spectra = np.empty(
            (n_rx, n_sweeps, synthesizer.num_bins), dtype=np.complex128
        )
        true_round_trips = np.empty((n_people, n_rx, n_sweeps))
        jitters = [
            [
                scenario._wall_jitter(
                    n_sweeps,
                    fmcw.sweep_duration_s,
                    np.random.default_rng(
                        self.seed * 15_485_863 + 611 * p + i + 1
                    ),
                    activities[p],
                )
                for i in range(n_rx)
            ]
            for p, scenario in enumerate(scenarios)
        ]
        person_paths = PathGeometry(scenarios).path_sets(
            surfaces, [None] * n_people, jitters
        )
        tx = self.array.tx
        for i, rx in enumerate(self.array.rx):
            rx_rng = np.random.default_rng(self.seed * 7919 + i + 1)
            paths = list(clutter)
            for p in range(n_people):
                paths += person_paths[p][i]
                true_round_trips[p, i] = _segment_lengths(
                    tx.position, surfaces[p]
                ) + _segment_lengths(rx.position, surfaces[p])
            spectra[i] = synthesizer.synthesize(paths, n_sweeps, rx_rng)

        return MultiScenarioOutput(
            spectra=spectra,
            sweep_times_s=sweep_times,
            range_bin_m=synthesizer.axis.round_trip_per_bin_m,
            truths=tuple(traj for _, traj in self.people),
            surface_truths=np.stack(surfaces),
            true_round_trips=true_round_trips,
            config=cfg,
            room=self.room,
            bodies=tuple(body for body, _ in self.people),
        )
