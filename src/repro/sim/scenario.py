"""Scenario composition: room + body + motion -> received sweep spectra.

This is the top of the simulation substrate. A :class:`Scenario` wires a
room, a human body, a body-center trajectory and (optionally) a pointing
gesture to the antenna array, resolves every propagation path per sweep —
direct body reflection, dynamic multipath images off the side/back walls
and ceiling, static clutter, the moving hand — and synthesizes the
per-antenna spectra the WiTrack pipeline consumes.

All physical effects the paper's pipeline exists to fight are present:

* static clutter 10-30 dB above the body echo (the Flash Effect, §4.2);
* dynamic multipath that can be *stronger* than the attenuated direct
  path but always arrives later (§4.3);
* through-wall attenuation on every front-wall traversal (§9.1);
* thermal noise, phase jitter, and body-surface wander (§9.1-9.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..config import SystemConfig, default_config
from ..geometry.antennas import Antenna, AntennaArray, t_array
from ..kernels.backend import active_backend
from ..rf.fmcw import range_axis
from ..rf.multipath import make_static_clutter, mirror_point
from ..rf.noise import NoiseModel
from ..rf.propagation import wavelength
from ..rf.receiver import Path, SweepSynthesizer
from .body import GatedAR1, HumanBody, ReflectionModel
from .gestures import PointingGesture
from .motion import Trajectory
from .room import Room

#: Hand scattering-center wander std along (x, y, z), in meters.
_HAND_WANDER_STD_M = np.array([0.055, 0.04, 0.07])
#: AR(1) time constants: hand wander and in-wall traversal jitter.
_HAND_WANDER_TAU_S = 0.25
_WALL_JITTER_TAU_S = 0.5


def _vector_gain(
    position: np.ndarray,
    boresight: np.ndarray,
    points: np.ndarray,
    exponent: float,
) -> np.ndarray:
    """cos^n antenna power gain toward each of ``points`` (vectorized)."""
    offsets = points - position[None, :]
    dist = np.linalg.norm(offsets, axis=1)
    dist = np.where(dist < 1e-9, 1.0, dist)
    cosine = offsets @ boresight / dist
    return np.where(cosine > 0.0, np.maximum(cosine, 0.0) ** exponent, 0.0)


def _segment_lengths(position: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distance from a fixed position to each point (vectorized)."""
    return np.linalg.norm(points - position[None, :], axis=1)


@dataclass
class ScenarioOutput:
    """Everything a pipeline run and its evaluation need.

    Attributes:
        spectra: complex sweep spectra, shape ``(n_rx, n_sweeps, n_bins)``.
        sweep_times_s: time of each sweep, shape ``(n_sweeps,)``.
        range_bin_m: round-trip distance per spectrum bin.
        truth: the body-center ground-truth trajectory.
        surface_truth: per-sweep reflection-surface points ``(n_sweeps, 3)``.
        hand_truth: per-sweep hand positions or ``None`` (no gesture).
        true_round_trips: ideal per-antenna round-trip distances of the
            body surface, shape ``(n_rx, n_sweeps)``.
        config: the system configuration used.
        room: the room simulated.
        body: the subject simulated.
    """

    spectra: np.ndarray
    sweep_times_s: np.ndarray
    range_bin_m: float
    truth: Trajectory
    surface_truth: np.ndarray
    hand_truth: np.ndarray | None
    true_round_trips: np.ndarray
    config: SystemConfig
    room: Room
    body: HumanBody

    @property
    def num_sweeps(self) -> int:
        """Number of sweeps synthesized."""
        return self.spectra.shape[1]

    @property
    def num_rx(self) -> int:
        """Number of receive antennas."""
        return self.spectra.shape[0]

    def truth_at(self, times_s: np.ndarray) -> np.ndarray:
        """Ground-truth body-center positions at arbitrary times."""
        return self.truth.resample(times_s)


class Scenario:
    """A complete simulated experiment.

    Args:
        trajectory: body-center trajectory in the device frame.
        room: room geometry; defaults to the paper's through-wall room.
        body: subject model; defaults to an average adult.
        config: full system configuration.
        gesture: optional pointing gesture performed during the session.
        gesture_start_s: session time at which the gesture's clock starts.
        seed: seed for every random draw in the scenario.
        array: override antenna array (defaults to the configured T).
    """

    def __init__(
        self,
        trajectory: Trajectory,
        room: Room | None = None,
        body: HumanBody | None = None,
        config: SystemConfig | None = None,
        gesture: PointingGesture | None = None,
        gesture_start_s: float = 0.0,
        seed: int = 0,
        array: AntennaArray | None = None,
    ) -> None:
        self.trajectory = trajectory
        self.room = room if room is not None else Room()
        self.body = body or HumanBody()
        self.config = config or default_config()
        self.gesture = gesture
        self.gesture_start_s = gesture_start_s
        self.seed = seed
        self.array = array if array is not None else t_array(self.config.array)

    @property
    def range_bin_m(self) -> float:
        """Round-trip distance per spectrum bin (as :meth:`run` reports)."""
        return float(range_axis(self.config.fmcw).round_trip_per_bin_m)

    @property
    def num_sweeps(self) -> int:
        """Sweeps the session spans (what :meth:`run` synthesizes)."""
        return max(
            int(self.trajectory.duration_s / self.config.fmcw.sweep_duration_s),
            2,
        )

    @property
    def num_stream_frames(self) -> int:
        """Frames :meth:`frames` will yield for this trajectory."""
        return self.num_sweeps // self.config.pipeline.sweeps_per_frame

    def frames(
        self,
        chunk_frames: int = 256,
        start_frame: int = 0,
        stop_frame: int | None = None,
    ) -> Iterator[np.ndarray]:
        """Lazily synthesize the session as per-frame sweep blocks.

        Yields one ``(n_rx, sweeps_per_frame, n_bins)`` block per 12.5 ms
        frame — the exact input of
        :meth:`repro.pipeline.Pipeline.push` — while synthesizing
        internally in chunks of ``chunk_frames`` frames, so arbitrarily
        long scenarios stream in bounded memory instead of
        materializing the ``(n_rx, n_sweeps, n_bins)`` block
        :meth:`run` returns.

        Every stochastic texture (surface wander, in-wall jitter, hand
        wander) is an explicit streaming state, so the output is
        deterministic in ``seed`` and independent of ``chunk_frames``
        (up to last-ulp jitter from numpy's vectorized transcendentals,
        ~1e-21). The trajectory and AR textures match :meth:`run`'s
        draws; the static-clutter field and the thermal noise/phase
        jitter come from dedicated streams (noise is keyed per frame so
        chunking cannot change it), giving statistically — not
        bitwise — identical recordings to :meth:`run`.

        Args:
            chunk_frames: frames synthesized per internal chunk (the
                memory/speed knob; the output does not depend on it).
            start_frame: first frame to yield. The skipped prefix only
                advances the streaming AR states (cheap: no sweep
                synthesis), so frame ``f`` of a shard is bitwise frame
                ``f`` of the full stream — what
                :class:`repro.exec.ShardedStreamRunner` shards on.
            stop_frame: yield frames ``[start_frame, stop_frame)``;
                ``None`` runs to the end of the trajectory.
        """
        if chunk_frames < 1:
            raise ValueError("chunk_frames must be >= 1")
        stream = ScenarioStream(self)
        n_frames = stream.n_frames  # num_sweeps // spf, as run()

        stop = n_frames if stop_frame is None else int(stop_frame)
        start = int(start_frame)
        if not 0 <= start <= stop <= n_frames:
            raise ValueError(
                f"need 0 <= start_frame <= stop_frame <= {n_frames}, got "
                f"[{start_frame}, {stop_frame})"
            )

        # Fast-forward the skipped prefix: the AR textures are sequential
        # per sweep, so a shard must advance them — but not run the
        # (expensive) sweep synthesis; noise is keyed per frame and needs
        # no advancing at all.
        for f0 in range(0, start, chunk_frames):
            stream.advance(f0, min(f0 + chunk_frames, start))

        spf = stream.spf
        for f0 in range(start, stop, chunk_frames):
            f1 = min(f0 + chunk_frames, stop)
            # All antennas fused into one scatter-kernel pass; noise is
            # then keyed per (antenna, frame) so output stays
            # chunk-size invariant.
            chunk = stream.synthesize(f0, f1, *stream.advance(f0, f1))
            for i in range(chunk.shape[0]):
                stream.add_keyed_noise(chunk[i], i, f0, f1)
            for f in range(f0, f1):
                row = (f - f0) * spf
                yield chunk[:, row : row + spf, :]

    def _hand_chunk(
        self,
        sweep_times: np.ndarray,
        dt: float,
        walk: GatedAR1,
        prev_hand: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One chunk of streaming hand positions (state carried by caller)."""
        assert self.gesture is not None
        local = sweep_times - self.gesture_start_s
        positions = self.gesture.hand_positions(np.clip(local, 0.0, None))
        positions[local < 0.0] = self.gesture.rest_hand
        n = len(positions)
        if prev_hand is not None:
            extended = np.concatenate([prev_hand[None], positions])
            speed = np.linalg.norm(np.diff(extended, axis=0), axis=1) / dt
        elif n > 1:
            step = np.linalg.norm(np.diff(positions, axis=0), axis=1)
            speed = np.concatenate([step[:1], step]) / dt
        else:
            speed = np.zeros(n)
        activity = np.clip(speed / 0.5, 0.0, 1.0)
        wander = walk.advance(activity) * _HAND_WANDER_STD_M[None, :]
        return positions + wander, positions[-1].copy()

    def run(self) -> ScenarioOutput:
        """Synthesize the received spectra for the whole session."""
        cfg = self.config
        fmcw = cfg.fmcw
        rng = np.random.default_rng(self.seed)

        n_sweeps = self.num_sweeps
        sweep_times = np.arange(n_sweeps) * fmcw.sweep_duration_s

        centers = self.trajectory.resample(sweep_times)
        reflection = ReflectionModel(self.body)
        surface = reflection.surface_points(
            centers,
            fmcw.sweep_duration_s,
            rng,
            self.array.tx.position,
            floor_z=self.room.floor_z,
        )

        hand = self._hand_positions(sweep_times)

        noise = NoiseModel(
            noise_figure_db=cfg.simulation.noise_figure_db,
            bandwidth_hz=1.0 / fmcw.sweep_duration_s,
        )
        synthesizer = SweepSynthesizer(
            fmcw, noise, max_range_m=cfg.pipeline.max_range_m
        )

        clutter = self._clutter(rng)
        spectra = np.empty(
            (self.array.num_receivers, n_sweeps, synthesizer.num_bins),
            dtype=np.complex128,
        )
        true_round_trips = np.empty((self.array.num_receivers, n_sweeps))
        step = np.linalg.norm(np.diff(centers, axis=0), axis=1)
        speed = np.concatenate([step[:1], step]) / fmcw.sweep_duration_s
        activity = np.clip(speed / 0.5, 0.0, 1.0)

        # Each antenna's stream draws its wall jitter, then its noise.
        rx_rngs = [
            np.random.default_rng(self.seed * 7919 + i + 1)
            for i in range(self.array.num_receivers)
        ]
        jitters = [
            self._wall_jitter(n_sweeps, fmcw.sweep_duration_s, r, activity)
            for r in rx_rngs
        ]
        path_sets = PathGeometry([self]).path_sets(
            [surface], [hand], [jitters]
        )[0]
        for i, rx in enumerate(self.array.rx):
            spectra[i] = synthesizer.synthesize(
                clutter + path_sets[i], n_sweeps, rx_rngs[i]
            )
            true_round_trips[i] = _segment_lengths(
                self.array.tx.position, surface
            ) + _segment_lengths(rx.position, surface)

        return ScenarioOutput(
            spectra=spectra,
            sweep_times_s=sweep_times,
            range_bin_m=synthesizer.axis.round_trip_per_bin_m,
            truth=self.trajectory,
            surface_truth=surface,
            hand_truth=hand,
            true_round_trips=true_round_trips,
            config=cfg,
            room=self.room,
            body=self.body,
        )

    # -- internals --------------------------------------------------------

    def _hand_positions(self, sweep_times: np.ndarray) -> np.ndarray | None:
        """Per-sweep hand positions during a gesture session, else None.

        Like the torso, the moving arm's dominant scattering center
        wanders over its surface (forearm vs hand vs elbow), so an
        activity-gated mean-reverting jitter rides on the kinematic hand
        path. This is what keeps the simulated pointing accuracy at the
        paper's level rather than implausibly perfect.
        """
        if self.gesture is None:
            return None
        local = sweep_times - self.gesture_start_s
        positions = self.gesture.hand_positions(np.clip(local, 0.0, None))
        before = local < 0.0
        positions[before] = self.gesture.rest_hand

        rng = np.random.default_rng(self.seed * 31 + 5)
        dt = float(sweep_times[1] - sweep_times[0])
        walk = GatedAR1(float(np.exp(-dt / _HAND_WANDER_TAU_S)), rng, dim=3)
        step = np.linalg.norm(np.diff(positions, axis=0), axis=1)
        speed = np.concatenate([step[:1], step]) / dt
        activity = np.clip(speed / 0.5, 0.0, 1.0)
        return positions + walk.advance(activity) * _HAND_WANDER_STD_M[None, :]

    def _wall_jitter(
        self,
        n_sweeps: int,
        dt_s: float,
        rng: np.random.Generator,
        activity: np.ndarray,
    ) -> np.ndarray:
        """Excess round-trip delay from in-wall wavefront distortion.

        A mean-reverting (AR(1)) walk: the wall-traversal point moves as
        the person moves, so the excess delay is temporally correlated —
        and frozen while she is still (a static geometry has a constant
        wall delay, which background subtraction must cancel). Zero in
        line-of-sight rooms.
        """
        std = self.room.wall_tof_jitter_std_m if self.room.is_through_wall else 0.0
        if std <= 0.0:
            return np.zeros(n_sweeps)
        walk = GatedAR1(float(np.exp(-dt_s / _WALL_JITTER_TAU_S)), rng)
        return std * walk.advance(activity)

    def _wall_traversals(self) -> int:
        """Front-wall crossings of one segment (device side <-> room side)."""
        return 1 if self.room.is_through_wall else 0

    def _amplitudes(
        self,
        tx: Antenna,
        rx_position: np.ndarray,
        rx_boresight: np.ndarray,
        points: np.ndarray,
        rcs_m2: float,
        extra_loss_db: float,
        tx_side: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Vectorized bistatic radar amplitude toward each point.

        ``tx_side`` optionally supplies precomputed ``(g_tx, d_tx)``
        toward ``points`` — the transmit side is identical for every
        path of one antenna, so :meth:`_paths_for_antenna` hoists it.
        """
        cfg = self.config
        lam = wavelength(cfg.fmcw)
        beam = cfg.array.beam_exponent
        if tx_side is None:
            g_tx = _vector_gain(tx.position, tx.boresight, points, beam)
            d_tx = np.maximum(_segment_lengths(tx.position, points), 0.1)
        else:
            g_tx, d_tx = tx_side
        g_rx = _vector_gain(rx_position, rx_boresight, points, beam)
        d_rx = np.maximum(_segment_lengths(rx_position, points), 0.1)
        power = (
            cfg.fmcw.tx_power_w
            * g_tx
            * g_rx
            * lam**2
            * rcs_m2
            / ((4.0 * np.pi) ** 3 * d_tx**2 * d_rx**2)
        )
        return np.sqrt(power) * self._loss_factor(extra_loss_db)

    def _loss_factor(self, extra_loss_db: float) -> float:
        """Amplitude factor of a path's losses (a Python float)."""
        total_loss_db = (
            extra_loss_db
            + self.config.simulation.system_loss_db
            + 2 * self._wall_traversals() * self.room.wall_attenuation_db
        )
        return 10.0 ** (-total_loss_db / 20.0)

    def _reference_human_amplitude(self) -> float:
        """Body-echo amplitude at a reference 5 m range (anchors clutter)."""
        cfg = self.config
        lam = wavelength(cfg.fmcw)
        d = 5.0
        power = (
            cfg.fmcw.tx_power_w
            * lam**2
            * self.body.torso_rcs_m2
            / ((4.0 * np.pi) ** 3 * d**4)
        )
        loss_db = (
            cfg.simulation.system_loss_db
            + 2 * self._wall_traversals() * self.room.wall_attenuation_db
        )
        return float(np.sqrt(power) * 10.0 ** (-loss_db / 20.0))

    def _clutter(self, rng: np.random.Generator) -> list[Path]:
        """Static clutter paths shared across antennas (fresh phases each)."""
        clutter = make_static_clutter(
            rng,
            self.config.simulation.num_static_reflectors,
            human_amplitude=self._reference_human_amplitude(),
            max_round_trip_m=self.config.pipeline.max_range_m - 2.0,
        )
        return [
            Path(
                round_trip_m=np.float64(rt),
                amplitude=np.float64(amp),
                phase0_rad=float(ph),
                name=f"clutter-{k}",
            )
            for k, (rt, amp, ph) in enumerate(
                zip(clutter.round_trips_m, clutter.amplitudes, clutter.phases_rad)
            )
        ]

    def _receivers(self) -> tuple[np.ndarray, np.ndarray]:
        """Every receive antenna and its wall-bounce images.

        Returns ``(positions, boresights)``, each ``(n_rx * (1 +
        n_images), 3)``: per antenna, the antenna itself, then its
        image in each bounce plane — :meth:`_paths_for_antenna`'s path
        order, with its image arithmetic.
        """
        planes = self.room.bounce_planes[
            : self.config.simulation.num_multipath_images
        ]
        positions, boresights = [], []
        for rx in self.array.rx:
            positions.append(rx.position)
            boresights.append(rx.boresight)
            for wall_point, wall_normal, _ in planes:
                positions.append(
                    mirror_point(rx.position, wall_point, wall_normal)
                )
                boresights.append(
                    rx.boresight
                    - 2.0
                    * np.dot(rx.boresight, wall_normal)
                    * np.asarray(wall_normal)
                )
        return np.stack(positions), np.stack(boresights)

    def _paths_for_antenna(
        self,
        rx: Antenna,
        surface: np.ndarray,
        hand: np.ndarray | None,
        wall_jitter: np.ndarray,
    ) -> list[Path]:
        """Resolve every dynamic propagation path seen by one antenna.

        The executable spec of :class:`PathGeometry`, which the
        ``reference`` backend runs: the body's direct echo, its image
        off each bounce plane, then the hand during a gesture.
        ``wall_jitter`` is added to the round trip of every path that
        traverses the front wall (all body-related paths in the
        through-wall setting); static clutter is not resolved here and
        keeps its exact delay, so background subtraction still cancels
        it.
        """
        tx = self.array.tx
        beam = self.config.array.beam_exponent
        paths: list[Path] = []

        # Direct body reflection. The transmit side is the same for
        # every path of the body, so it is resolved once.
        d_tx = _segment_lengths(tx.position, surface)
        tx_side = (
            _vector_gain(tx.position, tx.boresight, surface, beam),
            np.maximum(d_tx, 0.1),
        )
        d_rx = _segment_lengths(rx.position, surface)
        paths.append(
            Path(
                round_trip_m=d_tx + d_rx + wall_jitter,
                amplitude=self._amplitudes(
                    tx, rx.position, rx.boresight, surface,
                    self.body.torso_rcs_m2, extra_loss_db=0.0,
                    tx_side=tx_side,
                ),
                name="body-direct",
            )
        )

        # Dynamic multipath: body -> wall -> Rx via image antennas.
        planes = self.room.bounce_planes[
            : self.config.simulation.num_multipath_images
        ]
        for wall_point, wall_normal, wall_name in planes:
            image_pos = mirror_point(rx.position, wall_point, wall_normal)
            image_boresight = rx.boresight - 2.0 * np.dot(
                rx.boresight, wall_normal
            ) * np.asarray(wall_normal)
            d_img = _segment_lengths(image_pos, surface)
            paths.append(
                Path(
                    round_trip_m=d_tx + d_img + wall_jitter,
                    amplitude=self._amplitudes(
                        tx, image_pos, image_boresight, surface,
                        self.body.torso_rcs_m2,
                        extra_loss_db=self.room.side_wall_reflection_loss_db,
                        tx_side=tx_side,
                    ),
                    name=f"multipath-{wall_name}",
                )
            )

        # The moving hand during a pointing gesture.
        if hand is not None:
            d_tx_hand = _segment_lengths(tx.position, hand)
            hand_side = (
                _vector_gain(tx.position, tx.boresight, hand, beam),
                np.maximum(d_tx_hand, 0.1),
            )
            paths.append(
                Path(
                    round_trip_m=(
                        d_tx_hand
                        + _segment_lengths(rx.position, hand)
                        + wall_jitter
                    ),
                    amplitude=self._amplitudes(
                        tx, rx.position, rx.boresight, hand,
                        self.body.arm_rcs_m2, extra_loss_db=0.0,
                        tx_side=hand_side,
                    ),
                    name="hand",
                )
            )
        return paths


def _antenna_rows(array: AntennaArray) -> np.ndarray:
    """Position and boresight of every antenna, one row each."""
    return np.stack([
        np.concatenate([a.position, a.boresight])
        for a in (array.tx, *array.rx)
    ])


def _gains(
    offsets: np.ndarray,
    dist: np.ndarray,
    boresights: np.ndarray,
    exponent: float,
) -> np.ndarray:
    """:func:`_vector_gain` over stacked ``(n, 3)`` offset blocks.

    ``dist`` holds the offsets' lengths and ``boresights`` one
    ``(3, 1)`` column per block (broadcast like a matmul operand), so
    each block is one BLAS product of the shape :func:`_vector_gain`
    computes — bitwise its values.
    """
    dist = np.where(dist < 1e-9, 1.0, dist)
    cosine = np.matmul(offsets, boresights)[..., 0] / dist
    return np.where(cosine > 0.0, np.maximum(cosine, 0.0) ** exponent, 0.0)


class PathGeometry:
    """Every session's dynamic propagation paths as one array program.

    For a cohort of scenarios that share a system configuration and
    an antenna array — rooms, bodies, gestures, trajectories and seeds
    may all differ — :meth:`solve` resolves the body's direct echo, its
    image off each bounce plane and, while a gesture runs, the hand,
    as round-trip and amplitude arrays over (session, antenna, path,
    sweep), in a few whole-cohort numpy calls. The values are bitwise
    what :meth:`Scenario._paths_for_antenna` (the ``reference``
    backend's spec) gives one antenna at a time: the same operations in
    the same order, every ``offsets @ boresight`` still one BLAS
    product over one session's ``(n, 3)`` rows, and each loss factor a
    Python float.

    Args:
        scenarios: the cohort's sessions (one person each; a
            multi-person scene passes one scenario per person).

    Raises:
        ValueError: if the sessions differ in ``config`` or in antenna
            positions or boresights.
    """

    def __init__(self, scenarios: Sequence[Scenario]) -> None:
        self.scenarios = list(scenarios)
        first = self.scenarios[0]
        rows = _antenna_rows(first.array)
        for scn in self.scenarios[1:]:
            if scn.config != first.config or not np.array_equal(
                _antenna_rows(scn.array), rows
            ):
                raise ValueError(
                    "cohort sessions must share the system configuration "
                    "and antenna array"
                )
        cfg = first.config
        self.num_rx = first.array.num_receivers
        self._tx = first.array.tx
        self._beam = cfg.array.beam_exponent
        self._tx_power_w = cfg.fmcw.tx_power_w
        self._lam2 = wavelength(cfg.fmcw) ** 2
        # Per room: the antennas and their images, and the loss factor
        # of each of those paths.
        rooms: dict = {}
        positions, boresights, factors = [], [], []
        for scn in self.scenarios:
            if scn.room not in rooms:
                pos, bore = scn._receivers()
                n_img = len(pos) // self.num_rx - 1
                image = scn._loss_factor(scn.room.side_wall_reflection_loss_db)
                rooms[scn.room] = (
                    pos, bore, [scn._loss_factor(0.0)] + [image] * n_img
                )
            pos, bore, per_rx = rooms[scn.room]
            positions.append(pos)
            boresights.append(bore)
            factors.append(per_rx * self.num_rx)
        self._positions = np.stack(positions)  # (S, M, 3)
        self._boresights = np.stack(boresights)[..., None]  # (S, M, 3, 1)
        self._factors = np.array(factors)[..., None]  # (S, M, 1)
        self._body_paths = len(factors[0]) // self.num_rx
        self._torso_rcs = np.array(
            [scn.body.torso_rcs_m2 for scn in self.scenarios]
        )[:, None, None]
        self._names = ["body-direct"] + [
            f"multipath-{name}"
            for _, _, name in first.room.bounce_planes[: self._body_paths - 1]
        ]

    def solve(
        self,
        surfaces: Sequence[np.ndarray],
        hands: Sequence[np.ndarray | None],
        jitters: Sequence[Sequence[np.ndarray] | None],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Round trips and amplitudes of every session's dynamic paths.

        Args:
            surfaces: per session, ``(n, 3)`` reflection-surface points.
            hands: per session, ``(n, 3)`` hand positions, or ``None``
                without a gesture.
            jitters: per session, one ``(n,)`` in-wall excess delay per
                antenna, or ``None`` for none.

        Returns:
            ``(round_trip_m, amplitude)``, each ``(n_sessions, n_rx,
            n_paths, n)``. Paths run direct, one image per bounce
            plane, then the hand if any session has a gesture; a
            session without one gets a hand path of zero amplitude,
            which synthesis drops like any all-zero path.
        """
        surf = np.stack(surfaces)
        n_sessions, n = surf.shape[:2]
        rt, amp = self._resolve(
            surf, self._positions, self._boresights, self._torso_rcs,
            self._factors,
        )
        shape = (n_sessions, self.num_rx, self._body_paths, n)
        rt, amp = rt.reshape(shape), amp.reshape(shape)
        if any(h is not None for h in hands):
            # Seen by the antennas alone, not their images. A session
            # without a gesture stands in its surface with zero RCS.
            hand = np.stack(
                [s if h is None else h for s, h in zip(surfaces, hands)]
            )
            rcs = np.array([
                0.0 if h is None else scn.body.arm_rcs_m2
                for scn, h in zip(self.scenarios, hands)
            ])[:, None, None]
            rx = slice(None, None, self._body_paths)
            hand_rt, hand_amp = self._resolve(
                hand, self._positions[:, rx], self._boresights[:, rx], rcs,
                self._factors[:, rx],
            )
            rt = np.concatenate([rt, hand_rt[:, :, None]], axis=2)
            amp = np.concatenate([amp, hand_amp[:, :, None]], axis=2)
        if any(j is not None for j in jitters):
            jitter = np.zeros((n_sessions, self.num_rx, 1, n))
            for k, j in enumerate(jitters):
                if j is not None:
                    jitter[k, :, 0] = j
            rt += jitter
        return rt, amp

    def path_sets(
        self,
        surfaces: Sequence[np.ndarray],
        hands: Sequence[np.ndarray | None],
        jitters: Sequence[Sequence[np.ndarray] | None],
    ) -> list[list[list[Path]]]:
        """Per session, per antenna, the dynamic :class:`Path` list.

        The arrays of :meth:`solve` as ``Path`` objects, or under the
        ``reference`` backend :meth:`Scenario._paths_for_antenna` itself.
        Takes the arguments of :meth:`solve`.
        """
        if not active_backend().static_split:
            return [
                [
                    scn._paths_for_antenna(
                        rx,
                        surface,
                        hand,
                        jitter[i] if jitter is not None
                        else np.zeros(len(surface)),
                    )
                    for i, rx in enumerate(scn.array.rx)
                ]
                for scn, surface, hand, jitter in zip(
                    self.scenarios, surfaces, hands, jitters
                )
            ]
        rt, amp = self.solve(surfaces, hands, jitters)
        names = self._names + ["hand"]
        return [
            [
                [
                    Path(rt[k, i, j], amp[k, i, j], name=names[j])
                    for j in range(self._body_paths + (hand is not None))
                ]
                for i in range(self.num_rx)
            ]
            for k, hand in enumerate(hands)
        ]

    def synthesize(
        self,
        synthesizer: SweepSynthesizer,
        surfaces: Sequence[np.ndarray],
        hands: Sequence[np.ndarray | None],
        jitters: Sequence[Sequence[np.ndarray] | None],
        out: np.ndarray,
    ) -> np.ndarray:
        """Scatter every session's dynamic paths into ``out``.

        ``out`` is ``(n_sessions * n_rx, n, n_bins)``, one stream per
        (session, antenna) in that order, typically prefilled with the
        static clutter. The solved arrays go straight to
        :meth:`SweepSynthesizer.synthesize_paths` — bitwise what
        ``synthesize_batch`` makes of :meth:`path_sets` on the same out.
        Takes the arguments of :meth:`solve`.
        """
        rt, amp = self.solve(surfaces, hands, jitters)
        n_sessions, n_rx, n_paths, n = rt.shape
        streams = np.repeat(np.arange(n_sessions * n_rx), n_paths)
        return synthesizer.synthesize_paths(
            rt.reshape(-1, n), amp.reshape(-1, n), streams, out
        )

    def _resolve(self, points, positions, boresights, rcs_m2, factors):
        """Round trips and amplitudes of ``points`` ``(S, n, 3)``.

        Seen by ``(S, M)`` receivers at ``positions`` ``(S, M, 3)`` with
        ``boresights`` ``(S, M, 3, 1)``; ``rcs_m2`` is ``(S, 1, 1)`` and
        ``factors`` the ``(S, M, 1)`` loss factors. :meth:`Scenario._amplitudes`'s arithmetic, in its
        order; returns two ``(S, M, n)`` arrays.
        """
        tx = self._tx
        offsets = points - tx.position
        d_tx = np.linalg.norm(offsets, axis=-1)[:, None]
        g_tx = _gains(offsets, d_tx[:, 0], tx.boresight[:, None], self._beam)
        offsets = points[:, None] - positions[:, :, None]
        d_rx = np.linalg.norm(offsets, axis=-1)
        g_rx = _gains(offsets, d_rx, boresights, self._beam)
        power = (
            self._tx_power_w
            * g_tx[:, None]
            * g_rx
            * self._lam2
            * rcs_m2
            / (
                (4.0 * np.pi) ** 3
                * np.maximum(d_tx, 0.1) ** 2
                * np.maximum(d_rx, 0.1) ** 2
            )
        )
        amplitude = np.sqrt(power)
        amplitude *= factors
        return d_tx + d_rx, amplitude


class ScenarioStream:
    """Streaming synthesis state of one scenario.

    Owns everything :meth:`Scenario.frames` carries between chunks —
    the surface-wander stream, the static clutter field, the wall and
    hand AR(1) walks, the synthesizer — and splits chunk production
    into the steps a cohort-fused source needs individually:
    :meth:`advance` (sequential AR-texture state), then path geometry
    and synthesis. Under the numpy backend :meth:`synthesize` solves
    the chunk's dynamic paths as arrays (:class:`PathGeometry`) and
    scatters them over a cached clutter template; :meth:`path_sets`
    gives the same paths as per-antenna ``Path`` lists, and is what
    the ``reference`` backend synthesizes from. ``frames()`` is one
    stream consumed alone; :class:`repro.sim.cohort.CohortFrameSource`
    advances N of these and solves and scatters all their paths in one
    array program per chunk.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        cfg = scenario.config
        self.dt = cfg.fmcw.sweep_duration_s
        self.spf = cfg.pipeline.sweeps_per_frame
        self.n_frames = scenario.num_stream_frames
        reflection = ReflectionModel(scenario.body)
        self._surface_stream = reflection.stream(
            self.dt,
            np.random.default_rng(scenario.seed),
            device_position=scenario.array.tx.position,
            floor_z=scenario.room.floor_z,
        )
        self._clutter = scenario._clutter(
            np.random.default_rng([scenario.seed, 104_729])
        )
        noise = NoiseModel(
            noise_figure_db=cfg.simulation.noise_figure_db,
            bandwidth_hz=1.0 / self.dt,
        )
        self.synthesizer = SweepSynthesizer(
            cfg.fmcw, noise, max_range_m=cfg.pipeline.max_range_m
        )
        self.num_rx = scenario.array.num_receivers
        wall_std = (
            scenario.room.wall_tof_jitter_std_m
            if scenario.room.is_through_wall
            else 0.0
        )
        self._wall_std = wall_std
        self._wall_walks = None
        if wall_std > 0.0:
            wall_rho = float(np.exp(-self.dt / _WALL_JITTER_TAU_S))
            self._wall_walks = [
                GatedAR1(
                    wall_rho,
                    np.random.default_rng(scenario.seed * 7919 + i + 1),
                )
                for i in range(self.num_rx)
            ]
        self._hand_walk = None
        self._prev_hand: np.ndarray | None = None
        self._geometry: PathGeometry | None = None
        self._template: np.ndarray | None = None
        if scenario.gesture is not None:
            self._hand_walk = GatedAR1(
                float(np.exp(-self.dt / _HAND_WANDER_TAU_S)),
                np.random.default_rng(scenario.seed * 31 + 5),
                dim=3,
            )

    def advance(self, f0: int, f1: int) -> tuple:
        """Advance every streaming state over frames ``[f0, f1)``.

        Returns ``(surface, hand, jitters)`` for :meth:`synthesize`,
        :meth:`path_sets` or a cohort's :meth:`PathGeometry.solve`.
        Chunks must be consumed in order without gaps — the AR textures
        are sequential per sweep.
        """
        scn = self.scenario
        sweep_times = np.arange(f0 * self.spf, f1 * self.spf) * self.dt
        centers = scn.trajectory.resample(sweep_times)
        activity = self._surface_stream.activity(centers)
        surface = self._surface_stream.points(centers, activity=activity)
        hand = None
        if scn.gesture is not None:
            assert self._hand_walk is not None
            hand, self._prev_hand = scn._hand_chunk(
                sweep_times, self.dt, self._hand_walk, self._prev_hand
            )
        jitters = None
        if self._wall_walks is not None:
            jitters = [
                self._wall_std * walk.advance(activity)
                for walk in self._wall_walks
            ]
        return surface, hand, jitters

    @property
    def geometry(self) -> PathGeometry:
        """This session's :class:`PathGeometry` (built on first use)."""
        if self._geometry is None:
            self._geometry = PathGeometry([self.scenario])
        return self._geometry

    def path_sets(self, surface, hand, jitters) -> list:
        """Per-antenna path lists for one advanced chunk (length n_rx).

        Each list is the static clutter followed by the dynamic paths.
        """
        return [
            self._clutter + paths
            for paths in self.geometry.path_sets(
                [surface], [hand], [jitters]
            )[0]
        ]

    def synthesize(self, f0: int, f1: int, surface, hand, jitters):
        """Noise-free chunk spectra ``(n_rx, (f1-f0)*spf, n_bins)``."""
        n_sweeps = (f1 - f0) * self.spf
        if not active_backend().static_split:
            return self.synthesizer.synthesize_batch(
                self.path_sets(surface, hand, jitters), n_sweeps
            )
        if self._template is None:
            self._template = self.synthesizer.synthesize_batch(
                [self._clutter] * self.num_rx, 1
            )[:, 0, :]
        out = np.empty(
            (self.num_rx, n_sweeps, self.synthesizer.num_bins),
            dtype=np.complex128,
        )
        out[:] = self._template[:, None, :]
        return self.geometry.synthesize(
            self.synthesizer, [surface], [hand], [jitters], out
        )

    def add_keyed_noise(self, block, i: int, f0: int, f1: int) -> None:
        """Thermal noise + phase jitter for one antenna's chunk, in place.

        Keyed per (antenna, frame) so the result is chunk-size
        invariant and shards reproduce the full stream bitwise.
        """
        spf = self.spf
        for f in range(f0, f1):
            row = (f - f0) * spf
            self.synthesizer.add_noise(
                block[row : row + spf],
                np.random.default_rng([self.scenario.seed, 65_537, i, f]),
            )
