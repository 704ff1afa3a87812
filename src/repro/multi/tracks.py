"""Per-target Kalman bank with track lifecycle management.

Each person is a :class:`Track` carrying the multi-person analogue of
the paper's Section 4.4 pipeline: one 1D constant-velocity Kalman filter
per receive antenna running on that person's *round-trip distance*, with
the 3D position solved from the smoothed TOFs every frame. Solving from
smoothed (rather than raw) TOFs matters enormously: the T-array's
closed-form z is noise-amplifying at range (``dz/dk3 ~ k3 - r0``), so a
15 cm raw-contour error turns into a meter of z scatter — the same
reason the single-person pipeline smooths before solving.

Association happens in TOF space, per antenna: each track predicts where
its echo must land on every antenna and claims the nearest candidate
within a gate. A track that claims most antennas scores a hit; fewer and
it coasts, with unclaimed antennas coasting *individually* — one flaky
antenna does not break a track. Unclaimed candidates feed track births
through the cross-antenna combination solver.

The lifecycle lets people enter and leave the scene:

    TENTATIVE --(confirm_hits updates)--> CONFIRMED
    TENTATIVE --(a few misses)----------> DEAD
    CONFIRMED --(miss)------------------> COASTING (emits predictions)
    COASTING  --(hit)-------------------> CONFIRMED
    COASTING  --(budget/support out)----> DEAD
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..core.kalman import dwna_process_noise
from .association import (
    MAX_CLAIM_GATE_M,
    FixGate,
    Solver,
    candidate_fixes,
    candidate_fixes_batched,
    claim_candidates,
)


def tracks_to_arrays(
    tracks: list[list[tuple[int, np.ndarray]]],
) -> dict[str, np.ndarray]:
    """Stable array serialization of per-frame track lists.

    The ragged ``tracks`` field of a multi-person
    :class:`~repro.pipeline.PipelineResult` — one ``(track_id,
    position)`` list per frame — flattened into three fixed-dtype
    arrays: per-frame entry counts, flat track ids, and flat positions.
    This is what lets the result-level cache hold multi-person runs
    (the caveat PR 4 left open): the arrays round-trip through ``.npz``
    bitwise, and :func:`tracks_from_arrays` rebuilds the exact lists.

    Args:
        tracks: per-frame reportable ``(track_id, position)`` lists.

    Returns:
        ``{"track_counts", "track_ids_flat", "track_positions_flat"}``
        with shapes ``(n_frames,)``, ``(total,)``, ``(total, 3)``.
    """
    counts = np.asarray([len(frame) for frame in tracks], dtype=np.int64)
    flat = [entry for frame in tracks for entry in frame]
    ids = np.asarray([tid for tid, _ in flat], dtype=np.int64)
    if flat:
        positions = np.stack([np.asarray(pos, dtype=np.float64)
                              for _, pos in flat])
    else:
        positions = np.zeros((0, 3))
    return {
        "track_counts": counts,
        "track_ids_flat": ids,
        "track_positions_flat": positions,
    }


def tracks_from_arrays(
    counts: np.ndarray, ids: np.ndarray, positions: np.ndarray
) -> list[list[tuple[int, np.ndarray]]]:
    """Rebuild per-frame track lists from :func:`tracks_to_arrays`."""
    if int(counts.sum()) != len(ids) or len(ids) != len(positions):
        raise ValueError(
            f"inconsistent track arrays: counts sum to {int(counts.sum())} "
            f"but {len(ids)} ids / {len(positions)} positions given"
        )
    out: list[list[tuple[int, np.ndarray]]] = []
    offset = 0
    for count in counts:
        frame = [
            (int(ids[offset + j]), positions[offset + j].copy())
            for j in range(int(count))
        ]
        out.append(frame)
        offset += int(count)
    return out


class TrackStatus(enum.Enum):
    """Lifecycle state of one track."""

    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    COASTING = "coasting"
    DEAD = "dead"


@dataclass(frozen=True)
class TrackManagerConfig:
    """Tunables of the track lifecycle and assignment.

    Attributes:
        tof_gate_m: per-antenna gate between a track's predicted round
            trip and a claimed candidate.
        tof_gate_growth_mps: gate widening per second of coasting — the
            person may have kept moving while undetected.
        max_tof_gate_m: cap on the widened TOF gate; finite, positive
            and at most
            :data:`~repro.multi.association.MAX_CLAIM_GATE_M`, so a
            gate never admits the ``1e6`` cost that pads a non-finite
            cell of the claim assignment.
        min_claims: antennas a track must claim in a frame for the frame
            to count as a hit (fewer antennas coast individually).
        confirm_hits: hit frames before a tentative track is real.
        max_tentative_misses: misses that kill an unconfirmed track.
        max_coast_frames: upper bound on frames a confirmed track may
            coast before it is declared gone (240 frames = 3 s at the
            12.5 ms cadence, enough to ride out a walker's pause).
        coast_per_hit: evidence-proportional coast budget — a track may
            coast at most ``coast_per_hit * hits`` frames (capped by
            ``max_coast_frames``), so a ghost that scraped together the
            minimum confirmations dies within a few frames of losing
            support while a long-lived real track rides out occlusions.
        coast_velocity_decay: per-frame damping of the TOF velocity
            states while an antenna is unclaimed. A person who vanishes
            from the background-subtracted spectrogram has *stopped
            moving* (Section 4.4), so the prediction should settle
            where she stopped instead of drifting away at walking speed.
        birth_exclusion_m: no new track births from a fix this close to
            an existing live track — a secondary echo of an already-
            tracked person must not spawn a duplicate sibling track.
        support_time_constant_s: time constant of the exponential
            recent-support average.
        min_support: a confirmed track whose recent support falls below
            this dies. This is the zombie kill: a track that lost its
            person but scrapes an occasional ghost fix never lets its
            miss counter reach ``max_coast_frames``, yet its support
            decays all the same. A genuine pause (up to ~2 s) keeps a
            well-supported track above the threshold.
        tof_process_noise: white-acceleration density of the per-antenna
            TOF filters (the paper's Kalman stage runs at ~10).
        tof_measurement_noise: variance of one raw contour sample (m^2).
    """

    tof_gate_m: float = 0.35
    tof_gate_growth_mps: float = 1.5
    max_tof_gate_m: float = 2.0
    min_claims: int = 2
    confirm_hits: int = 4
    max_tentative_misses: int = 2
    max_coast_frames: int = 240
    coast_per_hit: float = 2.0
    coast_velocity_decay: float = 0.97
    birth_exclusion_m: float = 1.0
    support_time_constant_s: float = 1.25
    min_support: float = 0.25
    tof_process_noise: float = 10.0
    tof_measurement_noise: float = 4e-3

    def __post_init__(self) -> None:
        if self.tof_gate_m <= 0:
            raise ValueError("tof_gate_m must be positive")
        if not 0 < self.max_tof_gate_m <= MAX_CLAIM_GATE_M:
            raise ValueError(
                "max_tof_gate_m must be finite, positive and at most "
                f"{MAX_CLAIM_GATE_M} m, got {self.max_tof_gate_m}"
            )
        if self.confirm_hits < 1:
            raise ValueError("confirm_hits must be at least 1")
        if self.max_coast_frames < 1:
            raise ValueError("max_coast_frames must be at least 1")
        if self.min_claims < 1:
            raise ValueError("min_claims must be at least 1")


def _filter_step(
    values: np.ndarray,
    mean: np.ndarray,
    cov: np.ndarray,
    dt: float,
    q00: float,
    q01: float,
    q11: float,
    r: float,
    decay: float,
) -> None:
    """One predict/update step of the per-antenna TOF filters, in place.

    Elementwise over any leading shape: ``values`` is ``(...,)`` aligned
    with ``mean`` ``(..., 2)`` and ``cov`` ``(..., 2, 2)``. Finite cells
    run the measurement update; NaN cells predict and damp their
    velocity by ``decay`` (the paper's stopped-person semantics). The
    arithmetic is the unrolled 2x2 tree shared with the fused tick
    kernels (:mod:`repro.kernels`), so one track's scalar step and a
    whole cohort bank's batched step are the same IEEE operations —
    which is what lets :class:`TrackBank` advance every session's
    tracks in array math while staying bit-identical to the per-slot
    :meth:`TrackManager.step`.
    """
    m0 = mean[..., 0]
    m1 = mean[..., 1]
    c00 = cov[..., 0, 0]
    c01 = cov[..., 0, 1]
    c10 = cov[..., 1, 0]
    c11 = cov[..., 1, 1]
    pm0 = m0 + dt * m1
    a00 = c00 + dt * c10
    a01 = c01 + dt * c11
    p00 = (a00 + a01 * dt) + q00
    p01 = a01 + q01
    p10 = (c10 + c11 * dt) + q01
    p11 = c11 + q11
    measured = np.isfinite(values)
    with np.errstate(invalid="ignore"):
        innovation = values - pm0
        s = p00 + r
        g0 = p00 / s
        g1 = p10 / s
        um0 = pm0 + g0 * innovation
        um1 = m1 + g1 * innovation
        uc00 = (1.0 - g0) * p00
        uc01 = (1.0 - g0) * p01
        uc10 = (-g1) * p00 + p10
        uc11 = (-g1) * p01 + p11
        cm1 = m1 * decay
    mean[..., 0] = np.where(measured, um0, pm0)
    mean[..., 1] = np.where(measured, um1, cm1)
    cov[..., 0, 0] = np.where(measured, uc00, p00)
    cov[..., 0, 1] = np.where(measured, uc01, p01)
    cov[..., 1, 0] = np.where(measured, uc10, p10)
    cov[..., 1, 1] = np.where(measured, uc11, p11)


class Track:
    """One hypothesized person: a per-antenna TOF Kalman bank.

    Args:
        track_id: stable identity of this track.
        dt_s: frame interval.
        tofs: the birthing fix's per-antenna round trips, shape
            ``(n_rx,)``.
        position: the birthing 3D fix.
        config: lifecycle tunables.
    """

    def __init__(
        self,
        track_id: int,
        dt_s: float,
        tofs: np.ndarray,
        position: np.ndarray,
        config: TrackManagerConfig,
    ) -> None:
        self.track_id = track_id
        self.config = config
        self.status = TrackStatus.TENTATIVE
        self.hits = 1
        self.misses = 0
        self.age = 1
        self.support = 1.0
        self._dt_s = dt_s
        self._support_decay = float(
            np.exp(-dt_s / config.support_time_constant_s)
        )
        self.position = np.asarray(position, dtype=np.float64).copy()
        # Per-antenna constant-velocity filter state, structure-of-arrays:
        # mean (n_rx, 2) and covariance (n_rx, 2, 2). The first
        # measurement initializes state [tof, 0] with cov diag(r, 1) —
        # exactly KalmanFilter1D's first update.
        n_rx = len(tofs)
        self._q00, self._q01, self._q11 = dwna_process_noise(
            dt_s, config.tof_process_noise
        )
        self._r = float(config.tof_measurement_noise)
        self._mean = np.zeros((n_rx, 2))
        self._mean[:, 0] = np.asarray(tofs, dtype=np.float64)
        self._cov = np.zeros((n_rx, 2, 2))
        self._cov[:, 0, 0] = self._r
        self._cov[:, 1, 1] = 1.0
        if config.confirm_hits <= 1:
            self.status = TrackStatus.CONFIRMED

    @property
    def num_rx(self) -> int:
        """Number of per-antenna TOF filters."""
        return self._mean.shape[0]

    @property
    def is_alive(self) -> bool:
        """True until the track dies."""
        return self.status is not TrackStatus.DEAD

    @property
    def is_reportable(self) -> bool:
        """True for confirmed or coasting tracks (what the app emits)."""
        return self.status in (TrackStatus.CONFIRMED, TrackStatus.COASTING)

    @property
    def smoothed_tofs(self) -> np.ndarray:
        """Current filtered per-antenna round trips, shape ``(n_rx,)``."""
        return self._mean[:, 0].copy()

    def predicted_tofs(self) -> np.ndarray:
        """One-frame-ahead round trips *without* advancing filter state."""
        return self._mean[:, 0] + self._dt_s * self._mean[:, 1]

    def tof_gate_m(self) -> float:
        """Current per-antenna claim gate, widened while coasting."""
        grown = self.config.tof_gate_m + (
            self.config.tof_gate_growth_mps * self.misses * self._dt_s
        )
        return float(min(grown, self.config.max_tof_gate_m))

    def advance(
        self,
        claimed_tofs: np.ndarray,
        solver: Solver,
        gate: FixGate | None = None,
    ) -> None:
        """Advance one frame with the claimed per-antenna candidates.

        Args:
            claimed_tofs: per-antenna claimed round trips, NaN where no
                candidate was claimed (those antennas coast).
            solver: localization solver used to refresh the 3D position
                from the smoothed TOFs.
            gate: feasible volume. Frames solved outside it earn zero
                support no matter how many antennas were claimed: a
                multipath ghost's TOFs stay self-consistent, but its
                ellipsoid intersection walks out through the ceiling or
                the floor — a real person cannot, so the ghost starves
                on support decay while a real track shrugs off a
                transient excursion during a coast.
        """
        values = np.asarray(claimed_tofs, dtype=np.float64)
        claims = int(np.count_nonzero(np.isfinite(values)))
        _filter_step(
            values,
            self._mean,
            self._cov,
            self._dt_s,
            self._q00,
            self._q01,
            self._q11,
            self._r,
            self.config.coast_velocity_decay,
        )
        solved = solver.solve_one(self._mean[:, 0])
        feasible = bool(np.all(np.isfinite(solved)))
        if feasible and gate is not None:
            feasible = bool(gate.admits(solved[None, :])[0])
        self._register(claims, solved, feasible)

    def _register(
        self, claims: int, solved: np.ndarray, feasible: bool
    ) -> None:
        """Fold one frame's claim count and solved fix into the lifecycle.

        Shared tail of :meth:`advance` and the cohort
        :class:`TrackBank` step (which computes ``solved``/``feasible``
        batched across every session's tracks).
        """
        if feasible:
            self.position = solved
        if claims >= min(self.config.min_claims, self.num_rx):
            # Support grows with the *fraction* of antennas claimed: a
            # parasite track scraping two noise candidates now and then
            # starves, while a person seen by the whole array thrives.
            self._hit(claims / self.num_rx if feasible else 0.0)
        else:
            self._miss()

    # -- lifecycle ---------------------------------------------------------

    def _hit(self, weight: float = 1.0) -> None:
        self.hits += 1
        self.misses = 0
        self.age += 1
        self.support = (
            self._support_decay * self.support
            + (1.0 - self._support_decay) * weight
        )
        if self.status is TrackStatus.COASTING:
            self.status = TrackStatus.CONFIRMED
        elif (
            self.status is TrackStatus.TENTATIVE
            and self.hits >= self.config.confirm_hits
        ):
            self.status = TrackStatus.CONFIRMED

    def _miss(self) -> None:
        self.misses += 1
        self.age += 1
        self.support *= self._support_decay
        if self.status is TrackStatus.TENTATIVE:
            if self.misses > self.config.max_tentative_misses:
                self.status = TrackStatus.DEAD
        else:
            self.status = TrackStatus.COASTING
            budget = min(
                self.config.max_coast_frames,
                self.config.coast_per_hit * self.hits,
            )
            if self.misses > budget or self.support < self.config.min_support:
                self.status = TrackStatus.DEAD


@dataclass(frozen=True)
class MultiTrack:
    """K concurrent 3D tracks — the multi-person mirror of
    :class:`~repro.core.tracker.TrackResult`.

    Attributes:
        frame_times_s: timestamp of each output frame.
        positions: per-track positions, shape ``(n_tracks, n_frames, 3)``;
            NaN rows mark frames where the track was not reportable
            (before confirmation, or after death).
        track_ids: stable identity per track row.
        coasting: True where a position is a coasted prediction rather
            than a measurement-updated estimate.
    """

    frame_times_s: np.ndarray
    positions: np.ndarray
    track_ids: tuple[int, ...]
    coasting: np.ndarray

    @property
    def num_frames(self) -> int:
        """Number of output frames."""
        return len(self.frame_times_s)

    @property
    def num_tracks(self) -> int:
        """Number of tracks that ever got confirmed."""
        return len(self.track_ids)

    @property
    def active_mask(self) -> np.ndarray:
        """Boolean mask of reportable (track, frame) cells."""
        return np.isfinite(self.positions).all(axis=2)

    @property
    def count_per_frame(self) -> np.ndarray:
        """People reported in each frame, shape ``(n_frames,)``."""
        return self.active_mask.sum(axis=0)

    def track(self, track_id: int) -> np.ndarray:
        """Positions of one track by id, shape ``(n_frames, 3)``."""
        idx = self.track_ids.index(track_id)
        return self.positions[idx]

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Pure-array form of the whole result (``.npz``-storable).

        Everything a :class:`MultiTrack` carries is already dense
        arrays except the ``track_ids`` tuple; :meth:`from_arrays`
        round-trips bitwise — the multi-person result-cache entry
        format.
        """
        return {
            "frame_times_s": self.frame_times_s,
            "positions": self.positions,
            "track_ids": np.asarray(self.track_ids, dtype=np.int64),
            "coasting": self.coasting,
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "MultiTrack":
        """Rebuild a :class:`MultiTrack` from :meth:`to_arrays` output."""
        return cls(
            frame_times_s=arrays["frame_times_s"],
            positions=arrays["positions"],
            track_ids=tuple(int(i) for i in arrays["track_ids"]),
            coasting=arrays["coasting"].astype(bool),
        )


@dataclass
class _Snapshot:
    """Reportable tracks of one frame (internal history record)."""

    entries: dict[int, tuple[np.ndarray, bool]] = field(default_factory=dict)


class TrackManager:
    """Birth, update, coast, and kill tracks frame by frame.

    Drives the offline tracker and the streaming app alike: call
    :meth:`step` once per frame with that frame's per-antenna candidate
    TOF sets, then :meth:`result` to package the accumulated history.

    Args:
        frame_dt_s: frame interval (12.5 ms at the paper's cadence).
        solver: localization solver of the deployed array.
        config: lifecycle tunables.
        gate: feasibility gate for birth fixes.
        ghost_images: bounce-plane antenna images for multipath-ghost
            suppression (see :func:`repro.multi.association.candidate_fixes`).
        max_births_per_frame: cap on new tracks born in one frame. One
            per frame (the default) staggers the scene start: the
            strongest person births first and her multipath arcs veto
            ghost births from the very next frame.
    """

    def __init__(
        self,
        frame_dt_s: float,
        solver: Solver,
        config: TrackManagerConfig | None = None,
        gate: FixGate | None = None,
        ghost_images: np.ndarray | None = None,
        max_births_per_frame: int = 1,
    ) -> None:
        if frame_dt_s <= 0:
            raise ValueError("frame_dt_s must be positive")
        self.frame_dt_s = frame_dt_s
        self.solver = solver
        self.config = config or TrackManagerConfig()
        self.gate = gate or FixGate()
        self.ghost_images = ghost_images
        self.max_births_per_frame = max_births_per_frame
        self.tracks: list[Track] = []
        self._next_id = 1
        self._history: list[_Snapshot] = []
        self._ever_confirmed: list[int] = []

    @property
    def num_frames(self) -> int:
        """Frames processed so far."""
        return len(self._history)

    def live_tracks(self) -> list[Track]:
        """Tracks that are not dead."""
        return [t for t in self.tracks if t.is_alive]

    def reportable_tracks(self) -> list[Track]:
        """Confirmed or coasting tracks, the per-frame app output."""
        return [t for t in self.tracks if t.is_reportable]

    def step(
        self,
        tof_sets: list[np.ndarray],
        power_sets: list[np.ndarray] | None = None,
    ) -> list[Track]:
        """Process one frame of per-antenna candidate TOF sets.

        Args:
            tof_sets: candidate round trips per antenna (NaN-padded),
                one entry per receive antenna; entries may differ in
                length.
            power_sets: echo power of each candidate, aligned with
                ``tof_sets``.

        Returns:
            The reportable tracks after this frame.
        """
        tofs = [np.asarray(s, dtype=np.float64) for s in tof_sets]
        live = self.live_tracks()

        # Per-antenna claim: gated 1D assignment between every track's
        # predicted round trip and the frame's candidates, padded at
        # the end to one (rx, K) table so candidate indices hold.
        table = np.full((len(tofs), max(map(len, tofs), default=0)), np.nan)
        for a, values in enumerate(tofs):
            table[a, : len(values)] = values
        claimed, consumed = claim_candidates(
            np.array([t.predicted_tofs() for t in live]).reshape(
                len(live), len(tofs)
            ),
            np.array([t.tof_gate_m() for t in live]),
            table[None],
            [len(live)],
        )
        for t_idx, track in enumerate(live):
            track.advance(claimed[t_idx], self.solver, self.gate)

        # Births from the candidates no track claimed, with the live
        # tracks' multipath arcs pre-seeded as ghost evidence.
        keep = np.isfinite(table) & ~consumed[0]
        leftovers = [
            np.where(keep[a, : len(values)], values, np.nan)
            for a, values in enumerate(tofs)
        ]
        leftover_powers = None
        if power_sets is not None:
            leftover_powers = [
                np.where(keep[a, : len(values)], np.asarray(power), np.nan)
                for a, (values, power) in enumerate(zip(tofs, power_sets))
            ]
        self._births(leftovers, leftover_powers, live)
        return self._finalize()

    def _births(
        self,
        leftovers: list[np.ndarray],
        leftover_powers: list[np.ndarray] | None,
        live: list[Track],
    ) -> None:
        """Birth tracks from unclaimed candidates.

        ``live`` is the step-start live list, post-advance: it seeds the
        ghost veto and the birth-exclusion neighborhood.
        """
        births = candidate_fixes(
            leftovers,
            self.solver,
            gate=self.gate,
            power_sets=leftover_powers,
            max_fixes=self.max_births_per_frame,
            ghost_images=self.ghost_images,
            seed_positions=self._birth_seeds(live),
        )
        self._adopt_births(births, live)

    def _birth_seeds(self, live: list[Track]) -> list[np.ndarray]:
        """Ghost-veto seed positions for this frame's birth attempt.

        Any track with real evidence seeds the veto — waiting for
        confirmation would leave the first frames unguarded, and
        early-born multipath ghosts are the persistent ones.
        """
        return [t.position for t in live if t.hits >= 2]

    def _adopt_births(
        self, births: np.ndarray, live: list[Track]
    ) -> None:
        """Turn surviving birth fixes into tracks (exclusion applied).

        Split from :meth:`_births` so the cohort :class:`TrackBank` can
        feed it fixes from one batched
        :func:`~repro.multi.association.candidate_fixes_batched` pass.
        """
        born: list[np.ndarray] = []
        for fix in births:
            neighbors = [t.position for t in live if t.is_alive] + born
            if any(
                np.linalg.norm(p - fix) < self.config.birth_exclusion_m
                for p in neighbors
            ):
                continue
            self.tracks.append(
                Track(
                    self._next_id,
                    self.frame_dt_s,
                    self.solver.array.round_trip_distances(fix),
                    fix,
                    self.config,
                )
            )
            self._next_id += 1
            born.append(fix)

    def _finalize(self) -> list[Track]:
        """Cull dead tracks and record the frame snapshot (shared tail)."""
        self.tracks = [t for t in self.tracks if t.is_alive]

        snapshot = _Snapshot()
        for track in self.tracks:
            if track.is_reportable:
                if track.track_id not in self._ever_confirmed:
                    self._ever_confirmed.append(track.track_id)
                snapshot.entries[track.track_id] = (
                    track.position.copy(),
                    track.status is TrackStatus.COASTING,
                )
        self._history.append(snapshot)
        return self.reportable_tracks()

    def result(self, frame_times_s: np.ndarray) -> MultiTrack:
        """Package the accumulated history as a :class:`MultiTrack`."""
        frame_times_s = np.asarray(frame_times_s, dtype=np.float64)
        if len(frame_times_s) != self.num_frames:
            raise ValueError(
                f"{self.num_frames} frames processed but "
                f"{len(frame_times_s)} timestamps given"
            )
        ids = tuple(self._ever_confirmed)
        n_tracks = len(ids)
        positions = np.full((n_tracks, self.num_frames, 3), np.nan)
        coasting = np.zeros((n_tracks, self.num_frames), dtype=bool)
        index = {track_id: row for row, track_id in enumerate(ids)}
        for f, snapshot in enumerate(self._history):
            for track_id, (position, coasted) in snapshot.entries.items():
                row = index[track_id]
                positions[row, f] = position
                coasting[row, f] = coasted
        return MultiTrack(
            frame_times_s=frame_times_s,
            positions=positions,
            track_ids=ids,
            coasting=coasting,
        )


class TrackBank:
    """Structure-of-arrays stepper: one frame of many sessions at once.

    :meth:`TrackManager.step` advances one session, walking its
    :class:`Track` objects one at a time; stepping each slot's manager
    in turn is the bank's executable spec. The bank advances a whole
    cohort tick (:class:`~repro.pipeline.multi.Associate`, fused or
    staged) over a ``(slot, track)`` axis: it gathers every ticking
    slot's live-track filter state into stacked arrays, runs
    prediction, gating, the Kalman updates, and batched localization
    across all slots in array math, and scatters the results back into
    the managers' tracks. Claims run as one pass over every ``(slot,
    antenna)`` problem (:func:`~repro.multi.association.
    claim_candidates`, which the per-slot step calls for its one slot):
    problems whose in-gate pairs already form a matching are written
    with array math, and only the rest run the Hungarian solve.
    Births — attempted on nearly every slot-tick, since some candidate
    is almost always unclaimed — run as one array program over the
    cohort's leftover tensors
    (:func:`~repro.multi.association.candidate_fixes_batched`), whose
    slot ``s`` is bitwise the per-slot :meth:`TrackManager._births`
    call.

    The managers remain the single source of truth: the bank holds no
    state of its own, so snapshot/restore, eviction, and the
    ``engine.track_manager`` accessors are untouched, and after a bank
    step every manager is bit-identical to having stepped it on its
    own — the Kalman tree (:func:`_filter_step`), the lifecycle tail
    (:meth:`Track._register`), the claim pass, and birth adoption are
    literally the same code, just batched where the math is
    elementwise.

    Requires a row-independent solver (``solver.row_independent``, e.g.
    the closed-form T-geometry solver): the batched ``solver.solve``
    over all slots' tracks must equal the per-track ``solve_one`` calls
    bitwise. ``Associate`` routes only such cohorts through the bank.
    All managers of a serving cohort share one spec, so the frame
    interval, lifecycle config, fix gate, and solver are read from the
    first manager.
    """

    def step(
        self,
        managers: list[TrackManager],
        candidates: np.ndarray,
        powers: np.ndarray,
    ) -> list[list[tuple[int, np.ndarray]]]:
        """Advance one frame of every manager from its candidate sets.

        Args:
            managers: the ticking slots' managers, in tick-row order
                (one entry per row; a manager may appear once only).
            candidates: candidate round trips, shape
                ``(n_rows, n_rx, K)``, NaN-padded.
            powers: echo power per candidate, same shape.

        Returns:
            Per row, the reportable ``(track_id, position)`` pairs —
            exactly the per-slot :meth:`TrackManager.step` output.
        """
        lead = managers[0]
        dt = lead.frame_dt_s
        cfg = lead.config
        live_per = [m.live_tracks() for m in managers]
        all_tracks = [t for live in live_per for t in live]
        total = len(all_tracks)

        consumed = np.zeros(candidates.shape, dtype=bool)
        if total:
            # Gather: (track, antenna) filter state across every slot.
            mean = np.stack([t._mean for t in all_tracks])
            cov = np.stack([t._cov for t in all_tracks])
            misses = np.array(
                [t.misses for t in all_tracks], dtype=np.float64
            )
            predictions = mean[:, :, 0] + dt * mean[:, :, 1]
            gates = np.minimum(
                cfg.tof_gate_m + cfg.tof_gate_growth_mps * misses * dt,
                cfg.max_tof_gate_m,
            )
            claimed, consumed = claim_candidates(
                predictions,
                gates,
                candidates,
                [len(live) for live in live_per],
            )
            # Advance: one Kalman tree over every (track, antenna) cell,
            # one localization solve over every track.
            q00, q01, q11 = dwna_process_noise(dt, cfg.tof_process_noise)
            _filter_step(
                claimed,
                mean,
                cov,
                dt,
                q00,
                q01,
                q11,
                float(cfg.tof_measurement_noise),
                cfg.coast_velocity_decay,
            )
            solved = lead.solver.solve(mean[:, :, 0]).positions
            feasible = np.all(np.isfinite(solved), axis=1)
            # NaN rows compare False everywhere, so gating the whole
            # batch equals the per-track finite-then-gate short circuit.
            feasible &= lead.gate.admits(solved)
            claims = np.count_nonzero(np.isfinite(claimed), axis=1)
            for i, track in enumerate(all_tracks):
                track._mean[:] = mean[i]
                track._cov[:] = cov[i]
                track._register(
                    int(claims[i]), solved[i].copy(), bool(feasible[i])
                )

        # Leftovers: every finite candidate no track claimed, one
        # vectorized mask instead of per-slot keep loops. Births run as
        # one array program over the whole cohort's leftover tensors
        # (the gate, ghost images, and birth cap are cohort-wide spec
        # state, read from the lead manager like the rest of the step).
        keep = np.isfinite(candidates) & ~consumed
        births_per = candidate_fixes_batched(
            np.where(keep, candidates, np.nan),
            lead.solver,
            gate=lead.gate,
            power_slots=np.where(keep, powers, np.nan),
            max_fixes=lead.max_births_per_frame,
            ghost_images=lead.ghost_images,
            seed_slots=[
                m._birth_seeds(live) for m, live in zip(managers, live_per)
            ],
        )
        out = []
        for s, manager in enumerate(managers):
            manager._adopt_births(births_per[s], live_per[s])
            tracks = manager._finalize()
            out.append([(t.track_id, t.position.copy()) for t in tracks])
        return out
