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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..core.kalman import dwna_process_noise
from ..kernels.kalman import KALMAN_REGISTERS, kalman_tick
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
    """Per-frame track lists flattened into three fixed-dtype arrays.

    Nothing in the package calls it: K-person results keep their tracks
    as :class:`TrackColumns`. It stays because the repository benchmark
    (``perfbench/workloads.py``) digests results through it.

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


class TrackColumns(NamedTuple):
    """Reportable tracks of a tick's rows, or of a whole stream's frames.

    Row (or frame) ``r`` owns the next ``counts[r]`` entries of ``ids``
    ``(total,)``, ``positions`` ``(total, 3)`` and ``coasting``
    ``(total,)`` (True where the position is a coasted prediction), in
    row order. A K-person tick emits one, and a K-person
    :class:`~repro.pipeline.PipelineResult` keeps its whole stream's
    tracks as one, frame by frame.
    """

    counts: np.ndarray
    ids: np.ndarray
    positions: np.ndarray
    coasting: np.ndarray

    @classmethod
    def of(cls, rows: list[list["Track"]]) -> "TrackColumns":
        """Columns of per-row :meth:`TrackManager.step` outputs."""
        flat = [track for tracks in rows for track in tracks]
        return cls(
            np.array([len(tracks) for tracks in rows], dtype=np.int64),
            np.array([t.track_id for t in flat], dtype=np.int64),
            np.array([t.position for t in flat], np.float64).reshape(-1, 3),
            np.array(
                [t.status is TrackStatus.COASTING for t in flat], dtype=bool
            ),
        )

    def lists(self) -> list[list[tuple[int, np.ndarray]]]:
        """Per row, the ``(track_id, position)`` pairs (row views of
        ``positions``); ValueError when the columns disagree in length."""
        counts, ids, positions = self.counts, self.ids, self.positions
        if int(counts.sum()) != len(ids) or len(ids) != len(positions):
            raise ValueError(
                f"inconsistent track columns: counts sum to "
                f"{int(counts.sum())} but {len(ids)} ids / "
                f"{len(positions)} positions given"
            )
        pairs = list(zip(ids.tolist(), positions))
        out: list[list[tuple[int, np.ndarray]]] = []
        offset = 0
        for count in counts.tolist():
            out.append(pairs[offset : offset + count])
            offset += count
        return out

    def select(self, keep: np.ndarray) -> "TrackColumns":
        """The columns of the rows where ``keep`` is True."""
        entries = np.repeat(keep, self.counts)
        return TrackColumns(
            self.counts[keep], *(column[entries] for column in self[1:])
        )


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


#: Lifecycle states by their code in the bank's ``status`` field.
_STATUSES = tuple(TrackStatus)
_TENTATIVE, _CONFIRMED, _COASTING, _DEAD = range(len(_STATUSES))
_CODE = {status: code for code, status in enumerate(_STATUSES)}
#: Which status codes the app emits (confirmed or coasting).
_REPORTABLE = np.array([False, True, True, False])
#: Track rows per slot the record slab starts with (it grows on demand).
_INITIAL_TRACKS = 4


def _track_dtype(n_rx: int) -> np.dtype:
    """One track's record in a :class:`TrackBank` slab.

    The per-antenna constant-velocity filter state is ``mean`` (n_rx,
    2) and ``cov`` (n_rx, 2, 2), which
    :func:`~repro.kernels.kalman.kalman_tick` advances in place. A
    birth initializes state [tof, 0] with cov diag(r, 1), as the
    kernel's first measurement does.
    """
    return np.dtype(
        [
            ("id", np.int64),
            ("hits", np.int64),
            ("misses", np.int64),
            ("age", np.int64),
            ("support", np.float64),
            ("position", np.float64, (3,)),
            ("mean", np.float64, (n_rx, 2)),
            ("cov", np.float64, (n_rx, 2, 2)),
            ("status", np.int8),
        ],
        align=True,
    )


class Track:
    """One hypothesized person: a view of one row of a :class:`TrackBank`.

    The row holds the person's per-antenna TOF Kalman bank and
    lifecycle counters; every attribute reads and writes it, so a track
    and its bank are one copy of the state. Built directly, a track
    owns a private one-row bank.

    The view follows its track while the bank compacts deaths; once the
    track has left the bank it reads as dead.

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
        bank = TrackBank(dt_s, None, config)
        bank._append(0, track_id, tofs, position)
        self._bind(bank, 0, 0, track_id)

    @classmethod
    def _view(cls, bank: "TrackBank", slot: int, row: int) -> "Track":
        track = cls.__new__(cls)
        track._bind(bank, slot, row, int(bank._tracks["id"][slot, row]))
        return track

    def _bind(
        self, bank: "TrackBank", slot: int, row: int, track_id: int
    ) -> None:
        self._bank = bank
        self._slot = slot
        self._row = row
        self.track_id = track_id
        self.config = bank.config

    def _locate(self) -> int:
        """This track's row now (deaths before it move it up)."""
        bank, slot, row = self._bank, self._slot, self._row
        ids = bank._tracks["id"][slot, : bank._count[slot]]
        if row >= len(ids) or ids[row] != self.track_id:
            rows = np.flatnonzero(ids == self.track_id)
            if not len(rows):
                raise LookupError(f"track {self.track_id} left its bank")
            self._row = row = int(rows[0])
        return row

    def _cell(self, field: str):
        """This track's entry of one record field (a view for arrays)."""
        return self._bank._tracks[field][self._slot, self._locate()]

    def _set(self, field: str, value) -> None:
        self._bank._tracks[field][self._slot, self._locate()] = value

    @property
    def status(self) -> TrackStatus:
        try:
            return _STATUSES[self._cell("status")]
        except LookupError:
            return TrackStatus.DEAD

    @status.setter
    def status(self, value: TrackStatus) -> None:
        self._set("status", _CODE[value])

    hits = property(
        lambda self: int(self._cell("hits")),
        lambda self, v: self._set("hits", v),
    )
    misses = property(
        lambda self: int(self._cell("misses")),
        lambda self, v: self._set("misses", v),
    )
    age = property(
        lambda self: int(self._cell("age")),
        lambda self, v: self._set("age", v),
    )
    support = property(
        lambda self: float(self._cell("support")),
        lambda self, v: self._set("support", v),
    )

    @property
    def position(self) -> np.ndarray:
        """Latest feasible 3D fix (a copy)."""
        return self._cell("position").copy()

    @position.setter
    def position(self, value: np.ndarray) -> None:
        self._set("position", value)

    @property
    def _mean(self) -> np.ndarray:
        """Filter means ``(n_rx, 2)``, a view into the bank."""
        return self._cell("mean")

    @property
    def _cov(self) -> np.ndarray:
        """Filter covariances ``(n_rx, 2, 2)``, a view into the bank."""
        return self._cell("cov")

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
        mean = self._mean
        return mean[:, 0] + self._bank.frame_dt_s * mean[:, 1]

    def tof_gate_m(self) -> float:
        """Current per-antenna claim gate, widened while coasting."""
        grown = self.config.tof_gate_m + (
            self.config.tof_gate_growth_mps * self.misses
            * self._bank.frame_dt_s
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
        mean = self._mean
        self._bank._kalman(values[None], mean[None], self._cov[None])
        solved = solver.solve_one(mean[:, 0])
        feasible = bool(np.all(np.isfinite(solved)))
        if feasible and gate is not None:
            feasible = bool(gate.admits(solved[None, :])[0])
        self._register(claims, solved, feasible)

    def _register(
        self, claims: int, solved: np.ndarray, feasible: bool
    ) -> None:
        """Fold one frame's claim count and solved fix into the lifecycle.

        The per-track spec of :meth:`TrackBank._register`, which folds a
        whole cohort's tracks with masked updates.
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
        decay = self._bank._support_decay
        self.hits += 1
        self.misses = 0
        self.age += 1
        self.support = decay * self.support + (1.0 - decay) * weight
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
        self.support *= self._bank._support_decay
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

    @classmethod
    def from_result(cls, result) -> "MultiTrack":
        """The tracks of a K-person :class:`~repro.pipeline.PipelineResult`.

        One row per track ever reported, in order of first report; NaN
        (and not coasting) where the track was not reported. Raises
        ValueError when the result's ``track_columns`` and timestamps
        cover different numbers of frames.
        """
        frame_times_s = np.asarray(result.frame_times_s, dtype=np.float64)
        columns = result.track_columns or TrackColumns.of([])
        n_frames = len(frame_times_s)
        if len(columns.counts) != n_frames:
            raise ValueError(
                f"{len(columns.counts)} frames of tracks but {n_frames} "
                "timestamps given"
            )
        ids = columns.ids.tolist()
        track_ids = tuple(dict.fromkeys(ids))
        index = {track_id: row for row, track_id in enumerate(track_ids)}
        at = (
            np.array([index[track_id] for track_id in ids], dtype=np.intp),
            np.repeat(np.arange(n_frames), columns.counts),
        )
        positions = np.full((len(track_ids), n_frames, 3), np.nan)
        positions[at] = columns.positions
        coasting = np.zeros((len(track_ids), n_frames), dtype=bool)
        coasting[at] = columns.coasting
        return cls(frame_times_s, positions, track_ids, coasting)


def _from_bank(name: str) -> property:
    return property(
        lambda self: getattr(self._bank, name),
        doc=f"The bank's ``{name}`` (shared by all its slots).",
    )


class TrackManager:
    """Birth, update, coast, and kill tracks frame by frame.

    Call :meth:`step` once per frame with that frame's per-antenna
    candidate TOF sets; it returns the frame's reportable tracks. The
    manager keeps no per-frame history: a pipeline accumulates the
    outputs, and :meth:`MultiTrack.from_result` packages them.

    A manager is a view of one slot of a :class:`TrackBank`; built
    directly, it owns a one-slot bank. Its :meth:`step` walks the slot's
    tracks one at a time and is the executable spec of
    :meth:`TrackBank.step`, which advances many slots as one array
    program over the same rows.

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
        self._bank = TrackBank(
            frame_dt_s, solver, config, gate, ghost_images,
            max_births_per_frame,
        )
        self._slot = 0

    @classmethod
    def _view(cls, bank: "TrackBank", slot: int) -> "TrackManager":
        manager = cls.__new__(cls)
        manager._bank = bank
        manager._slot = slot
        return manager

    frame_dt_s = _from_bank("frame_dt_s")
    solver = _from_bank("solver")
    config = _from_bank("config")
    gate = _from_bank("gate")
    ghost_images = _from_bank("ghost_images")
    max_births_per_frame = _from_bank("max_births_per_frame")

    @property
    def bank(self) -> "TrackBank":
        """The bank holding this manager's slot."""
        return self._bank

    @property
    def _next_id(self) -> int:
        return int(self._bank._next_id[self._slot])

    @property
    def tracks(self) -> list[Track]:
        """Views of the slot's tracks, in birth order."""
        n = int(self._bank._count[self._slot])
        return [Track._view(self._bank, self._slot, row) for row in range(n)]

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
        births = candidate_fixes(
            leftovers,
            self.solver,
            gate=self.gate,
            power_sets=leftover_powers,
            max_fixes=self.max_births_per_frame,
            ghost_images=self.ghost_images,
            # Any track with real evidence seeds the veto — waiting for
            # confirmation would leave the first frames unguarded, and
            # early-born multipath ghosts are the persistent ones.
            seed_positions=[t.position for t in live if t.hits >= 2],
        )
        self._bank._adopt(
            self._slot, births, [t.position for t in live if t.is_alive]
        )
        self._bank._finalize(np.array([self._slot]))
        return self.reportable_tracks()


class TrackBank:
    """The track state of many sessions, and their one-frame stepper.

    Every track of every slot is one record (:func:`_track_dtype`: id,
    filter mean and covariance, status, hits, misses, age, support,
    position) in one ``(slot, track)`` slab, grown on demand. A slot's
    live tracks are its first ``count[slot]`` rows in birth order:
    births append, deaths compact at the end of the frame. Each slot
    also keeps its next track id. The bank holds filter and lifecycle
    state only, never a per-frame history: a step returns its reportable
    tracks as :class:`TrackColumns`, and whoever serves the session
    keeps them. :class:`TrackManager` and :class:`Track` are views of a
    slot and of a row, so there is one copy of the state; :meth:`move`
    copies one slot's rows into another (a cohort keeping its slots
    dense).

    :meth:`step` advances a cohort tick (:class:`~repro.pipeline.multi.
    Associate`) over the ticking slots' rows at once: it gathers their
    records, runs prediction, gating, the Kalman updates and batched
    localization in array math, folds the lifecycle with masked updates
    (:meth:`_register`), and scatters the records back. Claims run as
    one pass over every ``(slot, antenna)`` problem (:func:`~repro.multi.
    association.claim_candidates`, which the per-slot step calls for its
    one slot): problems whose in-gate pairs already form a matching are
    written with array math, and only the rest run the Hungarian solve.
    Births — attempted on nearly every slot-tick, since some candidate
    is almost always unclaimed — run as one array program over the
    cohort's leftover tensors (:func:`~repro.multi.association.
    candidate_fixes_batched`, seeded from the slab), whose slot ``s`` is
    bitwise the per-slot :func:`~repro.multi.association.candidate_fixes`
    call. After a step every slot is bit-identical to having stepped its
    :class:`TrackManager` on its own: the Kalman tick (:meth:`_kalman`,
    the elementwise :func:`~repro.kernels.kalman.kalman_tick` that also
    serves sessions) and the birth adoption and end-of-frame
    bookkeeping are the same code, and the masked lifecycle updates are
    pinned against :meth:`Track._register`.

    Requires a row-independent solver (``solver.row_independent``, e.g.
    the closed-form T-geometry solver) to :meth:`step`: the batched
    ``solver.solve`` over all slots' tracks must equal the per-track
    ``solve_one`` calls bitwise. ``Associate`` steps any other solver's
    slots through their managers.

    Args:
        frame_dt_s: frame interval (12.5 ms at the paper's cadence).
        solver: localization solver of the deployed array.
        config: lifecycle tunables.
        gate: feasibility gate for birth fixes.
        ghost_images: bounce-plane antenna images for multipath-ghost
            suppression.
        max_births_per_frame: cap on new tracks born per slot and frame.
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
        self._q = dwna_process_noise(
            frame_dt_s, self.config.tof_process_noise
        )
        self._r = float(self.config.tof_measurement_noise)
        self._support_decay = float(
            np.exp(-frame_dt_s / self.config.support_time_constant_s)
        )
        #: The ``(slot, track)`` record slab; allocated by the first birth.
        self._tracks: np.ndarray | None = None
        self._count = np.zeros(1, dtype=np.intp)
        self._next_id = np.ones(1, dtype=np.int64)
        self._scratch: dict = {}

    @property
    def num_slots(self) -> int:
        """Slots the bank holds state for."""
        return len(self._count)

    def manager(self, slot: int) -> TrackManager:
        """The :class:`TrackManager` view of one slot."""
        return TrackManager._view(self, slot)

    @staticmethod
    def slot_nbytes(n_rx: int) -> int:
        """Declared bytes of one slot at the initial track capacity: its
        count and next id, and per track its record and Kalman rows."""
        kalman = KALMAN_REGISTERS.row_nbytes(n_rx=n_rx)
        per_track = _track_dtype(n_rx).itemsize + kalman
        return 2 * np.dtype(np.int64).itemsize + _INITIAL_TRACKS * per_track

    # -- slots -------------------------------------------------------------

    def attach(self, n_slots: int) -> None:
        """Grow to ``n_slots`` slots (new slots start empty)."""
        extra = n_slots - self.num_slots
        if extra <= 0:
            return
        self._count = np.concatenate([self._count, np.zeros(extra, np.intp)])
        self._next_id = np.concatenate(
            [self._next_id, np.ones(extra, np.int64)]
        )
        if self._tracks is not None:
            self._resize(n_slots, self._tracks.shape[1])

    def evict(self, slot: int) -> None:
        """Forget one slot's tracks and ids."""
        self._count[slot] = 0
        self._next_id[slot] = 1

    def clear(self) -> None:
        """Forget every slot's state."""
        for slot in range(self.num_slots):
            self.evict(slot)

    def move(self, src: int, dst: int) -> None:
        """Move slot ``src``'s tracks and next id into ``dst``; evict ``src``."""
        n = int(self._count[src])
        if n:
            self._tracks[dst, :n] = self._tracks[src, :n]
        self._count[dst] = n
        self._next_id[dst] = self._next_id[src]
        self.evict(src)

    def _reserve(self, n_tracks: int, n_rx: int) -> None:
        """Make room for ``n_tracks`` rows per slot."""
        if self._tracks is None:
            rows = max(n_tracks, _INITIAL_TRACKS)
            self._tracks = np.zeros((self.num_slots, rows), _track_dtype(n_rx))
        elif n_tracks > self._tracks.shape[1]:
            grown = max(n_tracks, 2 * self._tracks.shape[1])
            self._resize(self.num_slots, grown)

    def _resize(self, n_slots: int, n_tracks: int) -> None:
        old = self._tracks
        self._tracks = np.zeros((n_slots, n_tracks), old.dtype)
        self._tracks[: len(old), : old.shape[1]] = old

    # -- rows --------------------------------------------------------------

    def _kalman(
        self, claimed: np.ndarray, mean: np.ndarray, cov: np.ndarray
    ) -> None:
        """Advance track filters one frame in place.

        ``claimed`` holds each filter's claimed round trip, NaN where
        the antenna coasts; every filter is live (a birth initializes
        it), and a coasting filter's velocity damps by
        ``coast_velocity_decay`` (the paper's stopped-person semantics).
        """
        kalman_tick(
            claimed, mean, cov, np.ones(claimed.shape, dtype=bool),
            self.frame_dt_s, *self._q, self._r,
            self.config.coast_velocity_decay, self._scratch,
        )

    def _append(
        self, slot: int, track_id: int, tofs: np.ndarray, position: np.ndarray
    ) -> None:
        """Birth one tentative track at the end of a slot's rows."""
        tofs = np.asarray(tofs, dtype=np.float64)
        row = int(self._count[slot])
        self._reserve(row + 1, len(tofs))
        record = self._tracks[slot, row]
        record["id"] = track_id
        record["hits"] = 1
        record["misses"] = 0
        record["age"] = 1
        record["support"] = 1.0
        record["position"] = position
        record["mean"][:, 0] = tofs
        record["mean"][:, 1] = 0.0
        record["cov"] = 0.0
        record["cov"][:, 0, 0] = self._r
        record["cov"][:, 1, 1] = 1.0
        record["status"] = (
            _CONFIRMED if self.config.confirm_hits <= 1 else _TENTATIVE
        )
        self._count[slot] = row + 1

    def _adopt(
        self, slot: int, births: np.ndarray, neighbors: list[np.ndarray]
    ) -> None:
        """Turn surviving birth fixes into tracks (exclusion applied).

        ``neighbors`` are the positions of the slot's tracks still
        alive after this frame's update; a fix this close to one of them
        or to an earlier birth is a duplicate echo and is dropped.
        """
        born: list[np.ndarray] = []
        for fix in births:
            if any(
                np.linalg.norm(p - fix) < self.config.birth_exclusion_m
                for p in [*neighbors, *born]
            ):
                continue
            self._append(
                slot,
                int(self._next_id[slot]),
                self.solver.array.round_trip_distances(fix),
                fix,
            )
            self._next_id[slot] += 1
            born.append(fix)

    def _register(
        self,
        live: np.ndarray,
        claims: np.ndarray,
        solved: np.ndarray,
        feasible: np.ndarray,
    ) -> None:
        """:meth:`Track._register` of many track records, as masked updates."""
        cfg = self.config
        n_rx = live["mean"].shape[1]
        decay = self._support_decay
        np.copyto(live["position"], solved, where=feasible[:, None])
        hit = claims >= min(cfg.min_claims, n_rx)
        hits = live["hits"] + hit
        misses = np.where(hit, 0, live["misses"] + 1)
        weight = np.where(feasible, claims / n_rx, 0.0)
        support = np.where(
            hit,
            decay * live["support"] + (1.0 - decay) * weight,
            live["support"] * decay,
        )
        # A hit confirms, unless a tentative track is still short of
        # confirm_hits; a miss kills on the tentative or coast budget,
        # else leaves a tentative track tentative and coasts the rest.
        tentative = live["status"] == _TENTATIVE
        budget = np.minimum(cfg.max_coast_frames, cfg.coast_per_hit * hits)
        dies = np.where(
            tentative,
            misses > cfg.max_tentative_misses,
            (misses > budget) | (support < cfg.min_support),
        )
        short = tentative & (hits < cfg.confirm_hits)
        live["status"] = np.where(
            hit,
            np.where(short, _TENTATIVE, _CONFIRMED),
            np.where(dies, _DEAD, np.where(tentative, _TENTATIVE, _COASTING)),
        )
        live["hits"] = hits
        live["misses"] = misses
        live["age"] += 1
        live["support"] = support

    def _finalize(self, slots: np.ndarray) -> TrackColumns:
        """End a frame of the given slots: compact deaths, report.

        Returns the slots' reportable tracks, in slot order and then row
        order.
        """
        counts = self._count[slots]
        if self._tracks is None or not counts.any():
            return TrackColumns(
                np.zeros(len(slots), dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty((0, 3)),
                np.empty(0, dtype=bool),
            )
        in_use = np.arange(self._tracks.shape[1]) < counts[:, None]
        # Rows past a slot's count read as tentative: neither dead nor
        # reportable.
        status = np.where(in_use, self._tracks["status"][slots], _TENTATIVE)
        dead = status == _DEAD
        if dead.any():
            for row in np.flatnonzero(dead.any(axis=1)).tolist():
                slot = slots[row]
                keep = np.flatnonzero(in_use[row] & ~dead[row])
                self._tracks[slot, : len(keep)] = self._tracks[slot, keep]
                self._count[slot] = len(keep)
                status[row, : len(keep)] = status[row, keep]
                status[row, len(keep) :] = _TENTATIVE
        rows, cols = np.nonzero(_REPORTABLE[status])
        at = (slots[rows], cols)
        return TrackColumns(
            np.bincount(rows, minlength=len(slots)).astype(np.int64),
            self._tracks["id"][at],
            self._tracks["position"][at],
            status[rows, cols] == _COASTING,
        )

    # -- the cohort step ---------------------------------------------------

    def step(
        self,
        slots: np.ndarray,
        candidates: np.ndarray,
        powers: np.ndarray,
    ) -> TrackColumns:
        """Advance one frame of every given slot from its candidate sets.

        Args:
            slots: the ticking slots, in tick-row order (each at most
                once).
            candidates: candidate round trips, shape
                ``(n_rows, n_rx, K)``, NaN-padded.
            powers: echo power per candidate, same shape.

        Returns:
            The rows' reportable tracks — exactly the per-slot
            :meth:`TrackManager.step` outputs, as columns.
        """
        slots = np.asarray(slots, dtype=np.intp)
        cfg, dt = self.config, self.frame_dt_s
        counts = self._count[slots]
        consumed = np.zeros(candidates.shape, dtype=bool)
        seeds = seed_rows = None
        if counts.any():
            # Gather: every ticking slot's live track records, grouped
            # by row in birth order.
            row_of, col = np.nonzero(
                np.arange(self._tracks.shape[1]) < counts[:, None]
            )
            at = (slots[row_of], col)
            live = self._tracks[at]
            mean, cov = live["mean"], live["cov"]
            predictions = mean[:, :, 0] + dt * mean[:, :, 1]
            gates = np.minimum(
                cfg.tof_gate_m + cfg.tof_gate_growth_mps * live["misses"] * dt,
                cfg.max_tof_gate_m,
            )
            claimed, consumed = claim_candidates(
                predictions, gates, candidates, counts
            )
            # Advance: one Kalman tick over every (track, antenna) cell,
            # one localization solve over every track.
            self._kalman(claimed, mean, cov)
            solved = self.solver.solve(mean[:, :, 0]).positions
            feasible = np.all(np.isfinite(solved), axis=1)
            # NaN rows compare False everywhere, so gating the whole
            # batch equals the per-track finite-then-gate short circuit.
            feasible &= self.gate.admits(solved)
            claims = np.count_nonzero(np.isfinite(claimed), axis=1)
            self._register(live, claims, solved, feasible)
            self._tracks[at] = live
            # Any track with real evidence seeds the ghost veto, the
            # ones that died this frame included (as in the spec).
            seeded = live["hits"] >= 2
            seeds, seed_rows = live["position"][seeded], row_of[seeded]

        # Leftovers: every finite candidate no track claimed. Births run
        # as one array program over the whole cohort's leftover tensors.
        keep = np.isfinite(candidates) & ~consumed
        births = candidate_fixes_batched(
            np.where(keep, candidates, np.nan),
            self.solver,
            gate=self.gate,
            power_slots=np.where(keep, powers, np.nan),
            max_fixes=self.max_births_per_frame,
            ghost_images=self.ghost_images,
            seed_positions=seeds,
            seed_slots=seed_rows,
        )
        for row, fixes in enumerate(births):
            if len(fixes):
                slot, n = slots[row], counts[row]
                neighbors = []
                if n:
                    advanced = self._tracks[slot, :n]
                    alive = advanced["status"] != _DEAD
                    neighbors = list(advanced["position"][alive])
                self._adopt(slot, fixes, neighbors)
        return self._finalize(slots)
