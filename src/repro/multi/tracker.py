"""MultiWiTrack: the public multi-person 3D tracking API.

The multi-person mirror of :class:`~repro.core.tracker.WiTrack`: feed it
per-antenna sweep spectra and it returns up to ``max_people`` concurrent
3D tracks with stable identities. The pipeline is

    sweeps -> frames -> background subtraction            (shared stages)
    -> successive-cancellation contours per antenna       (multi/cancellation)
    -> cross-antenna candidate fixes, ghost-gated         (multi/association)
    -> gated Hungarian assignment + Kalman track bank     (multi/tracks)

Paper fidelity note: WiTrack itself tracks a single person (Section 8);
successive cancellation and multi-target association are our extension,
in the direction of the authors' follow-up multi-person work.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..config import SystemConfig, default_config
from ..core.localize import make_solver
from ..geometry.antennas import AntennaArray, t_array
from ..rf.multipath import mirror_point
from ..sim.room import Room
from .association import FixGate
from .tracks import MultiTrack, TrackManager, TrackManagerConfig


class MultiWiTrack:
    """Multi-person 3D motion tracking.

    Args:
        config: full system configuration (radio + array + pipeline).
        array: antenna array override; defaults to the configured T.
        max_people: upper bound K on concurrently tracked people.
        num_candidates: cancellation rounds per antenna and frame;
            defaults to ``max_people + 4`` so a near person's multipath
            images cannot crowd a far person out of the candidate list
            (the association stage prunes the extras geometrically).
        track_config: track lifecycle tunables.
        room: when given, tightens the ghost gate to the room's volume.
        solver_method: "auto", "closed_form" or "least_squares".
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        array: AntennaArray | None = None,
        max_people: int = 3,
        num_candidates: int | None = None,
        track_config: TrackManagerConfig | None = None,
        room: Room | None = None,
        solver_method: str = "auto",
    ) -> None:
        if max_people < 1:
            raise ValueError("max_people must be at least 1")
        self.config = config or default_config()
        self.array = array if array is not None else t_array(self.config.array)
        self.solver = make_solver(self.array, method=solver_method)
        self.max_people = max_people
        self.num_candidates = (
            num_candidates if num_candidates is not None else max_people + 4
        )
        self.track_config = track_config or TrackManagerConfig()
        self.gate = FixGate.from_room(room) if room is not None else FixGate()
        # Receive antennas mirrored through every bounce plane: where an
        # accepted fix's dynamic-multipath echoes must land, used to kill
        # persistent multipath ghosts during candidate selection.
        self.ghost_images: np.ndarray | None = None
        if room is not None and room.bounce_planes:
            self.ghost_images = np.stack(
                [
                    np.stack(
                        [
                            mirror_point(rx.position, point, normal)
                            for rx in self.array.rx
                        ]
                    )
                    for point, normal, _ in room.bounce_planes
                ]
            )

    @property
    def frame_duration_s(self) -> float:
        """Duration of one averaged frame."""
        return (
            self.config.pipeline.sweeps_per_frame
            * self.config.fmcw.sweep_duration_s
        )

    def pipeline(self, range_bin_m: float):
        """A fresh multi-person :class:`~repro.pipeline.Pipeline`.

        The same stage graph drives :meth:`track`, the streaming
        :class:`~repro.apps.realtime.RealtimeMultiTracker`, and
        multi-person serving cohorts.
        """
        # Deferred import: repro.pipeline composes repro.multi primitives.
        from ..pipeline.runner import multi_person_pipeline

        return multi_person_pipeline(
            self.config,
            range_bin_m,
            manager=self.make_manager(),
            num_candidates=self.num_candidates,
        )

    def track(
        self, spectra: Iterable[np.ndarray] | np.ndarray, range_bin_m: float
    ) -> MultiTrack:
        """Track every moving person through a recording, frame by frame.

        Args:
            spectra: complex sweep spectra per antenna, shape
                ``(n_rx, n_sweeps, n_bins)``, or any iterable of
                ``(n_rx, sweeps_per_frame, n_bins)`` blocks.
            range_bin_m: round-trip distance per spectrum bin.

        Returns:
            The :class:`MultiTrack` of all confirmed people.
        """
        if isinstance(spectra, np.ndarray):
            spectra = self._validate(spectra)
        result = self.pipeline(range_bin_m).run_stream(spectra)
        return MultiTrack.from_result(result.require_frames())

    def _validate(self, spectra: np.ndarray) -> np.ndarray:
        spectra = np.asarray(spectra)
        if spectra.ndim != 3:
            raise ValueError("spectra must have shape (n_rx, n_sweeps, n_bins)")
        if spectra.shape[0] != self.array.num_receivers:
            raise ValueError(
                f"got {spectra.shape[0]} antenna streams for a "
                f"{self.array.num_receivers}-receiver array"
            )
        return spectra

    def make_manager(self) -> TrackManager:
        """A fresh :class:`TrackManager` wired to this tracker's setup."""
        return TrackManager(
            self.frame_duration_s,
            self.solver,
            config=self.track_config,
            gate=self.gate,
            ghost_images=self.ghost_images,
        )
