"""Streaming real-time tracking with latency accounting (Section 7).

"Software processing has a total delay less than 75 ms between when the
signal is received and a corresponding 3D location is output."

:class:`RealtimeTracker` consumes sweeps one frame (5 sweeps) at a time
and emits one 3D fix per frame. Since the serving engine landed it is a
thin *single-session view* over :class:`~repro.serve.ServingEngine` —
the same engine that multiplexes N concurrent sessions through one
vectorized pipeline. There is no second code path: an N=1 lockstep tick
is bitwise ``Pipeline.run_stream`` (pinned by ``tests/test_serve.py``),
which is also what offline ``WiTrack.track`` runs, so the realtime app
can never drift from either the evaluated pipeline or the serving
deployment. Per-frame latency (enqueue to emit, queue
wait included) is recorded per session so the latency benchmark can
check the 75 ms budget.

:class:`RealtimeMultiTracker` is the K-person counterpart: the same
single-session view over a multi-person serving cohort (successive
cancellation + track association), still inside the same latency
budget.
"""

from __future__ import annotations

import numpy as np

from ..config import SystemConfig, default_config
from ..geometry.antennas import AntennaArray, t_array
from ..multi.tracks import MultiTrack, TrackManagerConfig
from ..pipeline.runner import LatencyReport
from ..pipeline.stages import Localize
from ..serve import ServingEngine, multi_session, single_session
from ..sim.room import Room

__all__ = ["LatencyReport", "RealtimeTracker", "RealtimeMultiTracker"]


class _SingleSessionView:
    """Shared plumbing: one engine, one admitted session."""

    def __init__(self, spec) -> None:
        self.engine = ServingEngine()
        self.session = self.engine.admit(spec)
        #: The cohort's session-vectorized pipeline (this session is its
        #: only occupant here; the serving engine shares it among many).
        self.pipeline = self.session.cohort.pipeline

    @property
    def latency(self) -> LatencyReport:
        """Per-frame enqueue-to-emit latency of this session."""
        return self.session.latency

    def _advance(self, sweep_block: np.ndarray) -> bool:
        """Feed one frame and tick; True when a new output row emitted."""
        emitted_before = self.session.frames_out
        self.engine.submit(self.session, sweep_block)
        self.engine.tick()
        return self.session.frames_out > emitted_before


class RealtimeTracker(_SingleSessionView):
    """Frame-by-frame streaming 3D tracker.

    Args:
        config: system configuration.
        range_bin_m: round-trip distance per spectrum bin.
        array: antenna array override.
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        range_bin_m: float = 0.1774,
        array: AntennaArray | None = None,
    ) -> None:
        self.config = config or default_config()
        self.array = array if array is not None else t_array(self.config.array)
        self.range_bin_m = range_bin_m
        super().__init__(
            single_session(self.config, range_bin_m, array=array)
        )

    @property
    def solver(self):
        """The live localization solver inside the pipeline."""
        return self.pipeline.stage(Localize).solver

    @property
    def sweeps_per_frame(self) -> int:
        """Sweeps consumed per output fix."""
        return self.config.pipeline.sweeps_per_frame

    def process_frame(self, sweep_block: np.ndarray) -> np.ndarray:
        """Process one frame worth of sweeps for all antennas.

        Args:
            sweep_block: shape ``(n_rx, sweeps_per_frame, n_bins)``.

        Returns:
            3D position, shape ``(3,)`` (NaN until localizable).
        """
        if not self._advance(sweep_block):
            return np.full(3, np.nan)
        position = self.session.last_position
        if position is None:
            return np.full(3, np.nan)
        return position

    def run(self, spectra: np.ndarray) -> np.ndarray:
        """Stream a whole recording; returns ``(n_frames, 3)`` positions.

        The first row is NaN: it primes the background subtractor.
        """
        spectra = np.asarray(spectra)
        n_rx, n_sweeps, n_bins = spectra.shape
        if n_rx != self.array.num_receivers:
            raise ValueError("antenna count mismatch")
        spf = self.sweeps_per_frame
        n_frames = n_sweeps // spf
        positions = np.empty((n_frames, 3))
        for f in range(n_frames):
            block = spectra[:, f * spf : (f + 1) * spf, :]
            positions[f] = self.process_frame(block)
        return positions


class RealtimeMultiTracker(_SingleSessionView):
    """Frame-by-frame streaming multi-person 3D tracker.

    Args:
        config: system configuration.
        range_bin_m: round-trip distance per spectrum bin.
        array: antenna array override.
        max_people: upper bound K on concurrently tracked people.
        room: when given, tightens ghost gating to the room's volume.
        track_config: track lifecycle tunables.
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        range_bin_m: float = 0.1774,
        array: AntennaArray | None = None,
        max_people: int = 3,
        room: Room | None = None,
        track_config: TrackManagerConfig | None = None,
    ) -> None:
        self.config = config or default_config()
        self.array = array if array is not None else t_array(self.config.array)
        self.range_bin_m = range_bin_m
        self._max_people = max_people
        super().__init__(
            multi_session(
                self.config,
                range_bin_m,
                array=array,
                max_people=max_people,
                room=room,
                track_config=track_config,
            )
        )

    @property
    def sweeps_per_frame(self) -> int:
        """Sweeps consumed per output frame."""
        return self.config.pipeline.sweeps_per_frame

    @property
    def max_people(self) -> int:
        """Upper bound on concurrently tracked people."""
        return self._max_people

    def process_frame(
        self, sweep_block: np.ndarray
    ) -> list[tuple[int, np.ndarray]]:
        """Process one frame worth of sweeps for all antennas.

        Args:
            sweep_block: shape ``(n_rx, sweeps_per_frame, n_bins)``.

        Returns:
            ``(track_id, position)`` for every currently reported
            person (empty until the first track confirms).
        """
        if not self._advance(sweep_block):
            return []
        return self.session.last_tracks or []

    def run(self, spectra: np.ndarray) -> MultiTrack:
        """Stream a recording; returns ALL tracks accumulated so far.

        Built from the session's result, so timestamps cover every frame
        this tracker has ever emitted: interleaving
        :meth:`process_frame` calls and repeated :meth:`run` calls
        (continued streaming, as with :class:`RealtimeTracker`) keeps
        the history consistent.
        """
        spectra = np.asarray(spectra)
        n_rx, n_sweeps, _ = spectra.shape
        if n_rx != self.array.num_receivers:
            raise ValueError("antenna count mismatch")
        spf = self.sweeps_per_frame
        n_frames = n_sweeps // spf
        for f in range(n_frames):
            self.process_frame(spectra[:, f * spf : (f + 1) * spf, :])
        return MultiTrack.from_result(self.session.result())
