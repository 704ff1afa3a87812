"""WiTrack: the public 3D-tracking API (paper Sections 3-5 assembled).

:class:`WiTrack` is the class a downstream user instantiates: feed it the
per-antenna sweep spectra (from hardware or from :mod:`repro.sim`) and it
returns the 3D track of the moving person.

:meth:`WiTrack.track` streams the recording through the
:class:`~repro.pipeline.Pipeline` stage graph frame by frame — the same
lockstep tick the realtime app and the serving engine run — so offline
evaluation scores exactly the code that runs live.

Example:
    >>> from repro import WiTrack, default_config
    >>> from repro.sim import Scenario, random_walk, through_wall_room
    >>> import numpy as np
    >>> room = through_wall_room()
    >>> walk = random_walk(room, np.random.default_rng(0), duration_s=10)
    >>> output = Scenario(walk, room=room, seed=1).run()
    >>> track = WiTrack(output.config).track(output.spectra, output.range_bin_m)
    >>> track.positions.shape[1]
    3
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..config import SystemConfig, default_config
from ..geometry.antennas import AntennaArray, t_array
from .localize import LeastSquaresSolver, TGeometrySolver, make_solver
from .spectrogram import Spectrogram
from .tof import TOFEstimate


@dataclass(frozen=True)
class TrackResult:
    """A 3D track and its per-antenna intermediates.

    Attributes:
        frame_times_s: timestamp of each output frame (12.5 ms cadence).
        positions: 3D positions, shape ``(n_frames, 3)``; NaN rows mark
            frames that could not be localized.
        round_trips_m: clean per-antenna round-trip distances, shape
            ``(n_rx, n_frames)``.
        tof_estimates: full per-antenna pipeline outputs (spectrograms,
            raw contours) for inspection and for the pointing pipeline.
        motion_mask: frames where at least one antenna saw actual motion
            (False during interpolated stillness).
    """

    frame_times_s: np.ndarray
    positions: np.ndarray
    round_trips_m: np.ndarray
    tof_estimates: tuple[TOFEstimate, ...]
    motion_mask: np.ndarray

    @property
    def num_frames(self) -> int:
        """Number of output frames."""
        return len(self.frame_times_s)

    @property
    def valid_mask(self) -> np.ndarray:
        """Frames with a finite 3D fix."""
        return np.isfinite(self.positions).all(axis=1)

    def positions_at(self, times_s: np.ndarray) -> np.ndarray:
        """Interpolate the track at arbitrary times (valid frames only)."""
        times_s = np.asarray(times_s, dtype=np.float64)
        mask = self.valid_mask
        if mask.sum() < 2:
            raise ValueError("not enough valid frames to interpolate")
        out = np.empty((len(times_s), 3))
        for axis in range(3):
            out[:, axis] = np.interp(
                times_s,
                self.frame_times_s[mask],
                self.positions[mask, axis],
            )
        return out


class WiTrack:
    """The 3D motion-tracking system.

    Args:
        config: full system configuration (radio + array + pipeline).
        array: antenna array override; defaults to the configured T.
        solver_method: "auto", "closed_form" or "least_squares".
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        array: AntennaArray | None = None,
        solver_method: str = "auto",
    ) -> None:
        self.config = config or default_config()
        self.array = array if array is not None else t_array(self.config.array)
        self.solver: TGeometrySolver | LeastSquaresSolver = make_solver(
            self.array, method=solver_method
        )

    def pipeline(self, range_bin_m: float):
        """A fresh single-person :class:`~repro.pipeline.Pipeline`."""
        # Deferred import: repro.pipeline composes repro.core primitives.
        from ..pipeline.runner import single_person_pipeline

        return single_person_pipeline(
            self.config, range_bin_m, solver=self.solver
        )

    def track(
        self,
        spectra: Iterable[np.ndarray] | np.ndarray,
        range_bin_m: float,
        record_spectra: bool = True,
    ) -> TrackResult:
        """Track the moving person through a recording, frame by frame.

        Accepts either a full recording (sliced into 5-sweep frames) or
        any iterable of ``(n_rx, sweeps_per_frame, n_bins)`` blocks,
        e.g. :meth:`repro.sim.Scenario.frames`.

        Args:
            spectra: complex sweep spectra per antenna, shape
                ``(n_rx, n_sweeps, n_bins)``, or an iterable of
                per-frame sweep blocks.
            range_bin_m: round-trip distance per spectrum bin.
            record_spectra: keep the per-antenna subtracted
                spectrograms in ``tof_estimates`` (the pointing
                pipeline needs them). Pass False for long sessions —
                the spectrograms are the one per-frame intermediate
                with significant memory (``tof_estimates`` is then
                empty).

        Returns:
            The 3D :class:`TrackResult`.
        """
        if isinstance(spectra, np.ndarray):
            spectra = self._validate(spectra)
        result = self.pipeline(range_bin_m).run_stream(
            spectra, record_spectra=record_spectra
        )
        return self._package_result(result, range_bin_m)

    def localize_estimates(
        self, estimates: tuple[TOFEstimate, ...]
    ) -> TrackResult:
        """Turn per-antenna TOF estimates into a 3D track."""
        n_frames = min(e.num_frames for e in estimates)
        round_trips = np.stack(
            [e.round_trip_m[:n_frames] for e in estimates]
        )
        result = self.solver.solve(round_trips.T)
        motion = np.any(
            np.stack([e.motion_mask[:n_frames] for e in estimates]), axis=0
        )
        return TrackResult(
            frame_times_s=estimates[0].frame_times_s[:n_frames],
            positions=result.positions,
            round_trips_m=round_trips,
            tof_estimates=estimates,
            motion_mask=motion,
        )

    # -- internals --------------------------------------------------------

    def _validate(self, spectra: np.ndarray) -> np.ndarray:
        spectra = np.asarray(spectra)
        if spectra.ndim != 3:
            raise ValueError("spectra must have shape (n_rx, n_sweeps, n_bins)")
        n_rx = spectra.shape[0]
        if n_rx != self.array.num_receivers:
            raise ValueError(
                f"got {n_rx} antenna streams for a "
                f"{self.array.num_receivers}-receiver array"
            )
        return spectra

    def _package_result(self, result, range_bin_m: float) -> TrackResult:
        """Assemble a :class:`TrackResult` from a pipeline result."""
        result.require_frames()
        n_rx = result.tof_m.shape[1]
        estimates: tuple[TOFEstimate, ...] = ()
        if result.subtracted is not None:
            estimates = tuple(
                TOFEstimate(
                    frame_times_s=result.frame_times_s,
                    round_trip_m=result.tof_m[:, a],
                    raw_contour_m=result.raw_tof_m[:, a],
                    motion_mask=result.motion[:, a],
                    spectrogram=Spectrogram(
                        frames=result.subtracted[:, a, :],
                        frame_times_s=result.frame_times_s,
                        range_bin_m=range_bin_m,
                    ),
                )
                for a in range(n_rx)
            )
        return TrackResult(
            frame_times_s=result.frame_times_s,
            positions=result.positions,
            round_trips_m=result.tof_m.T,
            tof_estimates=estimates,
            motion_mask=result.motion.any(axis=1),
        )
