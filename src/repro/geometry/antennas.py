"""Antenna and array geometry (paper Fig. 1a and Section 5).

The device frame places the transmit antenna at the origin of the x-z
plane, with y pointing into the monitored space (through the wall). The
default "T" layout puts two receive antennas on the horizontal bar at
``(+-separation, 0, 0)`` and one below the transmitter at
``(0, 0, -separation)`` to resolve elevation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import ArrayConfig
from .vec import Vec3, unit


@dataclass(frozen=True)
class Antenna:
    """A directional antenna with a cos^n power beam pattern.

    Attributes:
        position: antenna phase-center position (device frame, meters).
        boresight: unit vector of maximum gain (default +y, into the room).
        beam_exponent: exponent n of the cos^n(angle) one-way power gain;
            larger n means a narrower beam. WA5VJB log-periodics at 6 GHz
            have roughly 60-70 degree half-power beamwidth, n ~= 2.
        name: label used in logs and plots.
    """

    position: np.ndarray
    boresight: np.ndarray = field(default_factory=lambda: Vec3(0.0, 1.0, 0.0))
    beam_exponent: float = 2.0
    name: str = "ant"

    def gain_towards(self, point: np.ndarray) -> float:
        """One-way power gain toward ``point`` (1.0 at boresight, 0 behind).

        The paper relies on the antennas being directional: everything
        behind the array is outside the beam and invisible (Section 3).
        """
        offset = np.asarray(point, dtype=np.float64) - self.position
        dist = float(np.linalg.norm(offset))
        if dist < 1e-9:
            return 1.0
        cosine = float(np.dot(offset / dist, unit(self.boresight)))
        if cosine <= 0.0:
            return 0.0
        return cosine**self.beam_exponent

    def in_beam(self, point: np.ndarray) -> bool:
        """True if ``point`` is in front of the antenna (positive gain)."""
        return self.gain_towards(point) > 0.0


@dataclass(frozen=True)
class AntennaArray:
    """A transmit antenna plus a set of receive antennas.

    The localization geometry (Section 5) only needs the positions; the
    simulator additionally uses the beam patterns to weight path gains and
    to discard the infeasible ellipsoid intersection behind the array.
    """

    tx: Antenna
    rx: tuple[Antenna, ...]

    def __post_init__(self) -> None:
        if len(self.rx) < 3:
            raise ValueError("3D localization requires at least 3 Rx antennas")

    @property
    def num_receivers(self) -> int:
        """Number of receive antennas."""
        return len(self.rx)

    @property
    def rx_positions(self) -> np.ndarray:
        """Stacked receive positions, shape ``(n_rx, 3)``."""
        return np.stack([a.position for a in self.rx])

    def round_trip_distances(self, point: np.ndarray) -> np.ndarray:
        """Ideal round-trip distances Tx -> point -> Rx_i, shape ``(n_rx,)``.

        This is the forward model of the geometric solver; the simulator
        and the tests both use it as ground truth.
        """
        point = np.asarray(point, dtype=np.float64)
        d_tx = float(np.linalg.norm(point - self.tx.position))
        d_rx = np.linalg.norm(self.rx_positions - point[None, :], axis=1)
        return d_tx + d_rx

    def in_beam(self, point: np.ndarray) -> bool:
        """True if ``point`` is inside every antenna's beam."""
        if not self.tx.in_beam(point):
            return False
        return all(a.in_beam(point) for a in self.rx)


def t_array(config: ArrayConfig | None = None) -> AntennaArray:
    """Build the paper's default "T" array (Fig. 1a).

    With separation ``d``: Tx at the origin, Rx1 at ``(-d, 0, 0)``, Rx2 at
    ``(+d, 0, 0)`` and Rx3 at ``(0, 0, -d)`` (below the transmitter, to
    "help determine elevation", Section 5). Additional receivers beyond
    three are placed above the transmitter and at the diagonal midpoints,
    matching the paper's note that extra antennas over-constrain the
    solution.
    """
    config = config or ArrayConfig()
    d = config.separation_m
    n = config.beam_exponent

    def make(name: str, pos: np.ndarray) -> Antenna:
        return Antenna(position=pos, beam_exponent=n, name=name)

    positions = [
        Vec3(-d, 0.0, 0.0),
        Vec3(+d, 0.0, 0.0),
        Vec3(0.0, 0.0, -d),
        # Extras used by the over-constrained ablation (Section 5 note).
        Vec3(0.0, 0.0, +d),
        Vec3(-d / 2.0, 0.0, -d / 2.0),
        Vec3(+d / 2.0, 0.0, -d / 2.0),
    ]
    if config.num_receivers > len(positions):
        raise ValueError(
            f"t_array supports at most {len(positions)} receive antennas"
        )
    rx = tuple(
        make(f"rx{i + 1}", positions[i]) for i in range(config.num_receivers)
    )
    return AntennaArray(tx=make("tx", Vec3(0.0, 0.0, 0.0)), rx=rx)
