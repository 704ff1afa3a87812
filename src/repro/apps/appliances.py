"""Pointing-based appliance control (paper Section 6.1).

"We created a setup where the user can control the operation mode of a
device or appliance by pointing at it. Based on the current 3D position
of the user and the direction of her hand, WiTrack automatically
identifies the desired appliance from a small set of appliances that we
instrumented (lamp, computer screen, automatic shades) ... WiTrack
issues a command via Insteon home drivers to control the devices."

The Insteon home drivers are simulated by :class:`InsteonBus`: a command
log with per-device on/off state, which the examples and tests inspect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.pointing import PointingResult
from ..geometry.vec import unit


@dataclass(frozen=True)
class Appliance:
    """An instrumented device at a known position.

    Attributes:
        name: device label ("lamp", "screen", "shades", ...).
        position: device position in the device frame, shape ``(3,)``.
        insteon_id: address on the simulated Insteon bus.
    """

    name: str
    position: np.ndarray
    insteon_id: str


@dataclass
class InsteonBus:
    """Simulated Insteon home-automation driver.

    Tracks per-device on/off state and logs every issued command, which
    is what the paper's demo instrumentation amounts to ("a basic mode
    change (turn on or turn off)").
    """

    states: dict[str, bool] = field(default_factory=dict)
    command_log: list[tuple[str, str]] = field(default_factory=list)

    def toggle(self, insteon_id: str) -> bool:
        """Flip a device's mode; returns the new state."""
        new_state = not self.states.get(insteon_id, False)
        self.states[insteon_id] = new_state
        self.command_log.append((insteon_id, "on" if new_state else "off"))
        return new_state

    def state_of(self, insteon_id: str) -> bool:
        """Current on/off state of a device."""
        return self.states.get(insteon_id, False)


class ApplianceRegistry:
    """The set of instrumented appliances and their geometry."""

    def __init__(self, appliances: list[Appliance]) -> None:
        if not appliances:
            raise ValueError("registry needs at least one appliance")
        names = [a.name for a in appliances]
        if len(set(names)) != len(names):
            raise ValueError("appliance names must be unique")
        self.appliances = list(appliances)

    def __len__(self) -> int:
        return len(self.appliances)

    def angular_offsets_deg(
        self,
        origin: np.ndarray,
        direction: np.ndarray,
        elevation_weight: float = 0.35,
    ) -> list[tuple[Appliance, float]]:
        """Weighted angle between the pointing ray and each bearing.

        Azimuth dominates the score: appliances are separated around the
        room, while the gesture's elevation is both noisier (z error is
        geometrically amplified) and biased (the lift starts at the hip,
        not the shoulder). ``elevation_weight`` down-weights the
        elevation mismatch accordingly.
        """
        direction = unit(np.asarray(direction, dtype=np.float64))
        az_dir = np.degrees(np.arctan2(direction[0], direction[1]))
        el_dir = np.degrees(
            np.arcsin(np.clip(direction[2], -1.0, 1.0))
        )
        out = []
        for appliance in self.appliances:
            bearing = unit(np.asarray(appliance.position) - np.asarray(origin))
            az = np.degrees(np.arctan2(bearing[0], bearing[1]))
            el = np.degrees(np.arcsin(np.clip(bearing[2], -1.0, 1.0)))
            d_az = (az_dir - az + 180.0) % 360.0 - 180.0
            d_el = el_dir - el
            score = float(np.hypot(d_az, elevation_weight * d_el))
            out.append((appliance, score))
        return out

    def select(
        self,
        origin: np.ndarray,
        direction: np.ndarray,
        max_offset_deg: float = 30.0,
    ) -> Appliance | None:
        """The appliance the ray points at, or None if nothing is close.

        The winner must score within ``max_offset_deg``; ties go to the
        smallest weighted angular offset.
        """
        offsets = self.angular_offsets_deg(origin, direction)
        appliance, best = min(offsets, key=lambda pair: pair[1])
        return appliance if best <= max_offset_deg else None


def default_registry() -> ApplianceRegistry:
    """The paper's demo set: lamp, computer screen, automatic shades."""
    return ApplianceRegistry(
        [
            Appliance("lamp", np.array([-2.5, 6.0, 0.3]), "insteon-01"),
            Appliance("screen", np.array([0.5, 7.5, 0.4]), "insteon-02"),
            Appliance("shades", np.array([3.0, 5.5, 0.9]), "insteon-03"),
        ]
    )


class PointAndControl:
    """The end-to-end pointing application.

    Args:
        registry: instrumented appliances.
        bus: simulated Insteon driver.
        max_offset_deg: selection tolerance around the pointing ray.
    """

    def __init__(
        self,
        registry: ApplianceRegistry | None = None,
        bus: InsteonBus | None = None,
        max_offset_deg: float = 30.0,
    ) -> None:
        self.registry = registry or default_registry()
        self.bus = bus or InsteonBus()
        self.max_offset_deg = max_offset_deg

    def handle_gesture(
        self,
        pointing: PointingResult,
        user_position: np.ndarray | None = None,
    ) -> Appliance | None:
        """Act on a detected pointing gesture.

        Selects the appliance nearest the pointing ray and toggles its
        mode on the bus. The ray origin is "the current 3D position of
        the user" (Section 6.1) when provided — the tracked body position
        is far more accurate than the localized hand, whose z error is
        geometrically amplified — and falls back to the estimated hand
        position otherwise.

        Returns:
            The controlled appliance, or None if the gesture pointed at
            nothing in the registry.
        """
        origin = (
            np.asarray(user_position, dtype=np.float64)
            if user_position is not None
            else pointing.hand_end
        )
        appliance = self.registry.select(
            origin, pointing.direction, self.max_offset_deg
        )
        if appliance is None:
            return None
        self.bus.toggle(appliance.insteon_id)
        return appliance
