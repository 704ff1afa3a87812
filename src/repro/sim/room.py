"""Room geometry: walls, occlusion, and the through-wall scenario.

The paper's evaluation room is the VICON room: "no windows ... 6-inch
hollow walls supported by steel frames with sheet rock on top, which is a
standard setup for office buildings" (Section 9.1). The device sits
either behind the front wall (through-wall) or inside the room next to
that wall (line-of-sight). The room frame matches the device frame: the
antenna T is in the x-z plane at y=0 and the room extends in +y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry.vec import Vec3
from ..rf.propagation import Wall


@dataclass(frozen=True)
class Room:
    """A rectangular room observed by the device.

    Attributes:
        width_m: extent along x, centered on the device axis.
        depth_m: extent along y, starting at ``front_wall_y``.
        height_m: floor-to-ceiling height; the floor is at device z =
            ``-device_height`` (the device hangs at waist height).
        front_wall_y: y position of the wall between device and room;
            ``None`` means line-of-sight (device inside the room).
        wall_attenuation_db: one-traversal attenuation of the front wall.
        side_wall_reflection_loss_db: loss of one bounce off a side wall,
            used by the dynamic-multipath image paths.
        device_height_m: height of the antenna plane above the floor.
    """

    width_m: float = 8.0
    depth_m: float = 12.0
    height_m: float = 2.7
    front_wall_y: float | None = 0.3
    wall_attenuation_db: float = 6.5
    side_wall_reflection_loss_db: float = 6.0
    device_height_m: float = 1.0
    #: RMS excess round-trip delay (m) from wavefront distortion inside
    #: the wall (sheet rock over steel studs is electrically
    #: inhomogeneous, so the traversal delay varies with the crossing
    #: point). Zero in line-of-sight rooms; this is the physical origin
    #: of the paper's LOS-vs-through-wall accuracy gap (Section 9.1).
    wall_tof_jitter_std_m: float = 0.022

    def __post_init__(self) -> None:
        if self.width_m <= 0 or self.depth_m <= 0 or self.height_m <= 0:
            raise ValueError("room dimensions must be positive")

    @property
    def is_through_wall(self) -> bool:
        """True when a front wall separates the device from the room."""
        return self.front_wall_y is not None

    @property
    def floor_z(self) -> float:
        """z of the floor in the device frame."""
        return -self.device_height_m

    @property
    def walls(self) -> list[Wall]:
        """Attenuating wall planes (only the front wall attenuates)."""
        if self.front_wall_y is None:
            return []
        return [
            Wall(
                point=Vec3(0.0, self.front_wall_y, 0.0),
                normal=Vec3(0.0, 1.0, 0.0),
                attenuation_db=self.wall_attenuation_db,
            )
        ]

    @property
    def bounce_planes(self) -> list[tuple[np.ndarray, np.ndarray, str]]:
        """Planes that generate dynamic multipath images.

        Side walls, the back wall, and the ceiling; the floor is excluded
        because floor bounces are blocked by the body itself at waist-high
        antenna elevations.
        """
        half = self.width_m / 2.0
        back_y = (self.front_wall_y or 0.0) + self.depth_m
        ceiling_z = self.height_m - self.device_height_m
        return [
            (Vec3(-half, 0.0, 0.0), Vec3(1.0, 0.0, 0.0), "left"),
            (Vec3(+half, 0.0, 0.0), Vec3(-1.0, 0.0, 0.0), "right"),
            (Vec3(0.0, back_y, 0.0), Vec3(0.0, -1.0, 0.0), "back"),
            (Vec3(0.0, 0.0, ceiling_z), Vec3(0.0, 0.0, -1.0), "ceiling"),
        ]

    def contains(self, point: np.ndarray, margin_m: float = 0.0) -> bool:
        """True if an x-y position is inside the room (z ignored)."""
        x, y = float(point[0]), float(point[1])
        half = self.width_m / 2.0 - margin_m
        y_lo = (self.front_wall_y or 0.0) + margin_m
        y_hi = (self.front_wall_y or 0.0) + self.depth_m - margin_m
        return -half <= x <= half and y_lo <= y <= y_hi

    def clamp(self, point: np.ndarray, margin_m: float = 0.3) -> np.ndarray:
        """Clamp an x-y position into the walkable interior."""
        out = np.asarray(point, dtype=np.float64).copy()
        half = self.width_m / 2.0 - margin_m
        y_lo = (self.front_wall_y or 0.0) + margin_m
        y_hi = (self.front_wall_y or 0.0) + self.depth_m - margin_m
        out[0] = np.clip(out[0], -half, half)
        out[1] = np.clip(out[1], y_lo, y_hi)
        return out


def through_wall_room(**overrides: object) -> Room:
    """The paper's default setting: device behind the VICON-room wall."""
    defaults: dict[str, object] = {"front_wall_y": 0.3}
    defaults.update(overrides)
    return Room(**defaults)  # type: ignore[arg-type]


def line_of_sight_room(**overrides: object) -> Room:
    """Device inside the room, next to the wall (Fig. 8a setting)."""
    defaults: dict[str, object] = {"front_wall_y": None}
    defaults.update(overrides)
    return Room(**defaults)  # type: ignore[arg-type]
