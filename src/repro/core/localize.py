"""3D localization from per-antenna round-trip distances (Section 5).

Each round-trip distance ``k_i`` constrains the reflector to an ellipsoid
with foci (Tx, Rx_i) and major axis ``k_i``. With the T geometry the
intersection admits a closed form — the paper precomputes it symbolically
("the ellipsoid equations need to be solved only once for any fixed
antenna positioning"); :class:`TGeometrySolver` is that closed form.
:class:`LeastSquaresSolver` is the general numerical solver for arbitrary
arrays and for the over-constrained >3-antenna configuration the paper
suggests in its Section 5 note.

Derivation of the closed form (Tx at the origin, ``r0 = |P|``):
squaring ``|P - Rx_i| = k_i - r0`` gives the linear relation
``Rx_i . P = (|Rx_i|^2 - k_i^2 + 2 k_i r0) / 2``. For Rx1 = (-d,0,0) and
Rx2 = (+d,0,0) the sum of the two relations eliminates x and yields
``r0 = (k1^2 + k2^2 - 2 d^2) / (2 (k1 + k2))``; their difference yields
x; the Rx3 = (0,0,-h) relation yields z; and ``y = sqrt(r0^2 - x^2 -
z^2)`` with the positive root selected because the antennas are
directional — only the half-space in front of the array is feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from ..geometry.antennas import AntennaArray


@dataclass(frozen=True)
class LocalizationResult:
    """Positions solved from round-trip distances.

    Attributes:
        positions: shape ``(n_frames, 3)``; NaN rows mark frames where the
            measurements were geometrically infeasible.
        valid: boolean mask of solved frames.
    """

    positions: np.ndarray
    valid: np.ndarray

    @property
    def num_frames(self) -> int:
        """Number of frames."""
        return len(self.positions)

    @property
    def solve_fraction(self) -> float:
        """Fraction of frames with a feasible solution."""
        return float(np.mean(self.valid))


class TGeometrySolver:
    """Closed-form ellipsoid intersection for the "T" array.

    Args:
        array: the antenna array; the first three receivers must be the
            canonical T (±d on x, -h on z, all relative to Tx at origin).
        min_y_m: smallest feasible depth into the room; solutions closer
            than this (or behind the array) are rejected.
    """

    #: Each frame's solution depends on that frame alone, so rows may be
    #: batched freely (across time or across serving sessions), and
    #: :class:`~repro.pipeline.Localize` reports it to the tick-plan
    #: matcher as the ``localize`` kind.
    row_independent = True

    def __init__(self, array: AntennaArray, min_y_m: float = 0.2) -> None:
        self._validate_t_geometry(array)
        rx = array.rx_positions
        self.separation_m = float(rx[1, 0])
        self.below_m = float(-rx[2, 2])
        self.min_y_m = min_y_m
        self.array = array
        #: Each round trip must exceed its Tx-Rx baseline: (d, d, h).
        self._ellipse_floor = np.array(
            [self.separation_m, self.separation_m, self.below_m]
        )

    @staticmethod
    def _validate_t_geometry(array: AntennaArray) -> None:
        if array.num_receivers < 3:
            raise ValueError("T solver needs 3 receive antennas")
        tx = array.tx.position
        if not np.allclose(tx, 0.0, atol=1e-9):
            raise ValueError("T solver assumes the Tx antenna at the origin")
        rx = array.rx_positions
        d = rx[1, 0]
        expected = np.array(
            [[-d, 0.0, 0.0], [d, 0.0, 0.0], [0.0, 0.0, rx[2, 2]]]
        )
        if d <= 0 or rx[2, 2] >= 0 or not np.allclose(
            rx[:3], expected, atol=1e-9
        ):
            raise ValueError(
                "receive antennas are not in the canonical T layout; use "
                "LeastSquaresSolver for general geometries"
            )

    def solve(self, round_trips_m: np.ndarray) -> LocalizationResult:
        """Solve every frame of a ``(n_frames, >=3)`` round-trip array."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return self.solve_unguarded(round_trips_m)

    def solve_unguarded(self, round_trips_m: np.ndarray) -> LocalizationResult:
        """:meth:`solve` without its own ``np.errstate``.

        For a caller that already silences invalid and divide-by-zero
        warnings, which NaN, infinite and degenerate rows raise here:
        :class:`~repro.pipeline.Localize` runs inside the one
        ``np.errstate`` :meth:`Pipeline.tick
        <repro.pipeline.Pipeline.tick>` holds for the whole chain.
        """
        k = np.asarray(round_trips_m, dtype=np.float64)
        if k.ndim != 2:
            k = np.atleast_2d(k)
        if k.shape[1] < 3:
            raise ValueError("need round trips for at least 3 antennas")
        k1, k2, k3 = k[:, 0], k[:, 1], k[:, 2]
        d = self.separation_m
        h = self.below_m

        # One call squares all three round trips (x*x is x**2 bitwise);
        # x, y and z land in their columns of the result.
        sq = k[:, :3] * k[:, :3]
        positions = np.empty((len(k), 3))
        x, y, z = positions[:, 0], positions[:, 1], positions[:, 2]
        r0 = (sq[:, 0] + sq[:, 1] - 2.0 * d * d) / (2.0 * (k1 + k2))
        np.divide(sq[:, 0] - sq[:, 1] + 2.0 * r0 * (k2 - k1), 4.0 * d, out=x)
        np.divide(sq[:, 2] - h * h - 2.0 * k3 * r0, 2.0 * h, out=z)
        y_sq = r0 * r0 - x * x - z * z
        np.sqrt(np.maximum(y_sq, 0.0), out=y)

        # Finite on every antenna, k1 > d, k2 > d, k3 > h, r0 > 0 and
        # deep enough into the room.
        valid = np.logical_and.reduce(np.isfinite(k), axis=1)
        valid &= np.logical_and.reduce(k[:, :3] > self._ellipse_floor, axis=1)
        valid &= r0 > 0.0
        valid &= y_sq > self.min_y_m**2
        np.copyto(positions, np.nan, where=~valid[:, None])
        return LocalizationResult(positions=positions, valid=valid)

    def solve_one(self, round_trips_m: np.ndarray) -> np.ndarray:
        """Solve a single frame; returns a ``(3,)`` position (NaN if bad)."""
        return self.solve(np.atleast_2d(round_trips_m)).positions[0]


class LeastSquaresSolver:
    """Numerical ellipsoid intersection for arbitrary (or >3 Rx) arrays.

    Minimizes the sum of squared ellipsoid residuals
    ``|P - Tx| + |P - Rx_i| - k_i`` with y constrained into the beam.
    With more than three receivers the system is over-constrained and
    noise is averaged down — the robustness the paper's Section 5 note
    predicts; ``bench_ablation_antennas`` quantifies it.

    Args:
        array: any antenna array.
        min_y_m: feasibility floor on depth.
        warm_start: seed each frame with the previous frame's solution
            (the continuity prior of human motion).
    """

    #: Each frame is warm-started from the previous accepted fix, so rows
    #: are NOT independent — a lockstep tick solves row by row
    #: (:meth:`solve_row`), carrying one fix per session.
    row_independent = False

    def __init__(
        self,
        array: AntennaArray,
        min_y_m: float = 0.2,
        warm_start: bool = True,
    ) -> None:
        self.array = array
        self.min_y_m = min_y_m
        self.warm_start = warm_start

    def _residuals(self, p: np.ndarray, k: np.ndarray) -> np.ndarray:
        d_tx = np.linalg.norm(p - self.array.tx.position)
        d_rx = np.linalg.norm(self.array.rx_positions - p[None, :], axis=1)
        return d_tx + d_rx - k

    def _initial_guess(self, k: np.ndarray) -> np.ndarray:
        # Put the guess on the array axis at half the mean round trip.
        depth = max(float(np.mean(k)) / 2.0, self.min_y_m + 0.1)
        return np.array([0.0, depth, 0.0])

    def solve_row(
        self, k: np.ndarray, previous: np.ndarray | None = None
    ) -> np.ndarray | None:
        """Solve one frame's round trips; ``None`` when rejected.

        Args:
            k: the frame's ``(n_rx,)`` round trips.
            previous: the last accepted fix of the same track; with
                ``warm_start`` it seeds the optimizer, otherwise (or
                when ``None``) a guess on the array axis does.
        """
        if not np.all(np.isfinite(k)):
            return None
        guess = (
            previous
            if (self.warm_start and previous is not None)
            else self._initial_guess(k)
        )
        result = optimize.least_squares(
            self._residuals,
            guess,
            args=(k,),
            bounds=(
                np.array([-np.inf, self.min_y_m, -np.inf]),
                np.array([np.inf, np.inf, np.inf]),
            ),
            method="trf",
            xtol=1e-10,
            ftol=1e-10,
        )
        if not result.success:
            return None
        residual_rms = float(np.sqrt(np.mean(result.fun**2)))
        # Accept only geometrically-consistent fits (residual below a
        # generous fraction of the range resolution).
        if residual_rms > 0.5:
            return None
        return result.x

    def solve(self, round_trips_m: np.ndarray) -> LocalizationResult:
        """Solve every frame of a ``(n_frames, n_rx)`` round-trip array.

        One track: each frame is seeded from the last accepted fix
        before it, the same loop :class:`~repro.pipeline.stages.Localize`
        runs per session slot.
        """
        k_all = np.atleast_2d(np.asarray(round_trips_m, dtype=np.float64))
        n_frames = len(k_all)
        n_rx = self.array.num_receivers
        if k_all.shape[1] != n_rx:
            raise ValueError(
                f"expected {n_rx} round trips per frame, got {k_all.shape[1]}"
            )
        positions = np.full((n_frames, 3), np.nan)
        valid = np.zeros(n_frames, dtype=bool)
        previous: np.ndarray | None = None
        for i in range(n_frames):
            fix = self.solve_row(k_all[i], previous)
            if fix is not None:
                positions[i] = previous = fix
                valid[i] = True
        return LocalizationResult(positions=positions, valid=valid)

    def solve_one(self, round_trips_m: np.ndarray) -> np.ndarray:
        """Solve a single frame; returns a ``(3,)`` position (NaN if bad)."""
        return self.solve(np.atleast_2d(round_trips_m)).positions[0]


def make_solver(
    array: AntennaArray, method: str = "auto", **kwargs: object
) -> TGeometrySolver | LeastSquaresSolver:
    """Pick the right solver for an array.

    ``auto`` uses the closed form when the array is a canonical 3-Rx T and
    falls back to least squares otherwise.
    """
    if method not in ("auto", "closed_form", "least_squares"):
        raise ValueError(f"unknown solver method: {method!r}")
    if method == "least_squares":
        return LeastSquaresSolver(array, **kwargs)  # type: ignore[arg-type]
    if method == "closed_form":
        return TGeometrySolver(array, **kwargs)  # type: ignore[arg-type]
    try:
        if array.num_receivers == 3:
            return TGeometrySolver(array, **kwargs)  # type: ignore[arg-type]
    except ValueError:
        pass
    return LeastSquaresSolver(array, **kwargs)  # type: ignore[arg-type]
