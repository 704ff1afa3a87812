"""Tests for ellipsoid-intersection localization (Section 5)."""

import numpy as np
import pytest

from repro.config import ArrayConfig
from repro.geometry.antennas import t_array
from repro.core.localize import (
    LeastSquaresSolver,
    TGeometrySolver,
    make_solver,
)


@pytest.fixture
def array():
    return t_array()


@pytest.fixture
def solver(array):
    return TGeometrySolver(array)


def _random_points(rng, n):
    return np.column_stack(
        [
            rng.uniform(-3.0, 3.0, n),
            rng.uniform(1.0, 9.0, n),
            rng.uniform(-0.9, 1.5, n),
        ]
    )


class TestClosedForm:
    def test_exact_roundtrip(self, array, solver):
        rng = np.random.default_rng(0)
        points = _random_points(rng, 200)
        k = np.stack([array.round_trip_distances(p) for p in points])
        result = solver.solve(k)
        assert result.valid.all()
        assert np.allclose(result.positions, points, atol=1e-9)

    def test_single_frame_api(self, array, solver):
        p = np.array([1.0, 5.0, -0.3])
        k = array.round_trip_distances(p)
        assert np.allclose(solver.solve_one(k), p, atol=1e-9)

    def test_infeasible_measurement_marked_invalid(self, solver):
        # Round trips shorter than the antenna separation are impossible.
        result = solver.solve(np.array([[0.5, 0.5, 0.5]]))
        assert not result.valid[0]
        assert np.isnan(result.positions[0]).all()

    def test_nan_input_marked_invalid(self, solver):
        result = solver.solve(np.array([[np.nan, 8.0, 8.0]]))
        assert not result.valid[0]

    def test_degenerate_rows_are_invalid_without_warnings(self, solver):
        """Infinite and zero-sum round trips divide inf by inf or by 0:
        ``solve`` marks them invalid without a warning (tier-1 turns any
        RuntimeWarning from this module into an error), and the
        ``solve_unguarded`` arithmetic the Localize stage calls inside
        ``Pipeline.tick``'s errstate gives the same answer."""
        k = np.array([
            [np.inf, 8.0, 8.0],
            [np.inf, np.inf, np.inf],
            [0.0, 0.0, 8.0],
            [-4.0, 4.0, 8.0],
        ])
        result = solver.solve(k)
        assert not result.valid.any()
        with np.errstate(invalid="ignore", divide="ignore"):
            unguarded = solver.solve_unguarded(k)
        np.testing.assert_array_equal(unguarded.positions, result.positions)
        np.testing.assert_array_equal(unguarded.valid, result.valid)

    def test_behind_array_rejected(self, array, solver):
        """Points behind the array produce y^2 <= 0 after the beam
        constraint: the solver must not hallucinate them."""
        # Craft k values whose solution would sit at y ~ 0.
        p = np.array([2.0, 0.05, 0.3])
        k = array.round_trip_distances(p)
        result = solver.solve(k[None, :])
        assert not result.valid[0]

    def test_requires_canonical_t(self):
        from repro.geometry.antennas import Antenna, AntennaArray
        from repro.geometry.vec import Vec3

        scrambled = AntennaArray(
            tx=Antenna(position=Vec3(0, 0, 0)),
            rx=(
                Antenna(position=Vec3(0.5, 0, 0.5)),
                Antenna(position=Vec3(1, 0, 0)),
                Antenna(position=Vec3(0, 0, -1)),
            ),
        )
        with pytest.raises(ValueError):
            TGeometrySolver(scrambled)

    def test_error_grows_with_distance(self, array, solver):
        """Fig. 9 geometry: the same TOF noise produces larger position
        error when the subject is farther away."""
        rng = np.random.default_rng(1)
        sigma = 0.02

        def median_error(y_depth):
            p = np.array([0.5, y_depth, 0.0])
            k = array.round_trip_distances(p)
            noisy = k[None, :] + rng.normal(0, sigma, (500, 3))
            result = solver.solve(noisy)
            errs = np.linalg.norm(
                result.positions[result.valid] - p[None, :], axis=1
            )
            return np.median(errs)

        assert median_error(9.0) > median_error(3.0)

    def test_error_shrinks_with_separation(self):
        """Fig. 10 geometry: wider antenna separation reduces error."""
        rng = np.random.default_rng(2)
        sigma = 0.02
        p = np.array([0.5, 5.0, 0.0])

        def median_error(sep):
            arr = t_array(ArrayConfig(separation_m=sep))
            solver = TGeometrySolver(arr)
            k = arr.round_trip_distances(p)
            noisy = k[None, :] + rng.normal(0, sigma, (500, 3))
            result = solver.solve(noisy)
            errs = np.linalg.norm(
                result.positions[result.valid] - p[None, :], axis=1
            )
            return np.median(errs)

        assert median_error(0.25) > median_error(2.0)


class TestLeastSquares:
    def test_matches_closed_form(self, array):
        rng = np.random.default_rng(3)
        points = _random_points(rng, 10)
        k = np.stack([array.round_trip_distances(p) for p in points])
        ls = LeastSquaresSolver(array).solve(k)
        cf = TGeometrySolver(array).solve(k)
        assert ls.valid.all()
        assert np.allclose(ls.positions, cf.positions, atol=1e-5)

    def test_over_constrained_average_noise(self):
        """More antennas average down TOF noise (Section 5 note)."""
        rng = np.random.default_rng(4)
        p = np.array([0.8, 5.0, 0.2])
        sigma = 0.03

        def med_err(n_rx):
            arr = t_array(ArrayConfig(num_receivers=n_rx))
            solver = LeastSquaresSolver(arr)
            k = arr.round_trip_distances(p)
            noisy = k[None, :] + rng.normal(0, sigma, (60, n_rx))
            result = solver.solve(noisy)
            errs = np.linalg.norm(
                result.positions[result.valid] - p[None, :], axis=1
            )
            return np.median(errs)

        assert med_err(6) < med_err(3)

    def test_wrong_count_rejected(self, array):
        solver = LeastSquaresSolver(array)
        with pytest.raises(ValueError):
            solver.solve(np.ones((2, 5)))

    def test_nan_rows_skipped(self, array):
        solver = LeastSquaresSolver(array)
        p = np.array([0.5, 4.0, 0.1])
        k = array.round_trip_distances(p)
        rows = np.vstack([k, np.full(3, np.nan), k])
        result = solver.solve(rows)
        assert result.valid[0] and result.valid[2]
        assert not result.valid[1]


class TestMakeSolver:
    def test_auto_picks_closed_form_for_t(self, array):
        assert isinstance(make_solver(array), TGeometrySolver)

    def test_auto_falls_back_for_extra_antennas(self):
        arr = t_array(ArrayConfig(num_receivers=4))
        assert isinstance(make_solver(arr), LeastSquaresSolver)

    def test_explicit_choice(self, array):
        assert isinstance(
            make_solver(array, method="least_squares"), LeastSquaresSolver
        )

    def test_unknown_method(self, array):
        with pytest.raises(ValueError):
            make_solver(array, method="oracle")
