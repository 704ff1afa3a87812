"""Tests for the experiment harness (the Section 8 protocol)."""

import numpy as np
import pytest

from repro.core.localize import LocalizationResult, TGeometrySolver
from repro.eval.harness import (
    CI_SCALE,
    PAPER_SCALE,
    TrackingExperiment,
    current_scale,
    make_activity_trajectory,
    run_fall_experiment,
    run_pointing_experiment,
    run_tracking_experiment,
)
from repro.sim.room import through_wall_room


class TestScale:
    def test_default_is_ci(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert current_scale().name == "ci"

    def test_paper_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        scale = current_scale()
        assert scale.num_experiments == 100
        assert scale.duration_s == 60.0

    def test_unknown_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "huge")
        with pytest.raises(ValueError):
            current_scale()

    def test_custom_scale_form(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "20x30")
        scale = current_scale()
        assert scale.num_experiments == 20
        assert scale.duration_s == 30.0
        assert scale.name == "20x30"

    def test_custom_scale_fractional_seconds(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "4x7.5")
        scale = current_scale()
        assert scale.num_experiments == 4
        assert scale.duration_s == 7.5

    @pytest.mark.parametrize(
        "bad", ["0x30", "20x0", "x30", "20x", "20*30", "20x30x40"]
    )
    def test_malformed_custom_scale_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_SCALE", bad)
        with pytest.raises(ValueError, match="accepted forms"):
            current_scale()

    def test_error_message_lists_all_accepted_forms(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "nope")
        with pytest.raises(ValueError) as excinfo:
            current_scale()
        message = str(excinfo.value)
        for form in ("ci", "paper", "<n>x<secs>", "20x30"):
            assert form in message

    def test_ci_smaller_than_paper(self):
        assert CI_SCALE.num_experiments < PAPER_SCALE.num_experiments


class TestTrackingExperiment:
    def test_outcome_structure(self):
        outcome = run_tracking_experiment(
            TrackingExperiment(seed=0, duration_s=8.0)
        )
        assert outcome.errors_xyz.shape[1] == 3
        assert len(outcome.distances_m) == outcome.track.num_frames
        x, y, z = outcome.summaries()
        assert x.count > 0

    def test_reasonable_accuracy(self):
        outcome = run_tracking_experiment(
            TrackingExperiment(seed=1, duration_s=10.0)
        )
        med = np.nanmedian(outcome.errors_xyz, axis=0)
        assert med[0] < 0.4 and med[1] < 0.4 and med[2] < 0.6

    def test_seed_changes_subject(self):
        a = run_tracking_experiment(TrackingExperiment(seed=0, duration_s=5.0))
        b = run_tracking_experiment(TrackingExperiment(seed=1, duration_s=5.0))
        assert a.body.name != b.body.name or not np.allclose(
            a.errors_xyz[:10], b.errors_xyz[:10], equal_nan=True
        )

    def test_walk_area_respected(self):
        area = ((-1.0, 1.0), (8.0, 10.0))
        outcome = run_tracking_experiment(
            TrackingExperiment(seed=2, duration_s=6.0, walk_area=area)
        )
        # Subject distance is ~8-10 m from the device.
        assert np.median(outcome.distances_m) > 7.0

    def test_antenna_separation_override(self):
        outcome = run_tracking_experiment(
            TrackingExperiment(
                seed=3, duration_s=5.0, antenna_separation_m=0.5
            )
        )
        rx = outcome.track.round_trips_m
        assert rx.shape[0] == 3  # still a 3-Rx T

    def test_rerun_tracks_with_todays_code(self, monkeypatch, tmp_path):
        """A rerun reflects a code change made between two runs, and
        writes nothing, even with a cache directory in the environment
        (experiment results once came back from such a directory)."""
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        exp = TrackingExperiment(seed=3, duration_s=4.0)
        before = run_tracking_experiment(exp).track.positions

        shift = np.array([0.5, 0.0, 0.0])
        solve = TGeometrySolver.solve_unguarded

        def shifted(self, round_trips_m):
            fixes = solve(self, round_trips_m)
            return LocalizationResult(fixes.positions + shift, fixes.valid)

        monkeypatch.setattr(TGeometrySolver, "solve_unguarded", shifted)
        after = run_tracking_experiment(exp).track.positions

        finite = np.isfinite(before).all(axis=1)
        assert finite.any()
        np.testing.assert_array_equal(np.isfinite(after).all(axis=1), finite)
        np.testing.assert_array_equal(after[finite], before[finite] + shift)
        assert list(tmp_path.iterdir()) == []


class TestPointingExperiment:
    def test_returns_error_or_nan(self):
        outcome = run_pointing_experiment(seed=0)
        assert np.isnan(outcome.error_deg) or outcome.error_deg >= 0.0

    def test_usually_detects(self):
        errors = [run_pointing_experiment(seed=s).error_deg for s in range(4)]
        assert np.mean(np.isfinite(errors)) >= 0.75


class TestFallExperiment:
    def test_activity_trajectories(self):
        room = through_wall_room()
        rng = np.random.default_rng(0)
        for activity in ("walk", "sit_chair", "sit_floor", "fall"):
            traj = make_activity_trajectory(activity, room, rng, 10.0)
            assert traj.label == activity

    def test_unknown_activity(self):
        with pytest.raises(ValueError):
            make_activity_trajectory(
                "cartwheel", through_wall_room(), np.random.default_rng(0)
            )

    def test_fall_experiment_runs(self):
        outcome = run_fall_experiment(seed=3, activity="fall", duration_s=20.0)
        assert outcome.true_label == "fall"
        assert outcome.verdict.activity in (
            "walk", "sit_chair", "sit_floor", "fall",
        )
