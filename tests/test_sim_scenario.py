"""Tests for scenario composition and the synthesized physics.

Besides the physics, this pins the numpy backend's array path geometry
(:class:`PathGeometry`) bitwise against the per-antenna spec it
replaces, ``Scenario._paths_for_antenna``, over a hypothesis-drawn
domain: 1-4 sessions, through-wall and line-of-sight rooms, varied
bodies, with and without a gesture, 1-sweep and odd-length chunks, and
paths whose amplitudes are all zero.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SimulationConfig, default_config
from repro.core.background import background_subtract
from repro.core.spectrogram import spectrogram_from_sweeps
from repro.geometry.antennas import t_array
from repro.kernels import use_backend
from repro.rf.noise import NoiseModel
from repro.rf.receiver import SweepSynthesizer
from repro.sim.body import HumanBody
from repro.sim.motion import stand_still, waypoint_walk
from repro.sim.room import line_of_sight_room, through_wall_room
from repro.sim.scenario import PathGeometry, Scenario


class TestOutputs:
    def test_shapes(self, tw_walk_output):
        out = tw_walk_output
        assert out.spectra.shape[0] == 3
        assert out.spectra.shape[1] == out.num_sweeps
        assert out.surface_truth.shape == (out.num_sweeps, 3)
        assert out.true_round_trips.shape == (3, out.num_sweeps)

    def test_sweep_cadence(self, tw_walk_output):
        dt = np.diff(tw_walk_output.sweep_times_s)
        assert np.allclose(dt, 2.5e-3)

    def test_true_round_trips_match_geometry(self, tw_walk_output, array):
        out = tw_walk_output
        i = out.num_sweeps // 2
        expected = array.round_trip_distances(out.surface_truth[i])
        assert np.allclose(out.true_round_trips[:, i], expected)

    def test_truth_at_resamples(self, tw_walk_output):
        pos = tw_walk_output.truth_at(np.array([1.0, 2.0]))
        assert pos.shape == (2, 3)

    def test_deterministic_given_seed(self):
        room = through_wall_room()
        walk = waypoint_walk(np.array([[0.0, 4.0], [1.0, 5.0]]))
        a = Scenario(walk, room=room, seed=5).run()
        b = Scenario(walk, room=room, seed=5).run()
        assert np.array_equal(a.spectra, b.spectra)

    def test_different_seeds_differ(self):
        room = through_wall_room()
        walk = waypoint_walk(np.array([[0.0, 4.0], [1.0, 5.0]]))
        a = Scenario(walk, room=room, seed=5).run()
        b = Scenario(walk, room=room, seed=6).run()
        assert not np.array_equal(a.spectra, b.spectra)


class TestPhysics:
    def test_flash_effect_present(self, tw_walk_output):
        """Static clutter dominates the raw spectrogram (Section 4.2)."""
        out = tw_walk_output
        spec = spectrogram_from_sweeps(
            out.spectra[0], 2.5e-3, out.range_bin_m, 5
        )
        power = spec.power
        # The strongest bin should be a static stripe, not the human:
        # its bin must not move across frames.
        peak_bins = np.argmax(power, axis=1)
        dominant = np.bincount(peak_bins).argmax()
        assert np.mean(peak_bins == dominant) > 0.9

    def test_background_subtraction_reveals_human(self, tw_walk_output):
        out = tw_walk_output
        spec = spectrogram_from_sweeps(
            out.spectra[0], 2.5e-3, out.range_bin_m, 5
        )
        sub = background_subtract(spec)
        n = len(sub.power)
        truth_bins = (
            out.true_round_trips[0][: (n + 1) * 5]
            .reshape(-1, 5)
            .mean(axis=1)[1 : n + 1]
            / out.range_bin_m
        )
        peak_bins = np.argmax(sub.power, axis=1)
        close = np.abs(peak_bins - truth_bins) <= 3
        # Most frames: the human (or her immediate neighborhood) is the
        # strongest reflector after subtraction.
        assert np.mean(close) > 0.5

    def test_static_scene_cancels(self):
        """A fully static scene leaves only noise after subtraction."""
        room = through_wall_room()
        still = stand_still(np.array([0.5, 4.0, 0.0]), duration_s=3.0)
        out = Scenario(still, room=room, seed=9).run()
        spec = spectrogram_from_sweeps(out.spectra[0], 2.5e-3, out.range_bin_m, 5)
        raw_power = float(np.mean(spec.power))
        sub_power = float(np.mean(background_subtract(spec).power))
        # Subtraction must remove essentially all deterministic power.
        assert sub_power < raw_power * 1e-4

    def test_through_wall_attenuates_body_echo(self):
        walk = waypoint_walk(np.array([[0.0, 4.0], [1.5, 5.5]]))
        tw = Scenario(walk, room=through_wall_room(), seed=3).run()
        los = Scenario(walk, room=line_of_sight_room(), seed=3).run()

        def human_power(out):
            spec = spectrogram_from_sweeps(
                out.spectra[0], 2.5e-3, out.range_bin_m, 5
            )
            sub = background_subtract(spec)
            return float(np.median(np.max(sub.power, axis=1)))

        ratio_db = 10 * np.log10(human_power(los) / human_power(tw))
        # Two traversals of a 6.5 dB wall: ~13 dB stronger in LOS.
        assert 7.0 < ratio_db < 20.0

    def test_num_multipath_images_control(self):
        walk = waypoint_walk(np.array([[0.0, 4.0], [1.0, 5.0]]))
        cfg = default_config().replace(
            simulation=SimulationConfig(num_multipath_images=0)
        )
        out = Scenario(walk, room=through_wall_room(), seed=3, config=cfg).run()
        assert out.num_rx == 3  # still synthesizes fine without images

    def test_hand_truth_only_with_gesture(self, tw_walk_output):
        assert tw_walk_output.hand_truth is None


#: One drawn session: (through-wall, gesture, torso RCS, arm RCS,
#: all points behind the array, jitter given as zero arrays when LOS).
_session = st.tuples(
    st.booleans(),
    st.booleans(),
    st.floats(0.05, 1.5),
    st.floats(0.005, 0.2),
    st.booleans(),
    st.booleans(),
)


def _drawn_cohort(sessions, n_sweeps, seed):
    """Scenarios plus one chunk of (surface, hand, jitters) per session."""
    rng = np.random.default_rng(seed)
    config = default_config()
    scenarios, surfaces, hands, jitters = [], [], [], []
    for through_wall, gesture, torso, arm, behind, zero_jitter in sessions:
        make_room = through_wall_room if through_wall else line_of_sight_room
        room = make_room(
            width_m=float(rng.uniform(4.0, 10.0)),
            depth_m=float(rng.uniform(5.0, 14.0)),
            height_m=float(rng.uniform(2.2, 3.5)),
            wall_attenuation_db=float(rng.uniform(2.0, 9.0)),
            side_wall_reflection_loss_db=float(rng.uniform(3.0, 9.0)),
        )
        body = HumanBody(torso_rcs_m2=torso, arm_rcs_m2=arm)
        scenarios.append(
            Scenario(
                stand_still(np.array([0.0, 4.0, 0.0]), duration_s=1.0),
                room=room, body=body, config=config,
            )
        )
        lo, hi = np.array([-4.0, -2.0, -1.2]), np.array([4.0, 10.0, 1.6])
        surface = rng.uniform(lo, hi, (n_sweeps, 3))
        if behind:
            # Outside every beam: all-zero amplitudes, dropped paths.
            surface[:, 1] = -np.abs(surface[:, 1]) - 0.5
        if n_sweeps > 2 and rng.uniform() < 0.3:
            surface[1] = scenarios[-1].array.tx.position  # zero range
        surfaces.append(surface)
        hands.append(rng.uniform(lo, hi, (n_sweeps, 3)) if gesture else None)
        n_rx = scenarios[-1].array.num_receivers
        if through_wall:
            jitters.append(list(rng.normal(0.0, 0.02, (n_rx, n_sweeps))))
        else:
            zeros = [np.zeros(n_sweeps)] * n_rx
            jitters.append(zeros if zero_jitter else None)
    return scenarios, surfaces, hands, jitters


class TestPathGeometry:
    @given(
        sessions=st.lists(_session, min_size=1, max_size=4),
        n_sweeps=st.sampled_from([1, 2, 3, 5, 7, 33, 65]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_numpy_geometry_is_the_reference_spec_bitwise(
        self, sessions, n_sweeps, seed
    ):
        scenarios, surfaces, hands, jitters = _drawn_cohort(
            sessions, n_sweeps, seed
        )
        geometry = PathGeometry(scenarios)
        with use_backend("numpy"):
            rt, amp = geometry.solve(surfaces, hands, jitters)
            as_paths = geometry.path_sets(surfaces, hands, jitters)
        n_paths = rt.shape[2]
        for k, scn in enumerate(scenarios):
            for i, rx in enumerate(scn.array.rx):
                jitter = (
                    jitters[k][i] if jitters[k] is not None
                    else np.zeros(n_sweeps)
                )
                spec = scn._paths_for_antenna(
                    rx, surfaces[k], hands[k], jitter
                )
                assert [p.name for p in as_paths[k][i]] == [
                    p.name for p in spec
                ]
                for j, path in enumerate(spec):
                    assert rt[k, i, j].tobytes() == path.round_trip_m.tobytes()
                    assert amp[k, i, j].tobytes() == path.amplitude.tobytes()
                # A session without a gesture pads the hand slot with a
                # zero-amplitude path, which synthesis drops like the
                # spec's absence.
                assert not amp[k, i, len(spec):].any()
                assert n_paths - len(spec) in (0, 1)

    @given(
        sessions=st.lists(_session, min_size=1, max_size=4),
        n_sweeps=st.sampled_from([1, 3, 5, 7, 33]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_array_synthesis_is_the_path_list_synthesis_bitwise(
        self, sessions, n_sweeps, seed
    ):
        """Arrays into synthesize_paths == spec Paths into synthesize_batch.

        Covers path order and the dropping of all-zero paths end to end.
        """
        scenarios, surfaces, hands, jitters = _drawn_cohort(
            sessions, n_sweeps, seed
        )
        geometry = PathGeometry(scenarios)
        config = scenarios[0].config
        synthesizer = SweepSynthesizer(
            config.fmcw, NoiseModel(), max_range_m=config.pipeline.max_range_m
        )
        n_streams = len(scenarios) * geometry.num_rx
        with use_backend("numpy"):
            got = geometry.synthesize(
                synthesizer, surfaces, hands, jitters,
                np.zeros((n_streams, n_sweeps, synthesizer.num_bins),
                         dtype=np.complex128),
            )
            with use_backend("reference"):
                spec_sets = geometry.path_sets(surfaces, hands, jitters)
            want = synthesizer.synthesize_batch(
                [paths for per_rx in spec_sets for paths in per_rx], n_sweeps
            )
        assert got.tobytes() == want.tobytes()

    def test_rejects_sessions_with_different_config_or_antennas(self):
        config = default_config()
        walk = stand_still(np.array([0.0, 4.0, 0.0]), duration_s=1.0)
        base = Scenario(walk, config=config)
        shifted = config.replace(
            fmcw=dataclasses.replace(
                config.fmcw, start_hz=config.fmcw.start_hz + 0.5e9
            )
        )
        with pytest.raises(ValueError):
            PathGeometry([base, Scenario(walk, config=shifted)])
        moved = t_array(config.array)
        tx = dataclasses.replace(moved.tx, position=moved.tx.position + 0.01)
        moved = dataclasses.replace(moved, tx=tx)
        with pytest.raises(ValueError):
            PathGeometry([base, Scenario(walk, config=config, array=moved)])
        # Rooms and bodies may differ.
        PathGeometry([
            base,
            Scenario(walk, room=line_of_sight_room(), config=config,
                     body=HumanBody(torso_rcs_m2=0.9)),
        ])
