"""Multi-person scenario synthesis and the end-to-end multi pipeline."""

import numpy as np
import pytest

from repro.eval.metrics import mot_metrics
from repro.multi import MultiScenario, MultiTrack, MultiWiTrack, TrackStatus
from repro.sim import (
    HumanBody,
    non_colliding_walks,
    through_wall_room,
    waypoint_walk,
)


@pytest.fixture(scope="module")
def two_person_output():
    room = through_wall_room()
    rng = np.random.default_rng(8)
    walks = non_colliding_walks(
        room, rng, 2, duration_s=6.0, min_separation_m=1.0
    )
    people = [
        (HumanBody(name="near"), walks[0]),
        (HumanBody(name="far"), walks[1]),
    ]
    return MultiScenario(people, room=room, seed=8).run()


@pytest.fixture(scope="module")
def crossing_output():
    """Two people crossing in range: their echoes merge for a stretch."""
    room = through_wall_room()
    y0 = (room.front_wall_y or 0.0) + 2.5
    a = waypoint_walk(np.array([[-1.0, y0], [-1.0, y0 + 4.0]]), speed_mps=0.8)
    b = waypoint_walk(np.array([[1.0, y0 + 4.0], [1.0, y0]]), speed_mps=0.8)
    people = [(HumanBody(name="a"), a), (HumanBody(name="b"), b)]
    return MultiScenario(people, room=room, seed=2).run()


def _spec_multi_track(tracker: MultiWiTrack, out) -> MultiTrack:
    """The MultiTrack of the per-slot spec, built here from scratch.

    The tracker's own front end yields every frame's candidate sets; a
    fresh :meth:`TrackManager.step` advances on them, and its reported
    tracks fill one row per track id (in order of first report), NaN
    where a track was not reported, with the coasting flags beside.
    """
    spec = tracker.make_manager()
    times, frames = [], []
    for frame in tracker.pipeline(out.range_bin_m).stream(out.spectra):
        tracks = spec.step(
            list(frame.candidates_m), list(frame.candidate_powers)
        )
        times.append(frame.time_s)
        frames.append([
            (t.track_id, t.position, t.status is TrackStatus.COASTING)
            for t in tracks
        ])
    ids = list(dict.fromkeys(tid for frame in frames for tid, _, _ in frame))
    positions = np.full((len(ids), len(frames), 3), np.nan)
    coasting = np.zeros((len(ids), len(frames)), dtype=bool)
    for f, frame in enumerate(frames):
        for tid, position, coasted in frame:
            positions[ids.index(tid), f] = position
            coasting[ids.index(tid), f] = coasted
    return MultiTrack(np.asarray(times), positions, tuple(ids), coasting)


class TestMultiScenario:
    def test_output_shapes(self, two_person_output):
        out = two_person_output
        assert out.num_people == 2
        assert out.spectra.shape[0] == out.num_rx == 3
        assert out.spectra.shape[1] == out.num_sweeps
        assert out.surface_truths.shape == (2, out.num_sweeps, 3)
        assert out.true_round_trips.shape == (2, 3, out.num_sweeps)

    def test_truth_at_resamples_every_person(self, two_person_output):
        out = two_person_output
        times = np.linspace(0.0, 2.0, 7)
        truth = out.truth_at(times)
        assert truth.shape == (2, 7, 3)
        for p in range(2):
            np.testing.assert_allclose(
                truth[p], out.truths[p].resample(times)
            )

    def test_round_trips_match_surfaces(self, two_person_output):
        out = two_person_output
        # Spot-check: the recorded true round trips are the geometric
        # Tx -> surface -> Rx path lengths.
        sweep = out.num_sweeps // 2
        surface = out.surface_truths[1, sweep]
        from repro.geometry.antennas import t_array

        expected = t_array().round_trip_distances(surface)
        np.testing.assert_allclose(
            out.true_round_trips[1, :, sweep], expected, atol=1e-9
        )

    def test_needs_at_least_one_person(self):
        with pytest.raises(ValueError):
            MultiScenario([])

    def test_non_colliding_walks_respect_separation(self):
        room = through_wall_room()
        rng = np.random.default_rng(0)
        walks = non_colliding_walks(
            room, rng, 3, duration_s=4.0, min_separation_m=0.8
        )
        assert len(walks) == 3
        times = walks[0].times_s
        for i in range(3):
            for j in range(i + 1, 3):
                a = walks[i].resample(times)
                b = walks[j].resample(times)
                gaps = np.linalg.norm(a - b, axis=1)
                assert gaps.min() >= 0.8 - 1e-6

    def test_non_colliding_walks_validation(self):
        room = through_wall_room()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            non_colliding_walks(room, rng, 0)
        with pytest.raises(ValueError):
            non_colliding_walks(room, rng, 10, min_separation_m=2.0)


class TestMultiPipeline:
    def test_tracks_two_separated_people(self, two_person_output):
        out = two_person_output
        tracker = MultiWiTrack(out.config, max_people=2, room=out.room)
        result = tracker.track(out.spectra, out.range_bin_m)
        truth = out.truth_at(result.frame_times_s)
        mot = mot_metrics(truth, result.positions)
        matched = np.isfinite(mot.per_truth_errors).mean(axis=1)
        # Both people are found and followed for most of the session.
        assert np.all(matched > 0.5), matched
        errors = mot.per_truth_errors[np.isfinite(mot.per_truth_errors)]
        assert np.median(errors) < 0.7

    def test_crossing_people_identity_accounting(self, crossing_output):
        """Two people crossing in depth: tracked through or switched.

        The crossing merges their echoes for a stretch; the tracker
        must either carry each identity through (0 switches) or hand
        over identity (counted switches) — but never lose a person for
        long. This pins down the accounting, not perfection.
        """
        out = crossing_output
        tracker = MultiWiTrack(out.config, max_people=2, room=out.room)
        result = tracker.track(out.spectra, out.range_bin_m)
        truth = out.truth_at(result.frame_times_s)
        mot = mot_metrics(truth, result.positions)
        matched = np.isfinite(mot.per_truth_errors).mean(axis=1)
        assert np.all(matched > 0.4), matched
        # Identity accounting is finite and small: either maintained
        # through the crossing or a handful of explicit switches.
        assert mot.id_switches <= 4

    @pytest.mark.parametrize("scenario", ["two_person_output", "crossing_output"])
    def test_track_equals_the_per_slot_spec(self, scenario, request):
        """``MultiWiTrack.track`` (the cohort bank, its outputs kept as
        columns) returns bitwise the MultiTrack of the per-slot spec:
        ids, positions and coasting flags."""
        out = request.getfixturevalue(scenario)
        tracker = MultiWiTrack(out.config, max_people=2, room=out.room)
        got = tracker.track(out.spectra, out.range_bin_m)
        want = _spec_multi_track(tracker, out)
        assert got.num_tracks >= 2
        assert got.track_ids == want.track_ids
        for field in ("frame_times_s", "positions", "coasting"):
            a, b = getattr(got, field), getattr(want, field)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field
            np.testing.assert_array_equal(a, b, err_msg=field)
        if scenario == "crossing_output":
            assert got.coasting.any(), "no coasted frame to compare"

    def test_rejects_bad_spectra(self, two_person_output):
        out = two_person_output
        tracker = MultiWiTrack(out.config, max_people=2)
        with pytest.raises(ValueError):
            tracker.track(out.spectra[0], out.range_bin_m)
        with pytest.raises(ValueError):
            tracker.track(out.spectra[:2], out.range_bin_m)

    def test_max_people_validation(self):
        with pytest.raises(ValueError):
            MultiWiTrack(max_people=0)
