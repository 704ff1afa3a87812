"""Track lifecycle, the TOF-space manager, and the MultiTrack result."""

import numpy as np
import pytest

from repro.core.localize import make_solver
from repro.geometry.antennas import t_array
from repro.multi.association import MAX_CLAIM_GATE_M
from repro.multi.tracks import (
    MultiTrack,
    Track,
    TrackColumns,
    TrackManager,
    TrackManagerConfig,
    TrackStatus,
    tracks_to_arrays,
)
from repro.pipeline import PipelineResult

DT = 0.0125


@pytest.fixture
def array():
    return t_array()


@pytest.fixture
def solver(array):
    return make_solver(array)


def make_manager(solver, **overrides):
    config = TrackManagerConfig(**overrides)
    return Recorder(TrackManager(DT, solver, config=config))


class Recorder:
    """A manager that keeps its step outputs, the way a pipeline keeps
    a K-person session's outputs, for :meth:`MultiTrack.from_result`."""

    def __init__(self, manager: TrackManager) -> None:
        self.manager = manager
        self.steps: list[TrackColumns] = []

    def __getattr__(self, name):
        return getattr(self.manager, name)

    def step(self, tof_sets, power_sets=None):
        tracks = self.manager.step(tof_sets, power_sets)
        self.steps.append(TrackColumns.of([tracks]))
        return tracks

    @property
    def num_frames(self) -> int:
        return len(self.steps)

    def result(self, frame_times_s) -> MultiTrack:
        columns = None
        if self.steps:
            columns = TrackColumns(*map(np.concatenate, zip(*self.steps)))
        return MultiTrack.from_result(
            PipelineResult(frame_times_s=frame_times_s, track_columns=columns)
        )


def candidates_for(array, positions):
    """Per-antenna candidate TOF sets for the given positions."""
    if not positions:
        return [np.array([np.nan])] * array.num_receivers
    tofs = np.stack([array.round_trip_distances(p) for p in positions])
    return [tofs[:, a] for a in range(array.num_receivers)]


class TestTrackLifecycle:
    def test_birth_confirm_coast_die(self, array, solver):
        manager = make_manager(
            solver, confirm_hits=3, max_coast_frames=10, coast_per_hit=1.0
        )
        person = np.array([0.2, 4.0, 0.0])
        # Birth + confirmation.
        for frame in range(4):
            tracks = manager.step(candidates_for(array, [person]))
        assert len(tracks) == 1
        assert tracks[0].status is TrackStatus.CONFIRMED
        track_id = tracks[0].track_id
        # Disappearance: coasting, then death.
        statuses = []
        for frame in range(30):
            tracks = manager.step(candidates_for(array, []))
            statuses.append(tracks[0].status if tracks else None)
        assert TrackStatus.COASTING in statuses
        assert statuses[-1] is None
        assert all(t.track_id == track_id for t in manager.tracks) or (
            not manager.tracks
        )

    def test_tentative_track_dies_quickly(self, array, solver):
        manager = make_manager(solver, confirm_hits=5, max_tentative_misses=2)
        person = np.array([0.2, 4.0, 0.0])
        manager.step(candidates_for(array, [person]))
        assert len(manager.live_tracks()) == 1
        for _ in range(4):
            manager.step(candidates_for(array, []))
        assert manager.live_tracks() == []
        # A tentative track was never reportable, so no history rows.
        result = manager.result(np.arange(manager.num_frames) * DT)
        assert result.num_tracks == 0

    def test_two_people_keep_identities(self, array, solver):
        manager = make_manager(solver)
        p0 = np.array([0.5, 3.0, 0.0])
        p1 = np.array([-0.5, 6.0, 0.0])
        for frame in range(60):
            # Walk both people slowly inward.
            offset = np.array([0.0, 0.003 * frame, 0.0])
            manager.step(candidates_for(array, [p0 + offset, p1 - offset]))
        result = manager.result(np.arange(60) * DT)
        assert result.num_tracks == 2
        active = result.active_mask
        assert active[:, -1].all()

    def test_person_entering_midway_gets_new_track(self, array, solver):
        manager = make_manager(solver)
        p0 = np.array([0.5, 3.0, 0.0])
        p1 = np.array([-0.5, 6.0, 0.0])
        for frame in range(20):
            manager.step(candidates_for(array, [p0]))
        for frame in range(20):
            manager.step(candidates_for(array, [p0, p1]))
        result = manager.result(np.arange(40) * DT)
        assert result.num_tracks == 2
        first, second = result.positions[0], result.positions[1]
        assert np.isfinite(first[:, 0]).sum() > np.isfinite(second[:, 0]).sum()

    def test_result_requires_matching_times(self, array, solver):
        manager = make_manager(solver)
        with pytest.raises(ValueError, match="0 frames of tracks but 3"):
            manager.result(np.arange(3) * DT)
        for _ in range(5):
            manager.step(candidates_for(array, [np.array([0.2, 4.0, 0.0])]))
        with pytest.raises(ValueError, match="5 frames of tracks but 4"):
            manager.result(np.arange(4) * DT)


class TestTrackViews:
    def test_held_track_follows_its_row(self, array, solver):
        """A track held across steps keeps reading its own state after
        an older track dies and the bank compacts it away, and reads as
        dead once it has left the bank itself."""
        manager = make_manager(
            solver, confirm_hits=2, max_coast_frames=3, coast_per_hit=1.0
        )
        p0 = np.array([0.5, 3.0, 0.0])
        p1 = np.array([-0.5, 6.0, 0.0])
        for people in ([p0], [p0, p1]):
            for _ in range(6):
                manager.step(candidates_for(array, people))
        assert len(manager.tracks) == 2
        held = manager.tracks[1]  # p1's, behind p0's in row order
        for _ in range(8):
            manager.step(candidates_for(array, [p1]))
        (row,) = manager.tracks
        assert row.track_id == held.track_id
        assert (held.hits, held.misses, held.status) == (
            row.hits, row.misses, row.status
        )
        assert held.position.tobytes() == row.position.tobytes()
        for _ in range(40):
            manager.step(candidates_for(array, []))
        assert manager.tracks == []
        assert not held.is_alive


class TestTrackInternals:
    def test_track_smooths_tofs(self, array, solver):
        config = TrackManagerConfig()
        person = np.array([0.0, 5.0, 0.0])
        tofs = array.round_trip_distances(person)
        track = Track(1, DT, tofs, person, config)
        rng = np.random.default_rng(0)
        for _ in range(50):
            noisy = tofs + rng.normal(0.0, 0.05, tofs.shape)
            track.advance(noisy, solver)
        assert np.linalg.norm(track.position - person) < 0.15
        assert np.all(np.abs(track.smoothed_tofs - tofs) < 0.1)

    def test_partial_claims_update_some_antennas(self, array, solver):
        config = TrackManagerConfig(min_claims=2)
        person = np.array([0.0, 5.0, 0.0])
        tofs = array.round_trip_distances(person)
        track = Track(1, DT, tofs, person, config)
        partial = tofs.copy()
        partial[2] = np.nan
        track.advance(partial, solver)
        assert track.hits == 2  # still counts as a hit with 2 of 3
        track.advance(np.full(3, np.nan), solver)
        assert track.misses == 1

    def test_gate_grows_while_coasting(self, array, solver):
        config = TrackManagerConfig()
        person = np.array([0.0, 5.0, 0.0])
        track = Track(
            1, DT, array.round_trip_distances(person), person, config
        )
        base = track.tof_gate_m()
        for _ in range(40):
            track.advance(np.full(3, np.nan), solver)
        assert track.tof_gate_m() > base
        assert track.tof_gate_m() <= config.max_tof_gate_m

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrackManagerConfig(tof_gate_m=0.0)
        with pytest.raises(ValueError):
            TrackManagerConfig(confirm_hits=0)
        with pytest.raises(ValueError):
            TrackManagerConfig(min_claims=0)
        # A gate near 1e6 would admit the pad of a non-finite claim cell.
        for gate in (np.inf, np.nan, 0.0, -1.0, MAX_CLAIM_GATE_M + 0.5):
            with pytest.raises(ValueError, match="max_tof_gate_m"):
                TrackManagerConfig(max_tof_gate_m=gate)
        config = TrackManagerConfig(max_tof_gate_m=MAX_CLAIM_GATE_M)
        assert config.max_tof_gate_m == MAX_CLAIM_GATE_M

    def test_ragged_candidate_lists(self, array, solver):
        """Antennas may carry different numbers of candidates.

        The step pads them with NaN at the end, so candidate indices
        and leftovers hold: a tracked person's echo is claimed wherever
        it sits in each list, a newcomer births from the rest, and the
        whole step equals that of the NaN-padded lists bitwise.
        """
        person = np.array([0.5, 3.0, 0.0])
        newcomer = np.array([-0.8, 6.5, 0.1])
        p = array.round_trip_distances(person)
        o = array.round_trip_distances(newcomer)
        ragged = [
            np.array([o[0], p[0]]),
            np.array([19.0, np.nan, p[1], o[1]]),
            np.array([p[2], o[2], 18.5]),
        ]
        powers = [np.full(len(values), 1e-12) for values in ragged]
        padded = [np.pad(v, (0, 4 - len(v)), constant_values=np.nan)
                  for v in ragged]
        padded_powers = [np.pad(v, (0, 4 - len(v)), constant_values=np.nan)
                         for v in powers]
        managers = []
        for tofs, power in ((ragged, powers), (padded, padded_powers)):
            manager = make_manager(solver)
            for _ in range(6):
                manager.step(candidates_for(array, [person]))
            hits = manager.tracks[0].hits
            manager.step(tofs, power)
            assert manager.tracks[0].hits == hits + 1
            assert len(manager.tracks) == 2
            assert np.linalg.norm(manager.tracks[1].position - newcomer) < 0.05
            managers.append(manager)
        for a, b in zip(*(m.tracks for m in managers)):
            assert (a.track_id, a.status, a.hits) == (b.track_id, b.status,
                                                      b.hits)
            assert a._mean.tobytes() == b._mean.tobytes()
            assert a.position.tobytes() == b.position.tobytes()
        # A frame whose antennas carry no candidates at all is a miss.
        manager = managers[0]
        manager.step([np.array([])] * array.num_receivers)
        assert manager.tracks[0].misses == 1


class TestMultiTrackResult:
    def test_accessors(self, array, solver):
        manager = make_manager(solver)
        person = np.array([0.2, 4.0, 0.0])
        for _ in range(10):
            manager.step(candidates_for(array, [person]))
        result = manager.result(np.arange(10) * DT)
        assert isinstance(result, MultiTrack)
        assert result.num_frames == 10
        assert result.count_per_frame[-1] == 1
        track_id = result.track_ids[0]
        positions = result.track(track_id)
        assert positions.shape == (10, 3)
        assert np.isfinite(positions[-1]).all()

    def test_coasting_cells(self, array, solver):
        """A coasted frame's cell is flagged; unreported cells are NaN."""
        manager = make_manager(
            solver, confirm_hits=3, max_coast_frames=10, coast_per_hit=1.0
        )
        person = np.array([0.2, 4.0, 0.0])
        statuses = []
        for frame in range(30):
            people = [person] if frame < 6 else []
            tracks = manager.step(candidates_for(array, people))
            statuses.append(tracks[0].status if tracks else None)
        assert TrackStatus.COASTING in statuses
        result = manager.result(np.arange(30) * DT)
        assert result.num_tracks == 1
        np.testing.assert_array_equal(
            result.coasting[0],
            [status is TrackStatus.COASTING for status in statuses],
        )
        np.testing.assert_array_equal(
            result.active_mask[0], [status is not None for status in statuses]
        )


class TestTrackListSerialization:
    """``TrackColumns.lists`` rebuilds per-frame lists exactly, and
    ``tracks_to_arrays`` (the benchmark's digest layout) inverts it."""

    def test_round_trip_preserves_ragged_structure(self):
        tracks = [
            [],
            [(3, np.array([0.1, 2.0, -0.5]))],
            [(3, np.array([0.2, 2.1, -0.4])), (7, np.array([1.0, 5.0, 0.3]))],
        ]
        arrays = tracks_to_arrays(tracks)
        assert arrays["track_counts"].tolist() == [0, 1, 2]
        assert arrays["track_positions_flat"].shape == (3, 3)
        back = TrackColumns(
            arrays["track_counts"],
            arrays["track_ids_flat"],
            arrays["track_positions_flat"],
            np.zeros(3, bool),
        ).lists()
        assert [[tid for tid, _ in frame] for frame in back] == [
            [], [3], [3, 7]
        ]
        for ours, theirs in zip(back, tracks):
            for (_, p1), (_, p2) in zip(ours, theirs):
                np.testing.assert_array_equal(p1, p2)

    def test_empty_stream(self):
        arrays = tracks_to_arrays([])
        assert arrays["track_counts"].shape == (0,)
        assert TrackColumns.of([]).lists() == []

    def test_inconsistent_arrays_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            TrackColumns(
                np.array([2]), np.array([1]), np.zeros((1, 3)),
                np.zeros(1, bool),
            ).lists()
