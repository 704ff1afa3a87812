"""Candidate fix generation, ghost gating, and Hungarian assignment."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from repro.core.localize import LeastSquaresSolver, make_solver
from repro.geometry.antennas import t_array
from repro.multi import association
from repro.multi.association import (
    FixGate,
    _arcs,
    assign_fixes,
    candidate_fixes,
    candidate_fixes_batched,
    claim_candidates,
    multipath_round_trips,
)
from repro.rf.multipath import mirror_point
from repro.sim.room import through_wall_room


@pytest.fixture
def array():
    return t_array()


@pytest.fixture
def solver(array):
    return make_solver(array)


def room_ghost_images(array, room):
    """Receive antennas mirrored through every bounce plane of a room."""
    return np.stack(
        [
            np.stack(
                [mirror_point(rx.position, point, normal) for rx in array.rx]
            )
            for point, normal, _ in room.bounce_planes
        ]
    )


def tof_sets_for(array, positions, shuffle_seed=None):
    """Per-antenna candidate sets of the given reflector positions."""
    tofs = np.stack(
        [array.round_trip_distances(p) for p in positions]
    )  # (n_points, n_rx)
    sets = [tofs[:, a].copy() for a in range(array.num_receivers)]
    if shuffle_seed is not None:
        rng = np.random.default_rng(shuffle_seed)
        for s in sets:
            rng.shuffle(s)
    return sets


class TestCandidateFixes:
    def test_recovers_two_people(self, array, solver):
        people = [np.array([0.5, 3.5, 0.1]), np.array([-1.0, 6.0, -0.2])]
        fixes = candidate_fixes(
            tof_sets_for(array, people, shuffle_seed=4), solver
        )
        assert len(fixes) >= 2
        for person in people:
            gaps = np.linalg.norm(fixes - person[None, :], axis=1)
            assert gaps.min() < 0.05

    def test_exclusivity_prevents_component_reuse(self, array, solver):
        # One person => one fix, even though the solver sees only one
        # combination; adding an unrelated junk candidate on a single
        # antenna must not produce a second fix reusing her other TOFs.
        person = np.array([0.3, 4.0, 0.0])
        sets = tof_sets_for(array, [person])
        sets[0] = np.append(sets[0], sets[0][0] + 3.0)
        fixes = candidate_fixes(sets, solver)
        gaps = np.linalg.norm(fixes - person[None, :], axis=1)
        assert (gaps < 0.05).sum() == 1

    def test_power_orders_strongest_first(self, array, solver):
        near = np.array([0.5, 3.0, 0.0])
        far = np.array([-0.5, 7.0, 0.0])
        sets = tof_sets_for(array, [near, far])
        powers = [np.array([1e-12, 1e-14]) for _ in range(3)]
        fixes = candidate_fixes(
            sets, solver, power_sets=powers, max_fixes=1
        )
        assert len(fixes) == 1
        assert np.linalg.norm(fixes[0] - near) < 0.05

    def test_volume_gate_rejects_outside_fix(self, array, solver):
        person = np.array([0.5, 3.5, 0.0])
        gate = FixGate(y_min_m=4.0, y_max_m=10.0)
        fixes = candidate_fixes(tof_sets_for(array, [person]), solver, gate)
        assert len(fixes) == 0

    def test_empty_antenna_yields_no_fixes(self, array, solver):
        sets = tof_sets_for(array, [np.array([0.0, 4.0, 0.0])])
        sets[1] = np.array([np.nan])
        assert len(candidate_fixes(sets, solver)) == 0

    def test_multipath_ghost_vetoed(self, array, solver):
        """A pure wall-bounce combo of a known person must not fix."""
        ghost_images = room_ghost_images(array, through_wall_room())
        person = np.array([0.5, 4.0, 0.0])
        # Candidates: the person's direct TOFs plus her left-wall image
        # TOFs on every antenna.
        image_tofs = multipath_round_trips(
            person, array.tx.position, ghost_images
        )[0]
        sets = tof_sets_for(array, [person])
        for a in range(3):
            sets[a] = np.append(sets[a], image_tofs[a])
        powers = [np.array([1e-12, 1e-13]) for _ in range(3)]
        fixes = candidate_fixes(
            sets,
            solver,
            power_sets=powers,
            ghost_images=ghost_images,
            seed_positions=[person],
        )
        # Only the real person survives; the ghost combo is vetoed.
        gaps = np.linalg.norm(fixes - person[None, :], axis=1)
        assert (gaps < 0.05).sum() == 1
        assert len(fixes) == 1


_ARRAY = t_array()
_SOLVER = make_solver(_ARRAY)
_ROOM = through_wall_room()
_GATE = FixGate.from_room(_ROOM)
_IMAGES = room_ghost_images(_ARRAY, _ROOM)
#: Few distinct echo powers, so combo scores tie exactly.
_POWERS = np.array([1e-12, 1e-13, 1e-14])


def _in_room(rng):
    return rng.uniform([-3.0, 1.0, -1.0], [3.0, 11.0, 1.0])


@st.composite
def birth_cohorts(draw):
    """Leftover candidate tensors ``(n_slots, 3, K)`` of a cohort.

    Each slot holds 1-3 people's direct echoes, near-twin echoes (whose
    combos solve within the dedupe radius), wall-bounce images (which
    the ghost arcs must veto or penalize) and junk, scattered over the K
    candidate columns with NaN padding; some antennas see nothing. Seeds
    sit on or near the people, or anywhere, so seeded arcs bite.
    """
    n_slots = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tofs = np.full((n_slots, 3, k), np.nan)
    seeds = []
    for s in range(n_slots):
        people = [_in_room(rng) for _ in range(rng.integers(1, 4))]
        echoes = [_ARRAY.round_trip_distances(p) for p in people]
        for p in people:
            if rng.random() < 0.5:
                twin = p + rng.normal(0.0, 0.1, 3)
                echoes.append(_ARRAY.round_trip_distances(twin))
            if rng.random() < 0.5:
                images = multipath_round_trips(p, _ARRAY.tx.position, _IMAGES)
                echoes.append(images[rng.integers(len(images))])
        for a in range(3):
            # Echoes first, junk last; K keeps the first few of each.
            column = [e[a] for e in rng.permutation(echoes)]
            column += list(rng.uniform(1.0, 20.0, rng.integers(0, 3)))
            column = column[: k - (rng.random() < 0.2)]
            at = rng.choice(k, size=len(column), replace=False)
            tofs[s, a, at] = column
        if rng.random() < 0.15:
            tofs[s, rng.integers(3)] = np.nan
        seeds.append(
            None
            if rng.random() < 0.2
            else [
                p + rng.normal(0.0, 0.05, 3) if rng.random() < 0.7
                else _in_room(rng)
                for p in people[: rng.integers(0, len(people) + 1)]
            ]
        )
    powers = rng.choice(_POWERS, size=tofs.shape)
    # A rare NaN power scores its combos NaN, which np.argmax ranks first.
    powers[np.isnan(tofs) | (rng.random(tofs.shape) < 0.02)] = np.nan
    return tofs, powers, seeds


def _flat_seeds(seeds):
    """Per-slot seed lists as the batched call's flat seed arrays."""
    pairs = [(s, p) for s, slot in enumerate(seeds) for p in slot or []]
    return dict(
        seed_positions=np.array([p for _, p in pairs]).reshape(-1, 3),
        seed_slots=np.array([s for s, _ in pairs], dtype=np.intp),
    )


@st.composite
def veto_boundaries(draw):
    """Cohorts whose ghost tolerance sits on a seed-arc distance.

    Like :func:`birth_cohorts`, with seeds near the people (a few NaN).
    One slot's person has her echoes' nearest seed-arc distances taken
    the spec's way; the tolerance is the second smallest, or the float
    just below or above it, so her pure combo sits just inside, exactly
    on, or just outside the two-component veto.
    """
    n_slots = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tofs = np.full((n_slots, 3, k), np.nan)
    seeds = []
    echoes_of = []
    for s in range(n_slots):
        people = [_in_room(rng) for _ in range(rng.integers(1, 4))]
        echoes = [_ARRAY.round_trip_distances(p) for p in people]
        echoes_of.append(echoes)
        for a in range(3):
            column = [e[a] for e in echoes]
            column += list(rng.uniform(1.0, 20.0, rng.integers(0, 2)))
            column = column[:k]
            tofs[s, a, : len(column)] = column
        slot_seeds = []
        for p in people[: rng.integers(0, len(people) + 1)]:
            seed = p + rng.normal(0.0, 0.6, 3)
            if rng.random() < 0.1:
                seed[rng.integers(3)] = np.nan
            slot_seeds.append(seed)
        seeds.append(slot_seeds)
    powers = rng.choice(_POWERS, size=tofs.shape)
    powers[np.isnan(tofs) | (rng.random(tofs.shape) < 0.05)] = np.nan

    s = int(rng.integers(n_slots))
    tolerance = 0.6
    if seeds[s]:
        arcs = np.stack([
            multipath_round_trips(p, _ARRAY.tx.position, _IMAGES)
            for p in seeds[s]
        ])
        echo = echoes_of[s][0]
        nearest = [np.min(np.abs(echo[a] - arcs[:, :, a])) for a in range(3)]
        boundary = np.sort(nearest)[1]
        if np.isfinite(boundary):
            side = draw(st.sampled_from([-1.0, 0.0, 1.0]))
            tolerance = float(np.nextafter(boundary, side * np.inf))
            if side == 0.0:
                tolerance = float(boundary)
    return tofs, powers, seeds, tolerance


class TestBatchedBirthSearch:
    """``candidate_fixes_batched`` is the per-slot spec, slot by slot."""

    @given(
        cohort=birth_cohorts(),
        use_powers=st.booleans(),
        use_seeds=st.booleans(),
        use_images=st.booleans(),
        max_fixes=st.sampled_from([None, 1, 2]),
    )
    @settings(max_examples=150, deadline=None)
    def test_each_slot_is_bitwise_the_per_slot_call(
        self, cohort, use_powers, use_seeds, use_images, max_fixes
    ):
        tofs, powers, seeds = cohort
        shared = dict(
            gate=_GATE,
            max_fixes=max_fixes,
            ghost_images=_IMAGES if use_images else None,
        )
        batched = candidate_fixes_batched(
            tofs,
            _SOLVER,
            power_slots=powers if use_powers else None,
            **(_flat_seeds(seeds) if use_seeds else {}),
            **shared,
        )
        assert len(batched) == len(tofs)
        for s, got in enumerate(batched):
            want = candidate_fixes(
                list(tofs[s]),
                _SOLVER,
                power_sets=list(powers[s]) if use_powers else None,
                seed_positions=seeds[s] if use_seeds else None,
                **shared,
            )
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @given(cohort=veto_boundaries(), max_fixes=st.sampled_from([None, 1]))
    @settings(max_examples=150, deadline=None)
    def test_seed_veto_boundary_is_the_per_slot_call(self, cohort, max_fixes):
        """Combos on either side of the seed veto, and on it, as the spec.

        The batched search drops seed-vetoed combos before the solve;
        the spec kills them in its first greedy round.
        """
        tofs, powers, seeds, tolerance = cohort
        shared = dict(
            gate=_GATE,
            max_fixes=max_fixes,
            ghost_images=_IMAGES,
            ghost_tolerance_m=tolerance,
        )
        batched = candidate_fixes_batched(
            tofs, _SOLVER, power_slots=powers, **_flat_seeds(seeds), **shared
        )
        for s, got in enumerate(batched):
            want = candidate_fixes(
                list(tofs[s]),
                _SOLVER,
                power_sets=list(powers[s]),
                seed_positions=seeds[s],
                **shared,
            )
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_seed_veto_skips_the_solve(self, array, solver, monkeypatch):
        """A combo two seed arcs veto never reaches the solver."""
        ghost_images = room_ghost_images(array, through_wall_room())
        person = np.array([0.5, 4.0, 0.0])
        image = multipath_round_trips(person, array.tx.position, ghost_images)
        tofs = np.stack(tof_sets_for(array, [person]))[None]
        tofs[0, :2, 0] = image[0, :2]
        solved = []
        solve = type(solver).solve
        monkeypatch.setattr(
            type(solver), "solve",
            lambda self, k: solved.append(len(k)) or solve(self, k),
        )
        fixes = candidate_fixes_batched(
            tofs, solver, ghost_images=ghost_images,
            seed_positions=person[None], seed_slots=np.array([0]),
        )
        assert solved == [] and fixes[0].shape == (0, 3)

    def test_cohort_of_known_cases(self, array, solver):
        """Two people, one person plus a junk echo, and a dead antenna."""
        people = [np.array([0.5, 3.5, 0.1]), np.array([-1.0, 6.0, -0.2])]
        tofs = np.full((3, 3, 2), np.nan)
        tofs[0] = np.stack(tof_sets_for(array, people))
        tofs[1, :, :1] = np.stack(tof_sets_for(array, people[:1]))
        tofs[1, 0, 1] = tofs[1, 0, 0] + 3.0
        tofs[2] = tofs[0]
        tofs[2, 1] = np.nan
        fixes = candidate_fixes_batched(tofs, solver)
        assert len(fixes[0]) == 2
        assert len(fixes[1]) == 1
        assert np.linalg.norm(fixes[1][0] - people[0]) < 0.05
        assert fixes[2].shape == (0, 3)

    def test_dedupe_distance_is_the_one_dimensional_norm(self, solver):
        """A fix exactly on the dedupe radius dedupes as in the spec.

        ``np.linalg.norm`` of a 1-D vector is a BLAS dot, which rounds
        differently from the ``axis=`` reduction for about a tenth of
        3-vectors; a batched distance that rounds up misses the dedupe.
        """
        rng = np.random.default_rng(3)
        for _ in range(200):
            people = [_in_room(rng), _in_room(rng)]
            tofs = np.stack(tof_sets_for(_ARRAY, people))
            fixes = candidate_fixes(list(tofs), solver, dedupe_m=0.0)
            if len(fixes) != 2:
                continue
            gap = fixes[1] - fixes[0]
            radius = np.linalg.norm(gap)
            if np.linalg.norm(gap[None], axis=1)[0] > radius:
                break
        else:
            pytest.skip("1-D and axis norms agree on this platform")
        spec = candidate_fixes(list(tofs), solver, dedupe_m=radius)
        assert len(spec) == 1
        batched = candidate_fixes_batched(tofs[None], solver, dedupe_m=radius)
        assert batched[0].tobytes() == spec.tobytes()

    def test_arcs_are_the_per_point_round_trips(self):
        rng = np.random.default_rng(4)
        points = np.stack([_in_room(rng) for _ in range(500)])
        want = np.stack(
            [multipath_round_trips(p, _ARRAY.tx.position, _IMAGES)
             for p in points]
        )
        got = _arcs(points, _ARRAY.tx.position, _IMAGES)
        assert got.tobytes() == want.tobytes()

    def test_rejects_row_dependent_solver(self, array):
        tofs = np.stack(tof_sets_for(array, [np.array([0.5, 4.0, 0.0])]))
        with pytest.raises(ValueError, match="LeastSquaresSolver"):
            candidate_fixes_batched(tofs[None], LeastSquaresSolver(array))


class TestAssignFixes:
    def test_matches_permuted_fixes(self):
        predicted = np.array([[0.0, 3.0, 0.0], [1.0, 6.0, 0.0]])
        fixes = np.array([[1.05, 6.1, 0.0], [0.1, 2.9, 0.05]])
        pairs, un_t, un_f = assign_fixes(predicted, fixes, gate_m=1.0)
        assert sorted(pairs) == [(0, 1), (1, 0)]
        assert un_t == [] and un_f == []

    def test_gate_blocks_distant_fix(self):
        predicted = np.array([[0.0, 3.0, 0.0]])
        fixes = np.array([[0.0, 6.0, 0.0]])
        pairs, un_t, un_f = assign_fixes(predicted, fixes, gate_m=1.0)
        assert pairs == [] and un_t == [0] and un_f == [0]

    def test_per_track_gates(self):
        predicted = np.array([[0.0, 3.0, 0.0], [0.0, 6.0, 0.0]])
        fixes = np.array([[0.0, 4.1, 0.0]])
        # Track 0 has a wide (coasting) gate, track 1 a narrow one but
        # is farther; only track 0 may claim the fix.
        pairs, _, _ = assign_fixes(
            predicted, fixes, gate_m=np.array([1.5, 0.5])
        )
        assert pairs == [(0, 0)]

    def test_empty_inputs(self):
        pairs, un_t, un_f = assign_fixes(
            np.empty((0, 3)), np.empty((0, 3)), 1.0
        )
        assert pairs == [] and un_t == [] and un_f == []


#: Round trips on a 1/64 m grid: differences of grid values are exact,
#: so costs tie exactly and land exactly on grid gates.
_GRID_M = 1.0 / 64.0


@st.composite
def claim_cohorts(draw):
    """Claim-pass inputs ``(predicted, gates, candidates, counts)``.

    1-8 slots of 0-7 live tracks, 3 antennas, K 1-7. Candidates sit on
    a track's prediction, exactly on its gate, inside or outside it,
    repeat an earlier candidate, or are junk, NaN or infinite; some
    antennas see nothing, and some tracks share a slot mate's
    prediction, so costs tie exactly. Gates run from 0.35 m to the
    2.0 m cap; off the grid, some are set to a realized cost so that it
    equals the gate.
    """
    n_slots = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=1, max_value=7))
    on_grid = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(0, 8, n_slots)
    n_tracks = int(counts.sum())
    starts = np.cumsum(counts) - counts
    slot_of = np.repeat(np.arange(n_slots), counts)
    if on_grid:
        predicted = rng.integers(64, 768, (n_tracks, 3)) * _GRID_M
        gates = rng.integers(23, 129, n_tracks) * _GRID_M
    else:
        predicted = rng.uniform(1.0, 12.0, (n_tracks, 3))
        misses = rng.integers(0, 100, n_tracks)
        gates = np.minimum(0.35 + 1.5 * misses * 0.0125, 2.0)
    for t in range(n_tracks):
        if t > starts[slot_of[t]] and rng.random() < 0.2:
            predicted[t] = predicted[rng.integers(starts[slot_of[t]], t)]

    candidates = np.full((n_slots, 3, k), np.nan)
    for s in range(n_slots):
        mates = np.arange(starts[s], starts[s] + counts[s])
        for a in range(3):
            column = []
            for _ in range(rng.integers(0, k + 1)):
                kind = rng.random()
                if len(mates) and kind < 0.6:
                    t = rng.choice(mates)
                    g = gates[t]
                    offset = rng.choice(
                        [0.0, g, -g, rng.uniform(-g, g),
                         rng.uniform(-3.0 * g, 3.0 * g)]
                    )
                    column.append(predicted[t, a] + offset)
                elif column and kind < 0.75:
                    column.append(column[rng.integers(len(column))])
                elif kind < 0.9:
                    column.append(rng.uniform(1.0, 12.0))
                else:
                    column.append(rng.choice([np.nan, np.nan, np.inf]))
            if rng.random() < 0.15:
                column = []
            at = rng.choice(k, size=len(column), replace=False)
            candidates[s, a, at] = column
    if not on_grid:
        for t in range(n_tracks):
            a = rng.integers(3)
            values = candidates[slot_of[t], a]
            values = values[np.isfinite(values)]
            if len(values) and rng.random() < 0.3:
                cost = abs(predicted[t, a] - rng.choice(values))
                if 0.35 <= cost <= 2.0:
                    gates[t] = cost
    return predicted, gates, candidates, counts


def _claims_by_spec(predicted, gates, candidates, counts):
    """The per-(slot, antenna) ``assign_fixes`` loop, claim by claim."""
    claimed = np.full((len(predicted), candidates.shape[1]), np.nan)
    consumed = np.zeros(candidates.shape, dtype=bool)
    t0 = 0
    for s, n in enumerate(counts):
        for a in range(candidates.shape[1]):
            finite = np.flatnonzero(np.isfinite(candidates[s, a]))
            if n == 0 or len(finite) == 0:
                continue
            pairs, _, _ = assign_fixes(
                predicted[t0 : t0 + n, a : a + 1],
                candidates[s, a, finite, None],
                gates[t0 : t0 + n],
            )
            for r, c in pairs:
                claimed[t0 + r, a] = candidates[s, a, finite[c]]
                consumed[s, a, finite[c]] = True
        t0 += n
    return claimed, consumed


def _assert_claims_equal(got, want):
    assert got[0].shape == want[0].shape
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


class TestClaimCandidates:
    """``claim_candidates`` is the per-(slot, antenna) spec, bitwise."""

    @given(cohort=claim_cohorts())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_problem_spec(self, cohort):
        _assert_claims_equal(
            claim_candidates(*cohort), _claims_by_spec(*cohort)
        )

    def test_shared_nearest_candidate_goes_to_the_solve(self, monkeypatch):
        """Two tracks share their nearest candidate; the solve decides.

        Slot 1, antenna 0: both tracks are nearest to 5.125, but only
        giving track 1 the farther 5.5 claims both. Every other
        problem is conflict-free and never reaches the solve.
        """
        solved = []

        def spy(matrix):
            solved.append(matrix.shape)
            return linear_sum_assignment(matrix)

        monkeypatch.setattr(association, "linear_sum_assignment", spy)
        predicted = np.array([
            [3.0, 4.0, 5.0],
            [5.0, 6.0, 7.0],
            [5.25, 8.0, 9.0],
        ])
        gates = np.full(3, 0.375)
        candidates = np.full((2, 3, 2), np.nan)
        candidates[0, :, 0] = [3.25, 4.0, 9.0]
        candidates[1, 0] = [5.125, 5.5]
        candidates[1, 1] = [6.0, 8.125]
        candidates[1, 2, 1] = 7.375
        counts = np.array([1, 2])
        claimed, consumed = claim_candidates(
            predicted, gates, candidates, counts
        )
        assert solved == [(2, 2)]
        np.testing.assert_array_equal(
            claimed,
            [[3.25, 4.0, np.nan], [5.125, 6.0, 7.375], [5.5, 8.125, np.nan]],
        )
        assert consumed.sum() == 7 and not consumed[0, 2, 0]
        _assert_claims_equal(
            (claimed, consumed),
            _claims_by_spec(predicted, gates, candidates, counts),
        )

    @pytest.mark.parametrize(
        "gate, predicted, column, claims",
        [
            # A NaN gate blocks nothing, not even the 1e6 pad of a NaN
            # prediction, so the spec claims the one candidate.
            (np.nan, [np.nan, 5.0, 5.0], [4.0, np.nan], 4.0),
            # A 1e7 m gate admits a 5e6 m cost, which the solve trades
            # for the blocked 1e6 pad, so the spec claims nothing.
            (1e7, [5.0, 5.0, 5.0], [5.0 + 5e6, 5.0 + 2e7], np.nan),
        ],
    )
    def test_gates_off_the_ceiling_go_to_the_solve(
        self, gate, predicted, column, claims
    ):
        predicted = np.array([predicted])
        gates = np.array([gate])
        candidates = np.full((1, 3, 2), np.nan)
        candidates[0, 0] = column
        counts = np.array([1])
        claimed, consumed = claim_candidates(
            predicted, gates, candidates, counts
        )
        np.testing.assert_array_equal(claimed[0, 0], claims)
        _assert_claims_equal(
            (claimed, consumed),
            _claims_by_spec(predicted, gates, candidates, counts),
        )

    def test_costs_are_the_specs_norm(self):
        """Costs are ``sqrt(diff * diff)``, as ``assign_fixes``' norm.

        Below ~1e-154 the square underflows to 0 where ``|diff|`` does
        not; here that decides which track gets which candidate.
        """
        predicted = np.array([[0.0, 5.0, 5.0], [3e-170, 5.0, 5.0]])
        gates = np.full(2, 0.35)
        candidates = np.full((1, 3, 2), np.nan)
        candidates[0, 0] = [2e-170, 0.0]
        counts = np.array([2])
        claimed, consumed = claim_candidates(
            predicted, gates, candidates, counts
        )
        np.testing.assert_array_equal(claimed[:, 0], [2e-170, 0.0])
        _assert_claims_equal(
            (claimed, consumed),
            _claims_by_spec(predicted, gates, candidates, counts),
        )


class TestFixGate:
    def test_from_room_shrinks_inward(self):
        room = through_wall_room()
        gate = FixGate.from_room(room)
        # The inward margin is what kills on-wall multipath ghosts.
        assert gate.x_halfwidth_m < room.width_m / 2.0
        assert gate.y_max_m < (room.front_wall_y or 0.0) + room.depth_m
        assert gate.z_max_m < room.floor_z + room.height_m

    def test_admits(self):
        gate = FixGate(
            x_halfwidth_m=2.0, y_min_m=1.0, y_max_m=5.0,
            z_min_m=-1.0, z_max_m=1.0,
        )
        points = np.array([
            [0.0, 3.0, 0.0],   # inside
            [3.0, 3.0, 0.0],   # |x| too big
            [0.0, 6.0, 0.0],   # too deep
            [0.0, 3.0, 2.0],   # above ceiling band
        ])
        np.testing.assert_array_equal(
            gate.admits(points), [True, False, False, False]
        )
