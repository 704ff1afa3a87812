"""Data association: candidate 3D fixes and frame-to-track assignment.

With K candidate TOFs per antenna there are up to ``K^n_rx`` ways to pick
one per antenna, and only a few of them correspond to real people; the
rest are *ghosts* that mix one person's echo on one antenna with another
person's on the next. Three physical gates kill most ghosts:

* the ellipsoid intersection must be geometrically feasible (the solver's
  own validity mask);
* the solved point must lie inside the monitored volume — a mixed combo
  puts the closed-form z (which is extremely sensitive to the k3-vs-r0
  balance) far above the ceiling or below the floor;
* with more than three antennas, the over-constrained residual must stay
  small.

Surviving fixes are deduplicated and handed to the tracker, where
temporal continuity (gating + Hungarian assignment against per-track
Kalman predictions) resolves whatever ambiguity is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from ..core.localize import LeastSquaresSolver, TGeometrySolver
from ..sim.room import Room

Solver = TGeometrySolver | LeastSquaresSolver

#: Score cost (dB) per fix component that lies on an accepted fix's
#: predicted multipath arc — soft enough that a real person crossing one
#: arc still wins when her other components are sound.
_GHOST_PENALTY_DB = 10.0

#: Cost of a gate-blocked or non-finite cell in a gated assignment.
_BLOCKED_COST = 1e6

#: Largest claim gate (m) the track lifecycle accepts. In-gate cells
#: cost at most this, four orders below :data:`_BLOCKED_COST`, which is
#: what lets :func:`claim_candidates` skip the solve for problems
#: whose in-gate pairs already form a matching.
MAX_CLAIM_GATE_M = 100.0


@dataclass(frozen=True)
class FixGate:
    """Feasible-volume and consistency gate for candidate fixes.

    Attributes:
        x_halfwidth_m: maximum |x| of a fix.
        y_min_m: minimum depth into the room.
        y_max_m: maximum depth.
        z_min_m: lowest feasible z (floor, with margin).
        z_max_m: highest feasible z (ceiling, with margin).
        max_residual_m: maximum RMS round-trip residual of the fix
            against the TOF combo that produced it.
    """

    x_halfwidth_m: float = 3.6
    y_min_m: float = 0.3
    y_max_m: float = 11.9
    z_min_m: float = -1.5
    z_max_m: float = 1.3
    max_residual_m: float = 0.35

    @classmethod
    def from_room(cls, room: Room, margin_m: float = 0.35) -> "FixGate":
        """Gate matched to a room's volume, shrunk *inward* at the walls.

        The inward margin is load-bearing, not cosmetic: a single-bounce
        multipath ghost solves to a point *on its mirror plane* (its
        round trips average out to the wall), so excluding a thin band
        at the side walls, back wall, and ceiling kills every such ghost
        wholesale — and costs nothing, because a real torso center
        physically cannot be within ~0.35 m of a wall.
        """
        y0 = room.front_wall_y or 0.0
        return cls(
            x_halfwidth_m=room.width_m / 2.0 - margin_m,
            y_min_m=max(y0, 0.1),
            y_max_m=y0 + room.depth_m - margin_m,
            z_min_m=room.floor_z - margin_m,
            z_max_m=room.floor_z + room.height_m - margin_m,
            max_residual_m=cls.max_residual_m,
        )

    def admits(self, positions: np.ndarray) -> np.ndarray:
        """Boolean in-volume mask for positions of shape ``(n, 3)``."""
        x, y, z = positions[:, 0], positions[:, 1], positions[:, 2]
        return (
            (np.abs(x) <= self.x_halfwidth_m)
            & (y >= self.y_min_m)
            & (y <= self.y_max_m)
            & (z >= self.z_min_m)
            & (z <= self.z_max_m)
        )


def multipath_round_trips(
    position: np.ndarray,
    tx_position: np.ndarray,
    image_positions: np.ndarray,
) -> np.ndarray:
    """Predicted round trips of a reflector's wall-bounce images.

    A dynamic-multipath echo of a person at ``position`` travels
    Tx -> body -> wall -> Rx; with the receive antennas mirrored through
    each bounce plane, its path length is ``|Tx - p| + |image_rx - p|``.

    Args:
        position: reflector position, shape ``(3,)``.
        tx_position: transmit antenna position.
        image_positions: receive antennas mirrored through every bounce
            plane, shape ``(n_planes, n_rx, 3)``.

    Returns:
        Image round trips, shape ``(n_planes, n_rx)``.
    """
    d_tx = float(np.linalg.norm(position - tx_position))
    d_img = np.linalg.norm(image_positions - position[None, None, :], axis=2)
    return d_tx + d_img


def candidate_fixes(
    tof_sets: Sequence[np.ndarray],
    solver: Solver,
    gate: FixGate | None = None,
    power_sets: Sequence[np.ndarray] | None = None,
    dedupe_m: float = 0.4,
    max_fixes: int | None = None,
    ghost_images: np.ndarray | None = None,
    ghost_tolerance_m: float = 0.6,
    seed_positions: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Solve every cross-antenna TOF combination into gated 3D fixes.

    After the feasibility gates, fixes are selected greedily by total
    echo power under *per-antenna candidate exclusivity*: once a fix
    claims an antenna's candidate, no other fix may reuse it. The
    strongest (closest) person's pure combo always outscores any ghost
    that borrows one of her echoes, so picking it first consumes her
    candidates and blocks those ghosts; the next pick is then the next
    person's pure combo, and so on — successive interference
    cancellation at the association level.

    Args:
        tof_sets: per-antenna candidate round-trip distances for one
            frame (NaNs are dropped); one entry per receive antenna.
        solver: the localization solver of the deployed array.
        gate: feasibility gate; a permissive default when omitted.
        power_sets: per-antenna echo power of each TOF candidate,
            aligned with ``tof_sets``; enables the power-greedy
            selection (without it, ties break by round-trip residual).
        dedupe_m: surviving fixes closer than this collapse into one.
        max_fixes: keep at most this many fixes (best score first).
        ghost_images: receive antennas mirrored through the room's
            bounce planes, shape ``(n_planes, n_rx, 3)``. When given, a
            later fix is vetoed if two or more of its TOF components sit
            where an already-accepted fix's wall-bounce multipath must
            land — the geometric kill for persistent multipath ghosts.
            (One matching component is allowed: a real second person can
            legitimately cross one antenna's multipath arc, but the
            image geometry differs per antenna, so she cannot sit on
            two arcs at once while a pure ghost matches on all.)
        ghost_tolerance_m: round-trip slack of the multipath match
            (covers surface wander and in-wall jitter).
        seed_positions: already-known reflector positions (e.g. live
            tracks) whose multipath arcs seed the ghost evidence before
            any fix is accepted.

    Returns:
        Candidate positions, shape ``(n_fixes, 3)`` (possibly empty).
    """
    gate = gate or FixGate()
    tofs = [np.asarray(s, dtype=np.float64) for s in tof_sets]
    finite = [np.flatnonzero(~np.isnan(s)) for s in tofs]
    if any(len(idx) == 0 for idx in finite):
        return np.empty((0, 3))
    index_combos = _product_indices(finite)
    n_rx = len(tofs)
    combos = np.column_stack(
        [tofs[a][index_combos[:, a]] for a in range(n_rx)]
    )
    result = solver.solve(combos)
    positions = result.positions
    keep = result.valid & np.isfinite(positions).all(axis=1)
    keep &= gate.admits(np.nan_to_num(positions, nan=1e9))
    if not np.any(keep):
        return np.empty((0, 3))
    positions = positions[keep]
    combos = combos[keep]
    index_combos = index_combos[keep]

    # Round-trip consistency: re-project each fix through the array.
    array = solver.array
    d_tx = np.linalg.norm(positions - array.tx.position[None, :], axis=1)
    d_rx = np.linalg.norm(
        positions[:, None, :] - array.rx_positions[None, :, :], axis=2
    )
    residuals = np.sqrt(
        np.mean((d_tx[:, None] + d_rx - combos) ** 2, axis=1)
    )
    keep = residuals <= gate.max_residual_m
    if not np.any(keep):
        return np.empty((0, 3))
    positions = positions[keep]
    residuals = residuals[keep]
    index_combos = index_combos[keep]
    combos = combos[keep]

    if power_sets is not None:
        powers = [
            np.asarray(p, dtype=np.float64) for p in power_sets
        ]
        floor = 1e-30
        score = sum(
            10.0 * np.log10(
                np.maximum(powers[a][index_combos[:, a]], floor)
            )
            for a in range(n_rx)
        )
    else:
        score = -residuals
    return _greedy_select(
        positions,
        combos,
        index_combos,
        score,
        array,
        dedupe_m=dedupe_m,
        max_fixes=max_fixes,
        ghost_images=ghost_images,
        ghost_tolerance_m=ghost_tolerance_m,
        seed_positions=seed_positions,
    )


def _product_indices(finite: list[np.ndarray]) -> np.ndarray:
    """Cartesian product of index arrays, last axis fastest.

    Same row order as ``itertools.product`` (and ``np.meshgrid`` with
    ``indexing="ij"``) but built from repeat/tile, which is several
    times cheaper at the tens-of-rows sizes the association hot path
    sees every serving tick.
    """
    sizes = [len(f) for f in finite]
    total = int(np.prod(sizes))
    out = np.empty((total, len(finite)), dtype=np.intp)
    rep = total
    for a, f in enumerate(finite):
        rep //= sizes[a]
        out[:, a] = np.tile(np.repeat(f, rep), total // (rep * sizes[a]))
    return out


def _greedy_select(
    positions: np.ndarray,
    combos: np.ndarray,
    index_combos: np.ndarray,
    score: np.ndarray,
    array,
    dedupe_m: float,
    max_fixes: int | None,
    ghost_images: np.ndarray | None,
    ghost_tolerance_m: float,
    seed_positions: Sequence[np.ndarray] | None,
) -> np.ndarray:
    """Power-greedy exclusive selection over pre-solved, pre-gated combos.

    The tail of :func:`candidate_fixes`: one slot's selection, which
    :func:`candidate_fixes_batched` runs round by round over a whole
    cohort at once and the tests pin it against.
    """
    n_rx = combos.shape[1]
    # Iterative greedy selection. Each round re-scores the surviving
    # combos against the multipath predictions of everything accepted so
    # far: one matching component costs ``_GHOST_PENALTY_DB`` (a pure
    # combo of a real person always outranks a mixed combo that borrows
    # a multipath echo), two or more is a hard veto (that *is* the
    # multipath ghost). Exclusivity then consumes the winner's
    # components so no later fix can reuse them.
    kept: list[np.ndarray] = []
    alive = np.ones(len(score), dtype=bool)
    ghost_tofs: list[list[float]] = [[] for _ in range(n_rx)]
    suppress = ghost_images is not None and len(ghost_images) > 0
    limit = max_fixes if max_fixes is not None else int(alive.sum())
    tx_position = array.tx.position
    if suppress and seed_positions is not None:
        for seed in seed_positions:
            predicted = multipath_round_trips(
                np.asarray(seed, dtype=np.float64), tx_position, ghost_images
            )
            for a in range(n_rx):
                ghost_tofs[a].extend(predicted[:, a].tolist())
    while len(kept) < limit and np.any(alive):
        penalties = np.zeros(len(score))
        if suppress:
            # One vectorized arc-distance pass over every combo per
            # antenna (the dead ones are masked out below) instead of a
            # Python loop re-building the ghost array per combo.
            matches = np.zeros(len(score), dtype=np.int64)
            for a in range(n_rx):
                if ghost_tofs[a]:
                    arcs = np.asarray(ghost_tofs[a])
                    nearest = np.min(
                        np.abs(combos[:, a][:, None] - arcs[None, :]),
                        axis=1,
                    )
                    matches += nearest <= ghost_tolerance_m
            alive &= matches < 2
            penalties = _GHOST_PENALTY_DB * matches.astype(np.float64)
        if not np.any(alive):
            break
        adjusted = np.where(alive, score - penalties, -np.inf)
        idx = int(np.argmax(adjusted))
        alive[idx] = False
        p = positions[idx]
        if any(np.linalg.norm(p - q) <= dedupe_m for q in kept):
            continue
        kept.append(p)
        components = index_combos[idx]
        overlap = (index_combos == components[None, :]).any(axis=1)
        alive &= ~overlap
        if suppress:
            predicted = multipath_round_trips(p, tx_position, ghost_images)
            for a in range(n_rx):
                ghost_tofs[a].extend(predicted[:, a].tolist())
    if not kept:
        return np.empty((0, 3))
    return np.stack(kept)


def candidate_fixes_batched(
    tof_slots: np.ndarray,
    solver: Solver,
    gate: FixGate | None = None,
    power_slots: np.ndarray | None = None,
    dedupe_m: float = 0.4,
    max_fixes: int | None = None,
    ghost_images: np.ndarray | None = None,
    ghost_tolerance_m: float = 0.6,
    seed_slots: Sequence[Sequence[np.ndarray] | None] | None = None,
) -> list[np.ndarray]:
    """:func:`candidate_fixes` for a whole cohort as one array program.

    Slot ``s`` of the result is bitwise ``candidate_fixes(tof_slots[s],
    solver, gate, power_slots[s], ..., seed_positions=seed_slots[s])``
    — the per-slot call is the executable spec, and this is the fast
    path the cohort track bank births through. Only the
    seed lists and the result list are walked slot by slot:

    * **Combos.** A mask over every slot's full ``K^n_rx`` index
      product marks the tuples with a candidate on every antenna; in
      C order they are each slot's product of per-antenna candidate
      subsets — the per-slot combo table, stacked — and one gather
      builds them. The solve, the volume gate, the residual and the
      power score are elementwise per row (the solve by the
      ``solver.row_independent`` contract), so one pass serves all.
    * **Greedy selection.** :func:`_greedy_select` runs round by round
      over every slot at once: each round re-scores the live rows
      against their slot's multipath arcs, takes each slot's first
      maximum (``np.argmax`` semantics, NaN first), drops it if it
      dedupes against the slot's kept fixes, else keeps it, consumes
      its components, and folds its arcs into the slot's evidence.
      Slots leave when they hold ``max_fixes`` fixes or run out of live
      rows.

    Args:
        tof_slots: candidate round trips, shape ``(n_slots, n_rx, K)``,
            NaN-padded.
        solver: row-independent localization solver shared by all slots.
        gate: feasibility gate shared by all slots.
        power_slots: echo power per candidate, same shape (or None).
        seed_slots: per slot, the ghost-veto seed positions (or None).

    Returns:
        One ``(n_fixes, 3)`` array per slot, empty where nothing
        survived.

    Raises:
        ValueError: when the solver is not row-independent (a
            warm-started least-squares solver would seed each slot's
            first combo from the previous slot's last fix).
    """
    if not getattr(solver, "row_independent", False):
        raise ValueError(
            "candidate_fixes_batched needs a row-independent solver; "
            f"{type(solver).__name__} solves each row from the one before"
        )
    gate = gate or FixGate()
    tofs = np.asarray(tof_slots, dtype=np.float64)
    n_slots, n_rx, n_cand = tofs.shape
    empty = np.empty((0, 3))
    out: list[np.ndarray] = [empty] * n_slots

    # complete[s, i0, ..., i_{n_rx-1}]: slot s has a candidate at index
    # i_a on every antenna a. Its C-order nonzeros are each slot's
    # index product in order, last antenna fastest.
    present = ~np.isnan(tofs)
    complete = present[:, 0]
    for a in range(1, n_rx):
        complete = complete[..., None] & present[:, a].reshape(
            (n_slots,) + (1,) * a + (n_cand,)
        )
    slot_of, *columns = np.unravel_index(
        np.flatnonzero(complete), complete.shape
    )
    if len(slot_of) == 0:
        return out
    index_combos = np.stack(columns, axis=1)
    combos = tofs[slot_of[:, None], np.arange(n_rx), index_combos]
    result = solver.solve(combos)
    positions = result.positions
    # The volume gate first: NaN rows compare False in it, as their
    # NaN-to-1e9 stand-ins do in the per-slot call, and it leaves a few
    # rows in a hundred for the row reductions that follow.
    rows = np.flatnonzero(result.valid & gate.admits(positions))
    rows = rows[np.isfinite(positions[rows]).all(axis=1)]

    # Round-trip consistency: re-project each fix through the array.
    array = solver.array
    positions = positions[rows]
    combos = combos[rows]
    d_tx = np.linalg.norm(positions - array.tx.position[None, :], axis=1)
    d_rx = np.linalg.norm(
        positions[:, None, :] - array.rx_positions[None, :, :], axis=2
    )
    residuals = np.sqrt(np.mean((d_tx[:, None] + d_rx - combos) ** 2, axis=1))
    fit = residuals <= gate.max_residual_m
    rows = rows[fit]
    if len(rows) == 0:
        return out
    positions = positions[fit]
    combos = combos[fit]
    index_combos = index_combos[rows]
    slot_of = slot_of[rows]
    if power_slots is not None:
        powers = np.asarray(power_slots, dtype=np.float64)
        floor = 1e-30
        score = sum(
            10.0 * np.log10(
                np.maximum(powers[slot_of, a, index_combos[:, a]], floor)
            )
            for a in range(n_rx)
        )
    else:
        score = -residuals[fit]

    # Segments: each slot's gated rows, contiguous in slot order.
    counts = np.bincount(slot_of, minlength=n_slots)
    slots = np.flatnonzero(counts)
    counts = counts[slots]
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    n_seg = len(slots)
    seg_of = np.repeat(np.arange(n_seg), counts)
    limit = counts if max_fixes is None else np.full(n_seg, max_fixes)
    cap = max(int(np.minimum(limit, counts).max()), 0)
    kept = np.zeros((n_seg, cap, 3))
    n_kept = np.zeros(n_seg, dtype=np.intp)
    alive = np.ones(len(rows), dtype=bool)

    # Ghost evidence: each row's distance to the nearest multipath arc
    # of its slot, per antenna. Folding new arcs in with a running
    # minimum equals the spec's minimum over the whole arc list.
    suppress = ghost_images is not None and len(ghost_images) > 0
    if suppress:
        tx_position = array.tx.position
        nearest = np.full((len(rows), n_rx), np.inf)
        if seed_slots is not None:
            seeds = [
                (g, seed)
                for g, s in enumerate(slots.tolist())
                if seed_slots[s] is not None
                for seed in seed_slots[s]
            ]
            if seeds:
                _fold_arcs(
                    nearest,
                    combos,
                    seg_of,
                    np.array([g for g, _ in seeds]),
                    _arcs(
                        np.array([p for _, p in seeds], dtype=np.float64),
                        tx_position,
                        ghost_images,
                    ),
                )

    while True:
        live = alive & (n_kept < limit)[seg_of]
        if not np.any(live):
            break
        if suppress:
            matches = np.count_nonzero(nearest <= ghost_tolerance_m, axis=1)
            alive &= matches < 2
            live &= alive
            if not np.any(live):
                break
            adjusted = score - _GHOST_PENALTY_DB * matches.astype(np.float64)
        else:
            adjusted = score
        adjusted = np.where(live, adjusted, -np.inf)
        # Segment argmax, first maximum first; a NaN score is the
        # maximum, as in np.argmax. Dead rows tie only when every live
        # row of the slot scores -inf, where np.argmax picks them too.
        best = np.maximum.reduceat(adjusted, starts)
        ties = np.flatnonzero(
            ((adjusted == best[seg_of]) | np.isnan(adjusted))
            & np.logical_or.reduceat(live, starts)[seg_of]
        )
        picks = ties[np.concatenate([[True], np.diff(seg_of[ties]) != 0])]
        pick_seg = seg_of[picks]
        alive[picks] = False
        found = positions[picks]
        seen = int(n_kept[pick_seg].max())
        if seen:
            diff = found[:, None, :] - kept[pick_seg, :seen]
            # vecdot is the 1-D norm's BLAS dot, row by row; the axis
            # reduction of np.linalg.norm rounds differently.
            close = np.sqrt(np.vecdot(diff, diff)) <= dedupe_m
            close &= np.arange(seen)[None, :] < n_kept[pick_seg][:, None]
            fresh = ~close.any(axis=1)
            picks, pick_seg, found = (
                picks[fresh], pick_seg[fresh], found[fresh]
            )
        if len(picks) == 0:
            continue
        kept[pick_seg, n_kept[pick_seg]] = found
        n_kept[pick_seg] += 1
        # Exclusivity: consume the winner's candidates in its slot.
        claimed = np.full((n_seg, n_rx), -1)
        claimed[pick_seg] = index_combos[picks]
        alive &= ~(index_combos == claimed[seg_of]).any(axis=1)
        if suppress:
            _fold_arcs(
                nearest,
                combos,
                seg_of,
                pick_seg,
                _arcs(found, tx_position, ghost_images),
            )

    for g in np.flatnonzero(n_kept):
        out[slots[g]] = kept[g, : n_kept[g]].copy()
    return out


def _arcs(
    points: np.ndarray, tx_position: np.ndarray, ghost_images: np.ndarray
) -> np.ndarray:
    """:func:`multipath_round_trips` of many points, bitwise.

    Shape ``(n_points, 3)`` to ``(n_points, n_planes, n_rx)``. The Tx
    leg is the 1-D norm (a BLAS dot), reproduced row by row by
    ``np.vecdot``; the image legs are the same axis reduction.
    """
    to_tx = points - tx_position
    d_tx = np.sqrt(np.vecdot(to_tx, to_tx))
    d_img = np.linalg.norm(
        ghost_images[None] - points[:, None, None, :], axis=3
    )
    return d_tx[:, None, None] + d_img


def _fold_arcs(
    nearest: np.ndarray,
    combos: np.ndarray,
    seg_of: np.ndarray,
    arc_seg: np.ndarray,
    arcs: np.ndarray,
) -> None:
    """Lower each row's nearest-arc distance by its segment's new arcs.

    ``arcs[i]``, shape ``(n_planes, n_rx)``, belongs to segment
    ``arc_seg[i]`` (sorted). They pad into one ``(segment, arc set,
    plane, antenna)`` table of ``inf``, so each row meets exactly its
    own segment's arcs; NaN propagates like the spec's ``np.min`` over
    the whole arc list.
    """
    n_seg = seg_of[-1] + 1
    rank = np.arange(len(arc_seg)) - np.searchsorted(arc_seg, arc_seg)
    table = np.full((n_seg, rank.max() + 1) + arcs.shape[1:], np.inf)
    table[arc_seg, rank] = arcs
    own = table.reshape(n_seg, -1, arcs.shape[-1])[seg_of]
    np.minimum(
        nearest, np.abs(combos[:, None, :] - own).min(axis=1), out=nearest
    )


def assign_fixes(
    predicted: np.ndarray,
    fixes: np.ndarray,
    gate_m: float | np.ndarray,
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Gated Hungarian assignment of fixes to track predictions.

    Args:
        predicted: predicted track positions, shape ``(n_tracks, 3)``;
            non-finite rows never match.
        fixes: candidate fixes, shape ``(n_fixes, 3)``.
        gate_m: maximum assignment distance — a scalar, or one gate per
            track (a coasting track's gate grows with its uncertainty).

    Returns:
        ``(pairs, unmatched_tracks, unmatched_fixes)`` where ``pairs``
        is a list of ``(track_index, fix_index)`` tuples.
    """
    n_tracks = len(predicted)
    n_fixes = len(fixes)
    if n_tracks == 0 or n_fixes == 0:
        return [], list(range(n_tracks)), list(range(n_fixes))
    gates = np.broadcast_to(
        np.asarray(gate_m, dtype=np.float64), (n_tracks,)
    )
    cost = np.linalg.norm(
        predicted[:, None, :] - fixes[None, :, :], axis=2
    )
    cost = np.where(np.isfinite(cost), cost, _BLOCKED_COST)
    blocked = cost > gates[:, None]
    rows, cols = linear_sum_assignment(np.where(blocked, _BLOCKED_COST, cost))
    pairs = [
        (int(r), int(c))
        for r, c in zip(rows, cols)
        if not blocked[r, c]
    ]
    matched_tracks = {r for r, _ in pairs}
    matched_fixes = {c for _, c in pairs}
    unmatched_tracks = [t for t in range(n_tracks) if t not in matched_tracks]
    unmatched_fixes = [f for f in range(n_fixes) if f not in matched_fixes]
    return pairs, unmatched_tracks, unmatched_fixes


def claim_candidates(
    predicted: np.ndarray,
    gates: np.ndarray,
    candidates: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-antenna gated claims of a whole cohort in one array pass.

    Slot ``s`` owns ``counts[s]`` consecutive tracks. On antenna ``a``
    its tracks claim what :func:`assign_fixes` pairs them with, given
    their predicted round trips on ``a``, the slot's finite candidates
    on ``a`` (in candidate order) and the tracks' gates. That
    per-(slot, antenna) loop is the executable spec; the result is
    bitwise the same.

    Most problems need no solve. If every track has at most one
    candidate in its gate, and every candidate is in at most one gate,
    the in-gate pairs form a matching. An in-gate cell costs at most
    its gate and every other cell costs ``1e6``, so an assignment that
    drops an in-gate pair costs about ``1e6`` more: every optimum holds
    exactly the in-gate pairs, and array math writes them. The other
    problems run ``linear_sum_assignment`` on the spec's own matrix
    (the slot's tracks in order, the antenna's finite candidates in
    order), so ties break as the spec breaks them. A gate above
    :data:`MAX_CLAIM_GATE_M`, or a NaN gate, sends its problems to the
    solve as well.

    Args:
        predicted: predicted round trips, shape ``(n_tracks, n_rx)``,
            grouped by slot.
        gates: claim gate per track, shape ``(n_tracks,)``.
        candidates: candidate round trips, shape ``(n_slots, n_rx,
            K)``, NaN-padded.
        counts: tracks per slot, shape ``(n_slots,)``, summing to
            ``n_tracks``.

    Returns:
        ``(claimed, consumed)``: each track's claimed round trip per
        antenna, shape ``(n_tracks, n_rx)`` and NaN where it claimed
        none, and the mask of claimed candidates, shape ``(n_slots,
        n_rx, K)``.
    """
    n_slots, n_rx, n_cand = candidates.shape
    claimed = np.full((len(predicted), n_rx), np.nan)
    consumed = np.zeros(candidates.shape, dtype=bool)
    if len(predicted) == 0 or n_cand == 0:
        return claimed, consumed
    counts = np.asarray(counts)
    slot_of = np.repeat(np.arange(n_slots), counts)
    # assign_fixes' 1-point L2 norm is sqrt(diff * diff), which is
    # |diff| save where the square underflows or overflows. A gate at
    # most the ceiling blocks every NaN or infinite cost (the spec pads
    # them to 1e6), so for such gates these are the spec's unblocked
    # cells among the finite candidates.
    diff = predicted[:, :, None] - candidates[slot_of]
    cost = np.sqrt(diff * diff)
    in_gate = cost <= gates[:, None, None]

    # A problem goes to the solve when a track has two candidates in
    # its gate, a candidate is in two gates, or a track's gate is NaN
    # or above the ceiling.
    starts = np.cumsum(counts) - counts
    busy = counts.nonzero()[0]
    at = starts[busy]
    odd_gate = ~(gates <= MAX_CLAIM_GATE_M)
    per_track = (np.add.reduce(in_gate, axis=2) > 1) | odd_gate[:, None]
    solve = np.zeros((n_slots, n_rx), dtype=bool)
    solve[busy] = np.logical_or.reduceat(per_track, at) | np.logical_or.reduce(
        np.add.reduceat(in_gate, at) > 1, axis=2
    )

    track, rx, cand = (in_gate & ~solve[slot_of, :, None]).nonzero()
    slot = slot_of[track]
    claimed[track, rx] = candidates[slot, rx, cand]
    consumed[slot, rx, cand] = True

    if solve.any():
        cost = np.where(np.isfinite(cost), cost, _BLOCKED_COST)
        blocked = cost > gates[:, None, None]
        padded = np.where(blocked, _BLOCKED_COST, cost)
        finite = np.isfinite(candidates)
        for s, a in zip(*solve.nonzero()):
            t0 = starts[s]
            cols = finite[s, a].nonzero()[0]
            rows, picks = linear_sum_assignment(
                padded[t0 : t0 + counts[s], a][:, cols]
            )
            for t, c in zip((t0 + rows).tolist(), cols[picks].tolist()):
                if not blocked[t, a, c]:
                    claimed[t, a] = candidates[s, a, c]
                    consumed[s, a, c] = True
    return claimed, consumed
