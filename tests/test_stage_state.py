"""An evicted slot is a fresh slot.

Each stateful single-person stage declares its per-slot state once
(``Stage.STATE``) and the ``Stage`` base class runs the slot lifecycle
over it; ``Associate``'s slot is a slot of the track bank. The property
pinned here, over single-person pipelines (both solvers) and a K=2
pipeline: after any ticks, evicting a slot leaves the state of a slot
that was never used, and frames then fed to it give bitwise the outputs
of a fresh pipeline. A K=2 pipeline's track bank holds filter and
lifecycle state only: it does not grow with the frames its slots have
served.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tracker import WiTrack
from repro.geometry.antennas import t_array
from repro.multi import MultiWiTrack

RANGE_BIN_M = 0.05
N_BINS = 121


def _pipeline(config, kind):
    if kind == "multi":
        return MultiWiTrack(config, max_people=2).pipeline(RANGE_BIN_M)
    method = "least_squares" if kind == "single-lsq" else "closed_form"
    return WiTrack(config, solver_method=method).pipeline(RANGE_BIN_M)


def _block(config, rng, t, slot, people):
    """Noise plus ``people`` walkers' echoes, one sweep block."""
    array = t_array(config.array)
    spf = config.pipeline.sweeps_per_frame
    n_rx = array.num_receivers
    block = 0.05 * (
        rng.standard_normal((n_rx, spf, N_BINS))
        + 1j * rng.standard_normal((n_rx, spf, N_BINS))
    )
    u = 0.04 * (t + 3 * slot)
    walkers = [(-1.2 + 1.1 * u, 1.0 + 0.6 * u, -0.4),
               (1.3 - 1.2 * u, 2.4 - 0.5 * u, -0.2)][:people]
    for pos in walkers:
        rts = array.round_trip_distances(np.asarray(pos))
        for a, rt in enumerate(rts):
            k = int(round(rt / RANGE_BIN_M))
            if 1 <= k < N_BINS - 1:
                block[a, :, k] += 4.0 * np.exp(1j * (0.9 * t + 0.5 * a))
                block[a, :, k + 1] += 2.0
    return block


def _snapshot(pipeline, slot) -> list:
    """A copy of one slot's state: its frame count, its row of every
    allocated ``Stage.STATE`` slab, and its track-bank count, next id
    and record rows."""
    state = [int(pipeline._frames_in[slot])]
    for stage in pipeline.stages:
        for _, attr, _, _ in stage._SLABS:
            slab = getattr(stage, attr)
            if slab is not None:
                state.append(slab[slot].copy())
        bank = getattr(stage, "_bank", None)
        if bank is not None:
            n = int(bank._count[slot])
            rows = bank._tracks[slot, :n].tobytes() if n else b""
            state.append((n, int(bank._next_id[slot]), rows))
    return state


def _same(a, b) -> bool:
    """Bitwise equality of snapshots and tick fields (NaN == NaN)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, bytes):
        return a == b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


def _outputs(tick) -> dict:
    fields = ("slots", "indices", "times_s", "tof_m", "raw_tof_m",
              "motion", "positions", "candidates_m", "tracks")
    return {f: getattr(tick, f) for f in fields
            if getattr(tick, f, None) is not None}


@pytest.mark.parametrize("kind", ["single", "single-lsq", "multi"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_evicted_slot_is_a_fresh_slot(config, kind, data):
    draw = data.draw
    people = 2 if kind == "multi" else 1
    n = draw(st.integers(1, 4), label="slots")
    rng = np.random.default_rng(draw(st.integers(0, 2**16), label="seed"))
    used = _pipeline(config, kind)
    used.attach_sessions(n)
    for t in range(draw(st.integers(0, 20), label="ticks")):
        chosen = draw(st.sets(st.integers(0, n - 1), min_size=1))
        slots = np.array(sorted(chosen))
        used.tick(
            np.stack([_block(config, rng, t, s, people) for s in slots]),
            slots,
        )
    victim = draw(st.integers(0, n - 1), label="victim")
    used.evict_session(victim)
    # Slot n is attached after the ticks and never used.
    used.attach_sessions(n + 1)
    assert _same(_snapshot(used, victim), _snapshot(used, n))

    fresh = _pipeline(config, kind)
    fresh.attach_sessions(n + 1)
    slot = np.array([victim])
    for t in range(draw(st.integers(1, 8), label="after")):
        block = _block(config, rng, 40 + t, victim, people)[None]
        got = used.tick(block.copy(), slot)
        want = fresh.tick(block.copy(), slot)
        assert _same(_outputs(got), _outputs(want)), t


def test_multi_slot_snapshot_does_not_grow_with_frames(config):
    """A K=2 pipeline's track bank is the same size whenever its record
    slab has the same shape, however many frames its slots have served:
    the bank keeps no per-frame history (the session keeps the
    outputs). Its Kalman registers, sized by the live tracks, aside."""
    pipeline = _pipeline(config, "multi")
    pipeline.attach_sessions(2)
    bank = pipeline.stages[-1]._bank
    rng = np.random.default_rng(5)
    sizes: dict[tuple, set[int]] = {}
    tracked = 0
    for t in range(200):
        # The walkers restart every 40 frames: tracks die and are reborn.
        blocks = [_block(config, rng, t % 40, s, 2) for s in range(2)]
        pipeline.tick(np.stack(blocks), np.arange(2))
        tracked = max(tracked, int(bank._count[0]))
        state = {k: v for k, v in vars(bank).items() if k != "_scratch"}
        shape = getattr(bank._tracks, "shape", None)
        sizes.setdefault(shape, set()).add(len(pickle.dumps(state)))
    assert tracked >= 2, "the walkers were never tracked"
    assert all(len(seen) == 1 for seen in sizes.values()), sizes
