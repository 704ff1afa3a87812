"""Kernel-tier microbenchmark: each hot kernel under each backend.

Where the serving benchmarks (``bench_serving.py``, ``bench_load.py``)
measure the tiers end to end, this one isolates the kernels behind the
array-backend seam and times each under every backend: the ``numpy``
fast path and its ``reference`` spec. Workload shapes are the real
serving shapes at N=8 sessions: the sweep synthesis call is the exact
``(paths, sweeps) -> (rows, bins)`` scatter a ``CohortFrameSource``
chunk issues, and the per-tick kernels see the row counts one lockstep
``ServingEngine.tick`` sees.

Per kernel x backend the table reports wall time per call, the
per-session-frame cost in nanoseconds, and the ratio against the numpy
backend (``1.00x`` = numpy; ``>1`` = slower). Results land in
``benchmarks/kernels.json`` so CI legs leave a comparable artifact.

The numpy synthesis kernel splits its sweep tiles over
``synthesis_workers()`` threads (every usable CPU); its rows are timed
at that count and at one worker, and the artifact records both counts
with the host's ``cpu_count``.

The single-person tick kernels (``contour_tick``, ``outlier_gate``, the
in-place ``kalman_tick``) get rows at 1, 3 and 16 sessions; each of
their calls first restores the inputs' initial state (a few small
copies, timed alike on both backends), so every call is the same
update. ``kalman_tick_bank`` is the track bank's call of the same
kernel: replay-2p's 33 tracks x 3 antennas, every filter live, about
30% of the claims missing, velocity decay 0.97, with ``mean`` and
``cov`` the fields of one track record slab.

The K=2 rows time one tick's ``successive_cancel`` (through one scratch
dict kept across calls, as ``SuccessiveCancel`` calls it) and one
``TrackBank.step`` (a through-wall serving bank, two confirmed people
per slot, a wall bounce and a junk echo per antenna) at the cohort
sizes perfbench serves: 1 session (churn-mix) and 16 (replay-2p). The
artifact's ``k2_cost_split`` reads each kernel's numpy time as a fixed
cost plus a cost per session, from the straight line through the two.

Before timing, both successive-cancellation rows (two calls in a row
through the reused scratch) and every tick-kernel row
must give bitwise the same outputs (and updated state) under ``numpy``
as under its ``reference`` spec, and both sweep
synthesis rows (N=8, and synth-1p's 16-session chunk) must agree with
``reference`` to the unit tests' tolerance (``rtol=1e-11``,
``atol=1e-12`` of the peak) and give bitwise the same output on one
worker as on ``synthesis_workers()``, and the 16-slot replay-like birth
search must give, slot by slot, bitwise the per-slot
``candidate_fixes`` call; a mismatch is reported and the script exits
1 without timing anything.

Run:
    python benchmarks/bench_kernels.py [--repeats 5] [--out kernels.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

try:
    import repro  # noqa: F401
except ImportError:  # fresh checkout without `pip install -e .`
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.localize import TGeometrySolver
from repro.geometry.antennas import t_array
from repro.kernels import (
    accumulate_spectra,
    available_backends,
    background_power,
    backend_name,
    contour_tick,
    first_local_max_above,
    kalman_tick,
    outlier_gate,
    row_median,
    set_backend,
    synthesis_workers,
)
from repro.kernels import backend as kernel_backend
from repro.multi.association import (
    candidate_fixes,
    candidate_fixes_batched,
    claim_candidates,
    multipath_round_trips,
)
from repro.kernels.cancellation import successive_cancel
from repro.multi.tracker import MultiWiTrack
from repro.multi.tracks import TrackBank, _track_dtype
from repro.pipeline.multi import SuccessiveCancel
from repro.sim.room import through_wall_room

# Serving shapes at N=8 sessions, 3 antennas, 171 range bins: the
# synthesis call covers one 64-frame cohort chunk (320 sweeps per
# stream); the per-tick kernels cover one lockstep engine tick. A
# second synthesis row covers the 16-session chunk perfbench's synth-1p
# runs, and the K=2 rows run at the cohort sizes perfbench serves.
N_SESSIONS = 8
N_SYNTH_1P = 16
#: K=2 cohort sizes: churn-mix's one-session ticks, replay-2p's 16.
K2_COHORTS = (1, 16)
#: Round trip per range bin of the serving specs.
SERVING_BIN_M = 0.1773919869822485
N_RX = 3
N_BINS = 171
SWEEPS_PER_FRAME = 5
CHUNK_FRAMES = 64


def _synthesis_workload(rng, sessions: int, name: str) -> dict:
    """One cohort chunk's scatter: 5 dynamic paths per stream."""
    streams = sessions * N_RX
    sweeps = CHUNK_FRAMES * SWEEPS_PER_FRAME
    paths_per_stream = 5
    n_paths = paths_per_stream * streams
    frac = rng.uniform(5.0, N_BINS - 5.0, (n_paths, sweeps))
    coeff = rng.standard_normal((n_paths, sweeps)) + 1j * rng.standard_normal(
        (n_paths, sweeps)
    )
    row_base = np.repeat(
        np.arange(streams, dtype=np.int64) * sweeps, paths_per_stream
    )
    out = np.zeros((streams * sweeps, N_BINS), dtype=np.complex128)

    def run():
        out.fill(0.0)
        accumulate_spectra(out, frac, coeff, row_base, 8, 2500, True)
        return out

    return {
        "kernel": name,
        "shape": f"paths {frac.shape} -> rows {out.shape}",
        "frames": sessions * CHUNK_FRAMES,
        "inner": 1,
        "run": run,
    }


#: Session counts of the single-person tick-kernel rows.
TICK_SESSIONS = (1, 3, 16)


def _restoring(kernel_fn, values, initial: list, *args):
    """A ``run`` that restores the state arrays, then calls the kernel.

    ``kernel_fn(values, *state, *args)`` updates ``state`` in place;
    ``run`` returns its output followed by the updated state.
    """
    state = [a.copy() for a in initial]

    def run():
        for dst, src in zip(state, initial):
            np.copyto(dst, src)
        return (kernel_fn(values, *state, *args), *state)

    return run


def _tick_kernel_workloads(rng) -> list[dict]:
    """The single-person tick kernels at serving shapes, per cohort size.

    Contour rows scan ``(sessions * n_rx, n_bins)`` power with one
    reflector each; gate rows see a frame where a third of the
    antennas jump (so the candidate pack runs) against partly filled
    pending buffers; Kalman rows are the steady serving case, every
    filter live and measured.
    """
    rows = []
    bins = np.arange(N_BINS, dtype=np.float64)
    for n in TICK_SESSIONS:
        power = rng.uniform(0.0, 1.0, (n * N_RX, N_BINS))
        for r in range(len(power)):
            power[r] += 40.0 * np.exp(-0.5 * ((bins - 40.0 - r % 9) / 1.5) ** 2)
        rows.append({
            "kernel": f"contour_tick_n{n}",
            "shape": f"power {power.shape}",
            "frames": n,
            "inner": 100,
            "run": partial(contour_tick, power, 0.1774, 12.0, 1.0, 26.0, {}),
        })

        p = 4
        values = rng.uniform(1.0, 9.0, (n, N_RX))
        last = values + rng.uniform(-0.05, 0.05, values.shape)
        jump = rng.uniform(size=values.shape) < 1 / 3
        last[jump] += 1.0
        pending_len = rng.integers(0, p, values.shape).astype(np.int64)
        pending = values[:, :, None] + rng.uniform(-0.2, 0.2, (n, N_RX, p))
        pending[np.arange(p) >= pending_len[:, :, None]] = np.nan
        since = np.ones(values.shape, dtype=np.int64)
        rows.append({
            "kernel": f"outlier_gate_n{n}",
            "shape": f"bank {values.shape} x {p}",
            "frames": n,
            "inner": 100,
            "run": _restoring(
                outlier_gate, values, [last, since, pending, pending_len],
                0.15, 0.3, {},
            ),
        })

        values = rng.uniform(1.0, 9.0, (n, N_RX))
        mean = np.stack([values, np.zeros_like(values)], axis=-1)
        cov = np.broadcast_to(np.eye(2), (n, N_RX, 2, 2)).copy()
        live = np.ones(values.shape, dtype=bool)
        rows.append({
            "kernel": f"kalman_tick_n{n}",
            "shape": f"bank {values.shape}",
            "frames": n,
            "inner": 100,
            "run": _restoring(
                kalman_tick, values, [mean, cov, live],
                0.0125, 1e-4, 1e-3, 1e-2, 0.05, 1.0, {},
            ),
        })
    return rows


def _kalman_bank_workload(rng) -> dict:
    """``TrackBank.step``'s Kalman tick at replay-2p's shape.

    33 tracks x 3 antennas, every filter live, about 30% of the claims
    missing (coasting antennas, whose velocity damps by 0.97), on the
    strided ``mean``/``cov`` fields of a track record slab; each call
    first restores the slab, so every call is the same update.
    """
    n_tracks = 33
    records = np.zeros(n_tracks, _track_dtype(N_RX))
    claimed = rng.uniform(1.0, 9.0, (n_tracks, N_RX))
    records["mean"][..., 0] = claimed + rng.uniform(-0.05, 0.05, claimed.shape)
    records["mean"][..., 1] = rng.uniform(-1.0, 1.0, claimed.shape)
    records["cov"] = np.array([[4e-3, 1e-3], [1e-3, 0.5]])
    claimed[rng.uniform(size=claimed.shape) < 0.3] = np.nan
    live = np.ones(claimed.shape, dtype=bool)
    slab = records.copy()
    scratch: dict = {}

    def run():
        np.copyto(slab, records)
        mean, cov = slab["mean"], slab["cov"]
        out = kalman_tick(
            claimed, mean, cov, live, 0.0125, 1e-4, 1e-3, 1e-2, 0.05, 0.97,
            scratch,
        )
        return out, mean, cov, live

    return {
        "kernel": "kalman_tick_bank",
        "shape": f"tracks {claimed.shape}",
        "frames": N_SYNTH_1P,
        "inner": 100,
        "run": run,
    }


def _workloads() -> list[dict]:
    rng = np.random.default_rng(7)
    synthesis = _synthesis_workload(rng, N_SESSIONS, "accumulate_spectra")

    diff = rng.standard_normal(
        (N_SESSIONS * SWEEPS_PER_FRAME * N_RX, N_BINS)
    ) + 1j * rng.standard_normal((N_SESSIONS * SWEEPS_PER_FRAME * N_RX, N_BINS))
    power_out = np.empty(diff.shape)

    power = rng.uniform(0.0, 1.0, (N_SESSIONS * N_RX, N_BINS))
    threshold = np.full(N_SESSIONS * N_RX, 0.7)

    values = rng.uniform(1.0, 9.0, (N_SESSIONS, N_RX))
    values[rng.uniform(size=values.shape) < 0.2] = np.nan
    mean = rng.standard_normal((N_SESSIONS, N_RX, 2))
    cov = np.broadcast_to(np.eye(2), (N_SESSIONS, N_RX, 2, 2)).copy()
    live = rng.uniform(size=values.shape) < 0.8

    # The claim and birth rows: N_SESSIONS two-track managers against
    # steady candidate sets (claims stay claimed, the spare candidate
    # stays an excluded birth attempt).
    solver = TGeometrySolver(t_array())
    dt_s = 0.0125
    bank = TrackBank(dt_s, solver)
    bank.attach(N_SESSIONS)
    bank_slots = np.arange(N_SESSIONS)
    people = [np.array([-1.0, 3.0, -0.3]), np.array([1.2, 5.0, -0.2])]
    ghost = people[0] + np.array([0.25, 0.2, 0.0])
    bank_candidates = np.full((N_SESSIONS, N_RX, 6), np.nan)
    bank_powers = np.full((N_SESSIONS, N_RX, 6), np.nan)
    for i, p in enumerate(people):
        bank_candidates[:, :, i] = solver.array.round_trip_distances(p)
        bank_powers[:, :, i] = 1.0 - 0.1 * i
    bank_candidates[:, :, 2] = solver.array.round_trip_distances(ghost)
    bank_powers[:, :, 2] = 0.5
    # Two steps birth both people in every slot (one birth per frame;
    # the ghost stays inside the first person's exclusion radius).
    for _ in people:
        bank.step(bank_slots, bank_candidates, bank_powers)
    managers = [bank.manager(s) for s in range(N_SESSIONS)]
    assert all(len(m.tracks) == len(people) for m in managers)
    # The cohort claim pass on the same tensors: the bank's tracks'
    # predictions and gates, taken before the timed bank steps move
    # them. The spare candidate sits inside track 0's gate on every
    # antenna, so all 24 (slot, antenna) problems go to the Hungarian
    # solve; without it every problem is a matching and none does.
    claim_tracks = [t for m in managers for t in m.live_tracks()]
    claim_predictions = np.stack(
        [t.predicted_tofs() for t in claim_tracks]
    )
    claim_gates = np.array([t.tof_gate_m() for t in claim_tracks])
    claim_counts = np.array([len(m.live_tracks()) for m in managers])
    matching_candidates = np.delete(bank_candidates, 2, axis=2)
    # The cohort birth search on the same tensors, every candidate
    # unclaimed, with a through-wall serving spec's gate and wall-bounce
    # ghost arcs seeded by both people.
    births_spec = MultiWiTrack(max_people=2, room=through_wall_room())

    tick_session_frames = N_SESSIONS
    return [
        synthesis,
        _synthesis_workload(
            np.random.default_rng(17), N_SYNTH_1P,
            f"accumulate_spectra_n{N_SYNTH_1P}",
        ),
        {
            "kernel": "background_power",
            "shape": f"diff {diff.shape}",
            "frames": tick_session_frames,
            "inner": 100,
            "run": lambda: background_power(diff, power_out),
        },
        {
            "kernel": "first_local_max_above",
            "shape": f"power {power.shape}",
            "frames": tick_session_frames,
            "inner": 100,
            "run": lambda: first_local_max_above(power, threshold, 4),
        },
        {
            "kernel": "row_median",
            "shape": f"power {power.shape}",
            "frames": tick_session_frames,
            "inner": 100,
            "run": lambda: row_median(power),
        },
        {
            "kernel": "kalman_tick",
            "shape": f"bank {values.shape}",
            "frames": tick_session_frames,
            "inner": 100,
            "run": _restoring(
                kalman_tick, values, [mean, cov, live],
                0.0125, 1e-4, 1e-3, 1e-2, 0.05, 1.0, {},
            ),
        },
        _kalman_bank_workload(np.random.default_rng(29)),
        *(
            work
            for n in K2_COHORTS
            for work in (
                _cancel_workload(np.random.default_rng(31 + n), n),
                _bank_step_workload(np.random.default_rng(37 + n), n),
            )
        ),
        {
            "kernel": "track_claims",
            "shape": f"candidates {bank_candidates.shape}",
            "frames": tick_session_frames,
            "inner": 100,
            "run": lambda: claim_candidates(
                claim_predictions, claim_gates, bank_candidates, claim_counts
            ),
        },
        {
            "kernel": "track_claims_matching",
            "shape": f"candidates {matching_candidates.shape}",
            "frames": tick_session_frames,
            "inner": 100,
            "run": lambda: claim_candidates(
                claim_predictions,
                claim_gates,
                matching_candidates,
                claim_counts,
            ),
        },
        {
            "kernel": "birth_search",
            "shape": f"candidates {bank_candidates.shape}",
            "frames": tick_session_frames,
            "inner": 20,
            "run": lambda: candidate_fixes_batched(
                bank_candidates,
                births_spec.solver,
                gate=births_spec.gate,
                power_slots=bank_powers,
                max_fixes=1,
                ghost_images=births_spec.ghost_images,
                seed_positions=np.tile(people, (N_SESSIONS, 1)),
                seed_slots=np.repeat(bank_slots, len(people)),
            ),
        },
        _replay_births_workload(np.random.default_rng(23), births_spec),
    ] + _tick_kernel_workloads(rng)


def _cancel_workload(rng, sessions: int) -> dict:
    """One K=2 tick's successive cancellation at ``sessions`` sessions.

    Each (session, antenna) row holds noise and two reflector peaks,
    and the kernel runs as :class:`SuccessiveCancel` calls it: the
    serving spec's parameters, one scratch dict kept across calls.
    """
    stage = SuccessiveCancel(
        SERVING_BIN_M, max_targets=MultiWiTrack(max_people=2).num_candidates
    )
    power = rng.uniform(0.0, 0.05, (sessions * N_RX, N_BINS))
    bins = np.arange(N_BINS, dtype=np.float64)
    for r in range(len(power)):
        for center in (45.0 + 3.0 * (r % 5), 95.0 - 2.0 * (r % 7)):
            power[r] += 4.0 * np.exp(-0.5 * ((bins - center) / 1.5) ** 2)
    scratch: dict = {}

    def run():
        return successive_cancel(
            power, stage.range_bin_m, stage.max_targets, stage.threshold_db,
            stage.min_range_m, stage.null_halfwidth_m,
            stage.relative_threshold_db, scratch,
        )

    return {
        "kernel": f"successive_cancel_n{sessions}",
        "shape": f"power {power.shape}",
        "frames": sessions,
        "inner": 20,
        "run": run,
    }


def _bank_step_workload(rng, sessions: int) -> dict:
    """One K=2 tick's ``TrackBank.step`` at ``sessions`` sessions.

    A through-wall serving spec's bank, every slot tracking two people
    (confirmed before timing). Each frame offers their direct echoes,
    a wall bounce of the first and a junk echo per antenna, so every
    step claims, advances both tracks and searches births, which the
    people's seed arcs and exclusion radius veto.
    """
    spec = MultiWiTrack(max_people=2, room=through_wall_room())
    bank = spec.make_manager().bank
    bank.attach(sessions)
    slots = np.arange(sessions)
    array = spec.solver.array
    people = [np.array([-1.0, 3.0, -0.3]), np.array([1.2, 5.0, -0.2])]
    bounce = multipath_round_trips(
        people[0], array.tx.position, spec.ghost_images
    )[0]
    candidates = np.full((sessions, N_RX, spec.num_candidates), np.nan)
    for k, echo in enumerate(
        [array.round_trip_distances(p) for p in people] + [bounce]
    ):
        candidates[:, :, k] = echo
    candidates[:, :, 3] = rng.uniform(3.0, 18.0, (sessions, N_RX))
    powers = np.where(
        np.isnan(candidates), np.nan, [1e-12, 3e-13, 1e-13, 3e-14, 0, 0]
    )
    for _ in range(8):
        bank.step(slots, candidates, powers)
    assert all(
        len(bank.manager(s).reportable_tracks()) == 2 for s in slots
    ), "both people are tracked in every slot before timing"
    return {
        "kernel": f"track_bank_step_n{sessions}",
        "shape": f"candidates {candidates.shape}",
        "frames": sessions,
        "inner": 20,
        "run": lambda: bank.step(slots, candidates, powers),
    }


def _replay_births_workload(rng, spec: MultiWiTrack) -> dict:
    """A replay-2p-like birth search: 16 slots, 6 candidates per antenna.

    Each slot tracks two people, who seed the ghost veto from near
    their true positions, and whose direct echoes the claims took.
    The leftovers are what successive cancellation keeps finding
    besides: three of the people's wall-bounce echoes and a junk echo
    per antenna, a near-twin echo in one slot in four, and a
    newcomer's direct echo in one slot in eight. As on replay-2p, the
    seed veto removes most combos and few slots birth.
    """
    array = spec.solver.array
    tofs = np.full((N_SYNTH_1P, N_RX, 6), np.nan)
    seeds = []
    for s in range(N_SYNTH_1P):
        people = [
            rng.uniform([-2.5, 1.5, -0.8], [2.5, 9.0, 0.6]) for _ in range(2)
        ]
        seeds.append([p + rng.normal(0.0, 0.05, 3) for p in people])
        echoes = []
        for p, n_images in zip(people, (2, 1)):
            images = multipath_round_trips(
                p, array.tx.position, spec.ghost_images
            )
            picks = rng.choice(len(images), n_images, replace=False)
            echoes += list(images[picks])
        if s % 4 == 1:
            echoes.append(array.round_trip_distances(people[0]) + 0.3)
        if s % 8 == 3:
            echoes.append(
                array.round_trip_distances(np.array([0.4, 6.5, -0.1]))
            )
        for a in range(N_RX):
            column = [e[a] for e in echoes] + [rng.uniform(3.0, 18.0)]
            tofs[s, a, : len(column)] = rng.permutation(column)
    powers = rng.choice([1e-12, 3e-13, 1e-13, 3e-14], size=tofs.shape)
    kwargs = dict(
        gate=spec.gate,
        max_fixes=1,
        ghost_images=spec.ghost_images,
    )
    seed_positions = np.array([p for slot in seeds for p in slot])
    seed_slots = np.repeat(np.arange(N_SYNTH_1P), 2)

    def run():
        return candidate_fixes_batched(
            tofs, spec.solver, power_slots=powers,
            seed_positions=seed_positions, seed_slots=seed_slots, **kwargs,
        )

    def spec_run():
        return [
            candidate_fixes(
                list(tofs[s]), spec.solver, power_sets=list(powers[s]),
                seed_positions=seeds[s], **kwargs,
            )
            for s in range(N_SYNTH_1P)
        ]

    return {
        "kernel": f"birth_search_replay_n{N_SYNTH_1P}",
        "shape": f"candidates {tofs.shape}",
        "frames": N_SYNTH_1P,
        "inner": 20,
        "run": run,
        "spec": spec_run,
    }


#: Kernels whose numpy rows must be bitwise their reference spec.
_BITWISE_KERNELS = ("contour_tick", "outlier_gate", "kalman_tick")


def _tick_parity(workloads: list[dict]) -> dict[str, bool]:
    """Per tick-kernel row: is numpy bitwise its reference spec?

    Compares every output and every updated state array.
    """
    parity = {}
    for work in workloads:
        if not work["kernel"].startswith(_BITWISE_KERNELS):
            continue
        outputs = []
        for name in ("numpy", "reference"):
            set_backend(name)
            outputs.append([np.array(a, copy=True) for a in work["run"]()])
        fast, spec = outputs
        parity[work["kernel"]] = all(
            a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes()
            for a, b in zip(fast, spec)
        )
    return parity


def _cancellation_parity(workloads: list[dict]) -> dict[str, bool]:
    """Per cancellation row: is numpy, through the row's reused scratch,
    bitwise its reference spec?

    Compares every kernel output: each round's candidates, peak powers
    and threshold, and the number of rounds, on two calls in a row.
    """
    parity = {}
    for work in workloads:
        if not work["kernel"].startswith("successive_cancel"):
            continue
        outputs = []
        for name in ("numpy", "numpy", "reference"):
            set_backend(name)
            round_trips, peaks, thresholds, n_rounds = work["run"]()
            outputs.append(
                [round_trips, peaks, thresholds, np.array(n_rounds)]
            )
        spec = outputs.pop()
        parity[work["kernel"]] = all(
            a.shape == b.shape and a.tobytes() == b.tobytes()
            for fast in outputs
            for a, b in zip(fast, spec)
        )
    return parity


def _cost_split(rows: list[dict]) -> dict[str, dict[str, float]]:
    """Per K=2 kernel, the numpy call's fixed cost and its cost per
    session, from the straight line through its two cohort sizes."""
    call_us = {
        row["kernel"]: row["backends"]["numpy"]["call_us"] for row in rows
    }
    small, large = K2_COHORTS
    split = {}
    for kernel in ("successive_cancel", "track_bank_step"):
        lo = call_us.get(f"{kernel}_n{small}")
        hi = call_us.get(f"{kernel}_n{large}")
        if lo is None or hi is None:
            continue
        per_session = (hi - lo) / (large - small)
        split[kernel] = {
            "fixed_us": lo - small * per_session,
            "per_session_us": per_session,
        }
    return split


def _synthesis_parity(workloads: list[dict]) -> dict[str, bool]:
    """Per synthesis row: does numpy agree with its reference spec?

    The tolerance is the unit tests' (``rtol=1e-11``, ``atol=1e-12`` of
    the reference's peak magnitude): the numpy kernel's angle-addition
    denominators differ from the spec in the last bits.
    """
    parity = {}
    for work in workloads:
        if not work["kernel"].startswith("accumulate_spectra"):
            continue
        outputs = []
        for name in ("numpy", "reference"):
            set_backend(name)
            outputs.append(work["run"]().copy())
        fast, spec = outputs
        parity[work["kernel"]] = bool(
            np.allclose(
                fast, spec, rtol=1e-11, atol=1e-12 * np.abs(spec).max()
            )
        )
    return parity


def _births_parity(workloads: list[dict]) -> dict[str, bool]:
    """Per birth-search row with a spec: is every slot bitwise the
    per-slot :func:`candidate_fixes` call?"""
    parity = {}
    for work in workloads:
        if "spec" not in work:
            continue
        fast, spec = work["run"](), work["spec"]()
        parity[work["kernel"]] = len(fast) == len(spec) and all(
            a.shape == b.shape and a.tobytes() == b.tobytes()
            for a, b in zip(fast, spec)
        )
    return parity


@contextmanager
def _workers(n: int):
    """Run the numpy synthesis kernel's tiles on ``n`` threads."""
    resolved = synthesis_workers()
    kernel_backend._workers = n
    try:
        yield
    finally:
        kernel_backend._workers = resolved


def _worker_parity(workloads: list[dict], workers: int) -> dict[str, bool]:
    """Per synthesis row: is numpy on ``workers`` threads bitwise numpy
    on one? (Each sweep tile writes only its own rows, so it must be.)"""
    parity = {}
    set_backend("numpy")
    for work in workloads:
        if not work["kernel"].startswith("accumulate_spectra"):
            continue
        outputs = []
        for n in (1, workers):
            with _workers(n):
                outputs.append(work["run"]().copy())
        parity[work["kernel"]] = outputs[0].tobytes() == outputs[1].tobytes()
    return parity


def _time_call(run, inner: int, repeats: int) -> float:
    """Best wall time of one kernel call (seconds), `inner` calls/rep."""
    run()  # warm up: allocator, scratch caches
    best = float("inf")
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        for _ in range(inner):
            run()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def bench(repeats: int) -> dict:
    restore = backend_name()
    backends = available_backends()
    workers = synthesis_workers()
    rows = []
    try:
        workloads = _workloads()
        parity = _cancellation_parity(workloads)
        tick_parity = _tick_parity(workloads)
        synthesis_parity = _synthesis_parity(workloads)
        worker_parity = _worker_parity(workloads, workers)
        births_parity = _births_parity(workloads)
        if not all(
            all(p.values())
            for p in (
                parity, tick_parity, synthesis_parity, worker_parity,
                births_parity,
            )
        ):
            workloads = []  # main() reports the mismatch; time nothing
        for work in workloads:
            timings = {}
            for name in backends:
                set_backend(name)
                timings[name] = _time_call(
                    work["run"], work["inner"], repeats
                )
            base = timings["numpy"]
            row = {
                "kernel": work["kernel"],
                "shape": work["shape"],
                "session_frames_per_call": work["frames"],
                "backends": {
                    name: {
                        "call_us": 1e6 * t,
                        "ns_per_frame": 1e9 * t / work["frames"],
                        "vs_numpy": t / base,
                    }
                    for name, t in timings.items()
                },
            }
            if work["kernel"] in worker_parity:
                set_backend("numpy")
                with _workers(1):
                    one = _time_call(work["run"], work["inner"], repeats)
                row["numpy_call_us_by_workers"] = {
                    "1": 1e6 * one, str(workers): 1e6 * base,
                }
            rows.append(row)
    finally:
        set_backend(restore)
    return {
        "benchmark": "kernels",
        "repeats": repeats,
        "backends": backends,
        "numpy_version": np.__version__,
        "cpu_count": os.cpu_count(),
        "synthesis_workers": workers,
        "cancellation_parity": parity,
        "tick_kernel_parity": tick_parity,
        "synthesis_parity": synthesis_parity,
        "synthesis_worker_parity": worker_parity,
        "births_parity": births_parity,
        "k2_cost_split": _cost_split(rows),
        "kernels": rows,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).parent / "kernels.json",
        help="where to write the JSON artifact",
    )
    args = parser.parse_args()

    payload = bench(args.repeats)
    parity = payload["cancellation_parity"]
    mismatched = [kernel for kernel, ok in parity.items() if not ok]
    if mismatched:
        print(
            "numpy successive_cancel differs from its reference spec on: "
            + ", ".join(mismatched),
            file=sys.stderr,
        )
        return 1
    mismatched = [
        kernel for kernel, ok in payload["tick_kernel_parity"].items()
        if not ok
    ]
    if mismatched:
        print(
            "numpy tick kernels differ from their reference specs on: "
            + ", ".join(mismatched),
            file=sys.stderr,
        )
        return 1
    mismatched = [
        kernel for kernel, ok in payload["synthesis_parity"].items() if not ok
    ]
    if mismatched:
        print(
            "numpy accumulate_spectra differs from its reference spec on: "
            + ", ".join(mismatched),
            file=sys.stderr,
        )
        return 1
    workers = payload["synthesis_workers"]
    mismatched = [
        kernel
        for kernel, ok in payload["synthesis_worker_parity"].items()
        if not ok
    ]
    if mismatched:
        print(
            f"numpy accumulate_spectra on {workers} workers differs from "
            "one worker on: " + ", ".join(mismatched),
            file=sys.stderr,
        )
        return 1
    mismatched = [
        kernel for kernel, ok in payload["births_parity"].items() if not ok
    ]
    if mismatched:
        print(
            "candidate_fixes_batched differs from the per-slot "
            "candidate_fixes on: " + ", ".join(mismatched),
            file=sys.stderr,
        )
        return 1
    names = payload["backends"]
    print(f"kernel microbenchmarks ({', '.join(names)})")
    header = f"{'kernel':>22}" + "".join(f"{n:>14}" for n in names)
    print(header + f"{'ratio':>10}")
    for row in payload["kernels"]:
        cells = "".join(
            f"{row['backends'][n]['call_us']:>11.1f} us" for n in names
        )
        worst = max(row["backends"][n]["vs_numpy"] for n in names)
        print(f"{row['kernel']:>22}{cells}{worst:>9.2f}x")
    print(f"numpy synthesis on 1 / {workers} workers "
          f"(cpu_count {payload['cpu_count']}):")
    for row in payload["kernels"]:
        by_workers = row.get("numpy_call_us_by_workers")
        if by_workers:
            one, many = by_workers["1"], by_workers[str(workers)]
            print(f"{row['kernel']:>22}{one:>11.1f} us{many:>11.1f} us"
                  f"{one / many:>9.2f}x")
    print("K=2 tick kernels (numpy), fixed cost + cost per session:")
    for kernel, split in payload["k2_cost_split"].items():
        print(f"{kernel:>22}{split['fixed_us']:>11.1f} us"
              f" + {split['per_session_us']:.1f} us/session")
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
