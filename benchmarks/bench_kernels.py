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

Run:
    python benchmarks/bench_kernels.py [--repeats 5] [--out kernels.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
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
    first_local_max_above,
    kalman_tick,
    row_median,
    set_backend,
)
from repro.multi.association import (
    candidate_fixes_batched,
    claim_candidates,
)
from repro.multi.cancellation import successive_contours
from repro.multi.tracker import MultiWiTrack
from repro.multi.tracks import Track, TrackBank, TrackManager
from repro.sim.room import through_wall_room

# Serving shapes at N=8 sessions, 3 antennas, 171 range bins: the
# synthesis call covers one 64-frame cohort chunk (320 sweeps per
# stream); the per-tick kernels cover one lockstep engine tick.
N_SESSIONS = 8
N_RX = 3
N_BINS = 171
SWEEPS_PER_FRAME = 5
CHUNK_FRAMES = 64


def _workloads() -> list[dict]:
    rng = np.random.default_rng(7)
    streams = N_SESSIONS * N_RX
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
    synth_out = np.zeros((streams * sweeps, N_BINS), dtype=np.complex128)

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

    # Multi-person tick shapes: successive cancellation sees one frame
    # row per (session, antenna), with a couple of reflector peaks per
    # row; the track bank steps N_SESSIONS two-track managers against
    # steady candidate sets (claims stay claimed, the spare candidate
    # stays an excluded birth attempt, so repeated calls keep the
    # workload size fixed).
    range_bin_m = 0.05
    cancel_power = rng.uniform(0.0, 0.05, (N_SESSIONS * N_RX, N_BINS))
    bins = np.arange(N_BINS, dtype=np.float64)
    for r in range(cancel_power.shape[0]):
        for center in (45.0 + 3.0 * (r % 5), 95.0 - 2.0 * (r % 7)):
            cancel_power[r] += 4.0 * np.exp(
                -0.5 * ((bins - center) / 1.5) ** 2
            )

    solver = TGeometrySolver(t_array())
    dt_s = 0.0125
    bank = TrackBank()
    bank_managers: list[TrackManager] = []
    people = [np.array([-1.0, 3.0, -0.3]), np.array([1.2, 5.0, -0.2])]
    ghost = people[0] + np.array([0.25, 0.2, 0.0])
    bank_candidates = np.full((N_SESSIONS, N_RX, 6), np.nan)
    bank_powers = np.full((N_SESSIONS, N_RX, 6), np.nan)
    for s in range(N_SESSIONS):
        manager = TrackManager(dt_s, solver)
        for i, p in enumerate(people):
            tofs = solver.array.round_trip_distances(p)
            manager.tracks.append(
                Track(manager._next_id, dt_s, tofs, p, manager.config)
            )
            manager._next_id += 1
            bank_candidates[s, :, i] = tofs
            bank_powers[s, :, i] = 1.0 - 0.1 * i
        bank_candidates[s, :, 2] = solver.array.round_trip_distances(ghost)
        bank_powers[s, :, 2] = 0.5
        bank_managers.append(manager)
    # The cohort claim pass on the same tensors: the bank's tracks'
    # predictions and gates, taken before any bank step moves them. The
    # spare candidate sits inside track 0's gate on every antenna, so
    # all 24 (slot, antenna) problems go to the Hungarian solve; without
    # it every problem is a matching and none does.
    claim_tracks = [t for m in bank_managers for t in m.live_tracks()]
    claim_predictions = np.stack(
        [t.predicted_tofs() for t in claim_tracks]
    )
    claim_gates = np.array([t.tof_gate_m() for t in claim_tracks])
    claim_counts = np.array([len(m.live_tracks()) for m in bank_managers])
    matching_candidates = np.delete(bank_candidates, 2, axis=2)
    # The cohort birth search on the same tensors, every candidate
    # unclaimed, with a through-wall serving spec's gate and wall-bounce
    # ghost arcs seeded by both people.
    births_spec = MultiWiTrack(max_people=2, room=through_wall_room())

    chunk_session_frames = N_SESSIONS * CHUNK_FRAMES
    tick_session_frames = N_SESSIONS
    return [
        {
            "kernel": "accumulate_spectra",
            "shape": f"paths {frac.shape} -> rows {synth_out.shape}",
            "frames": chunk_session_frames,
            "inner": 1,
            "run": lambda: (
                synth_out.fill(0.0),
                accumulate_spectra(
                    synth_out, frac, coeff, row_base, 8, 2500, True
                ),
            ),
        },
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
            "run": lambda: kalman_tick(
                values, mean, cov, live, 0.0125, 1e-4, 1e-3, 1e-2, 0.05
            ),
        },
        {
            "kernel": "successive_contours",
            "shape": f"power {cancel_power.shape}",
            "frames": tick_session_frames,
            "inner": 20,
            "run": lambda: successive_contours(
                cancel_power, range_bin_m, max_targets=6
            ),
        },
        {
            "kernel": "track_bank_step",
            "shape": f"candidates {bank_candidates.shape}",
            "frames": tick_session_frames,
            "inner": 20,
            "run": lambda: bank.step(
                bank_managers, bank_candidates, bank_powers
            ),
        },
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
                seed_slots=[people] * N_SESSIONS,
            ),
        },
    ]


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
    rows = []
    try:
        for work in _workloads():
            timings = {}
            for name in backends:
                set_backend(name)
                timings[name] = _time_call(
                    work["run"], work["inner"], repeats
                )
            base = timings["numpy"]
            rows.append(
                {
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
            )
    finally:
        set_backend(restore)
    return {
        "benchmark": "kernels",
        "repeats": repeats,
        "backends": backends,
        "numpy_version": np.__version__,
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
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
