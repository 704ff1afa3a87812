"""Serving benchmark: session-multiplexed lockstep vs N independent pipelines.

The claim under test (see ISSUE/ROADMAP "serving engine"): advancing N
concurrent sessions through *one* session-vectorized pipeline — one
``Pipeline.tick`` per frame step, stage state structure-of-arrays over
the session axis — amortizes the per-frame numpy dispatch cost that N
independent frame-at-a-time pipelines each pay in full. The baseline is
exactly that counterfactual: N private ``Pipeline`` instances pushed
round-robin in the same frame order.

For each session count the benchmark reports aggregate frames/s for
both executions, the speedup, per-session p95 latency against the
paper's 75 ms budget (§7), and an exact-equality check of every
session's outputs against its own serial ``run_stream`` reference.

With ``--workers N`` (default ``REPRO_WORKERS``) a third execution runs
per session count: the **distributed tier** — the same engine fronting
N long-lived shard worker processes — recording shard count, per-shard
tick p50/p95, mean IPC overhead, and the same exact-equality check.
Results land in ``benchmarks/serving.json`` so CI runs leave a
comparable artifact alongside ``throughput.json`` (the workers matrix
uploads it as the ``serving-distributed`` artifact).

Run:
    python benchmarks/bench_serving.py [--sessions 8] [--duration 8] \\
        [--workers 2]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

try:
    import repro  # noqa: F401
except ImportError:  # fresh checkout without `pip install -e .`
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import WiTrack, default_config
from repro.exec import (
    pool_available,
    resolve_workers,
    results_identical,
    shm_available,
)
from repro.kernels import backend_name, set_backend, synthesis_workers
from repro.serve import ServingEngine, single_session
from repro.sim import CohortFrameSource, Scenario, random_walk, through_wall_room
from repro.sim.body import sample_population
from repro.sim.gestures import pointing_session
from repro.sim.motion import stand_still
from repro.sim.room import line_of_sight_room


def synthesize_sessions(n_sessions: int, duration_s: float) -> tuple:
    """N independent single-person session recordings, pre-synthesized."""
    config = default_config()
    room = through_wall_room()
    outputs = []
    for seed in range(n_sessions):
        walk = random_walk(
            room, np.random.default_rng(seed), duration_s=duration_s
        )
        outputs.append(
            Scenario(walk, room=room, config=config, seed=seed + 100).run()
        )
    spf = config.pipeline.sweeps_per_frame
    n_frames = min(o.num_sweeps // spf for o in outputs)
    blocks = [
        [o.spectra[:, f * spf : (f + 1) * spf, :] for f in range(n_frames)]
        for o in outputs
    ]
    return config, outputs[0].range_bin_m, blocks, n_frames


def run_baseline(config, range_bin_m, blocks, n_frames) -> dict:
    """N private pipelines, frame-at-a-time, round-robin (today's way)."""
    pipelines = [
        WiTrack(config).pipeline(range_bin_m) for _ in range(len(blocks))
    ]
    start = time.perf_counter()
    for f in range(n_frames):
        for session, pipeline in zip(blocks, pipelines):
            pipeline.push(session[f])
    wall_s = time.perf_counter() - start
    p95s = [p.latency.p95_s for p in pipelines]
    return {"wall_s": wall_s, "p95_latency_ms": 1e3 * float(np.max(p95s))}


def run_lockstep(
    config, range_bin_m, blocks, n_frames, workers=0, transport=None
) -> dict:
    """One engine, N admitted sessions, one vectorized tick per step.

    ``workers=0`` is the in-process engine; ``workers>=1`` fronts that
    many shard worker processes (the distributed tier) and additionally
    reports per-shard tick times, IPC overhead, and per-transport byte
    counters (``transport`` picks the shard data plane: pipe or shm).
    """
    with ServingEngine(workers=workers, transport=transport) as engine:
        spec = single_session(config, range_bin_m)
        sessions = [engine.admit(spec) for _ in blocks]
        start = time.perf_counter()
        for f in range(n_frames):
            for session, stream in zip(sessions, blocks):
                session.offer(stream[f])
            engine.tick()
        wall_s = time.perf_counter() - start
        results = [engine.close(s) for s in sessions]
        p95s = [r.latency.p95_s for r in results]
        p99s = [r.latency.p99_s for r in results]
        out = {
            "wall_s": wall_s,
            "p95_latency_ms": 1e3 * float(np.max(p95s)),
            "p99_latency_ms": 1e3 * float(np.max(p99s)),
            "results": results,
        }
        profile = _stage_profile(engine)
        if profile is not None:
            out["stage_profile"] = profile
        if engine.distributed:
            shards = engine.scheduler.shard_report()
            out["shards"] = shards
            out["num_shards"] = engine.scheduler.num_shards
            out["transport"] = engine.transport
            out["transport_stats"] = engine.transport_stats()
            with np.errstate(all="ignore"):
                out["tick_p95_ms"] = float(
                    np.nanmax([s["tick_p95_ms"] for s in shards])
                )
                out["tick_p99_ms"] = float(
                    np.nanmax([s["tick_p99_ms"] for s in shards])
                )
                out["ipc_overhead_mean_ms"] = float(
                    np.nanmean([s["ipc_overhead_mean_ms"] for s in shards])
                )
    return out


def _transports() -> list[str]:
    """Transports to benchmark: always pipe, plus shm when the host has it."""
    return ["pipe", "shm"] if shm_available() else ["pipe"]


def _transport_comparison(by_transport: dict) -> dict:
    """Pipe-vs-shm IPC overhead delta for the trajectory JSON."""
    pipe_ms = by_transport["pipe"]["ipc_overhead_mean_ms"]
    shm_ms = by_transport["shm"]["ipc_overhead_mean_ms"]
    return {
        "ipc_overhead_pipe_ms": pipe_ms,
        "ipc_overhead_shm_ms": shm_ms,
        "ipc_overhead_pipe_over_shm": (
            pipe_ms / shm_ms if shm_ms > 0 else float("nan")
        ),
        "bytes_shm": by_transport["shm"]["transport_stats"]["bytes_shm"],
        "bytes_pickled_pipe": (
            by_transport["pipe"]["transport_stats"]["bytes_pickled"]
        ),
        "bytes_pickled_shm": (
            by_transport["shm"]["transport_stats"]["bytes_pickled"]
        ),
        "arena_overflows": (
            by_transport["shm"]["transport_stats"]["arena_overflows"]
        ),
    }


def serial_references(config, range_bin_m, blocks) -> list:
    """Each session's untimed ``run_stream`` reference (identity check)."""
    refs = []
    for stream in blocks:
        pipeline = WiTrack(config).pipeline(range_bin_m)
        refs.append(
            pipeline.run_stream(np.concatenate(stream, axis=1))
        )
    return refs


def bench_serving(n_sessions: int, duration_s: float, workers: int = 0) -> dict:
    config, range_bin_m, all_blocks, n_frames = synthesize_sessions(
        n_sessions, duration_s
    )
    rows = []
    counts = sorted({1, max(n_sessions // 2, 1), n_sessions})
    for n in counts:
        blocks = all_blocks[:n]
        baseline = run_baseline(config, range_bin_m, blocks, n_frames)
        lockstep = run_lockstep(config, range_bin_m, blocks, n_frames)
        refs = serial_references(config, range_bin_m, blocks)
        identical = all(
            results_identical(result, ref)
            for result, ref in zip(lockstep["results"], refs)
        )
        total = n * n_frames
        row = {
            "sessions": n,
            "frames_per_session": n_frames,
            "baseline_s": baseline["wall_s"],
            "lockstep_s": lockstep["wall_s"],
            "baseline_fps": total / baseline["wall_s"],
            "lockstep_fps": total / lockstep["wall_s"],
            "speedup": baseline["wall_s"] / lockstep["wall_s"],
            "baseline_p95_latency_ms": baseline["p95_latency_ms"],
            "lockstep_p95_latency_ms": lockstep["p95_latency_ms"],
            "lockstep_p99_latency_ms": lockstep["p99_latency_ms"],
            "within_75ms_budget": lockstep["p95_latency_ms"] <= 75.0,
            "identical_to_serial": identical,
        }
        if "stage_profile" in lockstep:
            row["stage_profile"] = lockstep["stage_profile"]
        if workers > 0:
            # One distributed run per available transport: "distributed"
            # stays the pipe row (artifact continuity across PRs) and
            # "distributed_shm" rides alongside, with a comparison row
            # so the trajectory JSON tracks the IPC delta directly.
            by_transport = {}
            for transport in _transports():
                dist = run_lockstep(
                    config, range_bin_m, blocks, n_frames,
                    workers=workers, transport=transport,
                )
                by_transport[transport] = {
                    "workers": workers,
                    "transport": transport,
                    "num_shards": dist["num_shards"],
                    "wall_s": dist["wall_s"],
                    "fps": total / dist["wall_s"],
                    "speedup_vs_lockstep": lockstep["wall_s"] / dist["wall_s"],
                    "p95_latency_ms": dist["p95_latency_ms"],
                    "p99_latency_ms": dist["p99_latency_ms"],
                    "within_75ms_budget": dist["p95_latency_ms"] <= 75.0,
                    "tick_p95_ms": dist["tick_p95_ms"],
                    "tick_p99_ms": dist["tick_p99_ms"],
                    "ipc_overhead_mean_ms": dist["ipc_overhead_mean_ms"],
                    "transport_stats": dist["transport_stats"],
                    "shards": dist["shards"],
                    "identical_to_serial": all(
                        results_identical(result, ref)
                        for result, ref in zip(dist["results"], refs)
                    ),
                }
            row["distributed"] = by_transport["pipe"]
            if "shm" in by_transport:
                row["distributed_shm"] = by_transport["shm"]
                row["transport_comparison"] = _transport_comparison(
                    by_transport
                )
        rows.append(row)
    return {
        "duration_s": duration_s,
        "max_sessions": n_sessions,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "synthesis_workers": synthesis_workers(),
        "scaling": rows,
    }


def _stage_profile(engine: ServingEngine) -> dict | None:
    """The engine's merged per-stage counters, or None when profiling
    is off — so disabled runs leave no trace in the JSON artifact."""
    profile = engine.stage_profile().as_dict()
    return profile or None


def _synthetic_scenarios(n_sessions: int, duration_s: float) -> list:
    config = default_config()
    room = through_wall_room()
    return [
        Scenario(
            random_walk(room, np.random.default_rng(seed),
                        duration_s=duration_s),
            room=room, config=config, seed=seed + 100,
        )
        for seed in range(n_sessions)
    ]


def _serve_streams(
    config, range_bin_m, streams, n_frames,
    workers=0, transport=None, keep_results=False,
) -> dict:
    """Feed per-session block iterators through one lockstep engine."""
    with ServingEngine(workers=workers, transport=transport) as engine:
        spec = single_session(config, range_bin_m)
        sessions = [engine.admit(spec) for _ in streams]
        start = time.perf_counter()
        for _ in range(n_frames):
            for session, stream in zip(sessions, streams):
                engine.submit(session, next(stream))
            engine.tick()
        engine.drain()
        wall_s = time.perf_counter() - start
        results = [engine.close(s) for s in sessions]
        profile = _stage_profile(engine)
        shards = (
            engine.scheduler.shard_report() if engine.distributed else None
        )
        transport_stats = engine.transport_stats()
    p95s = [r.latency.p95_s for r in results]
    out = {"wall_s": wall_s, "p95_latency_ms": 1e3 * float(np.max(p95s))}
    if keep_results:
        out["results"] = results
    if profile is not None:
        out["stage_profile"] = profile
    if shards is not None:
        out["shards"] = shards
        out["transport_stats"] = transport_stats
        with np.errstate(all="ignore"):
            out["tick_p95_ms"] = float(
                np.nanmax([s["tick_p95_ms"] for s in shards])
            )
            out["ipc_overhead_mean_ms"] = float(
                np.nanmean([s["ipc_overhead_mean_ms"] for s in shards])
            )
    return out


def _mixed_cohort(config, duration_s: float) -> list:
    """A through-wall walk, a line-of-sight walk and a pointing session."""
    tw, los = through_wall_room(), line_of_sight_room()
    rng = np.random.default_rng(7)
    position = np.array([0.8, 4.5, 0.0])
    return [
        Scenario(random_walk(tw, np.random.default_rng(1),
                             duration_s=duration_s),
                 room=tw, config=config, seed=21),
        Scenario(random_walk(los, np.random.default_rng(2),
                             duration_s=duration_s),
                 room=los, config=config, seed=22),
        Scenario(stand_still(position, duration_s=duration_s), room=tw,
                 body=sample_population(rng, count=11)[3], config=config,
                 gesture=pointing_session(position, rng),
                 gesture_start_s=0.05, seed=23),
    ]


def _fused_parity(scenarios, chunk_frames: int = 8, chunks: int = 3) -> bool:
    """Noise-free fused synthesis == per-session synthesis, bitwise.

    Checks every frame of the first ``chunks`` chunks, so the state a
    session carries across chunk boundaries is compared too, for the
    given sessions plus a mixed cohort (through-wall and line-of-sight
    rooms, another body, a pointing gesture).
    """
    from repro.sim import ScenarioStream

    scenarios = list(scenarios) + _mixed_cohort(
        scenarios[0].config, duration_s=1.0
    )
    source = CohortFrameSource(scenarios, chunk_frames=chunk_frames,
                               noise=False)
    n_frames = min(chunks * chunk_frames, source.n_frames)
    ticks = source.ticks()
    fused = [[b.copy() for b in next(ticks)] for _ in range(n_frames)]
    spf = source.spf
    ok = n_frames == chunks * chunk_frames
    for k, scenario in enumerate(scenarios):
        st = ScenarioStream(scenario)
        for f0 in range(0, n_frames, chunk_frames):
            f1 = min(f0 + chunk_frames, n_frames)
            block = st.synthesize(f0, f1, *st.advance(f0, f1))
            for f in range(f0, f1):
                row = (f - f0) * spf
                ok = ok and bool(np.array_equal(
                    fused[f][k], block[:, row:row + spf, :]
                ))
    return ok


def _synthetic_distributed(
    config, range_bin_m, scenarios, chunk_frames, n_frames, workers
) -> dict:
    """Distributed synthetic serving, once per transport, bit-checked.

    Streams regenerate deterministically from the scenarios, so the
    in-process run and each transport's distributed run consume
    identical frames; any output divergence is a transport bug.
    """
    def build_streams():
        return CohortFrameSource(
            scenarios, chunk_frames=chunk_frames
        ).session_streams()

    reference = _serve_streams(
        config, range_bin_m, build_streams(), n_frames, keep_results=True
    )
    total = len(scenarios) * n_frames
    transports = {}
    for transport in _transports():
        dist = _serve_streams(
            config, range_bin_m, build_streams(), n_frames,
            workers=workers, transport=transport, keep_results=True,
        )
        transports[transport] = {
            "wall_s": dist["wall_s"],
            "fps": total / dist["wall_s"],
            "p95_latency_ms": dist["p95_latency_ms"],
            "tick_p95_ms": dist["tick_p95_ms"],
            "ipc_overhead_mean_ms": dist["ipc_overhead_mean_ms"],
            "transport_stats": dist["transport_stats"],
            "identical_to_in_process": all(
                results_identical(result, ref)
                for result, ref in zip(dist["results"], reference["results"])
            ),
        }
    out = {
        "workers": workers,
        "in_process_wall_s": reference["wall_s"],
        "transports": transports,
    }
    if "shm" in transports:
        pipe_ms = transports["pipe"]["ipc_overhead_mean_ms"]
        shm_ms = transports["shm"]["ipc_overhead_mean_ms"]
        out["ipc_overhead_pipe_over_shm"] = (
            pipe_ms / shm_ms if shm_ms > 0 else float("nan")
        )
    return out


def bench_synthetic(n_sessions: int, duration_s: float,
                    chunk_frames: int = 64, repeats: int = 3,
                    workers: int = 0) -> dict:
    """Synthesis-inclusive serving: fused cohort source vs per-session.

    The baseline is the pre-kernel-tier cost model: the ``reference``
    backend (the original math, verbatim) synthesizing each session
    through its own :meth:`Scenario.frames` generator. The fused row is
    the kernel tier end to end: the ``numpy`` backend synthesizing all
    N sessions per chunk through one :class:`CohortFrameSource` batch
    call. Both feed the identical lockstep engine, so the ratio is the
    serving-tier frames/s gain a deployment sees.

    With ``workers >= 1`` the top session count also runs distributed
    once per available transport (pipe, shm) — fused synthesis feeding
    shard workers — recording per-transport IPC overhead, byte
    counters, and a bit-exactness check against the in-process run.

    Each row's ``noise_free_parity`` compares every frame of three
    fused chunks against per-session synthesis (see
    :func:`_fused_parity`); ``main`` exits 1 if any row mismatches.
    """
    restore = backend_name()
    rows = []
    counts = sorted({1, max(n_sessions // 2, 1), n_sessions})

    def best_of(config, range_bin_m, build_streams, n_frames) -> dict:
        # Each repeat rebuilds the stream stack (the generators are
        # stateful), times the serving loop, and the best wall clock
        # wins — the standard guard against scheduler/thermal noise.
        best = None
        for _ in range(max(repeats, 1)):
            res = _serve_streams(
                config, range_bin_m, build_streams(), n_frames
            )
            if best is None or res["wall_s"] < best["wall_s"]:
                best = res
        return best

    try:
        for n in counts:
            scenarios = _synthetic_scenarios(n, duration_s)
            config = scenarios[0].config
            range_bin_m = scenarios[0].range_bin_m

            set_backend("numpy")
            n_frames = CohortFrameSource(
                scenarios, chunk_frames=chunk_frames
            ).n_frames
            fused = best_of(
                config, range_bin_m,
                lambda: CohortFrameSource(
                    scenarios, chunk_frames=chunk_frames
                ).session_streams(),
                n_frames,
            )
            identical = _fused_parity(scenarios)

            set_backend("reference")
            baseline = best_of(
                config, range_bin_m,
                lambda: [
                    s.frames(chunk_frames=chunk_frames) for s in scenarios
                ],
                n_frames,
            )

            total = n * n_frames
            row = {
                "sessions": n,
                "frames_per_session": n_frames,
                "baseline_s": baseline["wall_s"],
                "fused_s": fused["wall_s"],
                "baseline_fps": total / baseline["wall_s"],
                "fused_fps": total / fused["wall_s"],
                "speedup": baseline["wall_s"] / fused["wall_s"],
                "fused_p95_latency_ms": fused["p95_latency_ms"],
                "noise_free_parity": identical,
            }
            if "stage_profile" in fused:
                row["stage_profile"] = fused["stage_profile"]
            if workers > 0 and n == counts[-1]:
                set_backend("numpy")
                row["distributed"] = _synthetic_distributed(
                    config, range_bin_m, scenarios, chunk_frames,
                    n_frames, workers,
                )
            rows.append(row)
    finally:
        set_backend(restore)
    return {
        "mode": "synthetic",
        "duration_s": duration_s,
        "max_sessions": n_sessions,
        "chunk_frames": chunk_frames,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "synthesis_workers": synthesis_workers(),
        "scaling": rows,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sessions", type=int, default=8,
                        help="maximum concurrent sessions")
    parser.add_argument("--duration", type=float, default=8.0,
                        help="seconds of scenario per session")
    parser.add_argument("--synthetic", action="store_true",
                        help="synthesis-inclusive mode: fused cohort "
                             "source (numpy backend) vs per-session "
                             "frames() (reference backend)")
    parser.add_argument("--chunk", type=int, default=64,
                        help="synthesis chunk frames (synthetic mode)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats per timed row "
                             "(synthetic mode)")
    parser.add_argument("--workers", type=int, default=None,
                        help="shard worker processes for the distributed "
                             "rows (default: REPRO_WORKERS, else skip; "
                             "0 disables)")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).parent / "serving.json")
    args = parser.parse_args()

    if args.workers is not None:
        if args.workers < 0:
            parser.error("--workers must be >= 0")
        workers = args.workers
    else:
        # REPRO_WORKERS=1 still measures the distributed tier (one
        # shard: the pure-IPC-overhead baseline); unset or explicitly
        # 0 skips it — 0 means "no parallelism" everywhere else too.
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        workers = resolve_workers() if raw and raw != "0" else 0
    if workers and not pool_available():
        print("fork unavailable; skipping the distributed rows")
        workers = 0

    if args.synthetic:
        payload = bench_synthetic(
            args.sessions, args.duration, chunk_frames=args.chunk,
            repeats=args.repeats, workers=workers,
        )
        print("\nsynthesis-inclusive serving (aggregate frames/s)")
        print(f"{'N':>4}{'per-session':>13}{'fused':>12}{'speedup':>10}"
              f"{'p95 (ms)':>10}{'parity':>8}")
        for row in payload["scaling"]:
            print(f"{row['sessions']:>4}{row['baseline_fps']:>13.0f}"
                  f"{row['fused_fps']:>12.0f}{row['speedup']:>9.2f}x"
                  f"{row['fused_p95_latency_ms']:>10.2f}"
                  f"{'yes' if row['noise_free_parity'] else 'NO':>8}")
        top = payload["scaling"][-1]
        print(f"\nat N={top['sessions']}: {top['speedup']:.2f}x over "
              f"per-session synthesis (reference backend)")
        dist_ok = True
        if "distributed" in top:
            dist = top["distributed"]
            for name, t in dist["transports"].items():
                dist_ok = dist_ok and t["identical_to_in_process"]
                print(f"distributed/{name} ({dist['workers']} workers): "
                      f"{t['fps']:.0f} frames/s, "
                      f"ipc {t['ipc_overhead_mean_ms']:.2f} ms, "
                      f"{t['transport_stats']['bytes_shm'] / 1e6:.1f} MB shm / "
                      f"{t['transport_stats']['bytes_pickled'] / 1e6:.1f} MB "
                      f"pickled, identical "
                      f"{'yes' if t['identical_to_in_process'] else 'NO'}")
            ratio = dist.get("ipc_overhead_pipe_over_shm")
            if ratio is not None:
                print(f"ipc overhead pipe/shm: {ratio:.2f}x")
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")
        return 0 if dist_ok and all(
            r["noise_free_parity"] for r in payload["scaling"]
        ) else 1

    print(f"synthesizing {args.sessions} sessions of "
          f"{args.duration:.0f} s each...")
    payload = bench_serving(args.sessions, args.duration, workers=workers)

    print("\nserving throughput (aggregate frames/s across sessions)")
    header = (f"{'N':>4}{'baseline':>12}{'lockstep':>12}{'speedup':>10}"
              f"{'p95 (ms)':>10}{'identical':>11}")
    if workers:
        header += f"{'distrib':>12}{'shard p95':>11}{'ipc (ms)':>10}"
    print(header)
    for row in payload["scaling"]:
        line = (f"{row['sessions']:>4}{row['baseline_fps']:>12.0f}"
                f"{row['lockstep_fps']:>12.0f}{row['speedup']:>9.2f}x"
                f"{row['lockstep_p95_latency_ms']:>10.2f}"
                f"{'yes' if row['identical_to_serial'] else 'NO':>11}")
        if "distributed" in row:
            dist = row["distributed"]
            line += (f"{dist['fps']:>12.0f}"
                     f"{dist['tick_p95_ms']:>11.2f}"
                     f"{dist['ipc_overhead_mean_ms']:>10.2f}")
        print(line)

    top = payload["scaling"][-1]
    print(f"\nat N={top['sessions']}: {top['speedup']:.2f}x over "
          f"{top['sessions']} independent pipelines, per-session p95 "
          f"{top['lockstep_p95_latency_ms']:.2f} ms "
          f"(75 ms budget "
          f"{'MET' if top['within_75ms_budget'] else 'EXCEEDED'})")
    if "distributed" in top:
        dist = top["distributed"]
        print(f"distributed ({dist['workers']} workers, "
              f"{dist['num_shards']} shards): "
              f"{dist['fps']:.0f} frames/s "
              f"({dist['speedup_vs_lockstep']:.2f}x vs in-process), "
              f"shard tick p95 {dist['tick_p95_ms']:.2f} ms, "
              f"mean IPC overhead {dist['ipc_overhead_mean_ms']:.2f} ms, "
              f"identical "
              f"{'yes' if dist['identical_to_serial'] else 'NO'}")
        comparison = top.get("transport_comparison")
        if comparison is not None:
            shm = top["distributed_shm"]
            print(f"transport pipe vs shm: ipc "
                  f"{comparison['ipc_overhead_pipe_ms']:.2f} ms vs "
                  f"{comparison['ipc_overhead_shm_ms']:.2f} ms "
                  f"({comparison['ipc_overhead_pipe_over_shm']:.2f}x), "
                  f"shm moved {comparison['bytes_shm'] / 1e6:.1f} MB "
                  f"({comparison['arena_overflows']} overflows), "
                  f"identical "
                  f"{'yes' if shm['identical_to_serial'] else 'NO'}")
        cores = payload["cpu_count"] or 1
        if cores <= dist["workers"]:
            print(f"NOTE: only {cores} CPU core(s) — shard workers are "
                  "time-slicing, so distributed throughput cannot "
                  "exceed in-process here; scaling needs >= workers+1 "
                  "cores")

    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    ok = all(
        row["identical_to_serial"] and row["within_75ms_budget"]
        for row in payload["scaling"]
    )
    ok = ok and all(
        row["distributed"]["identical_to_serial"]
        and row["distributed"]["within_75ms_budget"]
        for row in payload["scaling"]
        if "distributed" in row
    )
    ok = ok and all(
        row["distributed_shm"]["identical_to_serial"]
        for row in payload["scaling"]
        if "distributed_shm" in row
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
