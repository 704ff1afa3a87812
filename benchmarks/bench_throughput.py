"""Throughput benchmark: frames/sec for offline, realtime, and sharded runs.

Runs the same synthesized session through the two public front ends of
the pipeline engine — offline ``track`` (``Pipeline.run_stream``, the
evaluation path) and the realtime app (one serving session fed frame by
frame) — for the single-person and the K=2 multi-person stage graphs,
and reports frames per second for each. Both run the same lockstep
tick; the gap between them is the serving engine's per-frame queueing
and routing. A third, sharded workload fans one long lazily-synthesized
stream across a process pool (``repro.exec.ShardedStreamRunner``) and
records workers, speedup, and the serial-vs-parallel identity check.
Results land in ``benchmarks/throughput.json`` so CI runs leave a
comparable artifact.

Run:
    python benchmarks/bench_throughput.py [--duration 10] [--repeats 3]
        [--workers N]
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

from repro import MultiScenario, MultiWiTrack, WiTrack, default_config
from repro.apps.realtime import RealtimeMultiTracker, RealtimeTracker
from repro.exec import (
    cache_stats,
    default_cache,
    resolve_workers,
    sharded_speedup_benchmark,
    synthesize,
)
from repro.sim import Scenario, random_walk, through_wall_room
from repro.sim.body import HumanBody
from repro.sim.motion import non_colliding_walks


def _best(fn, repeats: int) -> float:
    """Best-of-N wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_single(duration_s: float, repeats: int) -> dict:
    config = default_config()
    room = through_wall_room()
    walk = random_walk(room, np.random.default_rng(0), duration_s=duration_s)
    # Through the cache seam: with REPRO_CACHE enabled, the warm/cold
    # difference shows up in the JSON's cache counters.
    out = synthesize(Scenario(walk, room=room, config=config, seed=1))
    tracker = WiTrack(config)
    n_frames = out.num_sweeps // config.pipeline.sweeps_per_frame

    track_s = _best(
        lambda: tracker.track(out.spectra, out.range_bin_m), repeats
    )

    def realtime() -> None:
        RealtimeTracker(config, range_bin_m=out.range_bin_m).run(out.spectra)

    realtime_s = _best(realtime, repeats)
    rt = RealtimeTracker(config, range_bin_m=out.range_bin_m)
    rt.run(out.spectra)
    return {
        "n_frames": n_frames,
        "track_s": track_s,
        "realtime_s": realtime_s,
        "track_fps": n_frames / track_s,
        "realtime_fps": n_frames / realtime_s,
        "realtime_p95_latency_ms": 1e3 * rt.latency.p95_s,
        "within_75ms_budget": rt.latency.within_budget(0.075),
    }


def bench_multi(duration_s: float, repeats: int, people: int = 2) -> dict:
    config = default_config()
    room = through_wall_room()
    walks = non_colliding_walks(
        room, np.random.default_rng(7), count=people,
        duration_s=duration_s, min_separation_m=1.0,
    )
    pairs = [(HumanBody(name=f"p{i}"), w) for i, w in enumerate(walks)]
    out = synthesize(MultiScenario(pairs, room=room, config=config, seed=7))
    tracker = MultiWiTrack(config, max_people=people, room=room)
    n_frames = out.num_sweeps // config.pipeline.sweeps_per_frame

    track_s = _best(
        lambda: tracker.track(out.spectra, out.range_bin_m), repeats
    )

    def realtime() -> None:
        RealtimeMultiTracker(
            config, range_bin_m=out.range_bin_m, max_people=people, room=room
        ).run(out.spectra)

    realtime_s = _best(realtime, repeats)
    return {
        "people": people,
        "n_frames": n_frames,
        "track_s": track_s,
        "realtime_s": realtime_s,
        "track_fps": n_frames / track_s,
        "realtime_fps": n_frames / realtime_s,
    }


def bench_sharded(duration_s: float, repeats: int, workers: int) -> dict:
    """Synthesis + tracking of one long stream, serial vs sharded pool.

    Unlike the other workloads this times *end-to-end* throughput
    (lazy synthesis included), because that is the work the shards fan
    out; the shard plan is identical in both runs, so the merged
    results must match bitwise.
    """
    room = through_wall_room()
    walk = random_walk(room, np.random.default_rng(3), duration_s=duration_s)
    scenario = Scenario(walk, room=room, seed=4)
    return sharded_speedup_benchmark(
        scenario, workers=workers, repeats=repeats
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=10.0,
                        help="seconds of scenario per workload")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats (best-of)")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool size for the sharded workload "
                             "(default: REPRO_WORKERS, else serial)")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).parent / "throughput.json")
    args = parser.parse_args()
    workers = resolve_workers(args.workers)

    print(f"synthesizing and timing ({args.duration:.0f} s scenarios, "
          f"best of {args.repeats})...")
    single = bench_single(args.duration, args.repeats)
    multi = bench_multi(args.duration, args.repeats)
    sharded = bench_sharded(args.duration, args.repeats, workers)

    cadence_fps = 80.0  # 12.5 ms frame cadence
    print("\npipeline throughput (frames/sec; realtime needs "
          f"{cadence_fps:.0f})")
    print(f"{'workload':<16}{'track':>12}{'realtime':>12}")
    print(f"{'single-person':<16}{single['track_fps']:>12.0f}"
          f"{single['realtime_fps']:>12.0f}")
    print(f"{'multi (K=2)':<16}{multi['track_fps']:>12.0f}"
          f"{multi['realtime_fps']:>12.0f}")
    print(f"\nrealtime p95 latency: "
          f"{single['realtime_p95_latency_ms']:.2f} ms (75 ms budget "
          f"{'MET' if single['within_75ms_budget'] else 'EXCEEDED'})")
    print(f"\nsharded end-to-end (synthesis + tracking, "
          f"{sharded['num_shards']} shards, {sharded['workers']} workers): "
          f"{sharded['serial_fps']:.0f} -> {sharded['sharded_fps']:.0f} "
          f"frames/s ({sharded['speedup']:.2f}x, results "
          f"{'identical' if sharded['identical'] else 'DIVERGED'})")

    cache = cache_stats()
    if default_cache() is None:
        print("\ncache: disabled (set REPRO_CACHE=1 or REPRO_CACHE_DIR)")
    else:
        for kind, counts in cache.items():
            print(f"cache ({kind}): {counts['hits']} hits  "
                  f"{counts['misses']} misses  "
                  f"{counts['evictions']} evicted")

    payload = {
        "duration_s": args.duration,
        "repeats": args.repeats,
        "single_person": single,
        "multi_person": multi,
        "sharded": sharded,
        "cache": cache,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    ok = (
        single["within_75ms_budget"]
        and single["track_fps"] > cadence_fps
        and single["realtime_fps"] > cadence_fps
        and sharded["identical"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
