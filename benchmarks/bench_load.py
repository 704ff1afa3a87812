"""Load benchmark: the serving tier under open-loop, traffic-shaped load.

Where ``bench_serving.py`` measures *throughput* (closed-loop, every
frame waits its turn), this measures *behavior under load the engine
does not control*: sessions arrive by a seeded arrival process, stream
frames on their own clock, and leave — so offered load above capacity
produces real queueing, frame drops, and (with a memory budget armed)
admission rejections. Each scenario row reports the SLO ledger:
p50/p95/p99 virtual latency against the paper's 75 ms budget (§7),
goodput vs offered load, rejection and drop rates, peak queue depth,
the memory governor's committed-bytes ledger, and the scheduler's
catch-up counters (stragglers put into catch-up, and catch-ups that
ended).

Every number in the per-scenario ``slo`` blocks is a pure function of
(seed, scenario, engine configuration) — wall-clock stays in the
separate ``wall_s`` field — except ``context.stage_profile``, present
under ``REPRO_PROFILE=1``, which holds per-stage wall seconds and
per-cohort call counts. So CI can diff the artifact run over run, and
a distributed row must equal the in-process row of its scenario
outside :data:`TIER_FIELDS`: the script exits 1 otherwise. Results
land in ``benchmarks/load.json`` (uploaded by CI as the ``load-slo``
artifact).

Run:
    python benchmarks/bench_load.py [--horizon 6] [--seed 0] \\
        [--workers 2] [--scenario poisson flash]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # fresh checkout without `pip install -e .`
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import default_config
from repro.exec import pool_available, resolve_workers
from repro.loadgen import (
    DiurnalArrivals,
    FlashCrowdArrivals,
    LoadHarness,
    MemoryGovernor,
    PoissonArrivals,
    SpecMemoryModel,
    build_workload,
)
from repro.rf.fmcw import range_axis
from repro.serve import ServingEngine, multi_session, single_session

QUEUE_CAPACITY = 16

#: Total predicted-memory budget the governor enforces in every
#: scenario. Sized (at ~0.7 MB predicted per session with a 16-frame
#: queue) so steady load fits with room to spare and a flash crowd
#: overshoots it — the rejection path must actually fire.
MEMORY_BUDGET_MB = 16.0

#: ``slo`` fields a distributed row may differ in from the in-process
#: row of its scenario: how the tier moved frames and where its stages
#: ran, never what it decided.
TIER_FIELDS = (
    "context.transport", "context.workers", "context.stage_profile",
)


def _flatten(value, prefix=""):
    """``(dotted path, JSON text)`` leaves of a nested dict."""
    if not isinstance(value, dict):
        yield prefix, json.dumps(value)
        return
    for key, item in value.items():
        yield from _flatten(item, f"{prefix}.{key}" if prefix else key)


def tier_differences(inproc: dict, distributed: dict) -> list[str]:
    """Dotted ``slo`` paths where two rows differ, :data:`TIER_FIELDS`
    aside."""
    a, b = dict(_flatten(inproc)), dict(_flatten(distributed))
    skip = tuple(field + "." for field in TIER_FIELDS)
    return sorted(
        path for path in a.keys() | b.keys()
        if not (path + ".").startswith(skip) and a.get(path) != b.get(path)
    )


def scenario_processes(horizon_s: float) -> dict:
    """The benchmark's arrival scenarios, scaled to the horizon."""
    return {
        "poisson": PoissonArrivals(rate_hz=3.0),
        "diurnal": DiurnalArrivals(base_rate_hz=3.0, period_s=horizon_s),
        "flash": FlashCrowdArrivals(
            base_rate_hz=2.0,
            flash_rate_hz=20.0,
            flash_start_s=0.25 * horizon_s,
            flash_duration_s=0.25 * horizon_s,
        ),
    }


def run_scenario(
    name: str,
    process,
    horizon_s: float,
    seed: int,
    workers: int,
    capacity: int,
    transport: str | None = None,
) -> dict:
    """One (scenario, workers) cell: harness run + SLO artifact."""
    config = default_config()
    range_bin_m = float(range_axis(config.fmcw).round_trip_per_bin_m)
    frame_dt_s = (
        config.pipeline.sweeps_per_frame * config.fmcw.sweep_duration_s
    )
    workload = build_workload(
        process,
        horizon_s=horizon_s,
        frame_dt_s=frame_dt_s,
        seed=seed,
        lifetime_mean_s=0.4 * horizon_s,
        mix={"single": 0.8, "multi": 0.2},
    )
    specs = {
        "single": single_session(config, range_bin_m),
        "multi": multi_session(config, range_bin_m, max_people=2),
    }
    model = SpecMemoryModel(queue_capacity=QUEUE_CAPACITY)
    governor = MemoryGovernor(int(MEMORY_BUDGET_MB * 1e6), model=model)
    arena_bytes = None
    if workers:
        # Predict-before-allocate: size each shard's shm arena off the
        # dominant spec's declared footprint (see SpecMemoryModel).
        arena_bytes = max(
            model.arena_estimate(spec, int(MEMORY_BUDGET_MB * 1e6))
            for spec in specs.values()
        )
    start = time.perf_counter()
    with ServingEngine(
        queue_capacity=QUEUE_CAPACITY,
        workers=workers,
        admission=governor,
        memory_model=model,
        transport=transport,
        arena_bytes=arena_bytes,
    ) as engine:
        transport_name = engine.transport
        harness = LoadHarness(
            engine, workload, specs, capacity_frames_per_step=capacity
        )
        slo = harness.run()
    wall_s = time.perf_counter() - start
    return {
        "scenario": name,
        "workers": workers,
        "transport": transport_name,
        "wall_s": wall_s,
        "slo": slo,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizon", type=float, default=6.0,
                        help="arrival-generation window in seconds")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--capacity", type=int, default=10,
                        help="frames served per 12.5 ms virtual step")
    parser.add_argument("--scenario", nargs="+", default=None,
                        choices=["poisson", "diurnal", "flash"],
                        help="scenarios to run (default: all)")
    parser.add_argument("--workers", type=int, default=None,
                        help="also run each scenario distributed across "
                             "this many shard workers (default: "
                             "REPRO_WORKERS, else in-process only)")
    parser.add_argument("--transport", choices=["pipe", "shm"],
                        default=None,
                        help="shard IPC data plane for the distributed "
                             "rows (default: REPRO_TRANSPORT, else pipe)")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).parent / "load.json")
    args = parser.parse_args()

    if args.workers is not None:
        workers = max(args.workers, 0)
    else:
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        workers = resolve_workers() if raw and raw != "0" else 0
    if workers and not pool_available():
        print("fork unavailable; skipping the distributed rows")
        workers = 0

    processes = scenario_processes(args.horizon)
    names = args.scenario or sorted(processes)
    worker_counts = [0] + ([workers] if workers else [])

    rows = []
    for name in names:
        for w in worker_counts:
            print(f"running {name} (workers={w})...")
            rows.append(
                run_scenario(
                    name, processes[name], args.horizon, args.seed, w,
                    args.capacity, transport=args.transport,
                )
            )

    print("\nload scenarios (virtual-clock SLO against the 75 ms budget)")
    print(f"{'scenario':>10}{'wrk':>5}{'tpt':>6}{'sessions':>10}{'rej%':>7}"
          f"{'drop%':>7}{'p50':>8}{'p99':>9}{'goodput':>10}{'offered':>10}"
          f"{'catchups':>10}{'ended':>7}")
    for row in rows:
        slo = row["slo"]
        s, f, t = slo["sessions"], slo["frames"], slo["throughput"]
        engine = slo["context"]["engine"]
        print(f"{row['scenario']:>10}{row['workers']:>5}"
              f"{row['transport']:>6}"
              f"{s['arrived']:>10}"
              f"{100 * s['rejection_rate']:>6.1f}%"
              f"{100 * f['drop_rate']:>6.1f}%"
              f"{slo['latency']['p50_ms']:>8.1f}"
              f"{slo['latency']['p99_ms']:>9.1f}"
              f"{t['goodput_fps']:>10.1f}{t['offered_fps']:>10.1f}"
              f"{engine['catchups']:>10}{engine['catchups_ended']:>7}")

    payload = {
        "horizon_s": args.horizon,
        "seed": args.seed,
        "capacity_frames_per_step": args.capacity,
        "memory_budget_mb": MEMORY_BUDGET_MB,
        "queue_capacity": QUEUE_CAPACITY,
        "cpu_count": os.cpu_count(),
        "scenarios": rows,
    }
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")

    # The artifact is useful only if the regime is real: under the flash
    # crowd the governor (or queue bound) must actually have refused
    # something, and every in-process run must stay deterministic in its
    # virtual-clock numbers (pinned harder by tests/test_loadgen.py).
    # The flash crowd is also the only traffic outside the unit suite
    # whose stragglers go into catch-up, so every flash row must show
    # at least one.
    flash_rows = [r for r in rows if r["scenario"] == "flash"]
    pressured = all(
        r["slo"]["sessions"]["rejected"] > 0
        or r["slo"]["frames"]["dropped"] > 0
        for r in flash_rows
    )
    if not pressured:
        print("WARNING: flash crowd produced no rejections or drops — "
              "overload regime not reached")
    caught_up = all(
        r["slo"]["context"]["engine"]["catchups"] > 0 for r in flash_rows
    )
    if not caught_up:
        print("WARNING: a flash-crowd row put no session into catch-up — "
              "the straggler path did not run")
    # Both tiers run one scheduling policy, so a distributed row makes
    # the in-process row's decisions: same admissions, drops, latencies
    # and catch-ups.
    inproc = {r["scenario"]: r["slo"] for r in rows if not r["workers"]}
    tier_equal = True
    for row in rows:
        if row["workers"]:
            diff = tier_differences(inproc[row["scenario"]], row["slo"])
            if diff:
                tier_equal = False
                print(f"WARNING: {row['scenario']} on {row['workers']} "
                      f"shards differs from in process in {len(diff)} "
                      f"slo fields: {', '.join(diff[:8])}")
    return 0 if pressured and caught_up and tier_equal else 1


if __name__ == "__main__":
    sys.exit(main())
