"""Command-line interface: run the paper's experiments from a shell.

Examples:
    python -m repro track --duration 15 --seed 3
    python -m repro stream --duration 30 --seed 3
    python -m repro multi --people 2 --duration 12
    python -m repro fig8 --through-wall --workers 4
    python -m repro fig9
    python -m repro fall-table
    python -m repro pointing --trials 8
    python -m repro bench --workers 4 --duration 30
    python -m repro serve --synthetic --sessions 8 --duration 10
    python -m repro load --process flash --memory-budget-mb 256
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from .apps.realtime import RealtimeTracker
from .config import default_config
from .eval import figures
from .eval.harness import (
    ExperimentScale,
    TrackingExperiment,
    run_multi_tracking_experiment,
    run_pointing_experiment,
    run_tracking_experiment,
)
from .eval.reporting import format_table
from .exec import (
    ExperimentPlan,
    Runner,
    default_runner,
    sharded_speedup_benchmark,
)
from .kernels import (
    StageProfiler,
    backend_name,
    enable_profiling,
    fusion_active,
    synthesis_workers,
)
from .sim.motion import non_colliding_walks, random_walk
from .sim.room import line_of_sight_room, through_wall_room
from .sim.scenario import Scenario


def _scale(args: argparse.Namespace) -> ExperimentScale:
    return ExperimentScale(
        num_experiments=args.experiments,
        duration_s=args.duration,
        name="cli",
    )


def _runner(args: argparse.Namespace) -> Runner:
    """The runner a subcommand fans its experiment plan across."""
    return default_runner(getattr(args, "workers", None))


def cmd_track(args: argparse.Namespace) -> int:
    """One tracking experiment; prints per-dimension accuracy."""
    outcome = run_tracking_experiment(
        TrackingExperiment(
            seed=args.seed,
            through_wall=args.through_wall,
            duration_s=args.duration,
        )
    )
    x, y, z = outcome.summaries()
    print(f"subject: {outcome.body.name}  "
          f"({'through-wall' if args.through_wall else 'line of sight'})")
    rows = [
        [dim, f"{100 * s.median:.1f} cm", f"{100 * s.p90:.1f} cm", s.count]
        for dim, s in zip("xyz", (x, y, z))
    ]
    print(format_table(["dim", "median", "p90", "frames"], rows))
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    """Stream a scenario end to end: lazy synthesis -> realtime pipeline.

    Sweep blocks come from :meth:`Scenario.frames` (bounded memory, so
    ``--duration`` can be arbitrarily long) and go straight into the
    streaming :class:`RealtimeTracker`; per-frame latency is checked
    against the paper's Section 7 budget.
    """
    config = default_config()
    room = through_wall_room() if args.through_wall else line_of_sight_room()
    walk = random_walk(
        room, np.random.default_rng(args.seed), duration_s=args.duration
    )
    scenario = Scenario(walk, room=room, config=config, seed=args.seed + 1)
    tracker = RealtimeTracker(config, range_bin_m=scenario.range_bin_m)

    start = time.perf_counter()
    frames = fixes = 0
    for block in scenario.frames(chunk_frames=args.chunk):
        position = tracker.process_frame(block)
        frames += 1
        if np.all(np.isfinite(position)):
            fixes += 1
    wall_s = time.perf_counter() - start

    latency = tracker.latency
    track_s = sum(latency.latencies_s)
    print(f"frames     : {frames} "
          f"({args.duration:.0f} s scenario, streamed in {wall_s:.2f} s)")
    print(f"fixes      : {fixes} ({100.0 * fixes / max(frames, 1):.0f}%)")
    print(f"latency    : median {1e3 * latency.median_s:.2f} ms  "
          f"p95 {1e3 * latency.p95_s:.2f} ms  "
          f"max {1e3 * latency.max_s:.2f} ms")
    print(f"throughput : {frames / wall_s:.0f} frames/s end-to-end, "
          f"{frames / max(track_s, 1e-9):.0f} frames/s tracking-only")
    budget_ok = latency.within_budget(0.075)
    print(f"75 ms budget (paper Section 7): "
          f"{'MET' if budget_ok else 'EXCEEDED'}")
    return 0 if budget_ok else 1


def cmd_multi(args: argparse.Namespace) -> int:
    """One multi-person tracking experiment; prints per-person accuracy."""
    outcome = run_multi_tracking_experiment(
        num_people=args.people,
        seed=args.seed,
        duration_s=args.duration,
        through_wall=args.through_wall,
        min_separation_m=args.separation,
    )
    mot = outcome.mot
    rows = []
    for p, body in enumerate(outcome.bodies):
        try:
            s = outcome.person_error_summary(p)
            med, p90 = f"{100 * s.median:.1f} cm", f"{100 * s.p90:.1f} cm"
        except ValueError:
            med = p90 = "—"
        matched = int(np.sum(np.isfinite(mot.per_truth_errors[p])))
        rows.append(
            [body.name, med, p90, matched, mot.per_truth_switches[p]]
        )
    print(f"people: {args.people}  "
          f"({'through-wall' if args.through_wall else 'line of sight'})")
    print(format_table(
        ["person", "median", "p90", "matched", "id switches"], rows
    ))
    print(f"MOTA {mot.mota:.3f}  MOTP {100 * mot.motp_m:.1f} cm  "
          f"misses {mot.misses}  false positives {mot.false_positives}  "
          f"OSPA {100 * outcome.ospa_mean_m:.1f} cm")
    return 0


def cmd_fig8(args: argparse.Namespace) -> int:
    """Fig. 8: per-dimension error CDF summaries."""
    data = figures.fig8_error_cdf(
        through_wall=args.through_wall,
        scale=_scale(args),
        runner=_runner(args),
    )
    rows = [
        [dim, f"{100 * s.median:.1f} cm", f"{100 * s.p90:.1f} cm"]
        for dim, s in zip(
            "xyz", (data.summary_x, data.summary_y, data.summary_z)
        )
    ]
    print(format_table(["dim", "median", "p90"], rows))
    return 0


def cmd_fig9(args: argparse.Namespace) -> int:
    """Fig. 9: error vs distance."""
    data = figures.fig9_error_vs_distance(
        scale=_scale(args), runner=_runner(args)
    )
    rows = [
        [f"{d:.0f} m"]
        + [f"{data.median_cm[i, a]:.1f}" for a in range(3)]
        for i, d in enumerate(data.distances_m)
    ]
    print(format_table(["distance", "x med (cm)", "y med", "z med"], rows))
    return 0


def cmd_fig10(args: argparse.Namespace) -> int:
    """Fig. 10: error vs antenna separation."""
    data = figures.fig10_error_vs_separation(
        scale=_scale(args), runner=_runner(args)
    )
    rows = [
        [f"{s:.2f} m"]
        + [f"{data.median_cm[i, a]:.1f}" for a in range(3)]
        for i, s in enumerate(data.separations_m)
    ]
    print(format_table(["separation", "x med (cm)", "y med", "z med"], rows))
    return 0


def cmd_fall_table(args: argparse.Namespace) -> int:
    """Section 9.5: fall-detection scores."""
    data = figures.fall_detection_table(
        scale=_scale(args), runner=_runner(args)
    )
    s = data.scores
    print(f"runs/activity: {data.per_activity_runs}")
    print(f"precision {100 * s.precision:.1f}%  "
          f"recall {100 * s.recall:.1f}%  F {100 * s.f_measure:.1f}%")
    return 0


def cmd_pointing(args: argparse.Namespace) -> int:
    """Fig. 11: pointing-direction errors."""
    plan = ExperimentPlan.from_grid(
        run_pointing_experiment,
        [{"seed": seed} for seed in range(args.trials)],
        name="pointing",
    )
    arr = np.asarray([o.error_deg for o in _runner(args).run(plan)])
    finite = arr[np.isfinite(arr)]
    print(f"detected : {len(finite)}/{len(arr)}")
    if finite.size:
        print(f"median   : {np.median(finite):.1f} deg")
        print(f"p90      : {np.percentile(finite, 90):.1f} deg")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Sharded-execution benchmark: one long stream fanned over workers.

    Synthesizes + tracks the same session twice through the same shard
    plan — serially and across ``--workers`` processes — verifies the
    merged results are identical, and reports frames/sec and speedup.
    """
    workers = max(args.workers, 1)
    if getattr(args, "profile", False):
        # Flip both switches: the module global covers this process,
        # the env var covers spawned shard workers.
        os.environ["REPRO_PROFILE"] = "1"
        enable_profiling()
    room = through_wall_room()
    walk = random_walk(
        room, np.random.default_rng(args.seed), duration_s=args.duration
    )
    scenario = Scenario(walk, room=room, seed=args.seed + 1)
    result = sharded_speedup_benchmark(
        scenario, workers=workers, num_shards=args.shards
    )
    result["duration_s"] = args.duration
    # The configuration this measurement ran under.
    result["cpu_count"] = os.cpu_count()
    result["synthesis_workers"] = synthesis_workers()
    result["backend"] = backend_name()
    result["fused"] = fusion_active()

    print(f"session    : {args.duration:.0f} s "
          f"({scenario.num_stream_frames} frames), "
          f"{result['num_shards']} shards, {workers} workers")
    print(f"serial     : {result['serial_s']:7.2f} s  "
          f"({result['serial_fps']:6.0f} frames/s)")
    print(f"sharded    : {result['sharded_s']:7.2f} s  "
          f"({result['sharded_fps']:6.0f} frames/s)")
    print(f"speedup    : {result['speedup']:.2f}x")
    print(f"identical  : "
          f"{'yes' if result['identical'] else 'NO — determinism bug'}")
    if result.get("stage_profile"):
        profiler = StageProfiler()
        profiler.merge(result["stage_profile"])
        print("\nper-stage profile (serial leg):")
        print(profiler.table())

    if args.output is not None:
        args.output.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0 if result["identical"] else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve M concurrent synthetic sessions through one engine.

    Each session is an independent synthetic stream — single-person
    sessions synthesize lazily via :meth:`Scenario.frames`, and every
    ``--multi-every``-th session is a 2-person stream — all multiplexed
    through one :class:`~repro.serve.ServingEngine`. Sessions join with
    staggered starts (``--stagger`` frames apart) and leave when their
    stream ends, so admission, cohort batching, lockstep ticking, and
    slot eviction all run in one command. With ``--workers N`` the
    engine shards its cohorts across N long-lived worker processes —
    same results, more cores.
    """
    from .multi import MultiScenario
    from .serve import ServingEngine, multi_session, single_session
    from .sim.body import HumanBody
    from .sim.cohort import CohortFrameSource

    config = default_config()
    room = through_wall_room() if args.through_wall else line_of_sight_room()
    spf = config.pipeline.sweeps_per_frame

    streams: list[tuple[str, object]] = []
    single_slots: list[int] = []
    single_scenarios: list[Scenario] = []
    for i in range(args.sessions):
        rng = np.random.default_rng(args.seed + 17 * i)
        is_multi = args.multi_every > 0 and (i + 1) % args.multi_every == 0
        if is_multi:
            walks = non_colliding_walks(
                room, rng, count=2, duration_s=args.duration,
                min_separation_m=1.0,
            )
            people = [(HumanBody(name=f"s{i}p{j}"), w)
                      for j, w in enumerate(walks)]
            out = MultiScenario(
                people, room=room, config=config, seed=args.seed + 17 * i + 1
            ).run()
            blocks = iter(
                [out.spectra[:, f * spf : (f + 1) * spf, :]
                 for f in range(out.num_sweeps // spf)]
            )
            streams.append(("multi", blocks))
        else:
            walk = random_walk(room, rng, duration_s=args.duration)
            scenario = Scenario(
                walk, room=room, config=config, seed=args.seed + 17 * i + 1
            )
            single_slots.append(i)
            single_scenarios.append(scenario)
            streams.append(("single", None))  # filled from the cohort source
    if single_scenarios:
        # All single-person sessions synthesize through ONE fused
        # kernel call per chunk (the kernel-tier batch path) instead of
        # N independent frames() generators.
        source = CohortFrameSource(
            single_scenarios, chunk_frames=args.chunk
        )
        for i, stream in zip(single_slots, source.session_streams()):
            streams[i] = ("single", stream)

    from .rf.fmcw import range_axis

    range_bin_m = float(range_axis(config.fmcw).round_trip_per_bin_m)
    specs = {
        "single": single_session(config, range_bin_m),
        "multi": multi_session(config, range_bin_m, max_people=2, room=room),
    }

    def session_report(i: int, session, result) -> dict:
        latency = result.latency
        return {
            "session": i,
            "kind": streams[i][0],
            "frames": int(session.frames_in),
            "emitted": int(result.num_frames),
            "median_latency_ms": 1e3 * latency.median_s,
            "p95_latency_ms": 1e3 * latency.p95_s,
            "p99_latency_ms": 1e3 * latency.p99_s,
            "within_75ms": latency.within_budget(0.075),
        }

    workers = args.workers if args.workers is not None else 0
    live: dict[int, tuple[object, object]] = {}  # index -> (session, stream)
    reports = []
    interrupted = False
    start = time.perf_counter()
    # Context-managed so the shard WorkerPool is torn down on ANY exit —
    # a Ctrl-C mid-run must not leak N forked worker processes (or, under
    # the shm transport, their /dev/shm arenas).
    with ServingEngine(
        queue_capacity=args.queue, workers=workers, transport=args.transport
    ) as engine:
        try:
            step = 0
            while len(reports) < len(streams):
                # Staggered admission: session i joins at step i*stagger.
                for i, (kind, stream) in enumerate(streams):
                    if i not in live and i * args.stagger <= step and not any(
                        r["session"] == i for r in reports
                    ):
                        live[i] = (engine.admit(specs[kind]), stream)
                finished = []
                for i, (session, stream) in live.items():
                    block = next(stream, None)
                    if block is None:
                        finished.append(i)
                    else:
                        engine.submit(session, block)
                engine.tick()
                for i in finished:
                    session, _ = live.pop(i)
                    reports.append(session_report(i, session, engine.close(session)))
                step += 1
        except KeyboardInterrupt:
            # Graceful shutdown: close live sessions (draining their
            # queues) so the summary covers everything served so far.
            interrupted = True
            engine.resync()  # drop any shard response the ^C cut short
            try:
                for i in sorted(live):
                    session, _ = live.pop(i)
                    reports.append(
                        session_report(i, session, engine.close(session))
                    )
            except Exception:
                # Shard workers ignore SIGINT, but if the tier died
                # anyway (SIGKILL, crash) a partial summary still beats
                # a traceback.
                pass
        wall_s = time.perf_counter() - start
        shard_report = (
            engine.scheduler.shard_report() if engine.distributed else None
        )
        stage_profile = engine.stage_profile().as_dict() or None

    reports.sort(key=lambda r: r["session"])
    total_frames = sum(r["frames"] for r in reports)
    rows = [
        [r["session"], r["kind"], r["frames"],
         f"{r['median_latency_ms']:.2f} ms", f"{r['p95_latency_ms']:.2f} ms",
         f"{r['p99_latency_ms']:.2f} ms",
         "yes" if r["within_75ms"] else "NO"]
        for r in reports
    ]
    mode = (f"{engine.workers} shard workers, {engine.transport} transport"
            if engine.distributed else "in-process")
    if interrupted:
        print("interrupted — shard workers stopped, partial summary:")
    print(f"served {len(reports)} sessions "
          f"({total_frames} frames) in {wall_s:.2f} s "
          f"({total_frames / wall_s:.0f} frames/s aggregate, {mode})")
    print(format_table(
        ["session", "kind", "frames", "median", "p95", "p99", "<75ms"], rows
    ))
    if shard_report is not None:
        for entry in shard_report:
            overflow = (f"  overflows {entry['arena_overflows']}"
                        if entry["arena_overflows"] else "")
            print(f"shard {entry['shard']}: {entry['steps']} steps  "
                  f"tick p95 {entry['tick_p95_ms']:.2f} ms  "
                  f"p99 {entry['tick_p99_ms']:.2f} ms  "
                  f"ipc {entry['ipc_overhead_mean_ms']:.2f} ms  "
                  f"shm {entry['bytes_shm'] / 1e6:.1f} MB  "
                  f"pickled {entry['bytes_pickled'] / 1e6:.1f} MB  "
                  f"({entry['descriptor_rounds']} rounds){overflow}"
                  f"{'  EXCLUDED' if entry['excluded'] else ''}")
    if stage_profile is not None:
        profiler = StageProfiler()
        profiler.merge(stage_profile)
        print("\nper-stage profile:")
        print(profiler.table())
    all_within = all(r["within_75ms"] for r in reports)
    print(f"75 ms budget (paper Section 7): "
          f"{'MET by every session' if all_within else 'EXCEEDED'}")
    if args.output is not None:
        payload = {
            "sessions": len(reports),
            "workers": engine.workers,
            "transport": engine.transport,
            "duration_s": args.duration,
            "wall_s": wall_s,
            "aggregate_fps": total_frames / wall_s,
            "per_session": reports,
        }
        if shard_report is not None:
            payload["shards"] = shard_report
        if stage_profile is not None:
            payload["stage_profile"] = stage_profile
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")
    if interrupted:
        return 130
    return 0 if all_within else 1


def cmd_load(args: argparse.Namespace) -> int:
    """Open-loop load run: seeded arrivals -> harness -> SLO artifact.

    Where ``repro serve`` is closed-loop (the driver waits for the
    engine), this is the production-shaped regime: sessions arrive by a
    seeded arrival process, stream frames on their own clock, and leave;
    the engine serves under a per-step capacity, so offered load above
    capacity produces real queueing, drops, and — with a memory budget —
    admission rejections. Everything is accounted on a virtual clock,
    so the same seed yields a byte-identical SLO JSON.
    """
    from .loadgen import (
        LoadHarness,
        MemoryGovernor,
        SpecMemoryModel,
        arrival_process,
        build_workload,
    )
    from .rf.fmcw import range_axis
    from .serve import ServingEngine, multi_session, single_session

    config = default_config()
    range_bin_m = float(range_axis(config.fmcw).round_trip_per_bin_m)
    frame_dt_s = (
        config.pipeline.sweeps_per_frame * config.fmcw.sweep_duration_s
    )

    if args.process == "poisson":
        process = arrival_process("poisson", rate_hz=args.rate)
    elif args.process == "diurnal":
        process = arrival_process(
            "diurnal", base_rate_hz=args.rate, period_s=args.period
        )
    else:
        process = arrival_process(
            "flash",
            base_rate_hz=args.rate,
            flash_rate_hz=args.flash_rate,
            flash_start_s=args.flash_start,
            flash_duration_s=args.flash_duration,
        )
    mix = {"single": max(1.0 - args.multi_frac, 0.0)}
    if args.multi_frac > 0:
        mix["multi"] = args.multi_frac
    workload = build_workload(
        process,
        horizon_s=args.horizon,
        frame_dt_s=frame_dt_s,
        seed=args.seed,
        lifetime_mean_s=args.lifetime,
        mix=mix,
    )
    specs = {
        "single": single_session(config, range_bin_m),
        "multi": multi_session(config, range_bin_m, max_people=2),
    }

    workers = args.workers if args.workers is not None else 0
    model = admission = shard_budget = None
    budgets = []
    if args.memory_budget_mb is not None:
        model = SpecMemoryModel(queue_capacity=args.queue)
        admission = MemoryGovernor(
            int(args.memory_budget_mb * 1e6), model=model
        )
        budgets.append(admission.budget_bytes)
    if args.shard_budget_mb is not None:
        model = model or SpecMemoryModel(queue_capacity=args.queue)
        shard_budget = int(args.shard_budget_mb * 1e6)
        budgets.append(shard_budget)
    capacity = args.capacity if args.capacity > 0 else None
    arena_bytes = None
    if workers and model is not None:
        # Size the shm arenas from the same model that governs
        # admission (declared bytes, no pipeline built): worst-case step
        # payload across the served spec mix, before any worker exists.
        # The engine's budget bounds a shard's sessions as its own does.
        arena_bytes = max(
            model.arena_estimate(spec, min(budgets))
            for spec in specs.values()
        )

    start = time.perf_counter()
    with ServingEngine(
        queue_capacity=args.queue,
        workers=workers,
        admission=admission,
        memory_model=model,
        shard_budget_bytes=shard_budget,
        transport=args.transport,
        arena_bytes=arena_bytes,
    ) as engine:
        harness = LoadHarness(
            engine,
            workload,
            specs,
            capacity_frames_per_step=capacity,
            budget_s=args.budget_ms / 1e3,
        )
        report = harness.run()
    wall_s = time.perf_counter() - start

    s, f, t = report["sessions"], report["frames"], report["throughput"]
    lat = report["latency"]
    print(f"workload   : {workload.describe()}")
    print(f"sessions   : {s['arrived']} arrived, {s['admitted']} admitted, "
          f"{s['rejected']} rejected "
          f"({100 * s['rejection_rate']:.1f}%), {s['completed']} completed")
    print(f"frames     : {f['offered']} offered, {f['consumed']} consumed, "
          f"{f['dropped']} dropped ({100 * f['drop_rate']:.1f}%)")
    print(f"latency    : p50 {lat['p50_ms']:.1f} ms  "
          f"p95 {lat['p95_ms']:.1f} ms  p99 {lat['p99_ms']:.1f} ms  "
          f"(virtual, {report['step_dt_ms']:.1f} ms steps)")
    print(f"goodput    : {t['goodput_fps']:.1f} frames/s within the "
          f"{report['budget_ms']:.0f} ms budget "
          f"vs {t['offered_fps']:.1f} offered "
          f"({100 * report['within_budget_fraction']:.1f}% "
          f"of consumed frames in budget)")
    memory = report["context"].get("memory")
    if memory is not None:
        print(f"memory     : peak {memory['peak_committed_bytes'] / 1e6:.1f} "
              f"/ {memory['budget_bytes'] / 1e6:.0f} MB committed, "
              f"{memory['rejections']} budget rejections")
    transport_stats = report["context"].get("transport")
    if transport_stats is not None:
        print(f"transport  : {transport_stats['transport']}, "
              f"{transport_stats['bytes_shm'] / 1e6:.1f} MB shm / "
              f"{transport_stats['bytes_pickled'] / 1e6:.1f} MB pickled "
              f"({transport_stats['descriptor_rounds']} rounds, "
              f"{transport_stats['arena_overflows']} overflows)")
    print(f"wall clock : {wall_s:.2f} s "
          f"({report['steps']} virtual steps, "
          f"{'in-process' if not workers else f'{workers} shard workers'})")
    if args.output is not None:
        args.output.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WiTrack reproduction: run the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def workers_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=None,
                       help="process-pool size for the experiment plan "
                            "(default: REPRO_WORKERS, else serial)")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--experiments", type=int, default=4,
                       help="experiments per configuration point")
        p.add_argument("--duration", type=float, default=12.0,
                       help="seconds per experiment")
        workers_flag(p)

    p = sub.add_parser("track", help="one tracking experiment")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=15.0)
    p.add_argument("--line-of-sight", dest="through_wall",
                   action="store_false", default=True)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser(
        "stream", help="stream a scenario through the realtime pipeline"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=30.0,
                   help="seconds to synthesize and stream (memory-bounded)")
    p.add_argument("--chunk", type=int, default=256,
                   help="frames synthesized per chunk")
    p.add_argument("--line-of-sight", dest="through_wall",
                   action="store_false", default=True)
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("multi", help="multi-person tracking experiment")
    p.add_argument("--people", type=int, default=2,
                   help="number of concurrent walkers (K)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=12.0)
    p.add_argument("--separation", type=float, default=1.0,
                   help="guaranteed minimum inter-person distance (m)")
    p.add_argument("--line-of-sight", dest="through_wall",
                   action="store_false", default=True)
    p.set_defaults(func=cmd_multi)

    p = sub.add_parser("fig8", help="error CDFs (Fig. 8)")
    common(p)
    p.add_argument("--line-of-sight", dest="through_wall",
                   action="store_false", default=True)
    p.set_defaults(func=cmd_fig8)

    p = sub.add_parser("fig9", help="error vs distance (Fig. 9)")
    common(p)
    p.set_defaults(func=cmd_fig9)

    p = sub.add_parser("fig10", help="error vs separation (Fig. 10)")
    common(p)
    p.set_defaults(func=cmd_fig10)

    p = sub.add_parser("fall-table", help="fall detection (Section 9.5)")
    common(p)
    p.set_defaults(func=cmd_fall_table)

    p = sub.add_parser("pointing", help="pointing errors (Fig. 11)")
    p.add_argument("--trials", type=int, default=6)
    workers_flag(p)
    p.set_defaults(func=cmd_pointing)

    p = sub.add_parser(
        "serve",
        help="multiplex M concurrent synthetic sessions through one engine",
    )
    p.add_argument("--synthetic", action="store_true", default=True,
                   help="drive synthetic Scenario streams (the only "
                        "source available; accepted for explicitness)")
    p.add_argument("--sessions", type=int, default=8,
                   help="concurrent sessions to serve")
    p.add_argument("--duration", type=float, default=10.0,
                   help="seconds of scenario per session")
    p.add_argument("--multi-every", type=int, default=4,
                   help="every Nth session is a 2-person stream "
                        "(0 disables; exercises heterogeneous cohorts)")
    p.add_argument("--stagger", type=int, default=16,
                   help="frames between successive session admissions")
    p.add_argument("--queue", type=int, default=8,
                   help="per-session input queue bound (backpressure)")
    p.add_argument("--workers", type=int, default=None,
                   help="shard worker processes for the serving tier "
                        "(default: in-process; N>=1 distributes cohorts "
                        "across N long-lived workers)")
    p.add_argument("--transport", choices=["pipe", "shm"], default=None,
                   help="shard IPC data plane (default: REPRO_TRANSPORT "
                        "or pipe; shm moves bulk arrays through "
                        "shared-memory arenas)")
    p.add_argument("--chunk", type=int, default=128,
                   help="frames synthesized per chunk (single-person)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--line-of-sight", dest="through_wall",
                   action="store_false", default=True)
    p.add_argument("--output", type=Path, default=None,
                   help="write the JSON serving report here")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "load",
        help="open-loop traffic load run with SLO accounting",
    )
    p.add_argument("--process", choices=["poisson", "diurnal", "flash"],
                   default="poisson",
                   help="session arrival process shape")
    p.add_argument("--rate", type=float, default=2.0,
                   help="baseline session arrivals per second")
    p.add_argument("--period", type=float, default=20.0,
                   help="diurnal cycle length in seconds")
    p.add_argument("--flash-rate", type=float, default=16.0,
                   help="flash-crowd plateau arrivals per second")
    p.add_argument("--flash-start", type=float, default=2.0,
                   help="seconds until the flash crowd's up-ramp")
    p.add_argument("--flash-duration", type=float, default=2.0,
                   help="flash plateau length in seconds")
    p.add_argument("--horizon", type=float, default=8.0,
                   help="arrival-generation window in seconds")
    p.add_argument("--lifetime", type=float, default=2.0,
                   help="mean session lifetime in seconds (lognormal)")
    p.add_argument("--multi-frac", type=float, default=0.2,
                   help="fraction of sessions that are 2-person streams")
    p.add_argument("--capacity", type=int, default=12,
                   help="frames the engine may serve per 12.5 ms step "
                        "(the overload knob; 0 = unbounded)")
    p.add_argument("--queue", type=int, default=16,
                   help="per-session input queue bound (backpressure)")
    p.add_argument("--budget-ms", type=float, default=75.0,
                   help="latency SLO in milliseconds (paper Section 7)")
    p.add_argument("--memory-budget-mb", type=float, default=None,
                   help="arm memory-governed admission with this total "
                        "budget (default: no admission gate)")
    p.add_argument("--shard-budget-mb", type=float, default=None,
                   help="per-shard predicted-memory cap (workers >= 1)")
    p.add_argument("--workers", type=int, default=None,
                   help="shard worker processes (default: in-process)")
    p.add_argument("--transport", choices=["pipe", "shm"], default=None,
                   help="shard IPC data plane (default: REPRO_TRANSPORT "
                        "or pipe); arenas are sized by the memory model "
                        "when --memory-budget-mb/--shard-budget-mb arm it")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", type=Path, default=None,
                   help="write the SLO JSON artifact here")
    p.set_defaults(func=cmd_load)

    p = sub.add_parser(
        "bench",
        help="sharded-execution benchmark (serial vs process pool)",
    )
    p.add_argument("--workers", type=int, default=2,
                   help="process-pool size for the sharded run")
    p.add_argument("--shards", type=int, default=None,
                   help="shard count (default: one per worker); "
                        "must be >= 1")
    p.add_argument("--duration", type=float, default=30.0,
                   help="seconds of scenario to synthesize and track")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", action="store_true",
                   help="time each pipeline stage (adds a per-stage "
                        "table and a stage_profile JSON field)")
    p.add_argument("--output", type=Path, default=None,
                   help="write the JSON result here")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
