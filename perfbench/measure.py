"""One benchmark run: inputs, timed set-up, passes, checks, metrics.

:func:`run_benchmark` is the whole run behind ``perfbench/run.py``. It
returns the result line (``correct``, ``attempted``, ``failed``,
``metrics``) plus a stamped artifact holding the run's inputs, resolved
configuration and outputs.

End-to-end metrics come from untraced passes only, each preceded by a
replica of the host probe (:mod:`perfbench.hostspeed`). With ``trace``
the run alternates untraced and traced passes over the same seconds:
the traced ones give the per-layer metrics, and the ratio of the two
sides' frames/s (:func:`floor_fps`) is ``trace_overhead``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

from . import trace as tracing
from .hostspeed import HostProbe
from .workloads import SIZES, WHY, WORKLOADS, pinned_configuration

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Default seed, and the held-out seed a claimed gain must also hold on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("fps", "1/s"),
    ("frame_p50_ms", "ms"),
    ("frame_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_alloc_mb", "MB"),
)


def traced_peak_mb(run) -> tuple[object, float]:
    """``run()`` under tracemalloc; its result and peak allocation in MB.

    The peak counts every Python object and numpy buffer allocated
    during the call and not yet freed, above what was live before it.
    Unlike resident memory it does not depend on allocator reuse or on
    what other passes left behind, so identical passes read the same.
    """
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


def source_stamp() -> dict:
    """The measured code: git commit + dirty flag, and a content digest.

    The commit is read only when the checkout root is itself a git work
    tree; a plain export has none, and the digest of ``src/`` plus the
    benchmark's own files identifies the code either way.
    """
    h = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/**/*.py"),
                        *ROOT.glob("perfbench/*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    stamp = {"commit": None, "dirty": None, "digest": h.hexdigest()[:20]}

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=20, check=True,
        ).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() == ROOT:
            stamp["commit"] = git("rev-parse", "HEAD")
            stamp["dirty"] = bool(git("status", "--porcelain"))
    except (OSError, subprocess.SubprocessError):
        pass
    return stamp


def floors(passes) -> tuple[np.ndarray, np.ndarray]:
    """Per-interval and per-frame minima across passes of equal inputs.

    Every pass serves the same frames through the same sequence of
    ticks, so tick interval *i* and frame *j* of one pass are replicas of
    those of every other pass. Interference from other processes only
    ever adds time, so the elementwise minimum over the replicas is each
    interval's and each frame's own cost with the interference removed;
    a change to the code moves every replica, and so the minimum too.

    Returns:
        ``(intervals_s, latencies_s)``: the floor of every time between
        consecutive marks, and of every frame's latency.
    """
    intervals = np.min([np.diff(p.marks) for p in passes], axis=0)
    latencies = np.min([p.latencies_s for p in passes], axis=0)
    return intervals, latencies


def floor_fps(passes) -> float:
    """Frames per pass over the sum of the per-interval floors."""
    intervals, _ = floors(passes)
    return passes[0].served / float(intervals.sum())


def end_to_end_metrics(passes, setup_s, peak_mb, probe) -> dict:
    """End-to-end metrics over the untraced timed passes (see
    :func:`floors`); set-up time is the median of its repeats.

    Every timing is divided by the host's slowdown (see
    :mod:`perfbench.hostspeed`), which puts it in the time of the
    reference host: the floors by the probe's floor, the set-up median
    by the probe's median, so that each is compared with a statistic
    of its own kind taken over the same moments.
    """
    _, latencies = floors(passes)
    ms = 1e3 / probe.slowdown()
    return {
        "fps": floor_fps(passes) * probe.slowdown(),
        "frame_p50_ms": ms * float(np.percentile(latencies, 50)),
        "frame_p99_ms": ms * float(np.percentile(latencies, 99)),
        "setup_s": float(np.median(setup_s)) / probe.typical_slowdown(),
        "peak_alloc_mb": peak_mb,
    }


def _engine_counters(engine) -> dict:
    scheduler = engine.scheduler
    out = {"ticks": scheduler.ticks}
    stats = engine.transport_stats()
    if stats is not None:
        out["transport"] = {
            k: stats[k] for k in ("bytes_shm", "bytes_pickled",
                                  "descriptor_rounds", "arena_overflows")
        }
        out["shard_steps"] = {
            shard: len(s.tick_s) for shard, s in scheduler.shard_stats.items()
        }
    return out


def run_benchmark(
    workload: str,
    seed: int = DEFAULT_SEED,
    seconds: float = 10.0,
    trace: bool = False,
    size: str = "default",
    out_dir: Path | None = OUT_DIR,
) -> tuple[dict, dict]:
    """Run one workload; return ``(result line, artifact)``.

    Writes the artifact (and, traced, the spans) under ``out_dir``
    unless it is None.
    """
    if workload not in WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}"
        )
    with pinned_configuration() as overridden:
        return _run(workload, seed, seconds, trace, SIZES[size], size,
                    overridden, out_dir)


def timed_passes(seconds: float, pass_s: float, trace: bool) -> int:
    """Timed passes of a run (traced: untraced/traced pairs).

    The count follows from ``--seconds`` and the workload's nominal
    pass length alone, never from how fast the measured code runs, so
    every commit takes its floors over the same number of replicas.
    """
    return max(1, round(seconds / (pass_s * (2 if trace else 1))))


def _run(name, seed, seconds, trace, size, size_name, overridden, out_dir):
    wl = WORKLOADS[name](seed, size)
    t0 = perf_counter()
    wl.build_inputs()
    inputs_s = perf_counter() - t0

    setup_s, engine = [], None
    tracer = tracing.Tracer() if trace else None
    instrumentation = tracing.Instrumentation(tracer) if trace else None
    untraced, traced = [], []
    probe = HostProbe()
    counters = {"frames": 0, "ticks": 0, "shard_tick_s": [],
                "shard_round_trip_s": [], "transport": None}
    try:
        engine = wl.release(wl.setup())
        reference, peak_mb, memory = wl.run_pass(engine), None, None
        if not trace:
            # What the engine adds: a prefix pass's peak less the peak
            # of drawing the same inputs with no engine.
            prefix = size["prefix_frames"]
            memory, peak_mb = traced_peak_mb(
                lambda: wl.run_pass(engine, n_frames=prefix)
            )
            memory.results = []
            peak_mb -= traced_peak_mb(lambda: wl.drain_inputs(prefix))[1]
        setups = 0 if trace else size.get("setups_per_pass",
                                          wl.setups_per_pass)
        for _ in range(timed_passes(seconds, wl.pass_s, trace)):
            # Set-ups of throwaway engines, spread over the run like
            # the passes; the probe replica sits next to both.
            for _ in range(setups):
                t0 = perf_counter()
                state = wl.setup()
                setup_s.append(perf_counter() - t0)
                wl.release(state).shutdown()
            probe.run()
            p = wl.run_pass(engine)
            p.results = []  # only the warm-up pass's outputs are scored
            untraced.append(p)
            if trace:
                before = _engine_counters(engine)
                try:
                    instrumentation.install()
                    root = tracer.begin(tracing.ROOT)
                    p = wl.run_pass(engine, tracer)
                    tracer.end(root)
                finally:
                    instrumentation.remove()
                _accumulate(counters, before, _engine_counters(engine),
                            engine, p)
                p.results = []
                traced.append(p)
        outcome = wl.checks(engine, reference)
        config = wl.stamp(engine)
    finally:
        if engine is not None:
            engine.shutdown()

    timed = untraced + traced
    checks = dict(outcome.pop("checks"))
    checks["frames_accounted"] = all(
        p.accounted for p in [reference, memory, *timed] if p is not None
    )
    checks["digest_stable_across_passes"] = all(
        p.digest == reference.digest for p in timed
    )

    if trace:
        stats = tracing.SpanStats(tracer)
        counters["untraced_fps"] = floor_fps(untraced)
        counters["traced_fps"] = floor_fps(traced)
        raw = tracing.layer_metrics(stats, counters)
        checks["unattributed_share<=%.2f" % tracing.MAX_UNATTRIBUTED] = (
            raw["unattributed_share"][0] <= tracing.MAX_UNATTRIBUTED
        )
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
    else:
        values = end_to_end_metrics(untraced, setup_s, peak_mb, probe)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END
        }
    checks["metrics_finite"] = all(
        np.isfinite(m["value"]) for m in metrics.values()
    )

    attempted = sum(p.offered + p.admits for p in timed)
    failed = sum(p.offered - p.served + p.refused for p in timed)
    correct = all(checks.values()) and failed == 0
    line = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
    artifact = {
        "schema": "perfbench.v1",
        "workload": name,
        "why": WHY[name],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size_name,
        "inputs": {
            "params": wl.params(),
            "digest": wl.inputs_digest(),
            "generation_s": inputs_s,
        },
        "config": {**config, "env_overridden": overridden},
        "host": {
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "source": source_stamp(),
        "outputs": {
            "digest": reference.digest,
            **outcome,
            "checks": checks,
            "passes": {
                "untraced": len(untraced),
                "traced": len(traced),
                "frames": sum(p.served for p in untraced),
                "latency_samples": int(
                    sum(len(p.latencies_s) for p in untraced)
                ),
                "setup_runs": len(setup_s),
                "host_probe_floor_s": probe.floor_s(),
                "host_slowdown": probe.slowdown(),
                "host_typical_slowdown": probe.typical_slowdown(),
                "fps_per_pass": [p.served / p.wall_s for p in untraced],
                "frames_per_pass": reference.served,
                "p50_ms_per_pass": [
                    1e3 * float(np.percentile(p.latencies_s, 50))
                    for p in untraced
                ],
                "p99_ms_per_pass": [
                    1e3 * float(np.percentile(p.latencies_s, 99))
                    for p in untraced
                ],
            },
        },
        "result": line,
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{name}-seed{seed}" + ("-trace" if trace else "")
        (out_dir / f"{stem}.json").write_text(
            json.dumps(artifact, indent=2, sort_keys=True) + "\n"
        )
        if trace:
            tracer.write(out_dir / f"{stem}.spans.json")
    return line, artifact


def _accumulate(counters, before, after, engine, p) -> None:
    counters["frames"] += p.served
    counters["ticks"] += after["ticks"] - before["ticks"]
    if "transport" not in after:
        return
    delta = {k: after["transport"][k] - before["transport"][k]
             for k in after["transport"]}
    if counters["transport"] is None:
        counters["transport"] = delta
    else:
        for k, v in delta.items():
            counters["transport"][k] += v
    for shard, stats in engine.scheduler.shard_stats.items():
        first = before["shard_steps"][shard]
        counters["shard_tick_s"].extend(stats.tick_s[first:])
        counters["shard_round_trip_s"].extend(stats.round_trip_s[first:])
