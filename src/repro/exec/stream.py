"""Shard one long streaming session across a process pool.

A single :meth:`~repro.sim.scenario.Scenario.frames` stream is
inherently sequential, but its expensive half — sweep synthesis — is
not: the simulator's streaming AR states can be fast-forwarded over a
prefix for almost nothing (``start_frame``), and noise is keyed per
frame. The :class:`ShardedStreamRunner` exploits that: it splits the
session's frame range into contiguous shards, runs each shard through a
*fresh* pipeline (a pipeline-reset boundary, exactly as if the recorder
had been restarted there) started on the session clock
(:meth:`Pipeline.reset(start_frame)
<repro.pipeline.runner.Pipeline.reset>`), and concatenates the
per-shard :class:`~repro.pipeline.runner.PipelineResult`\\ s.

Shard boundaries are part of the *plan*, not of the executor: the same
shard grid produces bitwise-identical merged results whether the shards
run serially or across N workers. Each shard spends its first frame
priming background subtraction (a reset boundary forgets the previous
frame by design), so an S-shard run reports S-1 fewer frames than a
1-shard run — deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..kernels.profile import StageProfiler
from ..pipeline.runner import LatencyReport, PipelineResult
from .plan import ExperimentPlan, WorkItem
from .runners import Runner, default_runner

#: Fewest frames a shard is allowed to hold: one primes background
#: subtraction, one produces output.
MIN_SHARD_FRAMES = 2


@dataclass(frozen=True)
class Shard:
    """One contiguous frame range ``[start_frame, stop_frame)``."""

    start_frame: int
    stop_frame: int

    @property
    def num_frames(self) -> int:
        """Frames the shard spans."""
        return self.stop_frame - self.start_frame


def plan_shards(n_frames: int, num_shards: int) -> tuple[Shard, ...]:
    """Split ``n_frames`` into up to ``num_shards`` contiguous shards.

    Shard sizes differ by at most one frame, and the count is clamped so
    every shard keeps :data:`MIN_SHARD_FRAMES` (a reset boundary costs
    its shard one priming frame; slivers would produce nothing).
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    num_shards = max(1, min(num_shards, n_frames // MIN_SHARD_FRAMES))
    bounds = np.linspace(0, n_frames, num_shards + 1).astype(int)
    return tuple(
        Shard(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])
    )


def track_scenario_shard(
    scenario,
    start_frame: int,
    stop_frame: int,
    chunk_frames: int = 256,
    record_spectra: bool = False,
) -> PipelineResult:
    """Run one shard of a single-person scenario stream (picklable unit).

    Builds the standard single-person pipeline, resets it onto the
    session clock at ``start_frame``, and streams the shard's lazily
    synthesized frames through it.
    """
    from ..core.tracker import WiTrack

    tracker = WiTrack(scenario.config, array=scenario.array)
    pipeline = tracker.pipeline(scenario.range_bin_m)
    pipeline.reset(start_frame=start_frame)
    return pipeline.run_stream(
        scenario.frames(
            chunk_frames=chunk_frames,
            start_frame=start_frame,
            stop_frame=stop_frame,
        ),
        record_spectra=record_spectra,
    )


def merge_results(parts: list[PipelineResult]) -> PipelineResult:
    """Concatenate per-shard results into one session result.

    Array fields are stacked along the frame axis (a field must be
    present in every non-empty part or in none); per-shard latency
    reports pool into one.
    """
    parts = [p for p in parts if p.num_frames > 0]
    if not parts:
        return PipelineResult(frame_times_s=np.asarray([]))

    def cat(name: str) -> np.ndarray | None:
        arrays = [getattr(p, name) for p in parts]
        present = [a for a in arrays if a is not None]
        if not present:
            return None
        if len(present) != len(arrays):
            raise ValueError(f"field {name!r} present in only some shards")
        return np.concatenate(present, axis=0)

    tracks: list | None = None
    if any(p.tracks is not None for p in parts):
        tracks = []
        for p in parts:
            tracks.extend(p.tracks or [])
    latency = None
    if any(p.latency is not None for p in parts):
        latency = LatencyReport()
        for p in parts:
            if p.latency is not None:
                latency.latencies_s.extend(p.latency.latencies_s)
    stage_profile = None
    if any(p.stage_profile is not None for p in parts):
        merged = StageProfiler()
        for p in parts:
            if p.stage_profile is not None:
                merged.merge(p.stage_profile)
        stage_profile = merged.as_dict()
    return PipelineResult(
        frame_times_s=np.concatenate([p.frame_times_s for p in parts]),
        tof_m=cat("tof_m"),
        raw_tof_m=cat("raw_tof_m"),
        motion=cat("motion"),
        positions=cat("positions"),
        tracks=tracks,
        coasting=cat("coasting"),
        subtracted=cat("subtracted"),
        latency=latency,
        stage_profile=stage_profile,
    )


class ShardedStreamRunner:
    """Fan one scenario's frame stream across workers, shard by shard.

    Args:
        num_shards: shard count; ``None`` matches the worker count.
        max_workers: pool size; ``None`` reads ``REPRO_WORKERS``. One
            worker executes the same shard plan serially — bitwise the
            same merged result, which the equivalence tests pin.
        chunk_frames: synthesis chunk size inside each shard.
        record_spectra: keep subtracted spectra in the merged result.
    """

    def __init__(
        self,
        num_shards: int | None = None,
        max_workers: int | None = None,
        chunk_frames: int = 256,
        record_spectra: bool = False,
    ) -> None:
        if num_shards is not None and num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.runner: Runner = default_runner(max_workers)
        workers = getattr(self.runner, "max_workers", 1)
        self.num_shards = num_shards if num_shards is not None else workers
        self.chunk_frames = chunk_frames
        self.record_spectra = record_spectra

    def plan_for(self, scenario) -> ExperimentPlan:
        """The shard plan this runner would execute for ``scenario``."""
        shards = plan_shards(scenario.num_stream_frames, self.num_shards)
        items = tuple(
            WorkItem(
                fn=track_scenario_shard,
                kwargs={
                    "scenario": scenario,
                    "start_frame": s.start_frame,
                    "stop_frame": s.stop_frame,
                    "chunk_frames": self.chunk_frames,
                    "record_spectra": self.record_spectra,
                },
                key=f"shard[{s.start_frame}:{s.stop_frame})",
            )
            for s in shards
        )
        return ExperimentPlan(items=items, name="sharded-stream")

    def run(self, scenario) -> PipelineResult:
        """Synthesize + track the whole session, sharded, and merge."""
        parts = self.runner.run(self.plan_for(scenario))
        return merge_results(parts)


def results_identical(a: PipelineResult, b: PipelineResult) -> bool:
    """True when two pipeline results carry the same per-frame fields.

    Compares timestamps, every array field the single-person pipeline
    fills (NaN-tolerant for the float fields), and the multi-person
    ``tracks`` lists including track identities, with their coasting
    flags. This is the determinism gate the sharded and serving
    benchmarks assert.
    """

    def same(x: np.ndarray | None, y: np.ndarray | None, nan: bool) -> bool:
        if x is None or y is None:
            return (x is None) == (y is None)
        return np.array_equal(x, y, equal_nan=nan)

    def same_tracks(x, y) -> bool:
        if x is None or y is None:
            return (x is None) == (y is None)
        if len(x) != len(y):
            return False
        for fx, fy in zip(x, y):
            if len(fx) != len(fy):
                return False
            for (ix, px), (iy, py) in zip(fx, fy):
                if ix != iy or not np.array_equal(px, py, equal_nan=True):
                    return False
        return True

    return (
        same(a.frame_times_s, b.frame_times_s, nan=False)
        and same(a.positions, b.positions, nan=True)
        and same(a.tof_m, b.tof_m, nan=True)
        and same(a.raw_tof_m, b.raw_tof_m, nan=True)
        and same(a.motion, b.motion, nan=False)
        and same_tracks(a.tracks, b.tracks)
        and same(a.coasting, b.coasting, nan=False)
    )


def sharded_speedup_benchmark(
    scenario,
    workers: int,
    num_shards: int | None = None,
    repeats: int = 1,
) -> dict:
    """Time the same shard plan serially and across ``workers``.

    The one serial-vs-sharded comparison both ``repro bench`` and
    ``benchmarks/bench_throughput.py`` report: end-to-end (lazy
    synthesis + tracking) best-of-``repeats`` wall clock for each, the
    speedup, and the :func:`results_identical` determinism check on
    the merged results.
    """
    if num_shards is None:
        num_shards = max(workers, 1)
    serial_runner = ShardedStreamRunner(num_shards=num_shards, max_workers=1)
    sharded_runner = ShardedStreamRunner(
        num_shards=num_shards, max_workers=workers
    )

    def timed(runner: ShardedStreamRunner) -> tuple[PipelineResult, float]:
        best = float("inf")
        result = None
        for _ in range(max(repeats, 1)):
            start = perf_counter()
            result = runner.run(scenario)
            best = min(best, perf_counter() - start)
        return result, best

    serial, serial_s = timed(serial_runner)
    sharded, sharded_s = timed(sharded_runner)
    n = sharded.num_frames
    profile = {}
    if serial.stage_profile is not None:
        # The serial leg's counters: one process, every frame, so the
        # per-stage split is directly comparable to the wall clock.
        profile = {"stage_profile": serial.stage_profile}
    p95_ms = (
        1e3 * serial.latency.p95_s if serial.latency is not None else None
    )
    return {
        **profile,
        "workers": workers,
        "num_shards": len(plan_shards(scenario.num_stream_frames, num_shards)),
        "n_frames": n,
        "serial_s": serial_s,
        "sharded_s": sharded_s,
        "serial_fps": n / serial_s,
        "sharded_fps": n / sharded_s,
        "speedup": serial_s / sharded_s,
        "p95_latency_ms": p95_ms,
        "identical": results_identical(serial, sharded),
    }
