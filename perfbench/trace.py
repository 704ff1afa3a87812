"""Spans around the public calls into each layer, and the numbers they give.

A traced pass wraps the calls an embedding application makes into each
layer — and the public functions those layers call into each other —
in spans: name, start, end, parent. Spans are kept in memory (columnar
lists, so a span costs a few list appends) and written out when the
benchmark ends. Nothing under ``src/`` changes: instrumentation swaps
the public attributes for timing wrappers while a traced pass runs and
puts the originals back afterwards.

A span's *self time* is its duration minus the durations of its direct
children. Every span name belongs to one layer (the longest dotted
prefix in :data:`LAYERS`); the root span of each traced pass is
``run``, and its self time is reported as ``unattributed``. The layer
self times plus ``unattributed`` therefore sum to the traced wall time
by construction; what a run checks is that ``unattributed`` stays
small (:data:`MAX_UNATTRIBUTED`), i.e. that the spans still cover the
pass.

Shard workers are other processes: the parent sees their work only as
time spent waiting on the pool (``exec.pool.wait``) and through the
engine's shard counters, so traced self times cover the parent process.
"""

from __future__ import annotations

import json
import weakref
from time import perf_counter_ns

import numpy as np

#: Layers that own span self time, named after the package modules.
#: ``core``, ``rf``, ``geometry`` and ``eval`` run inside these layers.
LAYERS = (
    "sim",
    "kernels.synthesis",
    "serve",
    "pipeline",
    "kernels.tick",
    "kernels.cancellation",
    "multi",
    "exec",
    "loadgen",
)

ROOT = "run"

#: Ceiling on the root span's self time over the traced wall. Every
#: workload reads about 0.01; more means a layer's entry point is no
#: longer wrapped and its time lands nowhere.
MAX_UNATTRIBUTED = 0.05


def layer_of(name: str) -> str:
    """The layer a span name belongs to (``unattributed`` for the root)."""
    best = "unattributed"
    for layer in LAYERS:
        if (name == layer or name.startswith(layer + ".")) and (
            best == "unattributed" or len(layer) > len(best)
        ):
            best = layer
    return best


class Tracer:
    """In-memory span recorder.

    ``rows`` carries one work count per span (frames in a pipeline tick,
    accepted admissions), so ratios are measured where the work happens.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.rows: list[int] = []
        self._stack: list[int] = []

    def begin(self, name: str, rows: int = 0) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.rows.append(rows)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    def arrays(self) -> dict:
        """Columnar numpy view of every finished span."""
        return {
            "names": np.asarray(self.names, dtype=object),
            "start_ns": np.asarray(self.starts, dtype=np.int64),
            "end_ns": np.asarray(self.ends, dtype=np.int64),
            "parent": np.asarray(self.parents, dtype=np.int64),
            "rows": np.asarray(self.rows, dtype=np.int64),
        }

    def write(self, path) -> None:
        """Write every span as columnar JSON (names interned)."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        path.write_text(json.dumps({
            "names": table,
            "name": [index[n] for n in self.names],
            "start_ns": self.starts,
            "end_ns": self.ends,
            "parent": self.parents,
            "rows": self.rows,
        }))


class Instrumentation:
    """Swap the public layer entry points for span-recording wrappers.

    :meth:`install` before a traced pass, :meth:`remove` after it; the
    wrappers call the original attribute, so outputs are unchanged.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []
        self._kernels: list[tuple[str, object]] = []
        self._kind = weakref.WeakKeyDictionary()

    def _swap(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from repro.exec.pool import WorkerPool
        from repro.exec.transport import ParentTransport
        from repro.kernels import backend
        from repro.kernels.tick import MultiTickPlan, TickPlan
        from repro.loadgen import harness
        from repro.loadgen.harness import LoadHarness
        from repro.loadgen.memory import MemoryGovernor
        from repro.multi import tracks
        from repro.multi.tracks import TrackBank
        from repro.pipeline import runner
        from repro.pipeline.runner import Pipeline
        from repro.serve.engine import ServingEngine
        from repro.sim.scenario import ScenarioStream

        t = self.tracer
        plain = [
            (ScenarioStream, "advance", "sim.geometry"),
            (ScenarioStream, "path_sets", "sim.geometry"),
            (runner, "compile_tick_plan", "kernels.tick.compile"),
            (TickPlan, "run", "kernels.tick.run.single"),
            (MultiTickPlan, "run", "kernels.tick.run.multi"),
            (TrackBank, "step", "multi.tracks.step"),
            (tracks, "candidate_fixes_batched", "multi.association.births"),
            (ServingEngine, "offer", "serve.ingest"),
            (ServingEngine, "submit", "serve.ingest"),
            (ServingEngine, "close", "serve.close"),
            (ServingEngine, "evict", "serve.close"),
            (WorkerPool, "submit", "exec.pool.submit"),
            (WorkerPool, "ready", "exec.pool.wait"),
            (WorkerPool, "result", "exec.pool.wait"),
            (ParentTransport, "encode_request", "exec.transport.encode"),
            (ParentTransport, "decode_response", "exec.transport.decode"),
            (LoadHarness, "run", "loadgen.harness"),
            (harness, "next_blocks", "loadgen.frames"),
            (MemoryGovernor, "admit", "loadgen.governor"),
            (MemoryGovernor, "admitted", "loadgen.governor"),
            (MemoryGovernor, "retired", "loadgen.governor"),
        ]
        for owner, attr, name in plain:
            self._swap(owner, attr, t.wrap(owner.__dict__[attr], name))

        try_admit = ServingEngine.__dict__["try_admit"]

        def traced_admit(engine, spec):
            idx = t.begin("serve.admit")
            try:
                session = try_admit(engine, spec)
            finally:
                t.end(idx)
            t.rows[idx] = int(session is not None)
            return session

        self._swap(ServingEngine, "try_admit", traced_admit)

        engine_tick = ServingEngine.__dict__["tick"]

        def traced_engine_tick(engine):
            idx = t.begin("serve.tick")
            try:
                consumed = engine_tick(engine)
            finally:
                t.end(idx)
            t.rows[idx] = consumed
            return consumed

        self._swap(ServingEngine, "tick", traced_engine_tick)

        tick = Pipeline.__dict__["tick"]
        kind_of = self._kind

        def traced_tick(pipeline, sweep_blocks, slots=None):
            kind = kind_of.get(pipeline)
            if kind is None:
                multi = any(
                    s.fuse_spec() == "cancel" for s in pipeline.stages
                )
                kind = kind_of[pipeline] = (
                    "pipeline.tick.multi" if multi else "pipeline.tick.single"
                )
            idx = t.begin(kind, len(sweep_blocks))
            try:
                return tick(pipeline, sweep_blocks, slots)
            finally:
                t.end(idx)

        self._swap(Pipeline, "tick", traced_tick)

        for key, name in (
            ("accumulate_spectra", "kernels.synthesis.accumulate"),
            ("successive_cancel", "kernels.cancellation"),
        ):
            original = backend.kernel(key)
            self._kernels.append((key, original))
            wrapped = t.wrap(original, name)
            backend.register(backend.backend_name(), key)(wrapped)

    def remove(self) -> None:
        from repro.kernels import backend

        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        for key, original in self._kernels:
            backend.register(backend.backend_name(), key)(original)
        self._saved.clear()
        self._kernels.clear()


class SpanStats:
    """Per-name totals and self times over a tracer's spans."""

    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        self.names = a["names"]
        self.dur_s = (a["end_ns"] - a["start_ns"]) * 1e-9
        self.rows = a["rows"]
        child = np.zeros_like(self.dur_s)
        parent = a["parent"]
        has = parent >= 0
        np.add.at(child, parent[has], self.dur_s[has])
        self.self_s = self.dur_s - child
        self._by_name: dict[str, np.ndarray] = {}
        for name in set(self.names.tolist()):
            self._by_name[name] = np.flatnonzero(self.names == name)

    def _idx(self, prefix: str) -> np.ndarray:
        hits = [
            idx for name, idx in self._by_name.items()
            if name == prefix or name.startswith(prefix + ".")
        ]
        return np.concatenate(hits) if hits else np.empty(0, dtype=np.intp)

    def count(self, prefix: str) -> int:
        return len(self._idx(prefix))

    def total(self, prefix: str) -> float:
        return float(self.dur_s[self._idx(prefix)].sum())

    def self_total(self, prefix: str) -> float:
        return float(self.self_s[self._idx(prefix)].sum())

    def durations(self, prefix: str, busy: bool = False) -> np.ndarray:
        """Span durations; ``busy`` keeps spans with a nonzero row count."""
        idx = self._idx(prefix)
        if busy:
            idx = idx[self.rows[idx] > 0]
        return self.dur_s[idx]

    def row_sum(self, prefix: str) -> int:
        return int(self.rows[self._idx(prefix)].sum())

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS + ("unattributed",)}
        for name, idx in self._by_name.items():
            out[layer_of(name)] += float(self.self_s[idx].sum())
        return out


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(stats: SpanStats, ctx: dict) -> dict:
    """Per-layer metrics from one run's traced passes.

    Args:
        stats: span statistics of every traced pass.
        ctx: run counters gathered outside the spans — ``frames``
            (served in traced passes), ``ticks`` (engine ticks that
            served frames), ``transport`` (byte/round deltas, or
            None in-process), ``shard_tick_s``/``shard_round_trip_s``
            (per-step shard timings), and the untraced and traced
            frames/s ``untraced_fps``/``traced_fps``.

    Returns:
        A map from metric name to ``(value, unit)``.
    """
    frames = ctx["frames"]
    wall = stats.total(ROOT)
    us = 1e6 / frames if frames else 0.0
    m: dict[str, tuple[float, str]] = {}

    m["sim.geometry_us_per_frame"] = (stats.total("sim.geometry") * us, "us")
    m["kernels.synthesis.accumulate_us_per_frame"] = (
        stats.total("kernels.synthesis") * us, "us"
    )
    m["sim.noise_us_per_frame"] = (stats.self_total("sim.source") * us, "us")
    m["sim.source_share"] = (
        _ratio(stats.total("sim.source"), wall), "share"
    )

    m["serve.ingest_us_per_frame"] = (stats.total("serve.ingest") * us, "us")
    # Ticks that served frames; the empty ticks a drain loop ends with
    # still count towards the scheduler's time.
    serving = stats.durations("serve.tick", busy=True)
    n_ticks = len(serving)
    busy = serving if n_ticks else np.zeros(1)
    m["serve.tick_ms_p50"] = (1e3 * float(np.percentile(busy, 50)), "ms")
    m["serve.tick_ms_p99"] = (1e3 * float(np.percentile(busy, 99)), "ms")
    m["serve.rows_per_tick"] = (_ratio(frames, ctx["ticks"]), "count")
    m["serve.scheduler_us_per_tick"] = (
        1e6 * _ratio(stats.self_total("serve.tick"), n_ticks), "us"
    )
    admits = stats.count("serve.admit")
    m["serve.admit_us"] = (
        1e6 * _ratio(stats.total("serve.admit"), admits), "us"
    )
    m["serve.close_ms"] = (
        1e3 * _ratio(stats.total("serve.close"), stats.count("serve.close")),
        "ms",
    )
    m["serve.admit_accept_ratio"] = (
        _ratio(stats.row_sum("serve.admit"), admits), "share"
    )

    pipeline_ticks = stats.count("pipeline.tick")
    for kind in ("single", "multi"):
        name = f"pipeline.tick.{kind}"
        m[f"pipeline.tick_us_per_row.{kind}"] = (
            1e6 * _ratio(stats.total(name), stats.row_sum(name)), "us"
        )
    m["kernels.tick.fused_share"] = (
        _ratio(stats.count("kernels.tick.run"), pipeline_ticks), "share"
    )
    m["kernels.tick.compile_ms"] = (
        1e3 * _ratio(
            stats.total("kernels.tick.compile"),
            stats.count("kernels.tick.compile"),
        ),
        "ms",
    )
    multi_rows = stats.row_sum("pipeline.tick.multi")
    m["kernels.cancellation.us_per_row"] = (
        1e6 * _ratio(stats.total("kernels.cancellation"), multi_rows), "us"
    )
    m["multi.tracks.step_us_per_tick"] = (
        1e6 * _ratio(
            stats.total("multi.tracks.step"), stats.count("multi.tracks.step")
        ),
        "us",
    )
    births = stats.count("multi.association.births")
    m["multi.association.births_us_per_call"] = (
        1e6 * _ratio(stats.total("multi.association.births"), births), "us"
    )
    m["multi.association.births_calls_per_tick"] = (
        _ratio(births, stats.count("pipeline.tick.multi")), "count"
    )

    transport = ctx.get("transport")
    if transport:
        moved = transport["bytes_shm"] + transport["bytes_pickled"]
        m["exec.transport.bytes_per_frame"] = (_ratio(moved, frames), "B")
        m["exec.transport.overflow_ratio"] = (
            _ratio(transport["arena_overflows"],
                   transport["descriptor_rounds"]),
            "share",
        )
    else:
        m["exec.transport.bytes_per_frame"] = (0.0, "B")
        m["exec.transport.overflow_ratio"] = (0.0, "share")
    shard_ticks = np.asarray(ctx.get("shard_tick_s", []), dtype=float)
    round_trips = np.asarray(ctx.get("shard_round_trip_s", []), dtype=float)
    if len(shard_ticks):
        m["exec.pool.ipc_overhead_ms"] = (
            1e3 * float(np.mean(round_trips - shard_ticks)), "ms"
        )
        m["serve.shard.tick_p95_ms"] = (
            1e3 * float(np.percentile(shard_ticks, 95)), "ms"
        )
    else:
        m["exec.pool.ipc_overhead_ms"] = (0.0, "ms")
        m["serve.shard.tick_p95_ms"] = (0.0, "ms")
    m["serve.shard.parent_wait_ms_per_tick"] = (
        1e3 * _ratio(stats.total("exec.pool.wait"), n_ticks), "ms"
    )
    m["loadgen.frames_us_per_frame"] = (
        stats.total("loadgen.frames") * us, "us"
    )

    layers = stats.layer_self()
    for layer, seconds in layers.items():
        m[f"self_us_per_frame.{layer}"] = (seconds * us, "us")
    m["traced_us_per_frame"] = (wall * us, "us")
    m["unattributed_share"] = (_ratio(layers["unattributed"], wall), "share")
    m["trace_overhead"] = (
        _ratio(ctx["untraced_fps"], ctx["traced_fps"]), "ratio"
    )
    return m
