"""The four serving workloads: inputs from a seed, set-up, passes, checks.

Every workload is a **closed loop** driven from one process through the
public serving API (``ServingEngine.admit/try_admit/submit/tick/close``,
``CohortFrameSource``, ``LoadHarness``). In every probe the tick p95
stayed near 2 ms against the paper's 75 ms budget, so the budget never
binds before throughput does; capacity in real-time sessions is
``fps / 80`` (one frame per 12.5 ms per session), and a closed loop
measures it more steadily on a small shared machine than a paced loop,
whose latency would mostly measure sleep jitter.

A run is organised in **passes**. One pass serves the workload's whole
input once: the sessions are admitted, stream every frame, and close.
The inputs are the same on every pass of a run, so every pass must
produce the same output digest; pass 0 is an untimed warm-up that also
provides the reference outputs the accuracy checks score. A run makes a
fixed number of timed passes (the run's seconds over the workload's
nominal :attr:`Workload.pass_s`), and each end-to-end timing is taken
from the elementwise floor over those identical passes.

Workloads (why each exists is in :data:`WHY`):

* ``synth-1p`` — single-person through-wall random walks, in process,
  with the fused cohort frame source synthesizing inside the loop.
* ``replay-2p`` — K=2 non-colliding walkers per session, frames
  synthesized before timing, replayed through multi-person cohorts.
* ``sharded-1p`` — ``synth-1p``'s inputs served by two shard worker
  processes over the shared-memory transport.
* ``churn-mix`` — a ``LoadHarness`` run: Poisson arrivals, ~1 s
  lognormal lifetimes, 80 % single / 20 % K=2 sessions, cheap
  synthetic frames, memory-governed admission, unbounded capacity.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro import default_config
from repro.eval.metrics import mot_metrics
from repro.exec import results_identical
from repro.kernels import backend_name, use_backend
from repro.kernels.profile import enable_profiling, reset_profiling_override
from repro.kernels.tick import (
    compile_tick_plan,
    enable_fusion,
    fusion_active,
    reset_fusion_override,
)
from repro.loadgen import (
    LoadHarness,
    MemoryGovernor,
    PoissonArrivals,
    SpecMemoryModel,
    SyntheticFrameSource,
    build_workload,
)
from repro.multi import MultiScenario
from repro.multi.tracks import tracks_to_arrays
from repro.rf.fmcw import range_axis
from repro.serve import ServingEngine, multi_session, single_session
from repro.sim import (
    CohortFrameSource,
    HumanBody,
    Scenario,
    non_colliding_walks,
    random_walk,
    through_wall_room,
)

WHY = {
    "synth-1p": "the frame source runs inside the loop and dominates it, "
                "so sim and synthesis-kernel changes show here",
    "replay-2p": "frames are made before timing, so time goes to "
                 "cancellation, the track bank and births",
    "sharded-1p": "the only workload through the worker pool, the shm "
                  "transport and the shard scheduler",
    "churn-mix": "admit, evict, slot recycling and plan rebuilds happen "
                 "every few ticks on small mixed cohorts",
}

#: Input sizes. ``default`` is what the benchmark measures; ``tiny``
#: exists for the benchmark's own tests (and fixes the set-ups per pass).
SIZES = {
    "default": {
        "sessions": 16, "duration_s": 4.0,
        "multi_sessions": 16, "multi_duration_s": 4.0,
        "horizon_s": 10.0, "arrival_hz": 3.35, "lifetime_s": 1.0,
        # Frames per session of the prefix passes: the memory pass
        # (tracemalloc slows a pass about fivefold, so it is not run
        # over the whole input) and sharded-1p's identity check.
        "prefix_frames": 96,
    },
    "tiny": {
        "sessions": 2, "duration_s": 2.0,
        "multi_sessions": 2, "multi_duration_s": 1.0,
        "horizon_s": 2.0, "arrival_hz": 3.0, "lifetime_s": 0.5,
        "prefix_frames": 8, "setups_per_pass": 2,
    },
}

#: Frames per session synthesized per fused source call.
CHUNK_FRAMES = 64

#: Accuracy floors the reference pass must meet. The error bound is
#: the one ``tests/test_integration.py`` applies to through-wall walks.
MAX_ERR_MEDIAN_M = 0.6
MIN_MOTA = 0.3

#: churn-mix's traffic shape (arrival times, lifetimes, kinds) is one
#: fixed Poisson realization: across shape seeds the two-person share
#: of frames ranges 0.05-0.45 and moves frames/s by tens of percent, so
#: a seeded shape would make seeds incomparable. This one has 35
#: sessions over the 10 s horizon, 7 of them two-person, carrying 20%
#: of the frames. The run's seed draws every session's frame seed.
CHURN_SHAPE_SEED = 35

#: Memory budget of churn-mix's governor: generous, so every arrival is
#: admitted and the governor's cost is its calibration and bookkeeping.
CHURN_BUDGET_BYTES = 4 << 30

#: Environment switches the benchmark pins, with their pinned values.
PINNED_ENV = {
    "REPRO_BACKEND": "numpy",
    "REPRO_FUSED": "1",
    "REPRO_PROFILE": "0",
    "REPRO_CACHE": "0",
    "REPRO_TRANSPORT": "shm",
    "REPRO_WORKERS": "0",
}


@contextmanager
def pinned_configuration():
    """Pin the measured configuration; yield the stray values overridden.

    numpy backend, fused tick plans, profiling off, spectra cache off;
    transport and worker counts are passed explicitly to every engine,
    and their environment variables are pinned too so nothing spawned
    reads a stray value. Everything is restored on exit, so a caller in
    the same process (the test suite) keeps its own configuration.
    """
    saved = {name: os.environ.get(name) for name in PINNED_ENV}
    overridden = {
        name: value for name, value in saved.items()
        if value is not None and value != PINNED_ENV[name]
    }
    # use_backend first: it resolves the caller's backend from the
    # caller's environment, and restores it on exit.
    with use_backend("numpy"):
        os.environ.update(PINNED_ENV)
        enable_fusion(True)
        enable_profiling(False)
        try:
            yield overridden
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
            # After the environment is restored: the fusion default is
            # re-read from it.
            reset_fusion_override()
            reset_profiling_override()


@dataclass
class PassResult:
    """One pass over a workload's inputs.

    ``marks`` holds the time at the pass start, after every engine tick,
    and at the pass end. Passes over the same inputs tick the same
    number of times, so their marks and latencies line up one to one.
    """

    wall_s: float
    offered: int
    served: int
    admits: int
    refused: int
    latencies_s: np.ndarray
    digest: str
    accounted: bool
    marks: list = field(repr=False, default_factory=list)
    results: list = field(repr=False, default_factory=list)
    extra: dict = field(default_factory=dict)


def results_digest(results) -> str:
    """Content digest of session results, in order (outputs only)."""
    h = hashlib.sha256()
    for r in results:
        for arr in (r.frame_times_s, r.positions, r.tof_m, r.raw_tof_m,
                    r.motion):
            if arr is None:
                h.update(b"none")
                continue
            arr = np.ascontiguousarray(arr)
            h.update(repr((arr.shape, arr.dtype.str)).encode())
            h.update(arr.tobytes())
        if r.tracks is not None:
            for arr in tracks_to_arrays(r.tracks).values():
                h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:20]


def _frames_accounted(sessions, results) -> bool:
    """Every accepted frame got a latency sample; all but the priming
    frame of each session emitted an output row."""
    return all(
        len(r.latency.latencies_s) == s.frames_in
        and r.num_frames == s.frames_in - 1
        for s, r in zip(sessions, results)
    )


def lockstep_pass(engine, specs, n_frames, streams, fetch=next,
                  start=None) -> PassResult:
    """Admit one session per spec, stream ``n_frames`` each, close all.

    ``start`` backdates the pass start (work done before the call, such
    as building the frame source, belongs to the pass).
    """
    start = perf_counter() if start is None else start
    marks = [start]
    sessions = [engine.admit(spec) for spec in specs]
    for _ in range(n_frames):
        for session, stream in zip(sessions, streams):
            engine.submit(session, fetch(stream))
        engine.tick()
        marks.append(perf_counter())
    results = [engine.close(s) for s in sessions]
    end = perf_counter()
    marks.append(end)
    latencies = np.concatenate([r.latency.latencies_s for r in results])
    return PassResult(
        wall_s=end - start,
        offered=sum(s.frames_in for s in sessions),
        served=len(latencies),
        admits=len(sessions),
        refused=0,
        latencies_s=latencies,
        digest=results_digest(results),
        accounted=_frames_accounted(sessions, results),
        marks=marks,
        results=results,
    )


def _tracks_as_stack(tracks, n_frames: int) -> np.ndarray:
    """Per-frame ``(id, position)`` lists as ``(n_ids, n_frames, 3)``."""
    ids = sorted({tid for frame in tracks for tid, _ in frame})
    out = np.full((max(len(ids), 1), n_frames, 3), np.nan)
    row = {tid: i for i, tid in enumerate(ids)}
    for f, frame in enumerate(tracks):
        for tid, pos in frame:
            out[row[tid], f] = pos
    return out


def _fused_by_kind(specs: dict) -> dict:
    """Whether each spec kind's cohorts run a compiled tick plan."""
    return {
        kind: bool(fusion_active()
                   and compile_tick_plan(spec.build_pipeline().stages))
        for kind, spec in specs.items()
    }


class Workload:
    """Common shape: inputs, timed set-up, passes, checks.

    ``pass_s`` is a pass's nominal length (its wall time on a 2-core
    x86_64 machine at the commit that defined the benchmark) and fixes
    how many timed passes a run makes; ``setups_per_pass`` fixes how
    many set-ups it times before each. Both are constants so that every
    commit computes its statistics over the same number of samples.
    """

    name = ""
    workers = 0
    pass_s = 1.0
    setups_per_pass = 1

    def __init__(self, seed: int, size: dict) -> None:
        self.seed = seed
        self.size = size
        self.config = default_config()
        self.range_bin_m = float(
            range_axis(self.config.fmcw).round_trip_per_bin_m
        )

    def engine(self) -> ServingEngine:
        if self.workers:
            return ServingEngine(workers=self.workers, transport="shm")
        return ServingEngine()

    def release(self, state) -> ServingEngine:
        """Close the set-up sessions (untimed); return the engine."""
        engine, sessions = state
        for session in sessions:
            engine.close(session)
        return engine

    def specs(self) -> dict:
        raise NotImplementedError

    def drain_inputs(self, n_frames: int) -> None:
        """Draw the inputs of an ``n_frames`` pass without serving them.

        Nothing to draw where the inputs exist before the pass; the
        workloads whose source runs inside the pass override this.
        """

    def stamp(self, state) -> dict:
        return {
            "backend": backend_name(),
            "fused": _fused_by_kind(self.specs()),
            "transport": state.transport,
            "workers": state.workers,
            "distributed": state.distributed,
            "profiling": False,
            "spectra_cache": "off",
        }


class SynthSingle(Workload):
    """synth-1p: N single-person walks, source synthesizing in the loop."""

    name = "synth-1p"
    pass_s = 1.0

    def build_inputs(self) -> None:
        room = through_wall_room()
        self.scenarios = [
            Scenario(
                random_walk(room, np.random.default_rng([self.seed, k]),
                            duration_s=self.size["duration_s"]),
                room=room,
                config=self.config,
                seed=self.seed * 1000 + k + 1,
            )
            for k in range(self.size["sessions"])
        ]
        self.n_frames = min(s.num_stream_frames for s in self.scenarios)
        self.spec = single_session(self.config, self.scenarios[0].range_bin_m)

    def specs(self) -> dict:
        return {"single": self.spec}

    def params(self) -> dict:
        return {
            "sessions": len(self.scenarios),
            "people_per_session": 1,
            "scenario_s": self.size["duration_s"],
            "frames_per_session": self.n_frames,
            "room": "through-wall",
            "motion": "random_walk",
            "source": "CohortFrameSource(noise=True, "
                      f"chunk_frames={CHUNK_FRAMES})",
            "workers": self.workers,
        }

    def inputs_digest(self) -> str:
        h = hashlib.sha256()
        for s in self.scenarios:
            h.update(np.ascontiguousarray(s.trajectory.positions).tobytes())
            h.update(str(s.seed).encode())
        return h.hexdigest()[:20]

    def setup(self):
        engine = self.engine()
        source = CohortFrameSource(self.scenarios, chunk_frames=CHUNK_FRAMES)
        streams = source.session_streams()
        sessions = [engine.admit(self.spec) for _ in self.scenarios]
        for session, stream in zip(sessions, streams):
            engine.submit(session, next(stream))
        engine.tick()
        return engine, sessions

    def run_pass(self, engine, tracer=None, n_frames=None) -> PassResult:
        make_source, fetch = CohortFrameSource, next
        if tracer is not None:
            make_source = tracer.wrap(CohortFrameSource, "sim.source")
            fetch = tracer.wrap(next, "sim.source")
        start = perf_counter()
        source = make_source(self.scenarios, chunk_frames=CHUNK_FRAMES)
        return lockstep_pass(
            engine, [self.spec] * len(self.scenarios),
            n_frames or self.n_frames, source.session_streams(), fetch,
            start=start,
        )

    def drain_inputs(self, n_frames: int) -> None:
        streams = CohortFrameSource(
            self.scenarios, chunk_frames=CHUNK_FRAMES
        ).session_streams()
        for _ in range(n_frames):
            for stream in streams:
                next(stream)

    def accuracy(self, reference: PassResult) -> dict:
        errors = []
        for scenario, r in zip(self.scenarios, reference.results):
            truth = scenario.trajectory.resample(r.frame_times_s)
            valid = np.all(np.isfinite(r.positions), axis=1)
            errors.append(
                np.linalg.norm(r.positions[valid] - truth[valid], axis=1)
            )
        err = float(np.median(np.concatenate(errors)))
        return {
            "err_median_m": err,
            "checks": {"err_median_m<=%.1f" % MAX_ERR_MEDIAN_M:
                       err <= MAX_ERR_MEDIAN_M},
        }

    def checks(self, engine, reference: PassResult) -> dict:
        return self.accuracy(reference)


class ShardedSingle(SynthSingle):
    """sharded-1p: synth-1p's inputs through two shard worker processes."""

    name = "sharded-1p"
    workers = 2
    pass_s = 1.5

    def checks(self, engine, reference: PassResult) -> dict:
        out = self.accuracy(reference)
        prefix = min(self.size["prefix_frames"], self.n_frames)
        sharded = self.run_pass(engine, n_frames=prefix).results
        with ServingEngine() as local:
            in_process = self.run_pass(local, n_frames=prefix).results
        out["checks"]["distributed"] = bool(
            engine.distributed and engine.workers == self.workers
        )
        # Without working shm the program falls back to pipes (and
        # warns); this workload is defined over shm.
        out["checks"]["transport_shm"] = engine.transport == "shm"
        out["checks"]["prefix_identical_to_in_process"] = all(
            results_identical(a, b) for a, b in zip(sharded, in_process)
        )
        return out


class ReplayMulti(Workload):
    """replay-2p: pre-synthesized K=2 sessions replayed in process."""

    name = "replay-2p"
    people = 2
    pass_s = 1.8
    setups_per_pass = 20

    def build_inputs(self) -> None:
        room = through_wall_room()
        spf = self.config.pipeline.sweeps_per_frame
        self.frames, self.walks = [], []
        for k in range(self.size["multi_sessions"]):
            rng = np.random.default_rng([self.seed, 17, k])
            walks = non_colliding_walks(
                room, rng, count=self.people,
                duration_s=self.size["multi_duration_s"],
                min_separation_m=1.0,
            )
            people = [(HumanBody(name=f"s{k}p{j}"), walk)
                      for j, walk in enumerate(walks)]
            out = MultiScenario(
                people, room=room, config=self.config,
                seed=self.seed * 1000 + 17 * k + 1,
            ).run()
            self.frames.append([
                out.spectra[:, f * spf:(f + 1) * spf, :]
                for f in range(out.num_sweeps // spf)
            ])
            self.walks.append(walks)
        self.n_frames = min(len(f) for f in self.frames)
        self.spec = multi_session(
            self.config, self.range_bin_m, max_people=self.people, room=room
        )

    def specs(self) -> dict:
        return {"multi": self.spec}

    def params(self) -> dict:
        return {
            "sessions": len(self.frames),
            "people_per_session": self.people,
            "scenario_s": self.size["multi_duration_s"],
            "frames_per_session": self.n_frames,
            "room": "through-wall",
            "motion": "non_colliding_walks(min_separation_m=1.0)",
            "source": "pre-synthesized MultiScenario frames (untimed)",
            "workers": 0,
        }

    def inputs_digest(self) -> str:
        h = hashlib.sha256()
        for frames in self.frames:
            h.update(np.ascontiguousarray(frames[0]).tobytes())
            h.update(np.ascontiguousarray(frames[-1]).tobytes())
        return h.hexdigest()[:20]

    def setup(self):
        engine = self.engine()
        sessions = [engine.admit(self.spec) for _ in self.frames]
        for session, frames in zip(sessions, self.frames):
            engine.submit(session, frames[0])
        engine.tick()
        return engine, sessions

    def run_pass(self, engine, tracer=None, n_frames=None) -> PassResult:
        return lockstep_pass(
            engine, [self.spec] * len(self.frames),
            n_frames or self.n_frames, [iter(f) for f in self.frames],
        )

    def checks(self, engine, reference: PassResult) -> dict:
        misses = fps = switches = truths = 0
        for walks, r in zip(self.walks, reference.results):
            times = r.frame_times_s
            truth = np.stack([w.resample(times) for w in walks])
            mot = mot_metrics(truth, _tracks_as_stack(r.tracks, len(times)))
            misses += mot.misses
            fps += mot.false_positives
            switches += mot.id_switches
            truths += mot.num_truth
        mota = 1.0 - (misses + fps + switches) / truths if truths else 0.0
        return {
            "mota": mota,
            "id_switches": switches,
            "checks": {"mota>=%.1f" % MIN_MOTA: mota >= MIN_MOTA},
        }


class _RecordingEngine(ServingEngine):
    """Keeps every retired session's result (LoadHarness discards them).

    Sessions still live when the harness's horizon ends are evicted
    rather than closed; their queues are drained by then, so their
    results are complete up to the horizon and are kept the same way.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.closed: list = []
        self.marks: list = []

    def tick(self) -> int:
        consumed = super().tick()
        self.marks.append(perf_counter())
        return consumed

    def close(self, session):
        result = super().close(session)
        self.closed.append((session, result))
        return result

    def evict(self, session) -> None:
        self.closed.append((session, session.result()))
        super().evict(session)


class ChurnMix(Workload):
    """churn-mix: open arrivals on the virtual clock, mixed cohorts."""

    name = "churn-mix"
    pass_s = 1.1
    setups_per_pass = 4

    def build_inputs(self) -> None:
        cfg = self.config
        frame_dt = cfg.pipeline.sweeps_per_frame * cfg.fmcw.sweep_duration_s
        self.frame_dt_s = frame_dt
        self._specs = {
            "single": single_session(cfg, self.range_bin_m),
            "multi": multi_session(cfg, self.range_bin_m, max_people=2),
        }
        shape = build_workload(
            PoissonArrivals(rate_hz=self.size["arrival_hz"]),
            horizon_s=self.size["horizon_s"],
            frame_dt_s=frame_dt,
            seed=CHURN_SHAPE_SEED,
            lifetime_mean_s=self.size["lifetime_s"],
            mix={"single": 0.8, "multi": 0.2},
        )
        rng = np.random.default_rng([self.seed, 31])
        self.workload = dataclasses.replace(
            shape,
            plans=tuple(
                dataclasses.replace(plan, seed=int(rng.integers(2**31)))
                for plan in shape.plans
            ),
        )

    def specs(self) -> dict:
        return self._specs

    def params(self) -> dict:
        plans = self.workload.plans
        frames = np.array([p.lifetime_frames for p in plans])
        multi = np.array([p.kind == "multi" for p in plans])
        return {
            **self.workload.describe(),
            "seed": None,
            "shape_seed": CHURN_SHAPE_SEED,
            "frame_seed": self.seed,
            "multi_frame_share": float(frames[multi].sum() / frames.sum()),
            "multi_sessions": sum(p.kind == "multi" for p in plans),
            "planned_frames": sum(p.lifetime_frames for p in plans),
            "capacity_frames_per_step": None,
            "admission": "MemoryGovernor(%d bytes)" % CHURN_BUDGET_BYTES,
            "source": "SyntheticFrameSource",
            "workers": 0,
        }

    def inputs_digest(self) -> str:
        h = hashlib.sha256()
        for p in self.workload.plans:
            h.update(repr((p.arrival_s, p.lifetime_frames, p.kind,
                           p.seed)).encode())
        return h.hexdigest()[:20]

    def engine(self) -> ServingEngine:
        model = SpecMemoryModel()
        governor = MemoryGovernor(CHURN_BUDGET_BYTES, model=model)
        return _RecordingEngine(admission=governor, memory_model=model)

    def setup(self):
        engine = self.engine()
        sessions = []
        for kind, spec in self._specs.items():
            session = engine.try_admit(spec)
            engine.offer(session, SyntheticFrameSource(spec, 0).next_block())
            sessions.append(session)
        engine.tick()
        return engine, sessions

    def run_pass(self, engine, tracer=None, n_frames=None) -> PassResult:
        """The harness over the whole horizon, or over its first
        ``n_frames`` frame periods (sessions arriving before then)."""
        workload = self.workload
        if n_frames is not None:
            horizon = n_frames * self.frame_dt_s
            workload = dataclasses.replace(
                workload,
                horizon_s=horizon,
                plans=tuple(p for p in workload.plans
                            if p.arrival_s < horizon),
            )
        engine.closed.clear()
        start = perf_counter()
        engine.marks = [start]
        slo = LoadHarness(engine, workload, self._specs).run()
        end = perf_counter()
        engine.marks.append(end)
        sessions = [s for s, _ in engine.closed]
        results = [r for _, r in engine.closed]
        frames, admitted = slo["frames"], slo["sessions"]
        latencies = (
            np.concatenate([r.latency.latencies_s for r in results])
            if results else np.empty(0)
        )
        accounted = (
            _frames_accounted(sessions, results)
            and frames["consumed"] == frames["offered"] == len(latencies)
        )
        digest = hashlib.sha256(
            (results_digest(results)
             + repr(sorted(frames.items()))
             + repr(sorted(admitted.items()))).encode()
        ).hexdigest()[:20]
        return PassResult(
            wall_s=end - start,
            offered=frames["offered"],
            served=len(latencies),
            admits=admitted["arrived"],
            refused=admitted["rejected"],
            latencies_s=latencies,
            digest=digest,
            accounted=accounted,
            marks=engine.marks,
            results=results,
            extra={"sessions": admitted, "frames": frames},
        )

    def checks(self, engine, reference: PassResult) -> dict:
        frames = reference.extra["frames"]
        return {
            "sessions": reference.admits,
            "checks": {
                "no_refusals": reference.refused == 0,
                "no_drops": frames["dropped"] == 0
                and frames["abandoned_in_queue"] == 0,
            },
        }

    def release(self, state) -> ServingEngine:
        engine = super().release(state)
        engine.closed.clear()
        return engine


WORKLOADS = {
    cls.name: cls
    for cls in (SynthSingle, ReplayMulti, ShardedSingle, ChurnMix)
}

