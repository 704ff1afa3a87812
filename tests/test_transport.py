"""Tests for the pluggable shard IPC transport (repro.exec.transport).

The load-bearing properties:

* the shm codec is **value-preserving** for every payload shape the
  pool ships (nested dicts/lists/tuples/namedtuples/dataclasses,
  ndarrays of any plain dtype, non-contiguous views) — and the pipe
  transport's wire bytes are the *identical object*, so pipe behavior
  cannot drift from a transport-less pool;
* arena exhaustion and ineligible arrays **degrade to the pipe**,
  counted, never wrong;
* arenas are **unlinked** on close, kill, crash failover, and worker
  loss — no ``/dev/shm`` segment and no resource-tracker noise
  survives any shutdown path;
* an interrupted pool **resyncs with a bounded wait** instead of
  hanging on a wedged worker.
"""

import dataclasses
import os
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from repro.exec.plan import ExperimentPlan
from repro.exec.pool import WorkerCrash, WorkerPool, pool_available
from repro.exec.runners import ProcessPoolRunner, SerialRunner
from repro.exec.transport import (
    DEFAULT_ARENA_BYTES,
    SHM_MIN_ARRAY_BYTES,
    TRANSPORT_ENV,
    ParentTransport,
    WorkerTransport,
    arena_segments,
    resolve_transport,
    shm_available,
)

needs_fork = pytest.mark.skipif(
    not pool_available(), reason="platform cannot fork"
)
needs_shm = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)


def echo(payload):
    """Module-level identity, picklable for pool ``apply`` requests."""
    return payload


def sleep_then(payload, seconds):
    time.sleep(seconds)
    return payload


def spectrum_work(seed: int) -> np.ndarray:
    """A plan work item whose result is shm-eligible (32 KB)."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((8, 512))


Point = namedtuple("Point", ["xy", "label"])


@dataclasses.dataclass
class Bundle:
    spectrum: np.ndarray
    meta: dict


def nested_payload(rng):
    """One of everything the pool's messages are built from."""
    big = rng.standard_normal((16, 256))  # 32 KB, shm-eligible
    return {
        "complex": (rng.standard_normal((4, 128)) * 1j).astype(np.complex128),
        "view": big[::2, 1:-1],  # non-contiguous: must still round-trip
        "small": np.arange(4, dtype=np.int8),  # under threshold: inline
        "point": Point(xy=rng.standard_normal(64), label="p0"),
        "bundle": Bundle(
            spectrum=rng.standard_normal(512), meta={"n": 3}
        ),
        "mixed": [np.ones(128, dtype=bool), ("x", 1.5), None],
    }


def assert_payload_equal(a, b):
    assert type(a) is type(b) or (
        isinstance(a, tuple) and isinstance(b, tuple)
    )
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_payload_equal(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_payload_equal(x, y)
    elif dataclasses.is_dataclass(a) and not isinstance(a, type):
        assert_payload_equal(vars(a), vars(b))
    else:
        assert a == b


class TestResolveTransport:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            resolve_transport("sockets")

    def test_default_is_pipe(self, monkeypatch):
        monkeypatch.delenv(TRANSPORT_ENV, raising=False)
        assert resolve_transport() == "pipe"

    def test_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv(TRANSPORT_ENV, "carrier-pigeon")
        with pytest.raises(ValueError, match="unknown transport"):
            resolve_transport()

    @needs_shm
    def test_env_selects_shm(self, monkeypatch):
        monkeypatch.setenv(TRANSPORT_ENV, " SHM ")
        assert resolve_transport() == "shm"

    @needs_shm
    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(TRANSPORT_ENV, "shm")
        assert resolve_transport("pipe") == "pipe"


@needs_shm
class TestCodec:
    """Same-process loopback: parent encodes, worker end decodes."""

    @pytest.fixture
    def pair(self):
        parent = ParentTransport("shm", arena_bytes=1 << 20)
        worker = WorkerTransport(parent.worker_config())
        yield parent, worker
        worker.close()
        parent.close()
        assert parent.arena.name not in arena_segments()

    def test_request_roundtrip_nested(self, pair):
        parent, worker = pair
        payload = nested_payload(np.random.default_rng(0))
        wire = parent.encode_request(payload)
        assert wire[0] == "#shm"  # bulk arrays left the descriptor
        decoded = worker.decode_request(wire)
        assert_payload_equal(decoded, payload)
        assert parent.counters.bytes_shm > 0
        # The int8 array is under SHM_MIN_ARRAY_BYTES: inline residue.
        assert 0 < parent.counters.bytes_pickled < SHM_MIN_ARRAY_BYTES * 4

    def test_response_roundtrip_and_region_reuse(self, pair):
        parent, worker = pair
        rng = np.random.default_rng(1)
        first = {"a": rng.standard_normal((32, 32))}
        decoded_first = parent.decode_response(
            worker.encode_response(first)
        )
        # A second message reuses the (reset) region; the first decode
        # copied out of the arena, so it must not be perturbed.
        second = {"a": np.zeros((32, 32))}
        parent.decode_response(worker.encode_response(second))
        assert_payload_equal(decoded_first, first)

    def test_zero_dimensional_array_roundtrip(self, pair):
        """A 0-d array big enough for the arena (a 100-character string
        scalar, 400 B) crosses it and comes back 0-d."""
        parent, worker = pair
        scalar = np.array("x" * 100)
        assert scalar.shape == () and scalar.nbytes >= SHM_MIN_ARRAY_BYTES
        payload = {"scalar": scalar, "row": np.arange(64.0)}
        wire = parent.encode_request(payload)
        assert wire[0] == "#shm"
        assert [shape for _, shape, _ in wire[1]] == [(), (64,)]
        decoded = worker.decode_request(wire)
        assert decoded["scalar"].shape == ()
        assert_payload_equal(decoded, payload)

    def test_pipe_wire_is_the_payload_object(self):
        parent = ParentTransport("pipe")
        payload = {"a": np.ones((64, 64)), "b": [1, 2]}
        wire = parent.encode_request(payload)
        assert wire is payload  # byte-for-byte what the pool always sent
        assert parent.counters.bytes_shm == 0
        assert parent.counters.bytes_pickled == payload["a"].nbytes
        parent.close()

    def test_arena_exhaustion_degrades_to_pipe(self):
        parent = ParentTransport("shm", arena_bytes=4096)
        worker = WorkerTransport(parent.worker_config())
        fits = np.ones(256)  # 2 KB
        spills = np.ones((64, 64))  # 32 KB > region
        wire = parent.encode_request([fits, spills])
        decoded = worker.decode_request(wire)
        assert_payload_equal(decoded, [fits, spills])
        assert parent.counters.arena_overflows == 1
        assert parent.counters.bytes_shm == fits.nbytes
        assert parent.counters.bytes_pickled == spills.nbytes
        worker.close()
        parent.close()


@needs_fork
class TestPoolTransport:
    @pytest.fixture(params=["pipe", "shm"])
    def transport(self, request):
        if request.param == "shm" and not shm_available():
            pytest.skip("POSIX shared memory unavailable")
        return request.param

    def test_apply_roundtrip_counts_bytes(self, transport):
        payload = nested_payload(np.random.default_rng(7))
        with WorkerPool(2, transport=transport) as pool:
            out = pool.apply(0, echo, payload)
            assert_payload_equal(out, payload)
            stats = pool.transport_stats()
            assert stats["transport"] == transport
            assert stats["descriptor_rounds"] > 0
            if transport == "shm":
                assert stats["bytes_shm"] > 0
            else:
                assert stats["bytes_shm"] == 0
                assert stats["bytes_pickled"] > 0
            per_worker = pool.transport_stats(worker=0)
            assert per_worker["descriptor_rounds"] > 0

    @needs_shm
    def test_arenas_unlinked_on_close_and_kill(self):
        baseline = arena_segments()
        pool = WorkerPool(2, transport="shm")
        assert len(arena_segments()) == len(baseline) + 2
        pool.kill(0)
        assert len(arena_segments()) == len(baseline) + 1
        pool.close()
        assert arena_segments() == baseline

    @needs_shm
    def test_worker_crash_unlinks_arena(self):
        baseline = arena_segments()
        with WorkerPool(2, transport="shm") as pool:
            with pytest.raises(WorkerCrash):
                pool.apply(0, os._exit, 1)
            assert len(arena_segments()) == len(baseline) + 1
            # The survivor still serves, and its counters survive too.
            assert pool.apply(1, echo, 5) == 5
        assert arena_segments() == baseline

    def test_resync_times_out_on_wedged_worker(self, transport):
        with WorkerPool(2, transport=transport) as pool:
            pool.submit(0, "apply", sleep_then, (1, 30.0))
            start = time.perf_counter()
            pool.resync(timeout=0.3)
            assert time.perf_counter() - start < 5.0
            assert not pool.alive(0)  # wedged worker abandoned, not waited
            assert pool.apply(1, echo, "ok") == "ok"

    @needs_shm
    def test_no_resource_tracker_noise(self):
        """Pool teardown must not make the tracker warn or traceback."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            "import numpy as np\n"
            "from repro.exec.pool import WorkerPool\n"
            "from tests.test_transport import echo\n"
            "with WorkerPool(2, transport='shm') as pool:\n"
            "    pool.apply(0, echo, np.ones((64, 64)))\n"
            "    pool.kill(1)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src, str(Path(__file__).resolve().parents[1])]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr
        assert "Traceback" not in proc.stderr


@needs_fork
@needs_shm
class TestRunnerAndEngine:
    def test_process_pool_runner_identical_under_shm(self, monkeypatch):
        """Plan-chunk results ride the arena without changing a bit."""
        plan = ExperimentPlan.from_grid(
            spectrum_work, [{"seed": s} for s in range(6)], name="shm"
        )
        serial = SerialRunner().run(plan)
        baseline = arena_segments()
        monkeypatch.setenv(TRANSPORT_ENV, "shm")
        with ProcessPoolRunner(max_workers=2) as runner:
            pooled = runner.run(plan)
            stats = runner._pool.transport_stats()
            assert stats["transport"] == "shm"
            assert stats["bytes_shm"] > 0
        assert arena_segments() == baseline
        for a, b in zip(serial, pooled):
            np.testing.assert_array_equal(a, b)

    def test_shard_crash_failover_unlinks_arena(self, config):
        """The WorkerCrash failover path can never leak /dev/shm."""
        from repro.loadgen.workload import SyntheticFrameSource
        from repro.rf.fmcw import range_axis
        from repro.serve import ServingEngine, single_session

        range_bin_m = float(range_axis(config.fmcw).round_trip_per_bin_m)
        spec = single_session(config, range_bin_m)
        baseline = arena_segments()
        with ServingEngine(workers=2, transport="shm") as engine:
            sessions = [engine.admit(spec) for _ in range(2)]
            assert len(arena_segments()) == len(baseline) + 2
            source = SyntheticFrameSource(spec, seed=0)
            for _ in range(3):
                block = source.next_block()
                for session in sessions:
                    engine.submit(session, block)
                engine.tick()
            victim = sessions[0].cohort.shard
            engine.pool.invoke(victim, "fail_next_step")
            block = source.next_block()
            for session in sessions:
                engine.submit(session, block)
            engine.tick()
            engine.drain()
            assert engine.scheduler.failovers == 1
            assert len(arena_segments()) == len(baseline) + 1
        assert arena_segments() == baseline

    def test_engine_results_identical_across_transports(self, config):
        from repro.loadgen.workload import SyntheticFrameSource
        from repro.rf.fmcw import range_axis
        from repro.serve import ServingEngine, single_session

        range_bin_m = float(range_axis(config.fmcw).round_trip_per_bin_m)
        spec = single_session(config, range_bin_m)
        source = SyntheticFrameSource(spec, seed=3)
        blocks = [source.next_block() for _ in range(12)]

        def run(transport):
            with ServingEngine(workers=2, transport=transport) as engine:
                sessions = [engine.admit(spec) for _ in range(3)]
                for block in blocks:
                    for session in sessions:
                        engine.submit(session, block)
                    engine.tick()
                engine.drain()
                return [engine.close(s) for s in sessions]

        via_pipe, via_shm = run("pipe"), run("shm")
        for a, b in zip(via_pipe, via_shm):
            np.testing.assert_array_equal(a.frame_times_s, b.frame_times_s)
            np.testing.assert_array_equal(a.tof_m, b.tof_m)
            np.testing.assert_array_equal(a.positions, b.positions)
            np.testing.assert_array_equal(a.motion, b.motion)
