"""Load-harness tests: arrivals, workloads, SLO ledger, memory admission.

The properties the CI artifact leans on, pinned:

* same seed -> byte-identical SLO JSON (the artifact is a pure function
  of workload + engine configuration; wall clock never enters it);
* offered load above capacity produces *measured* overload — queueing
  latency beyond one step, frame drops — instead of silent growth;
* a memory budget turns overload into admission rejections while
  committed bytes stay under the budget (bounded memory, not OOM);
* the distributed tier enforces per-shard predicted-byte budgets.
"""

import json

import numpy as np
import pytest

from repro.exec import pool_available
from repro.loadgen import (
    DiurnalArrivals,
    FlashCrowdArrivals,
    LoadHarness,
    MemoryGovernor,
    PoissonArrivals,
    SLOLedger,
    SpecMemoryModel,
    SyntheticFrameSource,
    arrival_process,
    build_workload,
    frame_shape,
)
from repro.serve import (
    AdmissionRefused,
    ServingEngine,
    multi_session,
    single_session,
)

FRAME_DT_S = 0.0125  # 5 sweeps x 2.5 ms, the default spec frame period


@pytest.fixture(scope="module")
def spec():
    return single_session()


class TestArrivals:
    def test_poisson_sample_deterministic(self):
        proc = PoissonArrivals(rate_hz=5.0)
        a = proc.sample(10.0, np.random.default_rng(3))
        b = proc.sample(10.0, np.random.default_rng(3))
        assert np.array_equal(a, b)
        assert np.all((a >= 0) & (a < 10.0))
        assert np.all(np.diff(a) >= 0)

    def test_poisson_rate_scales_counts(self):
        rng = np.random.default_rng(0)
        slow = PoissonArrivals(rate_hz=1.0).sample(200.0, rng)
        fast = PoissonArrivals(rate_hz=10.0).sample(
            200.0, np.random.default_rng(0)
        )
        assert len(fast) > 5 * len(slow)

    def test_diurnal_rate_swings_and_floors(self):
        proc = DiurnalArrivals(base_rate_hz=2.0, swing=1.5, period_s=40.0)
        rates = [proc.rate_at(t) for t in np.linspace(0, 40.0, 200)]
        assert min(rates) == 0.0  # swing > 1 clips at zero
        assert max(rates) <= proc.peak_rate()

    def test_flash_trapezoid(self):
        proc = FlashCrowdArrivals(
            base_rate_hz=1.0, flash_rate_hz=9.0,
            flash_start_s=2.0, flash_duration_s=3.0, ramp_s=1.0,
        )
        assert proc.rate_at(0.0) == 1.0
        assert proc.rate_at(2.5) == pytest.approx(5.0)  # mid up-ramp
        assert proc.rate_at(4.0) == 9.0                 # plateau
        assert proc.rate_at(6.5) == pytest.approx(5.0)  # mid down-ramp
        assert proc.rate_at(10.0) == 1.0

    def test_factory(self):
        assert isinstance(
            arrival_process("poisson", rate_hz=1.0), PoissonArrivals
        )
        with pytest.raises(ValueError, match="unknown arrival process"):
            arrival_process("bursty")


class TestWorkload:
    def test_deterministic_expansion(self):
        proc = PoissonArrivals(rate_hz=4.0)
        a = build_workload(proc, 5.0, FRAME_DT_S, seed=9)
        b = build_workload(proc, 5.0, FRAME_DT_S, seed=9)
        assert a.plans == b.plans
        assert a.describe() == b.describe()

    def test_seed_changes_plan(self):
        proc = PoissonArrivals(rate_hz=4.0)
        a = build_workload(proc, 5.0, FRAME_DT_S, seed=1)
        b = build_workload(proc, 5.0, FRAME_DT_S, seed=2)
        assert a.plans != b.plans

    def test_lifetimes_floored_and_mix_drawn(self):
        wl = build_workload(
            PoissonArrivals(rate_hz=10.0), 10.0, FRAME_DT_S, seed=0,
            lifetime_mean_s=0.01,  # far below one frame: floor kicks in
            mix={"single": 0.5, "multi": 0.5},
        )
        assert wl.num_sessions > 0
        assert all(p.lifetime_frames >= 2 for p in wl.plans)
        kinds = {p.kind for p in wl.plans}
        assert kinds <= {"single", "multi"}
        assert len(kinds) == 2  # both kinds drawn at 50/50 over ~100 draws
        assert len({p.seed for p in wl.plans}) == wl.num_sessions

    def test_bad_mix_rejected(self):
        with pytest.raises(ValueError, match="mix weights"):
            build_workload(
                PoissonArrivals(rate_hz=1.0), 5.0, FRAME_DT_S,
                mix={"single": -1.0},
            )


class TestSyntheticFrames:
    def test_shape_matches_spec(self, spec):
        source = SyntheticFrameSource(spec, seed=0)
        block = source.next_block()
        assert block.shape == frame_shape(spec)
        assert np.iscomplexobj(block)

    def test_deterministic_stream(self, spec):
        a = SyntheticFrameSource(spec, seed=5)
        b = SyntheticFrameSource(spec, seed=5)
        for _ in range(4):
            assert np.array_equal(a.next_block(), b.next_block())

    @pytest.mark.parametrize("kind", ["single", "multi"])
    @pytest.mark.parametrize("n_targets", [1, 2, 3])
    def test_block_is_the_two_draw_expression(self, kind, n_targets):
        """The in-place block equals noise drawn as two separate halves
        and summed with the signal, bitwise, on the same stream."""
        spec = (single_session if kind == "single" else multi_session)()
        source = SyntheticFrameSource(spec, seed=11, n_targets=n_targets)
        twin = SyntheticFrameSource(spec, seed=11, n_targets=n_targets)
        for _ in range(50):
            rng, (n_rx, spf, n_bins) = twin._rng, twin.shape
            twin._pos = np.clip(
                twin._pos + rng.normal(0.0, 0.4, size=twin._pos.shape),
                twin._lo,
                twin._hi,
            )
            noise = 0.05 * (
                rng.standard_normal((n_rx, spf, n_bins))
                + 1j * rng.standard_normal((n_rx, spf, n_bins))
            )
            bumps = np.exp(
                -0.5 * ((twin._bins[None, :] - twin._pos[:, None]) / 2.5) ** 2
            )
            phases = np.exp(
                1j * rng.uniform(0.0, 2.0 * np.pi, size=len(twin._pos))
            )
            want = noise + (phases[:, None] * bumps).sum(axis=0)[None, None, :]
            assert source.next_block().tobytes() == want.tobytes()

    def test_engine_produces_positions(self, spec):
        """Synthetic frames do real work: the pipeline localizes them."""
        engine = ServingEngine()
        session = engine.admit(spec)
        source = SyntheticFrameSource(spec, seed=2)
        for _ in range(12):
            engine.submit(session, source.next_block())
        result = engine.close(session)
        assert result.positions is not None
        assert np.isfinite(result.positions).any()


class TestSLOLedger:
    def test_report_schema_and_math(self):
        ledger = SLOLedger(step_dt_s=0.0125, budget_s=0.075)
        ledger.session_admitted("single")
        ledger.session_rejected("single")
        for latency_steps in (1, 1, 2, 20):  # 20 steps = 250 ms: a breach
            ledger.frame_offered("single", accepted=True)
            ledger.frame_consumed("single", latency_steps * 0.0125)
        ledger.frame_offered("single", accepted=False)  # a drop
        ledger.sample(
            queue_depth=3, live_sessions=1, slots_attached=1,
            offered=5, consumed=4,
        )
        report = ledger.report({"note": "unit"})
        assert report["schema"] == "load-slo.v1"
        assert report["sessions"] == {
            "arrived": 2, "admitted": 1, "rejected": 1, "completed": 0,
            "evicted_at_horizon": 0, "rejection_rate": 0.5,
        }
        assert report["frames"]["offered"] == 5
        assert report["frames"]["dropped"] == 1
        assert report["frames"]["drop_rate"] == 0.2
        assert report["latency"]["p50_ms"] == pytest.approx(18.75)
        assert report["latency"]["max_ms"] == pytest.approx(250.0)
        assert report["within_budget_fraction"] == 0.75
        assert report["context"]["note"] == "unit"
        assert report["series"]["queue_depth_max"] == 3

    def test_series_decimated(self):
        ledger = SLOLedger(step_dt_s=0.0125)
        for _ in range(1000):
            ledger.sample(0, 0, 0, 0, 0)
        series = ledger.report()["series"]
        assert len(series["queue_depth"]) <= 256
        assert series["stride_steps"] == 4


def _run_harness(seed=0, capacity=None, budget_bytes=None, workers=0,
                 rate_hz=4.0, horizon_s=1.5, queue_capacity=8):
    """One short flash-crowd harness run; returns the SLO report."""
    proc = FlashCrowdArrivals(
        base_rate_hz=rate_hz, flash_rate_hz=6 * rate_hz,
        flash_start_s=0.25 * horizon_s, flash_duration_s=0.5 * horizon_s,
        ramp_s=0.1 * horizon_s,
    )
    workload = build_workload(
        proc, horizon_s, FRAME_DT_S, seed=seed, lifetime_mean_s=0.5,
    )
    admission = None
    if budget_bytes is not None:
        admission = MemoryGovernor(
            budget_bytes,
            model=SpecMemoryModel(queue_capacity=queue_capacity),
        )
    with ServingEngine(
        queue_capacity=queue_capacity, workers=workers, admission=admission
    ) as engine:
        harness = LoadHarness(
            engine, workload, {"single": single_session()},
            capacity_frames_per_step=capacity,
        )
        return harness.run()


class TestLoadHarness:
    def test_same_seed_identical_slo_json(self):
        a = _run_harness(seed=7, capacity=4)
        b = _run_harness(seed=7, capacity=4)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_seed_changes_the_run(self):
        a = _run_harness(seed=7, capacity=4)
        b = _run_harness(seed=8, capacity=4)
        assert json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)

    def test_unbounded_capacity_keeps_up(self):
        report = _run_harness(seed=0, capacity=None)
        assert report["frames"]["dropped"] == 0
        # Every frame is consumed the step it was offered: one-step
        # latency, well inside the budget.
        assert report["latency"]["max_ms"] == pytest.approx(12.5)
        assert report["within_budget_fraction"] == 1.0

    def test_overload_measured_not_hidden(self):
        """Offered load above capacity must surface as queueing + drops."""
        report = _run_harness(seed=0, capacity=2)
        assert report["frames"]["dropped"] > 0
        assert report["frames"]["drop_rate"] > 0.0
        assert report["latency"]["p99_ms"] > report["budget_ms"]
        assert report["series"]["queue_depth_max"] > 0
        # Conservation: every offered frame is consumed, dropped, or
        # left in a queue at eviction.
        frames = report["frames"]
        assert frames["offered"] == (
            frames["consumed"] + frames["dropped"]
            + frames["abandoned_in_queue"]
        )

    def test_goodput_cannot_exceed_consumed(self):
        report = _run_harness(seed=3, capacity=3)
        throughput = report["throughput"]
        assert throughput["goodput_fps"] <= throughput["consumed_fps"]
        assert throughput["consumed_fps"] <= throughput["offered_fps"]

    def test_memory_budget_rejects_instead_of_growing(self):
        """The acceptance property: overload meets refusals, not OOM."""
        model = SpecMemoryModel(queue_capacity=8)
        per_session = model.estimate(single_session())
        budget = 3 * per_session  # room for three concurrent sessions
        report = _run_harness(seed=0, capacity=2, budget_bytes=budget)
        sessions = report["sessions"]
        assert sessions["rejected"] > 0
        assert sessions["rejection_rate"] > 0.0
        memory = report["context"]["memory"]
        assert memory["peak_committed_bytes"] <= budget
        assert memory["rejections"] == sessions["rejected"]
        assert report["context"]["engine"]["rejected_admissions"] == (
            sessions["rejected"]
        )

    def test_kind_missing_spec_rejected(self):
        workload = build_workload(
            PoissonArrivals(rate_hz=2.0), 1.0, FRAME_DT_S,
            mix={"multi": 1.0},
        )
        with ServingEngine() as engine:
            with pytest.raises(ValueError, match="have no spec"):
                LoadHarness(engine, workload, {"single": single_session()})


class TestMemoryGovernor:
    def test_estimate_cached_and_positive(self, spec):
        model = SpecMemoryModel(queue_capacity=8)
        first = model.estimate(spec)
        assert first > 0
        assert model.estimate(spec) == first  # cohort-key cache

    def test_estimate_includes_queue_term(self, spec):
        small = SpecMemoryModel(queue_capacity=1).estimate(spec)
        large = SpecMemoryModel(queue_capacity=64).estimate(spec)
        n_rx, spf, n_bins = frame_shape(spec)
        assert large - small == 63 * n_rx * spf * n_bins * 16

    def test_commit_release_cycle(self, spec):
        model = SpecMemoryModel(queue_capacity=4)
        per_session = model.estimate(spec)
        governor = MemoryGovernor(2 * per_session, model=model)
        engine = ServingEngine(queue_capacity=4, admission=governor)
        a = engine.admit(spec)
        b = engine.admit(spec)
        assert governor.committed_bytes == 2 * per_session
        assert engine.try_admit(spec) is None  # budget exhausted
        assert governor.rejections == 1
        engine.close(a)
        assert governor.committed_bytes == per_session
        c = engine.try_admit(spec)  # freed budget readmits
        assert c is not None
        assert governor.peak_committed_bytes == 2 * per_session
        engine.close(b)
        engine.close(c)
        assert governor.committed_bytes == 0


@pytest.mark.skipif(not pool_available(), reason="needs fork")
class TestDistributedAdmission:
    def test_shard_budget_refuses_placement(self, spec):
        model = SpecMemoryModel(queue_capacity=4)
        per_session = model.estimate(spec)
        with ServingEngine(
            queue_capacity=4,
            workers=2,
            memory_model=model,
            shard_budget_bytes=2 * per_session,
        ) as engine:
            if not engine.distributed:  # pool fell back: nothing to test
                pytest.skip("worker pool unavailable")
            # Placement spreads same-spec sessions across shards, so a
            # 2-session-per-shard budget admits 4 across 2 shards; the
            # fifth fits nowhere and is refused before any allocation.
            admitted = [engine.admit(spec) for _ in range(4)]
            with pytest.raises(AdmissionRefused):
                engine.admit(spec)
            assert engine.rejected_admissions == 1
            assert engine.try_admit(spec) is None
            assert engine.rejected_admissions == 2
            report = engine.scheduler.shard_report()
            assert [entry["predicted_bytes"] for entry in report] == (
                [2 * per_session, 2 * per_session]
            )
            for session in admitted:
                engine.close(session)
            # Retiring frees predicted bytes: admission reopens.
            assert engine.try_admit(spec) is not None

    def test_distributed_harness_run_completes(self):
        report = _run_harness(seed=1, capacity=4, workers=2, rate_hz=2.0,
                              horizon_s=1.0)
        assert report["context"]["workers"] in (0, 2)
        frames = report["frames"]
        assert frames["consumed"] > 0
        assert frames["offered"] == (
            frames["consumed"] + frames["dropped"]
            + frames["abandoned_in_queue"]
        )
