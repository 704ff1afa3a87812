"""Compiled tick plans: fused chain == staged loop, bitwise.

The tick compiler (:mod:`repro.kernels.tick`) stitches the single-person
stage chain into one backend call per cohort tick. These tests pin the
contract that makes that safe to ship:

* fused and staged execution produce **bit-identical** tick outputs and
  stage state, per backend, including the NaN hold/outlier paths;
* lifecycle events (attach, evict, partial cohorts, snapshot/restore
  across a fused<->staged boundary, alternating execution on one
  pipeline) never desynchronize the plan's resident state from the
  stage slabs;
* the ``reference`` backend never fuses, ``REPRO_FUSED=0`` /
  :func:`enable_fusion` force the staged loop everywhere, and the
  profiler reports the fused path under its own rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core.localize import LeastSquaresSolver, TGeometrySolver
from repro.geometry.antennas import t_array
from repro.kernels import available_backends, use_backend
from repro.kernels.profile import StageProfiler
from repro.kernels.tick import (
    TickPlan,
    compile_tick_plan,
    enable_fusion,
    fused_enabled,
    fusion_active,
    reset_fusion_override,
)
from repro.pipeline.runner import single_person_pipeline

RANGE_BIN_M = 0.05
N_RX = 3
N_BINS = 121
N_SESSIONS = 5


@pytest.fixture(autouse=True)
def _restore_fusion():
    yield
    reset_fusion_override()


def _solver():
    return TGeometrySolver(t_array())


def _pipeline(config, n_sessions=N_SESSIONS, solver=True):
    p = single_person_pipeline(
        config,
        RANGE_BIN_M,
        solver=_solver() if solver else None,
        localize=solver,
    )
    p.attach_sessions(n_sessions)
    return p


def _block(rng, kind, t, spf):
    """One session's sweep block; ``kind`` picks the NaN-path regime."""
    base = rng.standard_normal((N_RX, spf, N_BINS)) + 1j * rng.standard_normal(
        (N_RX, spf, N_BINS)
    )
    if kind == "target":
        k = 35 + int(9 * np.sin(t * 0.4))
        base[:, :, k] += 35.0 * np.exp(1j * 0.2 * t)
        base[:, :, k + 1] += 20.0
    elif kind == "ramp":  # monotone power: no local maximum -> all NaN
        base = np.cumsum(np.abs(base), axis=2) + 0.0j
    elif kind == "still":  # identical frames -> zero diff -> silence
        base = np.full((N_RX, spf, N_BINS), 2.0 + 1.0j)
    return base


def _tick_fields(tick):
    out = {}
    for f in ("slots", "indices", "times_s", "spectrum", "power",
              "raw_tof_m", "tof_m", "motion", "positions"):
        v = getattr(tick, f, None)
        if v is not None:
            out[f] = np.asarray(v).copy()
    return out


def _assert_ticks_equal(ta, tb, where=""):
    fa, fb = _tick_fields(ta), _tick_fields(tb)
    assert set(fa) == set(fb), (where, set(fa) ^ set(fb))
    for key, va in fa.items():
        assert np.array_equal(va, fb[key], equal_nan=True), (where, key)


def _assert_state_equal(pa, pb, slots, where=""):
    for slot in slots:
        sa, sb = pa.snapshot_session(slot), pb.snapshot_session(slot)
        assert sa["frames_in"] == sb["frames_in"], (where, slot)
        for i, (da, db) in enumerate(zip(sa["stages"], sb["stages"])):
            assert set(da) == set(db), (where, slot, i)
            for key, va in da.items():
                vb = db[key]
                if isinstance(va, np.ndarray):
                    assert np.array_equal(va, vb, equal_nan=True), (
                        where, slot, i, key)
                else:
                    same = va == vb or (va != va and vb != vb)
                    assert same, (where, slot, i, key)


def _backends():
    return available_backends()


class TestPlanCompilation:
    def test_single_person_chain_compiles(self, config):
        p = _pipeline(config)
        plan = compile_tick_plan(p.stages)
        assert isinstance(plan, TickPlan)
        assert plan.localize is not None

    def test_chain_without_solver_compiles(self, config):
        p = _pipeline(config, solver=False)
        plan = compile_tick_plan(p.stages)
        assert isinstance(plan, TickPlan)
        assert plan.localize is None

    def test_multi_person_chain_compiles(self, config):
        from repro.kernels.tick import MultiTickPlan
        from repro.multi.tracks import TrackManager
        from repro.pipeline.runner import multi_person_pipeline

        solver = _solver()
        p = multi_person_pipeline(
            config, RANGE_BIN_M, TrackManager(0.0125, solver), 2,
            manager_factory=lambda: TrackManager(0.0125, _solver()),
        )
        assert isinstance(compile_tick_plan(p.stages), MultiTickPlan)

    def test_multi_person_least_squares_stays_staged(self, config):
        from repro.core.localize import make_solver
        from repro.multi.tracks import TrackManager
        from repro.pipeline.runner import multi_person_pipeline

        solver = make_solver(t_array(), method="least_squares")
        p = multi_person_pipeline(
            config, RANGE_BIN_M, TrackManager(0.0125, solver), 2
        )
        assert compile_tick_plan(p.stages) is None

    def test_mismatched_chain_stays_staged(self, config):
        p = _pipeline(config)
        # A truncated or extended chain never matches the pattern.
        assert compile_tick_plan(p.stages[:3]) is None
        assert compile_tick_plan(list(p.stages) + [p.stages[-1]]) is None

    def test_least_squares_solver_stays_staged(self, config):
        from repro.core.localize import make_solver

        p = single_person_pipeline(
            config, RANGE_BIN_M,
            solver=make_solver(t_array(), method="least_squares"),
        )
        assert compile_tick_plan(p.stages) is None


class TestFusionSwitches:
    def test_reference_backend_never_fuses(self):
        enable_fusion(True)
        with use_backend("reference"):
            assert not fusion_active()
        with use_backend("numpy"):
            assert fusion_active()

    def test_enable_fusion_overrides(self):
        enable_fusion(False)
        assert not fused_enabled()
        with use_backend("numpy"):
            assert not fusion_active()
        enable_fusion(True)
        assert fused_enabled()

    def test_env_variable_respected(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSED", "0")
        reset_fusion_override()
        assert not fused_enabled()
        monkeypatch.setenv("REPRO_FUSED", "1")
        reset_fusion_override()
        assert fused_enabled()


class TestFusedStagedParity:
    """Fused == staged, bitwise, across backends and NaN regimes."""

    @pytest.mark.parametrize("backend", ["numpy", "reference", "numba"])
    def test_steady_parity(self, backend, config):
        if backend not in _backends():
            pytest.skip(f"{backend} unavailable")
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        spf = config.pipeline.sweeps_per_frame
        kinds = ["target", "still", "ramp", "target", "still"]
        with use_backend(backend):
            enable_fusion(False)
            ps = _pipeline(config)
            enable_fusion(True)
            pf = _pipeline(config)
            for t in range(25):
                arr = np.stack(
                    [_block(rng_a, kinds[s], t + s, spf)
                     for s in range(N_SESSIONS)]
                )
                arr_b = np.stack(
                    [_block(rng_b, kinds[s], t + s, spf)
                     for s in range(N_SESSIONS)]
                )
                enable_fusion(False)
                ta = ps.tick(arr, np.arange(N_SESSIONS))
                enable_fusion(True)
                tb = pf.tick(arr_b, np.arange(N_SESSIONS))
                _assert_ticks_equal(ta, tb, f"tick{t}")
            _assert_state_equal(ps, pf, range(N_SESSIONS), "steady")

    @pytest.mark.parametrize("backend", ["numpy", "numba"])
    def test_attach_evict_partial_cohorts(self, backend, config):
        if backend not in _backends():
            pytest.skip(f"{backend} unavailable")
        rng = np.random.default_rng(5)
        spf = config.pipeline.sweeps_per_frame
        with use_backend(backend):
            enable_fusion(False)
            ps = _pipeline(config, n_sessions=3)
            enable_fusion(True)
            pf = _pipeline(config, n_sessions=3)
            plans = [None, None]
            for t in range(30):
                if t == 10:  # mid-stream grow + evict
                    for p in (ps, pf):
                        p.attach_sessions(N_SESSIONS)
                        p.evict_session(1)
                n = 3 if t < 10 else N_SESSIONS
                sl = np.arange(n) if t % 3 else np.arange(n)[::2].copy()
                arr = np.stack(
                    [_block(rng, "target" if t % 2 else "ramp", t + s, spf)
                     for s in range(len(sl))]
                )
                enable_fusion(False)
                ta = ps.tick(arr.copy(), sl)
                enable_fusion(True)
                tb = pf.tick(arr.copy(), sl)
                _assert_ticks_equal(ta, tb, f"tick{t}")
            _assert_state_equal(ps, pf, range(N_SESSIONS), "lifecycle")

    @pytest.mark.parametrize("backend", ["numpy", "numba"])
    def test_snapshot_restore_across_fused_staged_boundary(
        self, backend, config
    ):
        if backend not in _backends():
            pytest.skip(f"{backend} unavailable")
        rng = np.random.default_rng(3)
        spf = config.pipeline.sweeps_per_frame
        with use_backend(backend):
            enable_fusion(True)
            pf = _pipeline(config)
            enable_fusion(False)
            ps = _pipeline(config)
            for t in range(12):
                arr = np.stack(
                    [_block(rng, "target", t + s, spf)
                     for s in range(N_SESSIONS)]
                )
                enable_fusion(True)
                pf.tick(arr.copy(), np.arange(N_SESSIONS))
                enable_fusion(False)
                ps.tick(arr.copy(), np.arange(N_SESSIONS))
            # Migrate a fused-run session into a staged engine and a
            # staged-run session into a fused engine; they must stay in
            # lockstep bit for bit.
            snap_f = pf.snapshot_session(2)
            snap_s = ps.snapshot_session(2)
            enable_fusion(False)
            p_to_staged = _pipeline(config)
            p_to_staged.restore_session(4, snap_f)
            enable_fusion(True)
            p_to_fused = _pipeline(config)
            p_to_fused.restore_session(4, snap_s)
            for t in range(10):
                arr = _block(rng, "target" if t % 2 else "still", 50 + t,
                             spf)[None]
                enable_fusion(False)
                ta = p_to_staged.tick(arr.copy(), np.array([4]))
                enable_fusion(True)
                tb = p_to_fused.tick(arr.copy(), np.array([4]))
                _assert_ticks_equal(ta, tb, f"mig{t}")
            _assert_state_equal(p_to_staged, p_to_fused, [4], "migration")

            # The least-squares chain never fuses; its per-slot warm
            # start must migrate too, or the moved session's fixes drift
            # from the ones it would have produced in place.
            def lsq_pipeline():
                p = single_person_pipeline(
                    config, RANGE_BIN_M,
                    solver=LeastSquaresSolver(t_array()),
                )
                p.attach_sessions(N_SESSIONS)
                return p

            p_home = lsq_pipeline()
            for t in range(12):
                arr = np.stack(
                    [_block(rng, "target", t + s, spf)
                     for s in range(N_SESSIONS)]
                )
                p_home.tick(arr, np.arange(N_SESSIONS))
            p_away = lsq_pipeline()
            p_away.restore_session(2, p_home.snapshot_session(2))
            fixes = 0
            for t in range(10):
                arr = _block(rng, "target", 60 + t, spf)[None]
                ta = p_home.tick(arr.copy(), np.array([2]))
                tb = p_away.tick(arr.copy(), np.array([2]))
                _assert_ticks_equal(ta, tb, f"lsq{t}")
                fixes += int(np.isfinite(ta.positions).all(axis=1).sum())
            assert fixes > 0  # the warm start was exercised
            _assert_state_equal(p_home, p_away, [2], "lsq migration")

    def test_alternating_execution_on_one_pipeline(self, config):
        """Flipping REPRO_FUSED mid-stream must not change outputs."""
        rng = np.random.default_rng(9)
        spf = config.pipeline.sweeps_per_frame
        with use_backend("numpy"):
            enable_fusion(False)
            p_ref = _pipeline(config)
            p_mix = _pipeline(config)
            for t in range(16):
                arr = np.stack(
                    [_block(rng, "target", t + s, spf)
                     for s in range(N_SESSIONS)]
                )
                enable_fusion(False)
                ta = p_ref.tick(arr.copy(), np.arange(N_SESSIONS))
                enable_fusion(bool(t % 2))
                tb = p_mix.tick(arr.copy(), np.arange(N_SESSIONS))
                _assert_ticks_equal(ta, tb, f"mix{t}")
            _assert_state_equal(p_ref, p_mix, range(N_SESSIONS), "mix")


class TestProfilerRows:
    def test_fused_tick_and_dispatch_rows(self, config, monkeypatch):
        from repro.kernels import profile as profile_mod

        monkeypatch.setattr(profile_mod, "_forced", True)
        rng = np.random.default_rng(2)
        spf = config.pipeline.sweeps_per_frame
        with use_backend("numpy"):
            enable_fusion(True)
            p = _pipeline(config)
            assert isinstance(p.profiler, StageProfiler)
            for t in range(4):
                arr = np.stack(
                    [_block(rng, "target", t + s, spf)
                     for s in range(N_SESSIONS)]
                )
                p.tick(arr, np.arange(N_SESSIONS))
            stats = p.profiler.as_dict()
            assert "fused_tick" in stats
            assert "dispatch" in stats
            assert "frame_average" in stats
            assert stats["fused_tick"]["calls"] >= 3
            # The staged per-stage rows must be absent on the fused path
            # (all ticks after the first take the compiled plan).
            assert stats.get("OutlierGate", {}).get("calls", 0) == 0

    def test_staged_rows_when_fusion_off(self, config, monkeypatch):
        from repro.kernels import profile as profile_mod

        monkeypatch.setattr(profile_mod, "_forced", True)
        rng = np.random.default_rng(2)
        spf = config.pipeline.sweeps_per_frame
        with use_backend("numpy"):
            enable_fusion(False)
            p = _pipeline(config)
            for t in range(3):
                arr = np.stack(
                    [_block(rng, "target", t + s, spf)
                     for s in range(N_SESSIONS)]
                )
                p.tick(arr, np.arange(N_SESSIONS))
            stats = p.profiler.as_dict()
            assert "fused_tick" not in stats
            assert "dispatch" in stats
            # First tick only primes background subtraction; the chain
            # proper runs on the remaining two.
            assert stats["OutlierGate"]["calls"] == 2
