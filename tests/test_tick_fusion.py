"""One single-person chain: numpy pipelines == reference pipelines, bitwise.

Each single-person stage's arithmetic is one backend-dispatched kernel
(background power, contour tick, outlier gate, Kalman tick, plus the
closed-form T solve) over state rows the stage addresses itself: a
tick over the dense slot vector ``0..n-1`` updates the slabs in place
through ``[:n]`` views, any other slot vector (priming ticks, partial
cohorts, permutations) gathers its rows and writes them back. These
tests pin the contract that makes the numpy fast paths safe to ship:

* a numpy pipeline and a reference pipeline produce **bit-identical**
  tick outputs and stage state, including the NaN hold/outlier paths
  and non-finite frames;
* both addressing paths agree across lifecycle events (attach, evict,
  slot moves checked against a twin that never moved, on either side
  of the numpy<->reference boundary, alternating backends on one
  pipeline), by example and by a hypothesis property;
* the tick-plan switch (``REPRO_FUSED`` / :func:`enable_fusion`) only
  chooses whether ``Pipeline.tick`` enters the chain through
  :meth:`TickPlan.run` or its own stage loop: one side of every
  comparison takes each route, and the profiler records one row per
  stage either way.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.core.localize import LeastSquaresSolver, TGeometrySolver
from repro.geometry.antennas import t_array
from repro.kernels import use_backend
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
    if kind in ("target", "glitch"):
        k = 35 + int(9 * np.sin(t * 0.4))
        base[:, :, k] += 35.0 * np.exp(1j * 0.2 * t)
        base[:, :, k + 1] += 20.0
        if kind == "glitch" and t % 5 == 0:  # non-finite or huge cells
            base[1, :, 30:61] = (np.nan, np.inf, 1e300)[(t // 5) % 3]
    elif kind == "ramp":  # monotone power: no local maximum -> all NaN
        base = np.cumsum(np.abs(base), axis=2) + 0.0j
    elif kind == "still":  # identical frames -> zero diff -> silence
        base = np.full((N_RX, spf, N_BINS), 2.0 + 1.0j)
    return base


def _tick_on(pipeline, backend, fused, arr, slots):
    """One tick of ``pipeline`` under ``backend``, entering the chain
    through the tick plan (``fused``) or the pipeline's own loop."""
    with use_backend(backend):
        enable_fusion(fused)
        return pipeline.tick(arr.copy(), slots)


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


def _slot_state(pipeline, slot) -> list:
    """One slot's state as the stages declare it: the slot's frame
    count, then the slot's row of every allocated ``Stage.STATE`` slab."""
    return [pipeline._frames_in[slot]] + [
        slab[slot]
        for stage in pipeline.stages
        for _, attr, _, _ in stage._SLABS
        if (slab := getattr(stage, attr)) is not None
    ]


def _same_state(sa, sb) -> bool:
    """Two :func:`_slot_state` reads hold bitwise-equal state."""
    return len(sa) == len(sb) and all(
        np.array_equal(a, b, equal_nan=True) for a, b in zip(sa, sb)
    )


def _assert_state_equal(pa, pb, slots, where=""):
    for slot in slots:
        assert _same_state(
            _slot_state(pa, slot), _slot_state(pb, slot)
        ), (where, slot)


class TestPlanCompilation:
    def test_single_person_chain_compiles(self, config):
        p = _pipeline(config)
        plan = compile_tick_plan(p.stages)
        assert isinstance(plan, TickPlan)
        assert plan.stages == tuple(p.stages)

    def test_chain_without_solver_compiles(self, config):
        p = _pipeline(config, solver=False)
        plan = compile_tick_plan(p.stages)
        assert isinstance(plan, TickPlan)
        assert len(plan.stages) == 5

    def test_multi_person_chain_compiles(self, config):
        from repro.kernels.tick import MultiTickPlan
        from repro.multi.tracks import TrackManager
        from repro.pipeline.runner import multi_person_pipeline

        solver = _solver()
        p = multi_person_pipeline(
            config, RANGE_BIN_M, TrackManager(0.0125, solver), 2
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
    def test_switch_ignores_the_backend(self):
        for on in (True, False):
            enable_fusion(on)
            for backend in ("numpy", "reference"):
                with use_backend(backend):
                    assert fusion_active() is on

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


#: The other backend of each parity pair.
OTHER = {"numpy": "reference", "reference": "numpy"}


class TestFusedStagedParity:
    """numpy == reference, bitwise, across NaN regimes and lifecycles.

    In every pair one pipeline enters the chain through its tick plan
    and the other through the pipeline's stage loop.
    """

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("backend", ["numpy", "reference"])
    def test_steady_parity(self, backend, config):
        """``backend`` runs through the plan, the other backend through
        the stage loop."""
        rng = np.random.default_rng(11)
        spf = config.pipeline.sweeps_per_frame
        kinds = ["target", "still", "ramp", "glitch", "still"]
        pa, pb = _pipeline(config), _pipeline(config)
        for t in range(25):
            arr = np.stack(
                [_block(rng, kinds[s], t + s, spf)
                 for s in range(N_SESSIONS)]
            )
            slots = np.arange(N_SESSIONS)
            ta = _tick_on(pa, backend, True, arr, slots)
            tb = _tick_on(pb, OTHER[backend], False, arr, slots)
            _assert_ticks_equal(ta, tb, f"tick{t}")
        _assert_state_equal(pa, pb, range(N_SESSIONS), "steady")

    @pytest.mark.parametrize("backend", ["numpy"])
    def test_attach_evict_partial_cohorts(self, backend, config):
        rng = np.random.default_rng(5)
        spf = config.pipeline.sweeps_per_frame
        pa = _pipeline(config, n_sessions=3)
        pb = _pipeline(config, n_sessions=3)
        for t in range(30):
            if t == 10:  # mid-stream grow + evict
                for p in (pa, pb):
                    p.attach_sessions(N_SESSIONS)
                    p.evict_session(1)
            n = 3 if t < 10 else N_SESSIONS
            sl = np.arange(n) if t % 3 else np.arange(n)[::2].copy()
            arr = np.stack(
                [_block(rng, "target" if t % 2 else "ramp", t + s, spf)
                 for s in range(len(sl))]
            )
            ta = _tick_on(pa, backend, True, arr, sl)
            tb = _tick_on(pb, OTHER[backend], False, arr, sl)
            _assert_ticks_equal(ta, tb, f"tick{t}")
        _assert_state_equal(pa, pb, range(N_SESSIONS), "lifecycle")

    @pytest.mark.parametrize("backend", ["numpy", "reference"])
    def test_slot_move_across_fused_staged_boundary(self, backend, config):
        """A session moved into a freed slot of its pipeline continues
        bit for bit like a twin that never moved, ticked on the other
        backend; the least-squares warm start moves with it."""
        rng = np.random.default_rng(3)
        spf = config.pipeline.sweeps_per_frame
        other = OTHER[backend]

        def run(p_moved, p_twin, fused, where):
            for t in range(12):
                arr = np.stack(
                    [_block(rng, "target", t + s, spf)
                     for s in range(N_SESSIONS)]
                )
                slots = np.arange(N_SESSIONS)
                _tick_on(p_moved, backend, fused, arr, slots)
                _tick_on(p_twin, other, False, arr, slots)
            # Slot 2's session leaves: the last member moves into it,
            # and its old slot is fresh.
            p_moved.move_session(4, 2)
            p_moved.attach_sessions(N_SESSIONS + 1)
            assert _same_state(_slot_state(p_moved, 4),
                               _slot_state(p_moved, N_SESSIONS))
            fixes = 0
            for t in range(10):
                kind = "target" if t % 2 else "still"
                arr = _block(rng, kind, 50 + t, spf)[None]
                ta = _tick_on(p_moved, backend, fused, arr, np.array([2]))
                tb = _tick_on(p_twin, other, False, arr, np.array([4]))
                tb.slots = ta.slots  # the twin serves it from slot 4
                _assert_ticks_equal(ta, tb, f"{where}{t}")
                fixes += int(np.isfinite(ta.positions).all(axis=1).sum())
            assert _same_state(_slot_state(p_moved, 2),
                               _slot_state(p_twin, 4)), where
            return fixes

        run(_pipeline(config), _pipeline(config), True, "move")

        # The least-squares chain matches no plan; its per-slot warm
        # start must move too, or the moved session's fixes drift from
        # the ones it would have produced in place.
        def lsq_pipeline():
            p = single_person_pipeline(
                config, RANGE_BIN_M,
                solver=LeastSquaresSolver(t_array()),
            )
            p.attach_sessions(N_SESSIONS)
            return p

        fixes = run(lsq_pipeline(), lsq_pipeline(), False, "lsq")
        assert fixes > 0  # the warm start was exercised

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_any_slot_vector(self, config, data):
        """numpy == reference over prefix, subset and permuted slot
        vectors, with attach / evict / slot moves between ticks; and
        both equal a third pipeline that holds every session one slot
        up, so its ticks are never dense: the in-place ``[:n]`` path
        and the gather path agree bitwise."""
        draw = data.draw
        n = draw(st.integers(1, 6), label="slots")
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        spf = config.pipeline.sweeps_per_frame
        regimes = st.sampled_from(["target", "target", "still", "ramp"])
        kinds = [draw(regimes) for _ in range(6)]
        pa, pb = _pipeline(config, n), _pipeline(config, n)
        pc = _pipeline(config, n + 1)  # session s lives in slot s + 1
        for t in range(draw(st.integers(20, 40), label="ticks")):
            event = draw(st.sampled_from(
                ["tick"] * 4 + ["attach", "evict", "move"]))
            if event == "attach" and n < 6:
                n += 1
                for p, up in ((pa, 0), (pb, 0), (pc, 1)):
                    p.attach_sessions(n + up)
            elif event == "evict":
                slot = draw(st.integers(0, n - 1))
                for p, up in ((pa, 0), (pb, 0), (pc, 1)):
                    p.evict_session(slot + up)
            elif event == "move" and n > 1:
                src, dst = draw(st.permutations(range(n)))[:2]
                for p, up in ((pa, 0), (pb, 0), (pc, 1)):
                    p.move_session(src + up, dst + up)
            shape = draw(st.sampled_from(["prefix", "subset", "perm"]))
            if shape == "prefix":
                slots = np.arange(draw(st.integers(1, n)))
            elif shape == "subset":
                chosen = draw(st.sets(st.integers(0, n - 1), min_size=1))
                slots = np.array(sorted(chosen))
            else:
                slots = np.array(draw(st.permutations(range(n))))
            arr = np.stack(
                [_block(rng, kinds[s], t + s, spf) for s in slots]
            )
            ta = _tick_on(pa, "numpy", True, arr, slots)
            tb = _tick_on(pb, "reference", False, arr, slots)
            tc = _tick_on(pc, "numpy", False, arr, slots + 1)
            _assert_ticks_equal(ta, tb, f"tick{t} {slots}")
            tc.slots = tc.slots - 1
            _assert_ticks_equal(ta, tc, f"tick{t} {slots} gathered")
            _assert_state_equal(pa, pb, range(n), f"tick{t} {slots}")
            for s in range(n):
                assert _same_state(_slot_state(pa, s),
                                   _slot_state(pc, s + 1)), (t, s)
        assert isinstance(pa._tick_plan, TickPlan)

    def test_alternating_execution_on_one_pipeline(self, config):
        """Flipping the backend and REPRO_FUSED mid-stream on one
        pipeline must not change outputs."""
        rng = np.random.default_rng(9)
        spf = config.pipeline.sweeps_per_frame
        p_ref = _pipeline(config)
        p_mix = _pipeline(config)
        for t in range(16):
            arr = np.stack(
                [_block(rng, "target", t + s, spf)
                 for s in range(N_SESSIONS)]
            )
            slots = np.arange(N_SESSIONS)
            ta = _tick_on(p_ref, "reference", False, arr, slots)
            backend = "numpy" if t % 3 else "reference"
            tb = _tick_on(p_mix, backend, bool(t % 2), arr, slots)
            _assert_ticks_equal(ta, tb, f"mix{t}")
        _assert_state_equal(p_ref, p_mix, range(N_SESSIONS), "mix")


class TestRetainedOutputs:
    @pytest.mark.parametrize("stages", [6, 4])
    def test_outputs_never_alias_stage_state(self, config, stages):
        """Every array a dense tick hands out stays as it was through
        later ticks (which update the slabs in place), also for a chain
        that ends at the hold stage."""
        from repro.pipeline.runner import Pipeline

        full = _pipeline(config)
        p = Pipeline(
            full.stages[:stages],
            sweep_duration_s=full.sweep_duration_s,
            sweeps_per_frame=full.sweeps_per_frame,
            range_bin_m=full.range_bin_m,
            max_range_m=full.max_range_m,
        )
        p.attach_sessions(N_SESSIONS)
        rng = np.random.default_rng(4)
        spf = config.pipeline.sweeps_per_frame
        kept = []
        with use_backend("numpy"):
            for t in range(12):
                arr = np.stack(
                    [_block(rng, "target" if s % 2 else "still", t + s, spf)
                     for s in range(N_SESSIONS)]
                )
                tick = p.tick(arr, np.arange(N_SESSIONS))
                assert tick.dense or t == 0  # the first tick only primes
                kept.append((tick, _tick_fields(tick)))
        for tick, fields in kept:
            for name in ("spectrum", "raw_tof_m", "tof_m", "motion",
                         "positions"):
                if name in fields:
                    assert np.array_equal(getattr(tick, name), fields[name],
                                          equal_nan=True), name


#: The single-person chain's profiler rows.
STAGE_ROWS = ("BackgroundSubtract", "ContourExtract", "OutlierGate",
              "HoldInterpolate", "KalmanSmooth", "Localize")


class TestProfilerRows:
    def _profile(self, config, monkeypatch, fused):
        from repro.kernels import profile as profile_mod

        monkeypatch.setattr(profile_mod, "_forced", True)
        rng = np.random.default_rng(2)
        spf = config.pipeline.sweeps_per_frame
        with use_backend("numpy"):
            enable_fusion(fused)
            p = _pipeline(config)
            assert isinstance(p.profiler, StageProfiler)
            for t in range(3):
                arr = np.stack(
                    [_block(rng, "target", t + s, spf)
                     for s in range(N_SESSIONS)]
                )
                p.tick(arr, np.arange(N_SESSIONS))
        return p.profiler.as_dict()

    def test_fused_tick_and_dispatch_rows(self, config, monkeypatch):
        """With tick plans on, a profiled tick still records one row
        per stage (there is no whole-chain ``fused_tick`` row)."""
        stats = self._profile(config, monkeypatch, fused=True)
        assert set(stats) == {"frame_average", "dispatch", *STAGE_ROWS}
        # The first tick only primes background subtraction; the chain
        # proper runs on the remaining two.
        assert stats["BackgroundSubtract"]["calls"] == 3
        for name in STAGE_ROWS[1:]:
            assert stats[name]["calls"] == 2, name

    def test_staged_rows_when_fusion_off(self, config, monkeypatch):
        stats = self._profile(config, monkeypatch, fused=False)
        assert set(stats) == {"frame_average", "dispatch", *STAGE_ROWS}
        assert stats["OutlierGate"]["calls"] == 2
