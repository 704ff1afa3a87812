"""K-person compiled tick plans: fused multi chain == staged loop, bitwise.

The multi-person mirror of ``test_tick_fusion.py``. The tick compiler
stitches background subtraction, successive cancellation, and the
track-bank association into one fused call per cohort tick
(:class:`repro.kernels.tick.MultiTickPlan`); these tests pin the
contract that makes that safe to ship:

* fused and staged execution produce **bit-identical** tick outputs,
  track identities, and manager state, per backend, through track
  birth, range crossings, coasting, and death;
* lifecycle events (attach, evict, partial cohorts, snapshot/restore
  across a fused<->staged boundary, alternating execution on one
  pipeline) never desynchronize the plan's resident state;
* the profiler reports the fused sub-stages (``fused_cancel``,
  ``fused_associate``) under their own rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.localize import TGeometrySolver
from repro.geometry.antennas import t_array
from repro.kernels import use_backend
from repro.kernels.profile import StageProfiler
from repro.kernels.tick import (
    compile_tick_plan,
    enable_fusion,
    reset_fusion_override,
)
from repro.multi.tracks import TrackManager
from repro.pipeline.multi import Associate
from repro.pipeline.runner import multi_person_pipeline

RANGE_BIN_M = 0.05
N_RX = 3
N_BINS = 121
N_SESSIONS = 4
MAX_TARGETS = 3
DT_S = 0.0125

ARRAY = t_array()


@pytest.fixture(autouse=True)
def _restore_fusion():
    yield
    reset_fusion_override()


def _manager():
    return TrackManager(DT_S, TGeometrySolver(t_array()))


def _pipeline(config, n_sessions=N_SESSIONS):
    p = multi_person_pipeline(
        config, RANGE_BIN_M, _manager(), MAX_TARGETS,
        manager_factory=_manager,
    )
    p.attach_sessions(n_sessions)
    return p


def _walkers(t, s):
    """Two walkers whose round-trip ranges cross mid-run.

    The second walker vanishes for a window (coast -> kill -> rebirth),
    and the session offset ``s`` desynchronizes the cohort rows so no
    two slots ever see the same frame.
    """
    u = 0.04 * (t + 3 * s)
    people = [np.array([-1.2 + 1.1 * u, 1.0 + 0.6 * u, -0.4])]
    if not 18 <= t < 30:
        people.append(np.array([1.3 - 1.2 * u, 2.4 - 0.5 * u, -0.2]))
    return people


def _inject(base, pos, t, amp=4.0):
    """One person's echo: a peak at her round-trip bin per antenna."""
    rts = ARRAY.round_trip_distances(np.asarray(pos, dtype=np.float64))
    for a, rt in enumerate(rts):
        k = int(round(rt / RANGE_BIN_M))
        if 1 <= k < N_BINS - 1:
            base[a, :, k] += amp * np.exp(1j * (0.9 * t + 0.5 * a))
            base[a, :, k + 1] += 0.5 * amp


def _block(rng, t, s, spf, kind="walkers"):
    """One session's sweep block; ``kind`` picks the detection regime."""
    base = 0.05 * (
        rng.standard_normal((N_RX, spf, N_BINS))
        + 1j * rng.standard_normal((N_RX, spf, N_BINS))
    )
    if kind == "walkers":
        for pos in _walkers(t, s):
            _inject(base, pos, t + s)
    elif kind == "still":  # identical frames -> zero diff -> silence
        base = np.full((N_RX, spf, N_BINS), 1.5 + 0.5j)
    return base


def _tick_fields(tick):
    out = {}
    for f in ("slots", "indices", "times_s", "spectrum", "power",
              "candidates_m", "candidate_powers"):
        v = getattr(tick, f, None)
        if v is not None:
            out[f] = np.asarray(v).copy()
    return out


def _assert_ticks_equal(ta, tb, where=""):
    fa, fb = _tick_fields(ta), _tick_fields(tb)
    assert set(fa) == set(fb), (where, set(fa) ^ set(fb))
    for key, va in fa.items():
        assert np.array_equal(va, fb[key], equal_nan=True), (where, key)
    tra = getattr(ta, "tracks", None)
    trb = getattr(tb, "tracks", None)
    assert (tra is None) == (trb is None), where
    if tra is None:
        return
    assert len(tra) == len(trb), where
    for row, (ra, rb) in enumerate(zip(tra, trb)):
        assert len(ra) == len(rb), (where, row)
        for (ia, pa), (ib, pb) in zip(ra, rb):
            assert ia == ib, (where, row, ia, ib)
            assert np.array_equal(pa, pb, equal_nan=True), (where, row, ia)


def _manager_sig(m):
    """Full state signature of one manager (identities included)."""
    return (
        m._next_id,
        tuple(m._ever_confirmed),
        len(m._history),
        tuple(
            (t.track_id, t.status, t.hits, t.misses, t.age, t.support,
             t._mean.tobytes(), t._cov.tobytes(), t.position.tobytes())
            for t in m.tracks
        ),
    )


def _assert_state_equal(pa, pb, slots, where=""):
    for slot in slots:
        sa, sb = pa.snapshot_session(slot), pb.snapshot_session(slot)
        assert sa["frames_in"] == sb["frames_in"], (where, slot)
        for i, (da, db) in enumerate(zip(sa["stages"], sb["stages"])):
            assert set(da) == set(db), (where, slot, i)
            for key, va in da.items():
                vb = db[key]
                if key == "manager":
                    assert _manager_sig(va) == _manager_sig(vb), (
                        where, slot, key)
                elif isinstance(va, np.ndarray):
                    assert np.array_equal(va, vb, equal_nan=True), (
                        where, slot, i, key)
                else:
                    same = va == vb or (va != va and vb != vb)
                    assert same, (where, slot, i, key)


class TestFusedStagedParity:
    """Fused == staged, bitwise, across backends and track lifecycles."""

    @pytest.mark.parametrize("backend", ["numpy", "reference"])
    def test_steady_parity(self, backend, config):
        rng_a = np.random.default_rng(21)
        rng_b = np.random.default_rng(21)
        spf = config.pipeline.sweeps_per_frame
        kinds = ["walkers", "still", "walkers", "walkers"]
        with use_backend(backend):
            enable_fusion(False)
            ps = _pipeline(config)
            enable_fusion(True)
            pf = _pipeline(config)
            for t in range(40):
                arr = np.stack(
                    [_block(rng_a, t, s, spf, kinds[s])
                     for s in range(N_SESSIONS)]
                )
                arr_b = np.stack(
                    [_block(rng_b, t, s, spf, kinds[s])
                     for s in range(N_SESSIONS)]
                )
                enable_fusion(False)
                ta = ps.tick(arr, np.arange(N_SESSIONS))
                enable_fusion(True)
                tb = pf.tick(arr_b, np.arange(N_SESSIONS))
                _assert_ticks_equal(ta, tb, f"tick{t}")
            _assert_state_equal(ps, pf, range(N_SESSIONS), "steady")
            # The fuzz must actually exercise the track lifecycle:
            # every walker slot birthed and confirmed at least one track.
            for s in (0, 2, 3):
                manager = ps.stage(Associate).manager_for(s)
                assert manager._ever_confirmed, f"slot {s} never tracked"

    @pytest.mark.parametrize("backend", ["numpy"])
    def test_attach_evict_partial_cohorts(self, backend, config):
        rng = np.random.default_rng(6)
        spf = config.pipeline.sweeps_per_frame
        with use_backend(backend):
            enable_fusion(False)
            ps = _pipeline(config, n_sessions=3)
            enable_fusion(True)
            pf = _pipeline(config, n_sessions=3)
            for t in range(36):
                if t == 12:  # mid-stream grow + evict
                    for p in (ps, pf):
                        p.attach_sessions(N_SESSIONS)
                        p.evict_session(1)
                n = 3 if t < 12 else N_SESSIONS
                sl = np.arange(n) if t % 3 else np.arange(n)[::2].copy()
                arr = np.stack(
                    [_block(rng, t, int(s), spf) for s in sl]
                )
                enable_fusion(False)
                ta = ps.tick(arr.copy(), sl)
                enable_fusion(True)
                tb = pf.tick(arr.copy(), sl)
                _assert_ticks_equal(ta, tb, f"tick{t}")
            _assert_state_equal(ps, pf, range(N_SESSIONS), "lifecycle")

    @pytest.mark.parametrize("backend", ["numpy"])
    def test_snapshot_restore_across_fused_staged_boundary(
        self, backend, config
    ):
        rng = np.random.default_rng(4)
        spf = config.pipeline.sweeps_per_frame
        with use_backend(backend):
            enable_fusion(True)
            pf = _pipeline(config)
            enable_fusion(False)
            ps = _pipeline(config)
            for t in range(14):
                arr = np.stack(
                    [_block(rng, t, s, spf) for s in range(N_SESSIONS)]
                )
                enable_fusion(True)
                pf.tick(arr.copy(), np.arange(N_SESSIONS))
                enable_fusion(False)
                ps.tick(arr.copy(), np.arange(N_SESSIONS))
            # Migrate a fused-run session into a staged engine and a
            # staged-run session into a fused engine; they must stay in
            # lockstep bit for bit, track identities included.
            snap_f = pf.snapshot_session(2)
            snap_s = ps.snapshot_session(2)
            enable_fusion(False)
            p_to_staged = _pipeline(config)
            p_to_staged.restore_session(3, snap_f)
            enable_fusion(True)
            p_to_fused = _pipeline(config)
            p_to_fused.restore_session(3, snap_s)
            for t in range(12):
                arr = _block(rng, 14 + t, 2, spf,
                             "walkers" if t % 3 else "still")[None]
                enable_fusion(False)
                ta = p_to_staged.tick(arr.copy(), np.array([3]))
                enable_fusion(True)
                tb = p_to_fused.tick(arr.copy(), np.array([3]))
                _assert_ticks_equal(ta, tb, f"mig{t}")
            _assert_state_equal(p_to_staged, p_to_fused, [3], "migration")

    def test_alternating_execution_on_one_pipeline(self, config):
        """Flipping REPRO_FUSED mid-stream must not change outputs."""
        rng = np.random.default_rng(10)
        spf = config.pipeline.sweeps_per_frame
        with use_backend("numpy"):
            enable_fusion(False)
            p_ref = _pipeline(config)
            p_mix = _pipeline(config)
            for t in range(20):
                arr = np.stack(
                    [_block(rng, t, s, spf) for s in range(N_SESSIONS)]
                )
                enable_fusion(False)
                ta = p_ref.tick(arr.copy(), np.arange(N_SESSIONS))
                enable_fusion(bool(t % 2))
                tb = p_mix.tick(arr.copy(), np.arange(N_SESSIONS))
                _assert_ticks_equal(ta, tb, f"mix{t}")
            _assert_state_equal(p_ref, p_mix, range(N_SESSIONS), "mix")


class TestProfilerRows:
    def test_fused_sub_stage_rows(self, config, monkeypatch):
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
                    [_block(rng, t, s, spf) for s in range(N_SESSIONS)]
                )
                p.tick(arr, np.arange(N_SESSIONS))
            stats = p.profiler.as_dict()
            assert "fused_tick" in stats
            assert "fused_cancel" in stats
            assert "fused_associate" in stats
            assert stats["fused_cancel"]["calls"] >= 3
            # The staged per-stage rows must be absent on the fused path
            # (all ticks after the first take the compiled plan).
            assert stats.get("SuccessiveCancel", {}).get("calls", 0) == 0
            assert stats.get("Associate", {}).get("calls", 0) == 0

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
                    [_block(rng, t, s, spf) for s in range(N_SESSIONS)]
                )
                p.tick(arr, np.arange(N_SESSIONS))
            stats = p.profiler.as_dict()
            assert "fused_tick" not in stats
            assert "fused_cancel" not in stats
            # First tick only primes background subtraction; the chain
            # proper runs on the remaining two.
            assert stats["SuccessiveCancel"]["calls"] == 2
