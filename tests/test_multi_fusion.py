"""The K-person tick: cohort track bank == per-slot spec, bitwise.

Every K-person cohort tick runs the same stages, whether
``Pipeline.tick`` enters them through the tick plan or its own loop:
background subtraction, one successive-cancellation kernel call over
the stacked (session, antenna) rows, and association. For a
row-independent solver, association advances every ticking slot through
one :class:`repro.multi.tracks.TrackBank` step; for any other solver it
steps each slot's :class:`~repro.multi.tracks.TrackManager` on its own,
which is the bank's executable spec. These tests pin the bank against
that spec:

* a bank pipeline (closed-form T solver, run through its tick plan)
  and a spec pipeline (the same solver declared row-dependent, so its
  chain matches no plan and steps slot by slot) produce
  **bit-identical** tick outputs, track identities, and manager state,
  per backend, through track birth, range crossings, coasting, and
  death;
* lifecycle events (attach, evict, partial cohorts, snapshot/restore
  from a bank pipeline into a spec pipeline, flipping ``REPRO_FUSED``
  on one pipeline) keep the two in lockstep;
* a hypothesis property drives ``TrackBank.step`` directly against
  twin managers stepped one by one;
* a row-independent cohort runs ``TrackBank.step`` once per tick under
  every backend and fusion setting, and the profiler records one row
  per stage either way.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.localize import TGeometrySolver
from repro.geometry.antennas import t_array
from repro.kernels import use_backend
from repro.kernels.profile import StageProfiler
from repro.kernels.tick import (
    MultiTickPlan,
    compile_tick_plan,
    enable_fusion,
    reset_fusion_override,
)
from repro.multi.association import FixGate
from repro.multi.tracks import (
    TrackBank,
    TrackManager,
    TrackManagerConfig,
    TrackStatus,
)
from repro.pipeline.multi import Associate
from repro.pipeline.runner import multi_person_pipeline
from repro.rf.multipath import mirror_point
from repro.sim.room import through_wall_room

RANGE_BIN_M = 0.05
N_RX = 3
N_BINS = 121
N_SESSIONS = 4
MAX_TARGETS = 3
DT_S = 0.0125

ARRAY = t_array()


class PerSlotTSolver(TGeometrySolver):
    """The T solver declared row-dependent: ``Associate`` then steps
    each slot's manager on its own (the bank's executable spec)."""

    row_independent = False


@pytest.fixture(autouse=True)
def _restore_fusion():
    yield
    reset_fusion_override()


def _manager():
    return TrackManager(DT_S, TGeometrySolver(ARRAY))


def _spec_manager():
    return TrackManager(DT_S, PerSlotTSolver(ARRAY))


def _pipeline(config, n_sessions=N_SESSIONS, factory=_manager):
    p = multi_person_pipeline(
        config, RANGE_BIN_M, factory(), MAX_TARGETS,
        manager_factory=factory,
    )
    p.attach_sessions(n_sessions)
    return p


def _spec_pipeline(config, n_sessions=N_SESSIONS):
    return _pipeline(config, n_sessions, factory=_spec_manager)


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


def _assert_tracks_equal(tra, trb, where=""):
    assert len(tra) == len(trb), where
    for row, (ra, rb) in enumerate(zip(tra, trb)):
        assert len(ra) == len(rb), (where, row)
        for (ia, pa), (ib, pb) in zip(ra, rb):
            assert ia == ib, (where, row, ia, ib)
            assert np.array_equal(pa, pb, equal_nan=True), (where, row, ia)


def _assert_ticks_equal(ta, tb, where=""):
    fa, fb = _tick_fields(ta), _tick_fields(tb)
    assert set(fa) == set(fb), (where, set(fa) ^ set(fb))
    for key, va in fa.items():
        assert np.array_equal(va, fb[key], equal_nan=True), (where, key)
    tra = getattr(ta, "tracks", None)
    trb = getattr(tb, "tracks", None)
    assert (tra is None) == (trb is None), where
    if tra is not None:
        _assert_tracks_equal(tra, trb, where)


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
    """The bank pipeline (through its tick plan) == the per-slot spec
    pipeline (no plan: the pipeline's stage loop), bitwise, across
    backends and track lifecycles."""

    @pytest.mark.parametrize("backend", ["numpy", "reference"])
    def test_steady_parity(self, backend, config):
        rng_a = np.random.default_rng(21)
        rng_b = np.random.default_rng(21)
        spf = config.pipeline.sweeps_per_frame
        kinds = ["walkers", "still", "walkers", "walkers"]
        with use_backend(backend):
            enable_fusion(True)
            ps = _spec_pipeline(config)
            pb = _pipeline(config)
            assert compile_tick_plan(ps.stages) is None
            for t in range(40):
                arr = np.stack(
                    [_block(rng_a, t, s, spf, kinds[s])
                     for s in range(N_SESSIONS)]
                )
                arr_b = np.stack(
                    [_block(rng_b, t, s, spf, kinds[s])
                     for s in range(N_SESSIONS)]
                )
                ta = ps.tick(arr, np.arange(N_SESSIONS))
                tb = pb.tick(arr_b, np.arange(N_SESSIONS))
                _assert_ticks_equal(ta, tb, f"tick{t}")
            _assert_state_equal(ps, pb, range(N_SESSIONS), "steady")
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
            enable_fusion(True)
            ps = _spec_pipeline(config, n_sessions=3)
            pb = _pipeline(config, n_sessions=3)
            for t in range(36):
                if t == 12:  # mid-stream grow + evict
                    for p in (ps, pb):
                        p.attach_sessions(N_SESSIONS)
                        p.evict_session(1)
                n = 3 if t < 12 else N_SESSIONS
                sl = np.arange(n) if t % 3 else np.arange(n)[::2].copy()
                arr = np.stack(
                    [_block(rng, t, int(s), spf) for s in sl]
                )
                ta = ps.tick(arr.copy(), sl)
                tb = pb.tick(arr.copy(), sl)
                _assert_ticks_equal(ta, tb, f"tick{t}")
            _assert_state_equal(ps, pb, range(N_SESSIONS), "lifecycle")

    @pytest.mark.parametrize("backend", ["numpy"])
    def test_snapshot_restore_across_fused_staged_boundary(
        self, backend, config
    ):
        rng = np.random.default_rng(4)
        spf = config.pipeline.sweeps_per_frame
        with use_backend(backend):
            enable_fusion(True)
            pb = _pipeline(config)
            ps = _spec_pipeline(config)
            for t in range(14):
                arr = np.stack(
                    [_block(rng, t, s, spf) for s in range(N_SESSIONS)]
                )
                pb.tick(arr.copy(), np.arange(N_SESSIONS))
                ps.tick(arr.copy(), np.arange(N_SESSIONS))
            # Migrate the bank-run session and the spec-run session into
            # fresh spec pipelines; they must stay in lockstep bit for
            # bit, track identities included. (The reverse direction is
            # not a same-spec migration: the bank refuses a row-dependent
            # solver as a cohort's lead.)
            p_from_bank = _spec_pipeline(config)
            p_from_bank.restore_session(3, pb.snapshot_session(2))
            p_from_spec = _spec_pipeline(config)
            p_from_spec.restore_session(3, ps.snapshot_session(2))
            for t in range(12):
                arr = _block(rng, 14 + t, 2, spf,
                             "walkers" if t % 3 else "still")[None]
                ta = p_from_spec.tick(arr.copy(), np.array([3]))
                tb = p_from_bank.tick(arr.copy(), np.array([3]))
                _assert_ticks_equal(ta, tb, f"mig{t}")
            _assert_state_equal(p_from_spec, p_from_bank, [3], "migration")

    def test_alternating_execution_on_one_pipeline(self, config):
        """Flipping REPRO_FUSED mid-stream must not change outputs."""
        rng = np.random.default_rng(10)
        spf = config.pipeline.sweeps_per_frame
        with use_backend("numpy"):
            p_ref = _spec_pipeline(config)
            p_mix = _pipeline(config)
            for t in range(20):
                arr = np.stack(
                    [_block(rng, t, s, spf) for s in range(N_SESSIONS)]
                )
                enable_fusion(bool(t % 2))
                ta = p_ref.tick(arr.copy(), np.arange(N_SESSIONS))
                tb = p_mix.tick(arr.copy(), np.arange(N_SESSIONS))
                _assert_ticks_equal(ta, tb, f"mix{t}")
            _assert_state_equal(p_ref, p_mix, range(N_SESSIONS), "mix")


class TestOneBankStepPerTick:
    """Plan or stage loop, numpy or reference: one bank step per tick.

    ``fused`` sets the tick-plan switch, which only picks how
    ``Pipeline.tick`` enters the same stages.
    """

    def _count_steps(self, monkeypatch, config, factory):
        calls = {"bank": 0, "slot": 0}
        bank_step = TrackBank.step
        slot_step = TrackManager.step

        def counted_bank(bank, *args):
            calls["bank"] += 1
            return bank_step(bank, *args)

        def counted_slot(manager, *args):
            calls["slot"] += 1
            return slot_step(manager, *args)

        monkeypatch.setattr(TrackBank, "step", counted_bank)
        monkeypatch.setattr(TrackManager, "step", counted_slot)
        rng = np.random.default_rng(3)
        spf = config.pipeline.sweeps_per_frame
        p = _pipeline(config, factory=factory)
        for t in range(6):
            arr = np.stack(
                [_block(rng, t, s, spf) for s in range(N_SESSIONS)]
            )
            p.tick(arr, np.arange(N_SESSIONS))
        return calls

    @pytest.mark.parametrize("backend", ["numpy", "reference"])
    @pytest.mark.parametrize("fused", [True, False])
    def test_row_independent_cohort(self, backend, fused, config,
                                    monkeypatch):
        with use_backend(backend):
            enable_fusion(fused)
            calls = self._count_steps(monkeypatch, config, _manager)
        # The first tick only primes background subtraction.
        assert calls == {"bank": 5, "slot": 0}

    def test_row_dependent_cohort_steps_slot_by_slot(self, config,
                                                     monkeypatch):
        with use_backend("numpy"):
            enable_fusion(True)
            calls = self._count_steps(monkeypatch, config, _spec_manager)
        assert calls == {"bank": 0, "slot": 5 * N_SESSIONS}

    def test_plan_verdicts(self, config):
        assert isinstance(
            compile_tick_plan(_pipeline(config).stages), MultiTickPlan
        )
        assert compile_tick_plan(_spec_pipeline(config).stages) is None


_ROOM = through_wall_room()
_GATE = FixGate.from_room(_ROOM)
#: Receive antennas mirrored through every bounce plane of the room.
_IMAGES = np.stack(
    [
        np.stack([mirror_point(rx.position, point, normal)
                  for rx in ARRAY.rx])
        for point, normal, _ in _ROOM.bounce_planes
    ]
)
#: A short lifecycle, so a few dozen ticks see birth, confirmation,
#: coasting and death.
_FAST = TrackManagerConfig(
    confirm_hits=2, max_tentative_misses=1, max_coast_frames=6,
    coast_per_hit=1.0,
)
#: Few distinct echo powers, so birth scores tie exactly.
_POWERS = np.array([1e-12, 1e-13, 1e-14])
#: Non-finite and huge candidate cells, as a corrupt frame can produce.
_SPECIAL = np.array([np.inf, -np.inf, 1e300])


def _bank_run(rng, n_slots, n_ticks, k):
    """Candidate tensors for ``n_ticks`` ticks of an ``n_slots`` cohort.

    Each slot holds 1-2 walkers, each visible in up to two windows of
    ticks: birth and confirmation, then a coast that may end in death
    or in a reappearance. Walkers are fast enough to leave the feasible
    volume, and their echoes scatter by 1-30 cm around their round
    trips, so fixes fall outside the gate and coasting gates widen.
    Junk fills some columns, some of it close to an echo; rows are
    ragged (each antenna keeps its own number of candidates, NaN-padded
    to ``k``), and a few cells are +-inf or 1e300. Every tick a random,
    shuffled subset of the slots ticks.

    Returns:
        ``[(slots, candidates, powers)]`` with candidates and powers of
        shape ``(len(slots), n_rx, k)``.
    """
    walkers = []
    for _ in range(n_slots):
        walkers.append([
            (
                rng.uniform([-2.0, 1.5, -0.8], [2.0, 8.0, 0.8]),
                rng.uniform(-4.0, 4.0, 3),
                rng.choice([0.01, 0.1, 0.3]),
                np.sort(rng.integers(0, n_ticks + 1, 4)),
            )
            for _ in range(rng.integers(1, 3))
        ])
    ticks = []
    for t in range(n_ticks):
        slots = rng.permutation(n_slots)[: rng.integers(1, n_slots + 1)]
        tofs = np.full((len(slots), N_RX, k), np.nan)
        for row, s in enumerate(slots):
            echoes = [
                ARRAY.round_trip_distances(start + velocity * t * DT_S)
                + rng.normal(0.0, sigma, N_RX)
                for start, velocity, sigma, edges in walkers[s]
                if edges[0] <= t < edges[1] or edges[2] <= t < edges[3]
            ]
            for a in range(N_RX):
                column = [e[a] for e in echoes]
                column += [e[a] + rng.uniform(-0.6, 0.6)
                           for e in echoes if rng.random() < 0.3]
                column += list(rng.uniform(2.0, 20.0, rng.integers(0, 2)))
                column = column[: rng.integers(0, k + 1)]
                tofs[row, a, : len(column)] = rng.permutation(column)
        special = rng.random(tofs.shape) < 0.03
        tofs[special] = rng.choice(_SPECIAL, size=int(special.sum()))
        powers = rng.choice(_POWERS, size=tofs.shape)
        powers[np.isnan(tofs)] = np.nan
        ticks.append((slots, tofs, powers))
    return ticks


def _step_bank_and_spec(run, n_slots, ghost_images, max_births):
    """Step a bank and twin per-slot managers through ``run``.

    Asserts every tick's bank output and every manager's state equal
    the per-slot spec bitwise; returns the spec managers and the track
    statuses seen along the way.
    """
    def build():
        return [
            TrackManager(
                DT_S, TGeometrySolver(ARRAY), config=_FAST, gate=_GATE,
                ghost_images=ghost_images, max_births_per_frame=max_births,
            )
            for _ in range(n_slots)
        ]

    bank_managers, spec_managers = build(), build()
    bank = TrackBank()
    seen = set()
    for t, (slots, tofs, powers) in enumerate(run):
        got = bank.step([bank_managers[s] for s in slots], tofs, powers)
        want = []
        for row, s in enumerate(slots):
            tracks = spec_managers[s].step(list(tofs[row]), list(powers[row]))
            want.append([(tr.track_id, tr.position.copy()) for tr in tracks])
        _assert_tracks_equal(got, want, f"tick{t}")
        for a, b in zip(bank_managers, spec_managers):
            assert _manager_sig(a) == _manager_sig(b), f"tick{t}"
            seen.update(tr.status for tr in b.tracks)
    return spec_managers, seen


class TestTrackBankProperty:
    """``TrackBank.step`` is the per-slot ``TrackManager.step``, bitwise."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(
        n_slots=st.integers(min_value=1, max_value=4),
        n_ticks=st.integers(min_value=16, max_value=40),
        k=st.integers(min_value=1, max_value=4),
        seed=st.integers(0, 2**32 - 1),
        use_images=st.booleans(),
        max_births=st.sampled_from([1, 2]),
    )
    @settings(max_examples=60, deadline=None)
    def test_bank_equals_per_slot_managers(
        self, n_slots, n_ticks, k, seed, use_images, max_births
    ):
        run = _bank_run(np.random.default_rng(seed), n_slots, n_ticks, k)
        _step_bank_and_spec(
            run, n_slots, _IMAGES if use_images else None, max_births
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_run_covers_the_lifecycle(self):
        """The property's inputs birth, confirm, coast and kill tracks."""
        run = _bank_run(np.random.default_rng(0), 3, 40, 3)
        managers, seen = _step_bank_and_spec(run, 3, _IMAGES, 1)
        assert {TrackStatus.TENTATIVE, TrackStatus.CONFIRMED,
                TrackStatus.COASTING} <= seen
        born = sum(m._next_id - 1 for m in managers)
        alive = sum(len(m.tracks) for m in managers)
        assert born > alive, "no track died"


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
                    [_block(rng, t, s, spf) for s in range(N_SESSIONS)]
                )
                p.tick(arr, np.arange(N_SESSIONS))
        return p.profiler.as_dict()

    def test_fused_tick_and_dispatch_rows(self, config, monkeypatch):
        """With tick plans on, a profiled K-person tick still records
        one row per stage (there is no whole-chain ``fused_tick`` row)."""
        stats = self._profile(config, monkeypatch, fused=True)
        assert set(stats) == {
            "frame_average", "dispatch", "BackgroundSubtract",
            "SuccessiveCancel", "Associate",
        }
        # First tick only primes background subtraction; the chain
        # proper runs on the remaining two.
        assert stats["SuccessiveCancel"]["calls"] == 2
        assert stats["Associate"]["calls"] == 2

    def test_staged_rows_when_fusion_off(self, config, monkeypatch):
        stats = self._profile(config, monkeypatch, fused=False)
        assert "fused_tick" not in stats
        assert stats["SuccessiveCancel"]["calls"] == 2
