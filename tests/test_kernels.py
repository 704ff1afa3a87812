"""Backend-parity and profiling tests for the kernel tier.

The load-bearing properties:

* every kernel agrees across backends — ``reference`` (the original
  math, verbatim) pins ``numpy`` to tight tolerances, so
  ``REPRO_BACKEND`` is a speed knob, never an answer knob;
* ``reference`` registers every kernel ``numpy`` does except the fused
  tick plans, which it never runs, so dispatch needs no fallback;
* the numpy synthesis kernel's internal optimizations — sweep tiling,
  scratch-buffer reuse, rank-grouped scatter — are *bitwise* invisible;
* the fused cohort source is bitwise the per-session source (noise-free);
* profiling off means off: no profiler on the pipeline, no
  ``stage_profile`` counters in any result.
"""

import numpy as np
import pytest

from repro.config import default_config
from repro.exec import ShardedStreamRunner
from repro.kernels import (
    accumulate_spectra,
    active_backend,
    backend_name,
    background_power,
    enable_profiling,
    first_local_max_above,
    fusion_active,
    kalman_tick,
    profiling_enabled,
    reset_profiling_override,
    row_median,
    set_backend,
    use_backend,
)
from repro.kernels import synthesis
from repro.serve import ServingEngine, single_session
from repro.sim import CohortFrameSource, Scenario, ScenarioStream
from repro.sim.body import GatedAR1
from repro.sim.motion import random_walk
from repro.sim.room import through_wall_room


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test leaves the process-wide backend the way it found it."""
    before = backend_name()
    yield
    set_backend(before)


@pytest.fixture(autouse=True)
def _profiling_off(monkeypatch):
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    reset_profiling_override()
    yield
    reset_profiling_override()


def _accumulate_inputs(seed, n_streams=6, paths_per=4, n_sweeps=37,
                       n_bins=64):
    rng = np.random.default_rng(seed)
    n_paths = n_streams * paths_per
    frac = rng.uniform(-3.0, n_bins + 3.0, (n_paths, n_sweeps))
    # Force the special branches: exact bin hits, both edges, and two
    # same-stream paths colliding on the same cells.
    frac[0, :] = 11.0
    frac[1, :5] = 0.4
    frac[2, :5] = n_bins - 0.4
    frac[3] = frac[4]
    coeff = rng.standard_normal((n_paths, n_sweeps)) + 1j * (
        rng.standard_normal((n_paths, n_sweeps))
    )
    row_base = np.repeat(
        np.arange(n_streams, dtype=np.int64) * n_sweeps, paths_per
    )
    out_shape = (n_streams * n_sweeps, n_bins)
    return frac, coeff, row_base, out_shape


def _run_accumulate(backend, frac, coeff, row_base, out_shape, hann=True):
    with use_backend(backend):
        out = np.zeros(out_shape, dtype=np.complex128)
        accumulate_spectra(out, frac, coeff, row_base, 4, 500, hann)
    return out


class TestAccumulateParity:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("hann", [True, False])
    def test_reference_pins_numpy(self, seed, hann):
        frac, coeff, row_base, shape = _accumulate_inputs(seed)
        ref = _run_accumulate("reference", frac, coeff, row_base, shape, hann)
        got = _run_accumulate("numpy", frac, coeff, row_base, shape, hann)
        scale = np.abs(ref).max()
        np.testing.assert_allclose(
            got, ref, rtol=1e-11, atol=1e-12 * scale
        )

    def test_template_branch_parity(self):
        """The one-sweep (clutter-template) path agrees too."""
        frac, coeff, row_base, _ = _accumulate_inputs(7, n_sweeps=1)
        shape = (row_base.max() + 1, 64)
        ref = _run_accumulate("reference", frac, coeff, row_base, shape)
        got = _run_accumulate("numpy", frac, coeff, row_base, shape)
        scale = np.abs(ref).max()
        np.testing.assert_allclose(
            got, ref, rtol=1e-11, atol=1e-12 * scale
        )

    def test_accumulates_into_prefilled_out(self):
        """out= arrives prefilled (the static clutter template): adds."""
        frac, coeff, row_base, shape = _accumulate_inputs(3)
        rng = np.random.default_rng(0)
        base = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        with use_backend("numpy"):
            a = base.copy()
            accumulate_spectra(a, frac, coeff, row_base, 4, 500, True)
            b = np.zeros(shape, dtype=np.complex128)
            accumulate_spectra(b, frac, coeff, row_base, 4, 500, True)
        # Sequential in-place adds, so up-to-rounding (not bitwise) of
        # the re-associated base + b.
        np.testing.assert_allclose(a, base + b, rtol=0, atol=1e-12)

    def test_tile_size_is_bitwise_invisible(self, monkeypatch):
        """Sweep tiling is an exact-invariant chunking, not an approx."""
        frac, coeff, row_base, shape = _accumulate_inputs(11, n_sweeps=53)
        big = _run_accumulate("numpy", frac, coeff, row_base, shape)
        monkeypatch.setattr(synthesis, "_TILE_CELLS", 64)
        monkeypatch.setattr(synthesis, "_SCRATCH", [None, None])
        tiny = _run_accumulate("numpy", frac, coeff, row_base, shape)
        assert np.array_equal(big, tiny)

    def test_scratch_reuse_is_bitwise_invisible(self):
        """Back-to-back calls (warm scratch) repeat the cold result."""
        frac, coeff, row_base, shape = _accumulate_inputs(13)
        cold = _run_accumulate("numpy", frac, coeff, row_base, shape)
        warm = _run_accumulate("numpy", frac, coeff, row_base, shape)
        assert np.array_equal(cold, warm)


class TestContourKernels:
    @pytest.mark.parametrize("n_bins", [7, 8, 171])
    def test_row_median_matches_np_median(self, n_bins):
        rng = np.random.default_rng(n_bins)
        power = rng.uniform(0.0, 5.0, (23, n_bins))
        with use_backend("numpy"):
            got = row_median(power)
        assert np.array_equal(got, np.median(power, axis=1))

    def test_first_local_max_matches_scalar_scan(self):
        rng = np.random.default_rng(2)
        power = rng.uniform(0.0, 1.0, (50, 40))
        threshold = rng.uniform(0.3, 0.9, 50)
        min_bin = 3

        def scalar(row, thr):
            for k in range(max(min_bin, 1), len(row) - 1):
                if row[k] < thr:
                    continue
                if row[k] >= row[k - 1] and row[k] >= row[k + 1]:
                    return k
            return -1

        expected = np.array(
            [scalar(power[i], threshold[i]) for i in range(len(power))]
        )
        for backend in ("numpy", "reference"):
            with use_backend(backend):
                got = first_local_max_above(power, threshold, min_bin)
            assert np.array_equal(got, expected)

    def test_background_power_backends_agree_bitwise(self):
        rng = np.random.default_rng(5)
        diff = rng.standard_normal((30, 64)) + 1j * rng.standard_normal(
            (30, 64)
        )
        with use_backend("numpy"):
            got = background_power(diff, np.empty(diff.shape))
        with use_backend("reference"):
            ref = background_power(diff, np.empty(diff.shape))
        assert np.array_equal(got, ref)


class TestBackendSeam:
    def test_unknown_backend_rejected(self):
        for name in ("cupy", "numba"):
            with pytest.raises(
                ValueError,
                match=f"^unknown backend '{name}'; "
                "choose from: numpy, reference$",
            ):
                set_backend(name)

    def test_use_backend_restores(self):
        before = backend_name()
        with use_backend("reference"):
            assert backend_name() == "reference"
        assert backend_name() == before

    def test_static_split_flags(self):
        with use_backend("reference"):
            assert active_backend().static_split is False
        with use_backend("numpy"):
            assert active_backend().static_split is True

    def test_reference_registers_every_unfused_kernel(self):
        """``kernel()`` has no fallback, so the spec must cover every
        kernel the fast path registers except the fused tick plans —
        and must never reach for those."""
        with use_backend("numpy"):
            fast = set(active_backend().impls)
        with use_backend("reference"):
            spec = set(active_backend().impls)
            assert fusion_active() is False
        assert spec == fast - {"fused_tick_single", "fused_tick_multi"}


class TestGatedAR1Parity:
    def test_reference_matches_numpy_bitwise(self):
        activity = np.random.default_rng(1).uniform(0.0, 1.0, 97)
        walks = {}
        for backend in ("reference", "numpy"):
            with use_backend(backend):
                ar = GatedAR1(0.95, np.random.default_rng(42), dim=3)
                walks[backend] = ar.advance(activity)
        assert np.array_equal(walks["reference"], walks["numpy"])


class TestFusedCohort:
    def test_noise_free_fused_equals_per_session_bitwise(self, config):
        room = through_wall_room()
        scenarios = [
            Scenario(
                random_walk(room, np.random.default_rng(s), duration_s=1.0),
                room=room, config=config, seed=s + 20,
            )
            for s in range(2)
        ]
        set_backend("numpy")
        source = CohortFrameSource(scenarios, chunk_frames=8, noise=False)
        fused = next(source.ticks())
        for k, scenario in enumerate(scenarios):
            st = ScenarioStream(scenario)
            block = st.synthesize(0, 8, *st.advance(0, 8))
            assert np.array_equal(fused[k], block[:, : source.spf, :])


def _serve_session(scenario, n_frames, chunk=8):
    """Run one session through the engine; returns its PipelineResult."""
    stream = scenario.frames(chunk_frames=chunk)
    with ServingEngine() as engine:
        session = engine.admit(
            single_session(scenario.config, scenario.range_bin_m)
        )
        for _ in range(n_frames):
            engine.submit(session, next(stream))
            engine.tick()
        engine.drain()
        profile = engine.stage_profile().as_dict()
        result = engine.close(session)
    return result, profile


class TestProfiling:
    def test_off_by_default(self):
        assert profiling_enabled() is False

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert profiling_enabled() is True

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "0")
        enable_profiling()
        assert profiling_enabled() is True
        reset_profiling_override()
        assert profiling_enabled() is False

    @pytest.fixture(scope="class")
    def short_scenario(self, config):
        room = through_wall_room()
        return Scenario(
            random_walk(room, np.random.default_rng(4), duration_s=1.5),
            room=room, config=config, seed=17,
        )

    def test_off_means_no_counters_anywhere(self, short_scenario):
        """Profiling off: no profiler, no stage_profile in any result."""
        result = ShardedStreamRunner(num_shards=2, max_workers=1).run(
            short_scenario
        )
        assert result.stage_profile is None
        serve_result, profile = _serve_session(
            short_scenario, short_scenario.num_stream_frames
        )
        assert profile == {}
        assert serve_result.stage_profile is None

    def test_on_records_every_stage(self, short_scenario):
        enable_profiling()
        try:
            result, profile = _serve_session(
                short_scenario, short_scenario.num_stream_frames
            )
        finally:
            reset_profiling_override()
        assert profile, "profiling on but no counters recorded"
        for entry in profile.values():
            assert entry["calls"] > 0
            assert entry["wall_s"] >= 0.0
        # Fused ticks run the whole chain as one kernel call and record
        # it as the `fused_tick` row; staged ticks (REPRO_FUSED=0, or an
        # unfusable chain) record one row per stage. Either way the
        # serving tick path must show up in the profile.
        assert "fused_tick" in profile or any(
            "BackgroundSubtract" in name for name in profile
        )
