"""Tests for the fast spectrum-domain synthesizer, including the
cross-model agreement with the exact time-domain front end."""

import numpy as np
import pytest

from repro.config import FMCWConfig
from repro.kernels import accumulate_spectra, use_backend
from repro.rf.frontend import (
    TimeDomainPath,
    sweep_spectrum,
    synthesize_sweep_time_domain,
)
from repro.rf.noise import NoiseModel
from repro.rf.receiver import Path, SweepSynthesizer


@pytest.fixture
def cfg() -> FMCWConfig:
    return FMCWConfig()


@pytest.fixture
def synth(cfg) -> SweepSynthesizer:
    return SweepSynthesizer(cfg, NoiseModel())


class TestSynthesis:
    def test_shape(self, synth):
        rng = np.random.default_rng(0)
        out = synth.synthesize(
            [Path(np.float64(10.0), np.float64(1.0))], 7, rng
        )
        assert out.shape == (7, synth.num_bins)
        assert out.dtype == np.complex128

    def test_peak_at_expected_bin(self, synth):
        rng = np.random.default_rng(0)
        rt = 20.0
        out = synth.synthesize(
            [Path(np.float64(rt), np.float64(1.0))], 1, rng, add_noise=False
        )
        peak = int(np.argmax(np.abs(out[0])))
        assert abs(peak - rt / synth.axis.round_trip_per_bin_m) <= 1

    def test_moving_path_moves_peak(self, synth):
        rng = np.random.default_rng(0)
        rts = np.linspace(5.0, 15.0, 10)
        out = synth.synthesize(
            [Path(rts, np.full(10, 1.0))], 10, rng, add_noise=False
        )
        peaks = np.argmax(np.abs(out), axis=1)
        assert peaks[-1] > peaks[0]

    def test_zero_amplitude_path_contributes_nothing(self, synth):
        rng = np.random.default_rng(0)
        out = synth.synthesize(
            [Path(np.float64(10.0), np.float64(0.0))], 3, rng, add_noise=False
        )
        assert np.allclose(out, 0.0)

    def test_noise_floor_level(self, cfg):
        noise = NoiseModel()
        synth = SweepSynthesizer(cfg, noise, window="rect")
        rng = np.random.default_rng(0)
        out = synth.synthesize([], 400, rng, add_noise=True)
        measured = np.mean(np.abs(out) ** 2)
        assert np.isclose(measured, noise.noise_power_w, rtol=0.1)

    def test_hann_noise_enbw(self, cfg):
        noise = NoiseModel()
        synth = SweepSynthesizer(cfg, noise, window="hann")
        rng = np.random.default_rng(0)
        out = synth.synthesize([], 400, rng, add_noise=True)
        measured = np.mean(np.abs(out) ** 2)
        assert np.isclose(measured, 1.5 * noise.noise_power_w, rtol=0.1)

    def test_unknown_window_rejected(self, cfg):
        with pytest.raises(ValueError):
            SweepSynthesizer(cfg, NoiseModel(), window="flat")

    def test_range_bins(self, synth):
        bins = synth.range_bins_m()
        assert bins[0] == 0.0
        assert np.isclose(np.diff(bins)[0], synth.axis.round_trip_per_bin_m)


class TestBatchOutput:
    """The ``out=`` contract of the fused synthesis entry points."""

    @staticmethod
    def _moving_streams(n):
        return [
            [Path(np.linspace(5.0 + 3.0 * t, 9.0 + 3.0 * t, n), np.ones(n))]
            for t in range(2)
        ]

    def test_non_contiguous_out_is_rejected(self, synth):
        """A strided out would be scattered through a reshape copy,
        silently losing every dynamic path."""
        n = 6
        streams = self._moving_streams(n)
        fresh = synth.synthesize_batch(streams, n)
        assert np.sum(np.abs(fresh) ** 2) > 0.0
        big = np.zeros((2, 2 * n, synth.num_bins), dtype=np.complex128)
        with pytest.raises(ValueError):
            synth.synthesize_batch(streams, n, out=big[:, :n, :])
        with pytest.raises(ValueError):
            synth.synthesize_paths(
                np.stack([p[0].round_trip_m for p in streams]),
                np.ones((2, n)),
                np.arange(2),
                big[:, :n, :],
            )

    def test_numpy_kernel_rejects_non_contiguous_out(self):
        out = np.zeros((8, 64), dtype=np.complex128)[:, ::2]
        frac = np.full((1, 4), 10.0)
        with use_backend("numpy"), pytest.raises(ValueError):
            accumulate_spectra(
                out, frac, np.ones((1, 4), dtype=np.complex128),
                np.zeros(1, dtype=np.int64), 4, 500, True,
            )

    def test_array_entry_point_is_synthesize_batch(self, synth):
        n = 9
        streams = self._moving_streams(n) + [
            [Path(np.full(n, 12.0), np.zeros(n))]  # all zero: dropped
        ]
        want = synth.synthesize_batch(streams, n)
        got = synth.synthesize_paths(
            np.stack([ps[0].round_trip_m for ps in streams]),
            np.stack([ps[0].amplitude for ps in streams]),
            np.arange(3),
            np.zeros_like(want),
        )
        assert got.tobytes() == want.tobytes()


class TestCrossModelAgreement:
    """The spectrum-domain and time-domain models must agree exactly."""

    @pytest.mark.parametrize("rt", [5.3, 12.0, 23.7])
    def test_single_path(self, cfg, rt):
        synth = SweepSynthesizer(cfg, NoiseModel())
        rng = np.random.default_rng(0)
        fast = synth.synthesize(
            [Path(np.float64(rt), np.float64(1.0))], 1, rng, add_noise=False
        )[0]
        samples = synthesize_sweep_time_domain([TimeDomainPath(rt, 1.0)], cfg)
        exact = sweep_spectrum(samples, window="hann")[: synth.num_bins]
        center = int(round(rt / synth.axis.round_trip_per_bin_m))
        lo, hi = center - 6, center + 7
        assert np.allclose(fast[lo:hi], exact[lo:hi], atol=2e-3)

    def test_multi_path_superposition(self, cfg):
        synth = SweepSynthesizer(cfg, NoiseModel())
        rng = np.random.default_rng(0)
        paths = [(6.2, 1.0), (14.9, 0.5), (22.1, 0.25)]
        fast = synth.synthesize(
            [Path(np.float64(rt), np.float64(a)) for rt, a in paths],
            1, rng, add_noise=False,
        )[0]
        samples = synthesize_sweep_time_domain(
            [TimeDomainPath(rt, a) for rt, a in paths], cfg
        )
        exact = sweep_spectrum(samples, window="hann")[: synth.num_bins]
        for rt, __ in paths:
            center = int(round(rt / synth.axis.round_trip_per_bin_m))
            window = slice(center - 5, center + 6)
            assert np.allclose(fast[window], exact[window], atol=3e-3)

    def test_phase_agreement_drives_subtraction(self, cfg):
        """Background subtraction depends on the *phase* of the echo;
        both models must rotate identically under small displacement."""
        synth = SweepSynthesizer(cfg, NoiseModel())
        rng = np.random.default_rng(0)
        rt1, rt2 = 10.0, 10.01  # 1 cm round-trip step
        fast = synth.synthesize(
            [Path(np.array([rt1, rt2]), np.array([1.0, 1.0]))],
            2, rng, add_noise=False,
        )
        diff_fast = fast[1] - fast[0]
        s1 = synthesize_sweep_time_domain([TimeDomainPath(rt1, 1.0)], cfg)
        s2 = synthesize_sweep_time_domain([TimeDomainPath(rt2, 1.0)], cfg)
        diff_exact = (
            sweep_spectrum(s2, window="hann") - sweep_spectrum(s1, window="hann")
        )[: synth.num_bins]
        center = int(round(rt1 / synth.axis.round_trip_per_bin_m))
        window = slice(center - 4, center + 5)
        assert np.allclose(diff_fast[window], diff_exact[window], atol=3e-3)
