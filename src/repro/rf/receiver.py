"""Per-antenna sweep synthesis: the fast spectrum-domain signal model.

The processing pipeline's input is one complex spectrum per sweep per
receive antenna. Rather than generating 2500 time samples per sweep and
FFT-ing them (the exact model in :mod:`repro.rf.frontend`), the spectrum
synthesizer writes each propagation path's Dirichlet-kernel footprint
directly into the FFT bins. The two models agree to numerical precision
for linear sweeps; unit tests enforce this.

The synthesizer is vectorized across sweeps: a path is described by
arrays of per-sweep round-trip distances and amplitudes, so a moving
human is just a path whose distance array varies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import constants
from ..config import FMCWConfig
from ..kernels.backend import active_backend
from ..kernels.synthesis import accumulate_spectra
from .fmcw import RangeAxis, dirichlet_kernel, range_axis
from .noise import NoiseModel


@dataclass
class Path:
    """A propagation path sampled at every sweep.

    Attributes:
        round_trip_m: shape ``(n_sweeps,)`` path length per sweep, or a
            scalar for a static path.
        amplitude: shape ``(n_sweeps,)`` linear amplitude, or a scalar.
        phase0_rad: extra constant phase (e.g. reflection phase).
        name: label for debugging.
    """

    round_trip_m: np.ndarray
    amplitude: np.ndarray
    phase0_rad: float = 0.0
    name: str = "path"

    def broadcast(self, n_sweeps: int) -> tuple[np.ndarray, np.ndarray]:
        """Return per-sweep (round_trip, amplitude) arrays of length n."""
        rt = np.broadcast_to(
            np.asarray(self.round_trip_m, dtype=np.float64), (n_sweeps,)
        )
        amp = np.broadcast_to(
            np.asarray(self.amplitude, dtype=np.float64), (n_sweeps,)
        )
        return rt, amp


class SweepSynthesizer:
    """Generates per-sweep complex spectra for one receive antenna.

    Args:
        config: FMCW sweep parameters.
        noise: receiver noise model (thermal floor + phase jitter).
        max_range_m: spectra are cropped to bins covering this round-trip
            range; everything the pipeline needs lives below 30 m.
        kernel_halfwidth: Dirichlet kernel window, in bins, written per
            path. 8 bins capture >99.9% of a tone's energy.
        window: "hann" (default) or "rect". Windowing the sweep before
            the FFT suppresses spectral sidelobes; without it, a strong
            reflector's -13 dB Dirichlet sidelobes out-shout weaker and
            *closer* reflectors and corrupt the bottom contour.
    """

    def __init__(
        self,
        config: FMCWConfig,
        noise: NoiseModel,
        max_range_m: float = 30.0,
        kernel_halfwidth: int = 8,
        window: str = "hann",
    ) -> None:
        if window not in ("hann", "rect"):
            raise ValueError("window must be 'hann' or 'rect'")
        self.config = config
        self.noise = noise
        self.axis: RangeAxis = range_axis(config)
        self.num_bins = self.axis.crop_bins(max_range_m)
        self.kernel_halfwidth = kernel_halfwidth
        self.window = window
        self._n_samples = config.samples_per_sweep

    def carrier_phase(self, round_trip_m: np.ndarray) -> np.ndarray:
        """Beat-tone phase of a path at sweep start (drives decorrelation).

        Matches the dechirped time-domain model exactly: mixing the
        received chirp with the transmitted one leaves a phase of
        ``2 pi f0 tau - pi slope tau^2`` (carrier term plus the small
        residual video phase). The carrier term rotates a full turn for
        every ~5.4 cm of round-trip change — the decorrelation that lets
        a moving body survive background subtraction.
        """
        tau = np.asarray(round_trip_m) / constants.SPEED_OF_LIGHT
        return (
            2.0 * np.pi * self.config.start_hz * tau
            - np.pi * self.config.slope_hz_per_s * tau**2
        )

    def synthesize(
        self,
        paths: list[Path],
        n_sweeps: int,
        rng: np.random.Generator,
        add_noise: bool = True,
    ) -> np.ndarray:
        """Produce the spectrogram block of shape ``(n_sweeps, num_bins)``.

        Each path contributes ``amp * D(bin - bin_p) * exp(j phase_p)``
        within ``kernel_halfwidth`` bins of its true fractional bin; the
        thermal floor adds circular complex Gaussian noise per bin.

        This is the one-stream view of :meth:`synthesize_batch`; the
        serving tier hands the batch entry point all N streams of a
        cohort at once.
        """
        spectra = self.synthesize_batch([paths], n_sweeps)[0]
        if add_noise:
            self.add_noise(spectra, rng)
        return spectra

    def synthesize_batch(
        self,
        path_sets: list[list[Path]],
        n_sweeps: int,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Synthesize many independent streams in one fused kernel pass.

        Args:
            path_sets: one path list per stream (antennas, or every
                antenna of every session in a cohort). Streams are
                independent; fusing them only batches the scatter.
            n_sweeps: sweeps per stream.
            out: optional ``(n_streams, n_sweeps, num_bins)`` complex128
                C-contiguous array to accumulate into (anything else
                raises ``ValueError``). A caller with a precomputed
                static-path template broadcasts it in here and passes
                only dynamic paths — the add order matches the
                all-paths call (static template first, then dynamic
                scatters), so results stay bitwise identical.

        Returns:
            Noise-free spectra, shape ``(n_streams, n_sweeps, num_bins)``.
            Stream ``t`` is bitwise what a ``synthesize(path_sets[t],
            ..., add_noise=False)`` call under the same backend returns
            — fusion and sweep chunking are exact (see
            :mod:`repro.kernels.synthesis`).

        Paths with all-zero amplitudes are skipped. Two structural
        optimizations over the per-stream loop (both disabled under the
        ``reference`` backend, which reproduces the original math and
        cost):

        * **Static-path split**: a path with scalar round trip and
          amplitude writes the *same* footprint into every sweep, so
          its kernel is evaluated once per stream and broadcast —
          static clutter dominates path counts (18 of 23 in the
          through-wall scene), so this removes ~80% of the kernel work.
        * **Cohort fusion**: the dynamic paths of every stream are
          unpacked into ``(path, sweep)`` arrays and handed to
          :meth:`synthesize_paths`, one scatter call per sweep chunk.
          The cohort source calls that array entry point directly with
          the arrays its path geometry solves, so no ``Path`` objects
          are built per chunk at all.
        """
        n_streams = len(path_sets)
        out = self._output(out, n_streams, n_sweeps)
        if n_streams == 0 or n_sweeps == 0:
            return out
        split = active_backend().static_split

        static: list[tuple[float, float, float, int]] = []
        dynamic: list[tuple[np.ndarray, np.ndarray, float, int]] = []
        for t, paths in enumerate(path_sets):
            for path in paths:
                rt_raw = np.asarray(path.round_trip_m, dtype=np.float64)
                amp_raw = np.asarray(path.amplitude, dtype=np.float64)
                if not np.any(amp_raw):
                    continue
                if split and rt_raw.ndim == 0 and amp_raw.ndim == 0:
                    static.append(
                        (float(rt_raw), float(amp_raw), path.phase0_rad, t)
                    )
                else:
                    rt, amp = path.broadcast(n_sweeps)
                    dynamic.append((rt, amp, path.phase0_rad, t))

        if static:
            # One-sweep templates per stream, broadcast across sweeps.
            rts = np.array([p[0] for p in static])[:, None]
            amps = np.array([p[1] for p in static])[:, None]
            phase = self.carrier_phase(rts) + np.array(
                [p[2] for p in static]
            )[:, None]
            template = np.zeros(
                (n_streams, self.num_bins), dtype=np.complex128
            )
            accumulate_spectra(
                template,
                rts / self.axis.round_trip_per_bin_m,
                amps * np.exp(1j * phase),
                np.array([p[3] for p in static], dtype=np.int64),
                self.kernel_halfwidth,
                self._n_samples,
                self.window == "hann",
            )
            out += template[:, None, :]

        if dynamic:
            self.synthesize_paths(
                np.stack([p[0] for p in dynamic]),
                np.stack([p[1] for p in dynamic]),
                np.array([p[3] for p in dynamic], dtype=np.int64),
                out,
                phase0_rad=np.array([p[2] for p in dynamic]),
            )
        return out

    def synthesize_paths(
        self,
        round_trip_m: np.ndarray,
        amplitude: np.ndarray,
        streams: np.ndarray,
        out: np.ndarray,
        phase0_rad: np.ndarray | None = None,
    ) -> np.ndarray:
        """Scatter per-sweep path arrays into stacked stream spectra.

        The array entry point under :meth:`synthesize_batch`, which
        calls it after unpacking its dynamic ``Path`` objects; the
        cohort frame source calls it directly with the arrays its path
        geometry solves.

        Args:
            round_trip_m: ``(n_paths, n_sweeps)`` path length per sweep.
            amplitude: ``(n_paths, n_sweeps)`` linear amplitude per
                sweep. Rows that are all zero are skipped.
            streams: ``(n_paths,)`` int stream index of each path. The
                paths of one stream scatter in their row order, which
                fixes the add order of every cell they share.
            out: ``(n_streams, n_sweeps, num_bins)`` complex128
                C-contiguous spectra, accumulated into in place.
            phase0_rad: optional ``(n_paths,)`` extra constant phase;
                ``None`` adds none.

        Returns:
            ``out``.
        """
        out = self._output(out, out.shape[0], round_trip_m.shape[1])
        keep = np.any(amplitude, axis=1)
        if not keep.all():
            round_trip_m = round_trip_m[keep]
            amplitude = amplitude[keep]
            streams = streams[keep]
            if phase0_rad is not None:
                phase0_rad = phase0_rad[keep]
        n_paths, n_sweeps = round_trip_m.shape
        if n_paths == 0 or n_sweeps == 0:
            return out
        phase = self.carrier_phase(round_trip_m)
        if phase0_rad is not None:
            phase += phase0_rad[:, None]
        coeff = amplitude * np.exp(1j * phase)
        frac = round_trip_m / self.axis.round_trip_per_bin_m
        row_base = np.asarray(streams, dtype=np.int64) * n_sweeps
        # Chunk sweeps to bound the (n_paths, chunk, window) kernel
        # temporaries; chunking is exact (same adds into the same
        # cells, in the same order).
        half = self.kernel_halfwidth
        chunk = max(1, 2_000_000 // (n_paths * (2 * half + 1)))
        flat = out.reshape(-1, self.num_bins)
        for s0 in range(0, n_sweeps, chunk):
            s1 = min(s0 + chunk, n_sweeps)
            accumulate_spectra(
                flat,
                frac[:, s0:s1],
                coeff[:, s0:s1],
                row_base + s0,
                half,
                self._n_samples,
                self.window == "hann",
            )
        return out

    def _output(
        self, out: np.ndarray | None, n_streams: int, n_sweeps: int
    ) -> np.ndarray:
        """``out`` checked, or fresh zero ``(n_streams, n_sweeps, bins)``."""
        shape = (n_streams, n_sweeps, self.num_bins)
        if out is None:
            return np.zeros(shape, dtype=np.complex128)
        if (
            out.shape != shape
            or out.dtype != np.complex128
            or not out.flags.c_contiguous
        ):
            raise ValueError(f"out must be C-contiguous complex128 {shape}")
        return out

    def add_noise(
        self, spectra: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Add the thermal floor and phase jitter to a sweep block.

        Modifies ``spectra`` (shape ``(n_sweeps, n_bins)``) in place and
        returns it. Exposed so streaming synthesis can noise each block
        from its own random stream (chunk-size invariant) while batch
        synthesis keeps noising the whole recording in one draw.
        """
        spectra += self._noise_scale() * self.noise.complex_noise(
            spectra.shape, rng
        )
        spectra *= self.noise.phase_jitter((len(spectra), 1), rng)
        return spectra

    def _kernel(self, offsets: np.ndarray) -> np.ndarray:
        r"""Reference leakage kernel of one tone (any offsets, any shape).

        The production path is the factored scatter kernel in
        :mod:`repro.kernels.synthesis`; this direct form is kept as the
        specification the fast paths are tested against.

        The Hann window ``0.5 - 0.25 e^{j2\pi n/N} - 0.25 e^{-j2\pi n/N}``
        turns into the exact three-term Dirichlet combination
        ``0.5 D(d) - 0.25 D(d-1) - 0.25 D(d+1)`` (the phase convention of
        :func:`dirichlet_kernel` carries the minus signs), rescaled by the
        window's coherent gain (0.5) so a unit tone still peaks at 1.0.
        """
        if self.window == "rect":
            return dirichlet_kernel(offsets, self._n_samples)
        combo = (
            0.5 * dirichlet_kernel(offsets, self._n_samples)
            - 0.25 * dirichlet_kernel(offsets - 1.0, self._n_samples)
            - 0.25 * dirichlet_kernel(offsets + 1.0, self._n_samples)
        )
        return combo / 0.5

    def _noise_scale(self) -> float:
        """Noise amplification of the window (ENBW; 1.5 for Hann).

        With the coherent-gain rescale applied to signals, per-bin noise
        power grows by the window's equivalent noise bandwidth.
        """
        return float(np.sqrt(1.5)) if self.window == "hann" else 1.0

    def range_bins_m(self) -> np.ndarray:
        """Round-trip distance of each retained bin, shape ``(num_bins,)``."""
        return self.axis.round_trips_m[: self.num_bins]
