"""Cohort-fused synthetic frame source for the serving tier.

A :class:`CohortFrameSource` drives N concurrent scenario sessions and
synthesizes *all* of them — every antenna of every session — as one
array program per chunk. Each session's streaming state advances on
its own (:meth:`repro.sim.ScenarioStream.advance`); then one
:class:`repro.sim.scenario.PathGeometry` solve gives every session's
dynamic paths as (session, antenna, path, sweep) arrays, and one
:meth:`repro.rf.receiver.SweepSynthesizer.synthesize_paths` call
scatters them over a static-clutter template computed once per source
(see :mod:`repro.kernels.synthesis`). Against N per-session
:meth:`repro.sim.Scenario.frames` generators the scatter kernel runs
once per chunk instead of 3N times, no ``Path`` objects are built, and
static clutter (most of the path count) is evaluated once per stream
instead of once per sweep.

A chunk is made in four steps. (1) Every session's streaming state
advances, serially. (2) The chunk buffer is filled with the clutter
template, split by stream across the worker threads of
:func:`repro.kernels.backend.parallel_ranges`. (3) The geometry solve
and the scatter kernel add the dynamic paths; the kernel splits its
sweep tiles across the same workers. (4) The serving noise is added,
split by session: every (session, antenna) stream draws from its own
keyed generator, into the calling worker's own draw buffers, so the
worker count changes neither a value nor the memory footprint. Each
step's helper threads are joined before the next step starts, so the
yielded frames are complete.

The deterministic part — the noise-free spectra — is bitwise what the
per-session path produces under the numpy backend, on every frame of
every chunk; tests pin this. The ``reference`` backend synthesizes the
sessions' full per-antenna ``Path`` lists instead, and agrees with
per-session synthesis up to last-ulp differences (~1e-21) of its
kernel's transcendental passes on differently sized arrays.

**Serving noise model.** Receiver noise keeps the same physical model
as :meth:`repro.rf.receiver.SweepSynthesizer.add_noise` but a cheaper
realization, keyed independently of the per-session path:

* Noise is drawn at *frame* rate and broadcast across the
  ``sweeps_per_frame`` sweeps of the frame, scaled by ``1/sqrt(spf)``.
  The pipeline coherently averages the sweep axis on entry
  (``Pipeline.tick``), and the mean of ``spf`` i.i.d. complex Gaussians
  equals one Gaussian of ``1/spf`` the power — identical in
  distribution for every downstream consumer, at a fifth of the draws.
* Draws come from an ``SFC64`` stream keyed per
  ``(session seed, antenna, 64-frame block)``, so the stream is
  deterministic in the scenario seeds and invariant to both the chunk
  size and the cohort's composition.

Use :meth:`ticks` to drive a serving engine (one list of per-session
``(n_rx, spf, n_bins)`` blocks per frame step) or :meth:`session_streams`
for per-session iterators consumed in lockstep.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

import numpy as np

from ..kernels.backend import active_backend, parallel_ranges
from .scenario import PathGeometry, Scenario, ScenarioStream

#: Domain-separation key of the serving noise streams (vs the
#: per-session frames() noise keyed with 65_537).
_NOISE_KEY = 131_071
#: Frames per noise block; fixed so draws do not depend on chunking.
_NOISE_BLOCK_FRAMES = 64


class CohortFrameSource:
    """Fused synthetic sweep-frame source for N concurrent sessions.

    Args:
        scenarios: one :class:`Scenario` per session. All must share
            the system configuration and the antenna positions and
            boresights (``ValueError`` otherwise); rooms, bodies,
            gestures, trajectories and seeds may differ. Seeds should
            differ or sessions will be correlated.
        chunk_frames: frames synthesized per fused kernel pass — the
            memory/latency knob; the output does not depend on it.
        noise: apply the serving noise model (see module docstring).
            ``False`` yields the noise-free spectra the parity tests
            pin against per-session synthesis.
    """

    def __init__(
        self,
        scenarios: list[Scenario],
        chunk_frames: int = 64,
        noise: bool = True,
    ) -> None:
        if not scenarios:
            raise ValueError("need at least one scenario")
        if chunk_frames < 1:
            raise ValueError("chunk_frames must be >= 1")
        self.geometry = PathGeometry(scenarios)
        self.streams = [ScenarioStream(s) for s in scenarios]
        first = self.streams[0]
        self.chunk_frames = chunk_frames
        self.noise = noise
        self.num_sessions = len(self.streams)
        self.num_rx = first.num_rx
        self.num_bins = first.synthesizer.num_bins
        self.spf = first.spf
        self.n_frames = min(st.n_frames for st in self.streams)
        self._template: np.ndarray | None = None

    def _clutter_template(self) -> np.ndarray:
        """Per-stream static clutter spectra, shape ``(n_streams, n_bins)``.

        Clutter never changes between chunks, so the template that
        ``synthesize_batch``'s static-path split would rebuild every
        chunk is computed once here and pre-filled into the fused
        output buffer. The add order is unchanged — template first,
        then the dynamic scatters — so results stay bitwise identical.
        """
        if self._template is None:
            clutter_sets = [
                list(st._clutter)
                for st in self.streams
                for _ in range(self.num_rx)
            ]
            self._template = self.streams[0].synthesizer.synthesize_batch(
                clutter_sets, 1
            )[:, 0, :]
        return self._template

    def ticks(self) -> Iterator[list[np.ndarray]]:
        """Yield one list of per-session blocks per frame step.

        Each yielded list holds ``num_sessions`` views of shape
        ``(n_rx, spf, n_bins)`` — the exact per-session input of
        ``ServingSession.offer``.
        """
        synthesizer = self.streams[0].synthesizer
        spf = self.spf
        n_rx = self.num_rx
        nb = self.num_bins
        # Only backends that split static paths build a clutter
        # template; under the reference backend the full path sets go
        # through unchanged so per-session parity holds there too.
        template = (
            self._clutter_template()
            if active_backend().static_split
            else None
        )
        # Per-worker noise draw buffers, reused by every chunk.
        noise_buffers: dict = {}
        for f0 in range(0, self.n_frames, self.chunk_frames):
            f1 = min(f0 + self.chunk_frames, self.n_frames)
            n_sweeps = (f1 - f0) * spf
            advanced = [st.advance(f0, f1) for st in self.streams]
            if template is not None:
                fused = np.empty(
                    (len(template), n_sweeps, self.num_bins),
                    dtype=np.complex128,
                )

                def fill(worker: int, lo: int, hi: int) -> None:
                    fused[lo:hi] = template[lo:hi, None, :]

                parallel_ranges(len(template), fill)
                self.geometry.synthesize(synthesizer, *zip(*advanced), fused)
            else:
                fused = synthesizer.synthesize_batch(
                    [
                        ps
                        for st, adv in zip(self.streams, advanced)
                        for ps in st.path_sets(*adv)
                    ],
                    n_sweeps,
                )
            chunk = fused.reshape(
                self.num_sessions, n_rx, n_sweeps, self.num_bins
            )
            if self.noise:

                def add_noise(worker: int, lo: int, hi: int) -> None:
                    if worker not in noise_buffers:
                        noise_buffers[worker] = (
                            np.empty((2, _NOISE_BLOCK_FRAMES, nb)),
                            np.empty((_NOISE_BLOCK_FRAMES, nb), complex),
                        )
                    for k in range(lo, hi):
                        self._serving_noise(
                            chunk[k], self.streams[k], f0, f1,
                            *noise_buffers[worker],
                        )

                parallel_ranges(self.num_sessions, add_noise)
            for f in range(f0, f1):
                row = (f - f0) * spf
                yield [
                    chunk[k][:, row : row + spf, :]
                    for k in range(self.num_sessions)
                ]

    def session_streams(self) -> list[Iterator[np.ndarray]]:
        """Per-session block iterators backed by the shared fused ticks.

        Intended for lockstep consumption (a serving loop offering one
        frame per session per tick); a lagging consumer only grows the
        leader's buffer by the lag, not the whole stream.
        """
        buffers = [deque() for _ in range(self.num_sessions)]
        ticks = self.ticks()

        def gen(k: int) -> Iterator[np.ndarray]:
            while True:
                if not buffers[k]:
                    try:
                        blocks = next(ticks)
                    except StopIteration:
                        return
                    for q, b in zip(buffers, blocks):
                        q.append(b)
                yield buffers[k].popleft()

        return [gen(k) for k in range(self.num_sessions)]

    def _serving_noise(
        self,
        block: np.ndarray,
        st: ScenarioStream,
        f0: int,
        f1: int,
        draws: np.ndarray,
        floor: np.ndarray,
    ) -> None:
        """Frame-rate thermal noise + phase jitter, in place.

        ``block`` is ``(n_rx, (f1-f0)*spf, n_bins)``. Per antenna and
        64-frame noise block, one keyed SFC64 stream supplies the
        frame-level complex floor (broadcast across the frame's sweeps
        at ``1/sqrt(spf)`` power) and the per-frame phase jitter. The
        floor is drawn into ``draws`` ``(2, 64, n_bins)`` and combined
        in ``floor`` ``(64, n_bins)`` complex, the calling worker's
        buffers, with the arithmetic of ``sigma * (w0 + 1j * w1)`` in
        its order.
        """
        syn = st.synthesizer
        noise = syn.noise
        spf = self.spf
        seed = st.scenario.seed
        sigma = (
            syn._noise_scale()
            * noise.noise_amplitude
            / np.sqrt(2.0)
            / np.sqrt(spf)
        )
        nb = self.num_bins
        frames = block.reshape(self.num_rx, f1 - f0, spf, nb)
        bsz = _NOISE_BLOCK_FRAMES
        for i in range(self.num_rx):
            for b in range(f0 // bsz, (f1 - 1) // bsz + 1):
                rng = np.random.Generator(
                    np.random.SFC64(
                        np.random.SeedSequence([seed, _NOISE_KEY, i, b])
                    )
                )
                rng.standard_normal(out=draws)
                eps = rng.standard_normal((bsz, 1))
                lo = max(f0, b * bsz)
                hi = min(f1, (b + 1) * bsz)
                sel = slice(lo - b * bsz, hi - b * bsz)
                rows = frames[i, lo - f0 : hi - f0]
                c = np.multiply(1j, draws[1, sel], out=floor[: hi - lo])
                np.add(draws[0, sel], c, out=c)
                np.multiply(sigma, c, out=c)
                rows += c[:, None, :]
                rows *= np.exp(
                    1j * noise.phase_noise_std_rad * eps[sel]
                )[:, :, None]
