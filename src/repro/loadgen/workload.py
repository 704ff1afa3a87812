"""Workloads: the full deterministic plan of who arrives, when, for how long.

A :class:`Workload` expands one arrival process into a concrete,
seeded plan: per session an arrival time, a lifetime (frames the user
will produce on their own clock), a spec kind drawn from the mix, and a
private frame seed. Everything downstream — the harness, the SLO
ledger, the CI artifact — is a pure function of this plan plus the
engine configuration, which is what makes a load run reproducible.

:class:`SyntheticFrameSource` supplies the actual sweep blocks: a
deterministic moving-target synthesizer (Gaussian range bumps
random-walking across bins over complex noise) shaped exactly like the
spec's pipeline input, far cheaper than the scenario synthesizer. It
is not free next to serving, though: a 3 x 5 x 171 block costs about
0.1 ms in process on a 2-core x86_64 VM, about 70 us of it the
standard-normal draw that fixes the block's bits, and on churn-mix
frame production (``loadgen.frames_us_per_frame``, 151 of 449 traced
us per frame) is the largest layer. A load run's timings therefore
include the frame source; the fidelity-first path
(:meth:`Scenario.frames <repro.sim.scenario.Scenario.frames>`) remains
what ``repro serve`` drives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..serve.session import SessionSpec, frame_shape
from .arrivals import ArrivalProcess


@dataclass(frozen=True)
class SessionPlan:
    """One planned session: arrival, lifetime, spec kind, frame seed.

    Attributes:
        arrival_s: when the session asks to be admitted.
        lifetime_frames: frames its producer will emit, one per frame
            period, before hanging up.
        kind: key into the harness's spec map (e.g. ``"single"``).
        seed: per-session frame-synthesis seed.
    """

    arrival_s: float
    lifetime_frames: int
    kind: str
    seed: int


@dataclass(frozen=True)
class Workload:
    """A fully expanded, deterministic load plan.

    Attributes:
        plans: sessions in arrival order.
        horizon_s: length of the generation window.
        seed: the master seed the plan was expanded from.
        arrival: the arrival process's :meth:`describe` echo.
        lifetime_mean_s: configured mean session lifetime.
        mix: the spec-kind mix the plan was drawn from.
    """

    plans: tuple[SessionPlan, ...]
    horizon_s: float
    seed: int
    arrival: dict = field(default_factory=dict)
    lifetime_mean_s: float = 0.0
    mix: tuple[tuple[str, float], ...] = ()

    @property
    def num_sessions(self) -> int:
        """Planned sessions over the horizon."""
        return len(self.plans)

    def describe(self) -> dict:
        """JSON-serializable parameters (echoed into the SLO artifact)."""
        return {
            "seed": self.seed,
            "horizon_s": self.horizon_s,
            "sessions": self.num_sessions,
            "lifetime_mean_s": self.lifetime_mean_s,
            "mix": {kind: weight for kind, weight in self.mix},
            **self.arrival,
        }


def build_workload(
    process: ArrivalProcess,
    horizon_s: float,
    frame_dt_s: float,
    seed: int = 0,
    lifetime_mean_s: float = 4.0,
    lifetime_sigma: float = 0.6,
    mix: dict[str, float] | None = None,
) -> Workload:
    """Expand an arrival process into a concrete session plan.

    Lifetimes are lognormal in seconds (heavy-tailed, like real session
    lengths: many short visits, a few long ones), converted to frames at
    the engine's frame period and floored at two frames so every session
    produces at least one output past background priming. The spec kind
    is drawn per session from ``mix`` weights.

    Args:
        process: the arrival intensity to realize.
        horizon_s: generation window; arrivals land in ``[0, horizon)``.
        frame_dt_s: frame period (converts lifetimes to frame counts).
        seed: master seed; everything derives from it.
        lifetime_mean_s: mean session lifetime in seconds.
        lifetime_sigma: lognormal shape parameter.
        mix: spec-kind weights, e.g. ``{"single": 0.9, "multi": 0.1}``
            (default: all ``"single"``).
    """
    if frame_dt_s <= 0:
        raise ValueError("frame_dt_s must be positive")
    if lifetime_mean_s <= 0:
        raise ValueError("lifetime_mean_s must be positive")
    mix = dict(mix) if mix else {"single": 1.0}
    total = sum(mix.values())
    if total <= 0 or any(w < 0 for w in mix.values()):
        raise ValueError("mix weights must be nonnegative with a positive sum")
    kinds = sorted(mix)  # deterministic draw order
    weights = np.asarray([mix[k] / total for k in kinds])

    rng = np.random.default_rng(seed)
    arrivals = process.sample(horizon_s, rng)
    # Lognormal with the requested mean: mu = ln(mean) - sigma^2/2.
    mu = np.log(lifetime_mean_s) - 0.5 * lifetime_sigma**2
    plans = []
    for i, t in enumerate(arrivals):
        life_s = float(rng.lognormal(mu, lifetime_sigma))
        frames = max(int(round(life_s / frame_dt_s)), 2)
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        plans.append(
            SessionPlan(
                arrival_s=float(t),
                lifetime_frames=frames,
                kind=kind,
                seed=seed + 7919 * (i + 1),
            )
        )
    return Workload(
        plans=tuple(plans),
        horizon_s=horizon_s,
        seed=seed,
        arrival=process.describe(),
        lifetime_mean_s=lifetime_mean_s,
        mix=tuple(sorted(mix.items())),
    )


class SyntheticFrameSource:
    """Deterministic, cheap sweep-block generator for one session.

    Each frame is complex noise plus ``n_targets`` Gaussian range bumps
    whose centers random-walk across bins — enough structure that the
    full pipeline (background subtract, contour, Kalman, localize or
    cancel/associate) does real work on every frame, at about 0.1 ms
    per block, most of it the noise draw. Identical ``(spec, seed)`` always produces the identical
    block sequence.

    Args:
        spec: the session spec the blocks must fit.
        seed: per-session generator seed.
        n_targets: moving range bumps per frame (2+ for multi specs).
    """

    def __init__(
        self, spec: SessionSpec, seed: int, n_targets: int | None = None
    ) -> None:
        if n_targets is None:
            n_targets = 2 if spec.kind == "multi" else 1
        if n_targets < 1:
            raise ValueError("n_targets must be >= 1")
        self.shape = frame_shape(spec)
        self._rng = np.random.default_rng(seed)
        n_bins = self.shape[2]
        lo, hi = 0.1 * n_bins, 0.85 * n_bins
        self._lo, self._hi = lo, hi
        self._pos = self._rng.uniform(lo, hi, size=n_targets)
        self._bins = np.arange(n_bins, dtype=np.float64)
        self.frames_produced = 0

    def next_block(self) -> np.ndarray:
        """The next ``(n_rx, spf, n_bins)`` complex sweep block."""
        rng = self._rng
        n_rx, spf, n_bins = self.shape
        self._pos = np.clip(
            self._pos + rng.normal(0.0, 0.4, size=self._pos.shape),
            self._lo,
            self._hi,
        )
        # Both noise halves in one draw (the same stream as two), scaled
        # straight into the block's real and imaginary parts.
        parts = rng.standard_normal((2, n_rx, spf, n_bins))
        bumps = np.exp(
            -0.5 * ((self._bins[None, :] - self._pos[:, None]) / 2.5) ** 2
        )
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=len(self._pos)))
        signal = (phases[:, None] * bumps).sum(axis=0)
        block = np.empty((n_rx, spf, n_bins), dtype=np.complex128)
        np.multiply(parts[0], 0.05, out=block.real)
        np.multiply(parts[1], 0.05, out=block.imag)
        block += signal
        self.frames_produced += 1
        return block


def next_blocks(sources: list[SyntheticFrameSource]) -> list[np.ndarray]:
    """Advance many frame sources one frame each; one block per source.

    The batch mirror of :meth:`SyntheticFrameSource.next_block`, and
    the seam the load harness produces frames through. Per-source RNG
    streams are the determinism contract — identical ``(spec, seed)``
    must yield the identical block sequence regardless of who else is
    producing — so blocks are drawn source by source, in order; a
    fused generator that batches same-shape sources may slot in here
    later but must preserve exactly those per-source streams.
    """
    return [source.next_block() for source in sources]
