"""Tick plans: a pipeline's stage chain, matched once and run per tick.

:func:`compile_tick_plan` pattern-matches a pipeline's stage list (each
stage advertises its kind via
:meth:`~repro.pipeline.stages.Stage.fuse_spec`) against the
single-person chain (background subtraction, contour, outlier gate,
hold, Kalman, optionally the closed-form T solve) and the multi-person
chain (successive cancellation and association over a row-independent
solver), emitting a :class:`TickPlan` or a :class:`MultiTickPlan`.
Both run their stages in order: every stage already advances the whole
cohort as one array program, its arithmetic one backend-dispatched
kernel over the stages' own state slabs, with a ``numpy`` fast path and
a ``reference`` spec (:mod:`repro.kernels.contour`,
:mod:`repro.kernels.gate`, :mod:`repro.kernels.kalman`).

The plans and the ``REPRO_FUSED`` switch (read once per process, or
:func:`enable_fusion`) choose whether ``Pipeline.tick`` enters the
chain through :meth:`TickPlan.run` or its own stage loop — the same
stages either way. They stay because the repository benchmark
(``perfbench/``) times :meth:`TickPlan.run` and
:meth:`MultiTickPlan.run` per cohort kind and stamps each kind's plan
verdict.
"""

from __future__ import annotations

import os

_TRUE = {"1", "true", "yes", "on"}


def _read_env() -> bool:
    return os.environ.get("REPRO_FUSED", "1").strip().lower() in _TRUE


#: ``REPRO_FUSED`` parsed once (re-read by :func:`reset_fusion_override`
#: so tests that monkeypatch the environment can refresh it); per-tick
#: checks must not re-read the environment.
_env_default: bool = _read_env()
#: Programmatic override (None = follow the env var).
_forced: bool | None = None


def fused_enabled() -> bool:
    """Whether tick plans are requested (``REPRO_FUSED``, default on)."""
    return _env_default if _forced is None else _forced


def enable_fusion(on: bool = True) -> None:
    """Programmatic override of ``REPRO_FUSED`` (benchmarks, tests)."""
    global _forced
    _forced = bool(on)


def reset_fusion_override() -> None:
    """Return control of fusion to the ``REPRO_FUSED`` variable."""
    global _forced, _env_default
    _forced = None
    _env_default = _read_env()


def fusion_active() -> bool:
    """True when ``Pipeline.tick`` should enter through its tick plan."""
    return fused_enabled()


#: The single-person chain, in order (localize optional).
_CHAIN = ("background", "contour", "outlier", "hold", "kalman")

#: The multi-person chain: shared front end, then successive
#: cancellation and the cohort track bank.
_MULTI_CHAIN = ("background", "cancel", "associate")


def compile_tick_plan(stages) -> "TickPlan | MultiTickPlan | None":
    """Match a stage list to a tick plan, or ``None``.

    The single-person chain gives a :class:`TickPlan`, the multi-person
    chain (``SuccessiveCancel`` + ``Associate`` over a row-independent
    solver) a :class:`MultiTickPlan`. ``None`` means some stage has no
    kind (the warm-started least-squares solver, custom stages) or the
    chain matches neither pattern; the pipeline then runs its own
    stage loop.
    """
    kinds = tuple(stage.fuse_spec() for stage in stages)
    if kinds in (_CHAIN, _CHAIN + ("localize",)):
        return TickPlan(*stages)
    if kinds == _MULTI_CHAIN:
        return MultiTickPlan(*stages)
    return None


def run_stages(stages, tick):
    """Advance ``tick`` through ``stages`` in order.

    Stops early once no row is left (every row only primed its
    background reference).
    """
    for stage in stages:
        tick = stage.process_tick(tick)
        if tick.num_rows == 0:
            break
    return tick


class TickPlan:
    """The single-person chain, run stage by stage."""

    def __init__(self, *stages) -> None:
        self.stages = stages

    def run(self, tick):
        return run_stages(self.stages, tick)


class MultiTickPlan:
    """The multi-person chain, run stage by stage."""

    def __init__(self, *stages) -> None:
        self.stages = stages

    def run(self, tick):
        return run_stages(self.stages, tick)
