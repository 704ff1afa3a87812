"""The array-backend seam under the hot-loop kernels.

Every hot kernel (sweep synthesis, background power + contour scan,
successive cancellation, the 2x2 Kalman tick, the fused tick plans) is
registered here per backend and dispatched at call time, so raw-speed
work is a *subsystem* with a switch rather than a series of one-off
rewrites. Each kernel has one fast path and one executable spec:

* ``numpy`` — the default: restructured, allocation-lean numpy.
* ``reference`` — the original (pre-kernel-tier) implementations,
  kept as the executable specification the numpy kernels are
  parity-tested against, and as the honest baseline the benchmarks
  measure speedups from. It registers every kernel ``numpy`` does
  except the fused tick plans, which it never runs
  (``Backend.fuse_ticks`` is False).

Selection: the ``REPRO_BACKEND`` environment variable (read on first
use), :func:`set_backend`, or the :func:`use_backend` context manager
(tests). Any other name raises.

Parity: ``tests/test_kernels.py`` pins the numpy kernels against
``reference``, and the tick-fusion suites pin fused == staged bitwise.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterator


class Backend:
    """One named set of kernel implementations.

    Attributes:
        name: registry key (``numpy`` or ``reference``).
        static_split: whether :meth:`SweepSynthesizer.synthesize_batch
            <repro.rf.receiver.SweepSynthesizer.synthesize_batch>` may
            hoist static (scalar round-trip/amplitude) paths out of the
            per-sweep scatter. False only for ``reference``, which must
            reproduce the original code's cost and math shape.
        fuse_ticks: whether :meth:`Pipeline.tick
            <repro.pipeline.Pipeline.tick>` may run a compiled
            :class:`~repro.kernels.tick.TickPlan` (the whole stage
            chain as one kernel call) instead of the staged loop.
            False only for ``reference``, which stays the honest
            stage-by-stage cost model the fused paths are measured
            against.
        impls: kernel key -> callable.
    """

    def __init__(
        self,
        name: str,
        static_split: bool = True,
        fuse_ticks: bool = True,
    ) -> None:
        self.name = name
        self.static_split = static_split
        self.fuse_ticks = fuse_ticks
        self.impls: dict[str, Callable] = {}


_BACKENDS: dict[str, Backend] = {
    "numpy": Backend("numpy"),
    "reference": Backend("reference", static_split=False, fuse_ticks=False),
}
_active: Backend | None = None


def register(backend_name: str, key: str) -> Callable:
    """Decorator: register a kernel implementation on a backend."""

    def deco(fn: Callable) -> Callable:
        _BACKENDS[backend_name].impls[key] = fn
        return fn

    return deco


def available_backends() -> list[str]:
    """Names of the registered backends."""
    return list(_BACKENDS)


def set_backend(name: str) -> str:
    """Select the active backend; returns its name.

    An unknown name raises ``ValueError``.
    """
    global _active
    name = (name or "numpy").strip().lower()
    backend = _BACKENDS.get(name)
    if backend is None:
        known = ", ".join(sorted(_BACKENDS))
        raise ValueError(f"unknown backend {name!r}; choose from: {known}")
    _active = backend
    return backend.name


def active_backend() -> Backend:
    """The active backend (initialized from ``REPRO_BACKEND`` once)."""
    global _active
    if _active is None:
        set_backend(os.environ.get("REPRO_BACKEND", "numpy"))
    assert _active is not None
    return _active


def backend_name() -> str:
    """Name of the active backend."""
    return active_backend().name


def kernel(key: str) -> Callable:
    """The active backend's implementation of one kernel."""
    return active_backend().impls[key]


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Temporarily switch backends (parity tests, benchmarks)."""
    global _active
    previous = active_backend()
    try:
        yield set_backend(name)
    finally:
        _active = previous
