"""The array-backend seam under the hot-loop kernels.

Every hot kernel (sweep synthesis, background power, the contour tick,
the outlier gate, the 2x2 Kalman tick, successive cancellation) is
registered here per backend and dispatched at call time, so raw-speed
work is a *subsystem* with a switch rather than a series of one-off
rewrites. Each kernel has one fast path and one executable spec:

* ``numpy`` — the default: restructured, allocation-lean numpy.
* ``reference`` — the original (pre-kernel-tier) implementations,
  kept as the executable specification the numpy kernels are
  parity-tested against, and as the honest baseline the benchmarks
  measure speedups from. It registers every kernel ``numpy`` does.

Selection: the ``REPRO_BACKEND`` environment variable (read on first
use), :func:`set_backend`, or the :func:`use_backend` context manager
(tests). Any other name raises.

Parity: ``tests/test_kernels.py`` pins the numpy kernels against
``reference``, and ``tests/test_tick_fusion.py`` pins whole numpy
pipelines against reference pipelines, bitwise.

Cores: :func:`parallel_ranges` splits a kernel's independent items
(the synthesis kernel's sweep tiles, a cohort chunk's streams) over
:func:`synthesis_workers` threads; numpy releases the GIL inside the
large-array loops, copies and draws that make up that work. Helper
threads run only a caller's private loop body, never :func:`kernel`
dispatch or a public layer entry point, so whatever wraps those entry
points sees every call on the calling thread.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np


class Backend:
    """One named set of kernel implementations.

    Attributes:
        name: registry key (``numpy`` or ``reference``).
        static_split: whether :meth:`SweepSynthesizer.synthesize_batch
            <repro.rf.receiver.SweepSynthesizer.synthesize_batch>` may
            hoist static (scalar round-trip/amplitude) paths out of the
            per-sweep scatter. False only for ``reference``, which must
            reproduce the original code's cost and math shape.
        impls: kernel key -> callable.
    """

    def __init__(self, name: str, static_split: bool = True) -> None:
        self.name = name
        self.static_split = static_split
        self.impls: dict[str, Callable] = {}


_BACKENDS: dict[str, Backend] = {
    "numpy": Backend("numpy"),
    "reference": Backend("reference", static_split=False),
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


def resolve_shape(trailing: tuple, dims: dict) -> tuple:
    """A declared shape: ints as they are, dim names read from ``dims``,
    ``(name, offset)`` as that dim plus the offset (at least 0)."""
    return tuple(
        d if isinstance(d, int) else dims[d] if isinstance(d, str)
        else max(dims[d[0]] + d[1], 0) for d in trailing
    )


class Registers:
    """A numpy kernel's work buffers, declared once: ``table`` maps a
    name to ``(dtype, trailing)``, a ``(rows, *trailing)`` buffer, or to
    ``(dtype, trailing, count)``, a list of ``count`` of them; trailing
    entries are ints or names from ``dims``, the axes after the first of
    the shape that keys a call (:meth:`views`). The memory model sums
    :meth:`row_nbytes`."""

    def __init__(self, dims: tuple = (), **table) -> None:
        self.dims = dims
        self.table = table

    def row_nbytes(self, **dims) -> int:
        """Bytes one row of every register takes at ``dims``."""
        return sum(math.prod((*count, *resolve_shape(trailing, dims)))
                   * np.dtype(dtype).itemsize
                   for dtype, trailing, *count in self.table.values())

    def views(self, scratch: dict, shape: tuple) -> dict:
        """Name -> ``[:rows]`` view(s) of each register for a call keyed
        by ``shape = (rows, *dims)``; the buffers live in ``scratch``,
        sized to the largest ``rows`` seen (never more), and at that size
        ``scratch`` itself is returned. A kernel may add to the dict
        returned: it stays the same until ``shape`` changes."""
        last = scratch.get("_shape")
        if last == shape:
            return scratch.get("_views", scratch)
        rows = shape[0]
        if not last or last[1:] != shape[1:] or scratch["_capacity"] < rows:
            dims = dict(zip(self.dims, shape[1:]))
            scratch.clear()
            for name, (dtype, trailing, *count) in self.table.items():
                full = (rows, *resolve_shape(trailing, dims))
                parts = [np.empty(full, dtype) for _ in range(*count or [1])]
                scratch[name] = parts if count else parts[0]
            scratch["_capacity"] = rows
        scratch["_shape"] = shape
        if rows == scratch["_capacity"]:
            scratch.pop("_views", None)
            return scratch
        views = scratch["_views"] = {
            name: [part[:rows] for part in scratch[name]] if count
            else scratch[name][:rows]
            for name, (_, _, *count) in self.table.items()
        }
        return views


#: Threads a :func:`parallel_ranges` call may use; resolved on first
#: use by :func:`synthesis_workers`.
_workers: int | None = None


def synthesis_workers() -> int:
    """Threads :func:`parallel_ranges` splits its items over.

    Every usable CPU (``os.sched_getaffinity``), except in a process
    that called :func:`run_on_one_thread`.
    """
    global _workers
    if _workers is None:
        _workers = len(os.sched_getaffinity(0))
    return _workers


def run_on_one_thread() -> None:
    """Keep every later :func:`parallel_ranges` call on its caller.

    :class:`~repro.exec.pool.WorkerPool` children call it first: they
    already share the cores with their siblings.
    """
    global _workers
    _workers = 1


def parallel_ranges(n_items: int, fn: Callable[[int, int, int], None]) -> None:
    """Run ``fn(worker, lo, hi)`` over contiguous ranges of ``n_items``.

    The items are split into ``min(synthesis_workers(), n_items)``
    contiguous ranges, in order; worker ``w`` gets the ``w``-th. The
    calling thread runs worker 0's range and one helper thread per call
    runs each other range. Every thread is joined before this returns,
    and an exception raised on any of them is re-raised here (the
    lowest worker's first). ``fn`` must touch only what its own range
    owns; the worker index names the per-worker buffers it may use.
    """
    n_workers = min(synthesis_workers(), n_items)
    if n_workers < 1:
        return
    bounds = [n_items * w // n_workers for w in range(n_workers + 1)]
    errors: list[BaseException | None] = [None] * n_workers

    def run(w: int) -> None:
        try:
            fn(w, bounds[w], bounds[w + 1])
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors[w] = exc

    helpers = [
        threading.Thread(target=run, args=(w,))
        for w in range(1, n_workers)
    ]
    for thread in helpers:
        thread.start()
    run(0)
    for thread in helpers:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
