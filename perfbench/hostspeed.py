"""A fixed probe of the host's speed, timed beside every pass.

On a shared machine the speed of the same code drifts by tens of
percent for minutes at a time, with the hardware contended by other
tenants. The probe is a fixed piece of work that the repository's code
never touches: numpy transforms over a frame-sized block and a short
loop of plain Python, the same mix a serving tick runs. Timed in the
same run as the workload, with the same elementwise floor over the same
number of replicas (:func:`perfbench.measure.floors`), its floor moves
with the host and not with the code under test.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Probe units per replica; one unit takes about 0.37 ms.
UNITS = 100

#: The probe's floor on the reference host (a 2-vCPU x86_64 VM, Python
#: 3.11, numpy 2.4) at its usual speed. Timings divided by
#: :meth:`HostProbe.slowdown` read as on that host.
REFERENCE_FLOOR_S = 0.037


class HostProbe:
    """Replicas of a fixed probe; :meth:`floor_s` is their floor."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._block = rng.standard_normal((64, 256))
        self._mix = rng.standard_normal((64, 64))
        self.replicas: list[np.ndarray] = []

    def _unit(self) -> float:
        acc = 0.0
        for _ in range(5):
            spectrum = np.abs(np.fft.rfft(self._block, axis=1))
            acc += float(spectrum.max())
            acc += float((self._mix @ spectrum[:, :8]).sum())
            table = {}
            for j in range(150):
                table[j] = j * 0.5
            acc += sum(table.values())
        return acc

    def run(self) -> None:
        """Time one replica: :data:`UNITS` units, each on its own."""
        marks = [perf_counter()]
        for _ in range(UNITS):
            self._unit()
            marks.append(perf_counter())
        self.replicas.append(np.diff(marks))

    def floor_s(self) -> float:
        """Sum over units of each unit's minimum across the replicas."""
        return float(np.min(self.replicas, axis=0).sum())

    def slowdown(self) -> float:
        """How much slower than the reference host this run's host was
        at its fastest moments (the probe's floor)."""
        return self.floor_s() / REFERENCE_FLOOR_S

    def typical_slowdown(self) -> float:
        """The same at its typical moments (the median replica)."""
        return float(np.median(np.sum(self.replicas, axis=1))
                     / REFERENCE_FLOOR_S)
