"""Traffic-realistic load harness for the serving tier.

The serving benchmarks so far were **closed-loop**: a driver feeds a
frame, waits for the engine, feeds the next. Real deployments are
**open-loop** — users arrive on their own schedule, stream frames on
their sensors' clocks, and leave; when the engine falls behind, load
does not politely pause, it queues, drops, and gets rejected. This
package supplies that missing regime, deterministically:

* :mod:`~repro.loadgen.arrivals` — seeded arrival processes
  (:class:`PoissonArrivals`, :class:`DiurnalArrivals`,
  :class:`FlashCrowdArrivals`) sampled by Lewis-Shedler thinning.
* :mod:`~repro.loadgen.workload` — expands an arrival process into a
  concrete session plan (lifetimes, spec mix, per-session seeds) plus
  :class:`SyntheticFrameSource`, a cheap deterministic sweep-block
  generator so hundreds of sessions stay affordable.
* :mod:`~repro.loadgen.harness` — :class:`LoadHarness` drives a
  :class:`~repro.serve.ServingEngine` on a virtual clock under a
  service-capacity model, so overload is reproducible byte-for-byte.
* :mod:`~repro.loadgen.slo` — :class:`SLOLedger` accounts latency
  percentiles against the paper's 75 ms budget, goodput vs offered
  load, rejection/drop rates, and queue-depth series, emitting one
  JSON artifact CI can trend.
* :mod:`~repro.loadgen.memory` — :class:`SpecMemoryModel` predicts
  bytes-per-session per spec from its stages' declarations;
  :class:`MemoryGovernor` turns that into an admission gate so overload
  is met with refusals, not OOM.

Entry points: ``repro load`` (CLI) and ``benchmarks/bench_load.py``.
"""

from .arrivals import (
    ArrivalProcess,
    DiurnalArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
    arrival_process,
)
from .harness import LoadHarness
from .memory import MemoryGovernor, SpecMemoryModel
from .slo import DEFAULT_BUDGET_S, SLOLedger
from .workload import (
    SessionPlan,
    SyntheticFrameSource,
    Workload,
    build_workload,
    frame_shape,
    next_blocks,
)

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "DiurnalArrivals",
    "FlashCrowdArrivals",
    "arrival_process",
    "SessionPlan",
    "Workload",
    "build_workload",
    "frame_shape",
    "next_blocks",
    "SyntheticFrameSource",
    "LoadHarness",
    "SLOLedger",
    "DEFAULT_BUDGET_S",
    "SpecMemoryModel",
    "MemoryGovernor",
]
