"""Multi-session serving engine: one pipeline, N concurrent users.

WiTrack's Section 7 deployment is one device, one pipeline, one user.
This package turns that into a *serving* problem: stage state is
vectorized across sessions (structure-of-arrays with a session axis —
see :mod:`repro.pipeline.stages`), so one pipeline instance advances N
independent sessions in lockstep, paying the per-frame numpy dispatch
cost once instead of N times.

* :mod:`session` — :class:`SessionSpec` (cohort identity),
  :class:`Session` (bounded queue, per-session latency, accumulated
  results), plus the :func:`single_session`/:func:`multi_session` spec
  helpers;
* :mod:`scheduler` — :class:`Scheduler`, the in-process front end
  (admit/retire with dense slot reuse, split/merge, and one vectorized
  tick over every ready session of a cohort), on the
  :class:`~repro.serve.scheduler.SchedulerBase` both front ends share
  (session registration, retirement, drain, re-batching decisions);
* :mod:`shard` — the distributed tier: :class:`ShardWorker` (cohort
  pipelines inside long-lived worker processes) and
  :class:`DistributedScheduler` (whole-cohort placement, batched
  per-shard steps, failover, adaptive re-batching);
* :mod:`engine` — the :class:`ServingEngine` facade the apps and the
  ``repro serve`` CLI embed; ``workers=N`` turns it into the front end
  of the distributed tier, ``workers=0`` keeps everything in-process.

Load-bearing invariants, pinned by ``tests/test_serve.py`` and
``tests/test_serve_distributed.py``:

* N=1 serving output is **bitwise** ``Pipeline.run_stream`` output,
  for every numeric block dtype;
* N-session lockstep output equals N serial per-session runs exactly,
  across mixed single/multi cohorts and staggered start/stop;
* distributed serving (workers >= 2) is result-identical to
  single-process serving for the same admission schedule;
* evicting a session mid-run does not perturb the survivors, and a
  shard worker failing mid-tick fails its sessions over to survivors
  without perturbing anyone else.
"""

from .engine import ServingEngine
from .scheduler import Cohort, Scheduler, StragglerDetector
from .session import (
    AdmissionRefused,
    Session,
    SessionSpec,
    multi_session,
    single_session,
)
from .shard import DistributedScheduler, PlacedCohort, ShardWorker

__all__ = [
    "AdmissionRefused",
    "Cohort",
    "DistributedScheduler",
    "PlacedCohort",
    "Scheduler",
    "ServingEngine",
    "Session",
    "SessionSpec",
    "ShardWorker",
    "StragglerDetector",
    "multi_session",
    "single_session",
]
