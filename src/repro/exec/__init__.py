"""Sharded experiment execution: one parallel runner under every loop.

The paper's Section 8 protocol — 100 × 1-minute experiments per figure
— is embarrassingly parallel, and this package is the one place the
repository schedules it:

* :mod:`repro.exec.plan` — :class:`WorkItem` / :class:`ExperimentPlan`
  turn a figure's grid (seeds × distances × separations × activities)
  into picklable, schedulable units;
* :mod:`repro.exec.pool` — :class:`WorkerPool`, the persistent
  process runtime both tiers share: long-lived ``fork`` workers behind
  request/response IPC, stateless ``apply`` requests for plan chunks
  and per-worker actors (``invoke``) for the distributed serving
  shards (:mod:`repro.serve.shard`), with crash isolation
  (:class:`WorkerCrash`/:class:`RemoteError`);
* :mod:`repro.exec.runners` — :class:`SerialRunner` and the chunked
  :class:`ProcessPoolRunner` execute a plan with results in plan order
  (``REPRO_WORKERS`` picks the default pool size; the pool persists
  across runs);
* :mod:`repro.exec.stream` — :class:`ShardedStreamRunner` splits one
  long :meth:`Scenario.frames` stream at pipeline-reset boundaries and
  merges the per-shard :class:`~repro.pipeline.runner.PipelineResult`\\ s;

The load-bearing invariant, pinned by ``tests/test_exec_*``: for a
fixed plan, every runner produces bitwise-identical results.
"""

from .plan import ExperimentPlan, WorkItem
from .pool import RemoteError, WorkerCrash, WorkerPool, pool_available
from .transport import (
    DEFAULT_ARENA_BYTES,
    TRANSPORT_ENV,
    TRANSPORTS,
    TransportCounters,
    resolve_transport,
    shm_available,
)
from .runners import (
    ProcessPoolRunner,
    Runner,
    SerialRunner,
    WORKERS_ENV,
    default_runner,
    resolve_workers,
)
from .stream import (
    MIN_SHARD_FRAMES,
    Shard,
    ShardedStreamRunner,
    merge_results,
    plan_shards,
    results_identical,
    sharded_speedup_benchmark,
    track_scenario_shard,
)

__all__ = [
    "DEFAULT_ARENA_BYTES",
    "ExperimentPlan",
    "MIN_SHARD_FRAMES",
    "ProcessPoolRunner",
    "RemoteError",
    "Runner",
    "SerialRunner",
    "Shard",
    "ShardedStreamRunner",
    "TRANSPORTS",
    "TRANSPORT_ENV",
    "TransportCounters",
    "WORKERS_ENV",
    "WorkItem",
    "WorkerCrash",
    "WorkerPool",
    "default_runner",
    "merge_results",
    "plan_shards",
    "pool_available",
    "resolve_workers",
    "resolve_transport",
    "results_identical",
    "sharded_speedup_benchmark",
    "shm_available",
    "track_scenario_shard",
]
