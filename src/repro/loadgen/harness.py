"""The open-loop load harness: workload in, SLO artifact out.

:class:`LoadHarness` drives a :class:`~repro.serve.ServingEngine` on a
virtual session clock, one step per frame period. Each step it

1. **admits** every workload session whose arrival time has come —
   through :meth:`ServingEngine.try_admit
   <repro.serve.ServingEngine.try_admit>`, so a memory governor or
   shard budget can refuse it (counted, not retried: open-loop users
   who are turned away leave);
2. **produces** one frame per live session *on the session's own
   clock*: a full bounded queue drops the frame (counted — the
   backpressure the closed-loop benchmarks never exercise);
3. **serves** under a capacity model: the engine ticks until queues
   are empty or the step's frame budget (``capacity_frames_per_step``)
   is spent. Offered load above capacity therefore backs queues up,
   latency climbs, drops and rejections begin — exactly the overload
   regime the SLO ledger exists to measure;
4. **accounts**: consumed frames get their virtual queue-wait +
   service latency, finished sessions close, and the ledger samples
   queue depth and occupancy.

Determinism: every number in the resulting artifact is a pure function
of (workload, specs, capacity, engine configuration). Wall-clock never
enters the ledger, so the same seed produces a byte-identical SLO JSON
whether the run was fast or slow, in-process or distributed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..serve.engine import ServingEngine
from ..serve.session import Session, SessionSpec
from .slo import DEFAULT_BUDGET_S, SLOLedger
from .workload import SessionPlan, SyntheticFrameSource, Workload, next_blocks


@dataclass
class _LiveSession:
    """Harness bookkeeping for one admitted session."""

    session: Session
    plan: SessionPlan
    source: SyntheticFrameSource
    offered_steps: deque
    produced: int = 0
    consumed: int = 0


class LoadHarness:
    """Drive one engine through one workload; collect the SLO ledger.

    Args:
        engine: the serving engine under load (in-process or
            distributed — the harness is identical either way).
        workload: the expanded session plan to realize.
        specs: spec per workload ``kind`` (e.g. ``{"single": ...}``).
            Every spec must share one frame period — it is the virtual
            clock.
        capacity_frames_per_step: frames the engine may consume per
            step — the service-capacity model that makes overload
            *possible* in virtual time. Enforced as a token bucket:
            each step deposits this many frame-tokens, and a tick
            (which atomically serves every ready session) spends its
            consumed count, going into *debt* on overshoot — so when
            offered load exceeds capacity, service is withheld on
            subsequent steps until tokens recover, queues back up, and
            virtual latency actually climbs. None means unbounded (the
            engine always keeps up; queues never grow).
        budget_s: the latency SLO (default: the paper's 75 ms).
    """

    def __init__(
        self,
        engine: ServingEngine,
        workload: Workload,
        specs: dict[str, SessionSpec],
        capacity_frames_per_step: int | None = None,
        budget_s: float = DEFAULT_BUDGET_S,
    ) -> None:
        if capacity_frames_per_step is not None and capacity_frames_per_step < 1:
            raise ValueError("capacity_frames_per_step must be >= 1")
        kinds = {plan.kind for plan in workload.plans}
        missing = kinds - set(specs)
        if missing:
            raise ValueError(
                f"workload kinds {sorted(missing)} have no spec in `specs`"
            )
        dts = {
            spec.config.pipeline.sweeps_per_frame
            * spec.config.fmcw.sweep_duration_s
            for spec in specs.values()
        }
        if len(dts) > 1:
            raise ValueError(
                "all specs must share one frame period (it is the "
                f"harness's virtual clock); got {sorted(dts)}"
            )
        self.engine = engine
        self.workload = workload
        self.specs = specs
        self.capacity = capacity_frames_per_step
        self.step_dt_s = dts.pop() if dts else 0.0125
        self.ledger = SLOLedger(self.step_dt_s, budget_s=budget_s)
        self._tokens = 0.0  # service token bucket (frames)

    # -- step phases -------------------------------------------------------

    def _admit_due(
        self, pending: deque, now_s: float, live: dict[int, _LiveSession]
    ) -> None:
        while pending and pending[0].arrival_s <= now_s:
            plan = pending.popleft()
            self.ledger.session_planned(plan.kind)
            session = self.engine.try_admit(self.specs[plan.kind])
            if session is None:
                self.ledger.session_rejected(plan.kind)
                continue
            self.ledger.session_admitted(plan.kind)
            live[session.session_id] = _LiveSession(
                session=session,
                plan=plan,
                source=SyntheticFrameSource(self.specs[plan.kind], plan.seed),
                offered_steps=deque(),
            )

    def _produce(self, live: dict[int, _LiveSession], step: int) -> int:
        producing = [
            ls for ls in live.values()
            if ls.produced < ls.plan.lifetime_frames
        ]
        blocks = next_blocks([ls.source for ls in producing])
        for ls, block in zip(producing, blocks):
            ls.produced += 1
            accepted = self.engine.offer(ls.session, block)
            self.ledger.frame_offered(ls.plan.kind, accepted)
            if accepted:
                ls.offered_steps.append(step)
        return len(producing)

    def _serve(self) -> int:
        served = 0
        if self.capacity is None:
            while True:
                consumed = self.engine.tick()
                if consumed == 0:
                    return served
                served += consumed
        # Token bucket: a tick is atomic across every ready session, so
        # one tick can overshoot the step's deposit — the overshoot is
        # carried as debt and repaid by withholding service on later
        # steps, keeping the long-run rate at the configured capacity.
        self._tokens = min(self._tokens + self.capacity, float(self.capacity))
        while self._tokens > 0:
            consumed = self.engine.tick()
            if consumed == 0:
                break
            served += consumed
            self._tokens -= consumed
        return served

    def _account(self, live: dict[int, _LiveSession], step: int) -> None:
        for ls in live.values():
            done = ls.session.frames_in - len(ls.session.queue)
            while ls.consumed < done:
                offered_step = ls.offered_steps.popleft()
                self.ledger.frame_consumed(
                    ls.plan.kind, (step - offered_step + 1) * self.step_dt_s
                )
                ls.consumed += 1

    def _retire_finished(self, live: dict[int, _LiveSession]) -> None:
        finished = [
            sid
            for sid, ls in live.items()
            if ls.produced >= ls.plan.lifetime_frames
            and not ls.session.queue
        ]
        for sid in finished:
            ls = live.pop(sid)
            # The queue is empty, so close() drains nothing: retiring a
            # finished session never spends service capacity.
            result = self.engine.close(ls.session)
            self.ledger.session_completed(ls.plan.kind, result.num_frames)

    # -- the run -----------------------------------------------------------

    def run(self, drain_steps: int | None = None) -> dict:
        """Execute the workload; return the SLO artifact dict.

        Args:
            drain_steps: extra steps after the horizon during which no
                new frame is produced but service continues, letting
                queued backlog finish (default: just enough steps, at
                the configured capacity, to clear the backlog standing
                at the horizon). Sessions still live after the drain
                are evicted and their queued frames counted as
                abandoned.
        """
        pending = deque(
            sorted(self.workload.plans, key=lambda p: p.arrival_s)
        )
        live: dict[int, _LiveSession] = {}
        horizon_steps = max(
            int(round(self.workload.horizon_s / self.step_dt_s)), 1
        )

        def one_step(step: int, offered: int) -> None:
            served = self._serve()
            self._account(live, step)
            self._retire_finished(live)
            self.ledger.sample(
                queue_depth=sum(len(ls.session.queue) for ls in live.values()),
                live_sessions=len(live),
                slots_attached=self.engine.num_sessions,
                offered=offered,
                consumed=served,
            )

        for step in range(horizon_steps):
            self._admit_due(pending, step * self.step_dt_s, live)
            one_step(step, self._produce(live, step))

        if drain_steps is None:
            backlog = sum(len(ls.session.queue) for ls in live.values())
            per_step = self.capacity or max(backlog, 1)
            drain_steps = -(-backlog // per_step) + 2  # ceil, plus slack
        for extra in range(drain_steps):
            if not any(ls.session.queue for ls in live.values()):
                break
            one_step(horizon_steps + extra, 0)
        for ls in list(live.values()):
            self.ledger.session_evicted(
                ls.plan.kind,
                frames_emitted=ls.session.frames_out,
                frames_pending=len(ls.session.queue),
            )
            self.engine.evict(ls.session)
        context = {
            "workload": self.workload.describe(),
            "capacity_frames_per_step": self.capacity,
            "queue_capacity": self.engine.scheduler.queue_capacity,
            "workers": self.engine.workers,
            "engine": {
                "ticks": self.engine.scheduler.ticks,
                "frames_processed": self.engine.scheduler.frames_processed,
                "rejected_admissions": self.engine.rejected_admissions,
            },
        }
        if self.engine.admission is not None and hasattr(
            self.engine.admission, "stats"
        ):
            context["memory"] = self.engine.admission.stats()
        transport_stats = self.engine.transport_stats()
        if transport_stats is not None:
            context["transport"] = transport_stats
        stage_profile = self.engine.stage_profile().as_dict()
        if stage_profile:
            context["stage_profile"] = stage_profile
        return self.ledger.report(context)
