"""Persistent worker pool: long-lived processes behind request/response IPC.

The fork-per-plan pools of :class:`~repro.exec.runners.ProcessPoolRunner`
are the wrong shape for *serving*: a serving tier needs workers that
stay alive between requests, hold per-worker state (a shard's cohort
pipelines), answer requests addressed to a *specific* worker, and fail
without taking the parent down. :class:`WorkerPool` is that runtime,
and both sides of the repository share it:

* **Plan execution** — :class:`~repro.exec.runners.ProcessPoolRunner`
  dispatches work-item chunks over a persistent pool via stateless
  :meth:`WorkerPool.submit` ``apply`` requests (the pool outlives a
  single ``run``, so repeated figure grids stop paying fork + import
  per plan);
* **Serving** — :mod:`repro.serve.shard` gives every worker an *actor*
  (a :class:`~repro.serve.shard.ShardWorker` built by ``actor_factory``
  inside the worker process) and drives it with :meth:`invoke`
  requests; the actor's state (cohort pipelines, session slots) lives
  in the worker across requests, which is what makes a long-lived
  shard possible.

Failure is part of the interface, not an afterthought:

* an exception *inside* a request is caught in the worker, shipped
  back, and re-raised in the parent (the original exception object
  when it pickles, a :class:`RemoteError` carrying the remote
  traceback otherwise) — the worker survives;
* a worker that dies mid-request (killed, segfaulted, pipe torn)
  surfaces as :class:`WorkerCrash` naming the worker, and
  :meth:`WorkerPool.alive` reports it dead thereafter.

Callers that must survive either — the distributed serving scheduler —
catch both and requeue the failed worker's sessions onto survivors.

Workers are ``fork``-started daemons: an exiting parent can never leak
a serving tier. Platforms without ``fork`` should not construct a pool
(:func:`pool_available` gates it); callers fall back to their serial
in-process path, which is behavior-identical by construction.

Payload bytes ride a pluggable transport (:mod:`repro.exec.transport`):
``pipe`` pickles everything as before, ``shm`` moves bulk ndarrays
through a preallocated per-worker shared-memory arena and keeps the
pipe for small control descriptors. Either way the request/response
protocol above is unchanged, and per-worker byte counters are always
kept (:meth:`WorkerPool.transport_stats`).
"""

from __future__ import annotations

import multiprocessing
import pickle
import signal
import traceback
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Sequence

from ..kernels.backend import run_on_one_thread
from .transport import (
    ParentTransport,
    TransportCounters,
    WorkerTransport,
    resolve_transport,
)

__all__ = [
    "RemoteError",
    "WorkerCrash",
    "WorkerPool",
    "pool_available",
    "remote_failure",
]


def pool_available() -> bool:
    """True when this platform can host a fork-based worker pool."""
    return "fork" in multiprocessing.get_all_start_methods()


def remote_failure(exc: BaseException) -> bool:
    """True when an exception came out of a worker, not the caller.

    :meth:`WorkerPool.result` re-raises a request's original exception
    type whenever it pickles (so plan executors keep exact error
    semantics), stamping it with the worker index first; crashes and
    unpicklable failures arrive as :class:`WorkerCrash` /
    :class:`RemoteError`. Resilient callers — the distributed serving
    scheduler — use this to tell "that worker failed" (fail over) from
    "I have a bug" (propagate).
    """
    return isinstance(exc, (RemoteError, WorkerCrash)) or hasattr(
        exc, "_pool_worker"
    )


class RemoteError(RuntimeError):
    """A request raised in the worker and could not be re-raised as-is.

    Attributes:
        worker: index of the worker the request ran on.
        remote_traceback: formatted traceback from the worker process.
    """

    def __init__(self, worker: int, message: str, remote_traceback: str) -> None:
        super().__init__(
            f"worker {worker} raised: {message}\n"
            f"--- remote traceback ---\n{remote_traceback}"
        )
        self.worker = worker
        self.remote_traceback = remote_traceback


class WorkerCrash(RuntimeError):
    """A worker process died before answering a request.

    Unlike :class:`RemoteError` (the request failed, the worker lives),
    this is a process-level loss: whatever state the worker held is
    gone, and the pool marks it dead.

    Attributes:
        worker: index of the dead worker.
    """

    def __init__(self, worker: int, detail: str = "") -> None:
        message = f"worker {worker} died mid-request"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
        self.worker = worker


def _worker_main(
    conn: Connection,
    actor_factory: Callable[..., Any] | None,
    factory_kwargs: dict[str, Any],
    transport_config: dict[str, Any] | None = None,
) -> None:
    """Worker loop: receive one request, answer it, repeat until stop.

    Requests are tuples:

    * ``("apply", fn, args, kwargs)`` — call a module-level function;
    * ``("invoke", name, args, kwargs)`` — call a method on the actor
      (built lazily from ``actor_factory`` on first invoke);
    * ``("stop",)`` — exit the loop.

    Responses are ``("ok", result)`` or ``("err", exception_or_none,
    message, traceback_text)``; the exception object is included only
    when it survives a pickle round trip.

    ``transport_config`` (from :meth:`ParentTransport.worker_config`)
    selects the shm data plane: requests decode out of the arena and
    ``ok`` results encode into it. Error and stop responses stay plain
    pickles — they are small, and must survive a torn arena.
    """
    # A terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group — workers included. Shutdown is the parent's call (it owns
    # the sessions and their partial results), so workers ignore the
    # signal and wait for an explicit "stop" or a closed pipe.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # The cores are shared with the sibling workers already, so the
    # kernels' work-splitting helper keeps to this worker's thread.
    run_on_one_thread()
    transport = WorkerTransport(transport_config)
    actor: Any = None
    try:
        while True:
            try:
                request = conn.recv()
            except (EOFError, OSError):
                return  # parent went away; nothing left to serve
            if request[0] == "stop":
                conn.send(("ok", None))
                return
            try:
                request = transport.decode_request(request)
                if request[0] == "apply":
                    _, fn, args, kwargs = request
                    result = fn(*args, **kwargs)
                elif request[0] == "invoke":
                    _, name, args, kwargs = request
                    if actor is None:
                        if actor_factory is None:
                            raise RuntimeError(
                                "pool has no actor_factory; 'invoke' requests "
                                "need one (use 'apply' for plain functions)"
                            )
                        actor = actor_factory(**factory_kwargs)
                    result = getattr(actor, name)(*args, **kwargs)
                else:  # pragma: no cover - protocol guard
                    raise RuntimeError(f"unknown request kind: {request[0]!r}")
            except BaseException as exc:  # noqa: BLE001 - shipped to parent
                tb = traceback.format_exc()
                try:
                    pickle.loads(pickle.dumps(exc))
                    payload: tuple = ("err", exc, str(exc), tb)
                except Exception:
                    payload = ("err", None, f"{type(exc).__name__}: {exc}", tb)
                try:
                    conn.send(payload)
                except (BrokenPipeError, OSError):
                    return
                continue
            try:
                conn.send(transport.encode_response(("ok", result)))
            except (BrokenPipeError, OSError):
                return
    finally:
        transport.close()


class WorkerPool:
    """A fixed set of long-lived worker processes with addressed requests.

    Each worker holds one duplex pipe to the parent and answers requests
    one at a time; the parent may keep at most one request in flight per
    worker (:meth:`submit` enforces this), which keeps ordering trivial
    and makes a worker's state transitions easy to reason about.

    Args:
        num_workers: worker process count (>= 1).
        actor_factory: module-level callable built *inside* each worker
            on its first ``invoke`` request; its return value is the
            worker's actor, target of :meth:`invoke`. Keyword arguments
            come from ``factory_kwargs`` (must be picklable).
        factory_kwargs: keyword arguments for ``actor_factory``.
        transport: ``"pipe"`` or ``"shm"``; ``None`` defers to the
            ``REPRO_TRANSPORT`` environment variable (default pipe).
        arena_bytes: per-direction shm region size per worker; ``None``
            uses :data:`~repro.exec.transport.DEFAULT_ARENA_BYTES`.
            Ignored under the pipe transport.
    """

    def __init__(
        self,
        num_workers: int,
        actor_factory: Callable[..., Any] | None = None,
        factory_kwargs: dict[str, Any] | None = None,
        transport: str | None = None,
        arena_bytes: int | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if not pool_available():
            raise RuntimeError(
                "fork start method unavailable; use the serial fallback"
            )
        context = multiprocessing.get_context("fork")
        self.num_workers = num_workers
        self.transport = resolve_transport(transport)
        self._conns: list[Connection] = []
        self._procs: list[multiprocessing.Process] = []
        self._pending: list[bool] = []
        self._dead: list[bool] = []
        self._tx: list[ParentTransport] = []
        for _ in range(num_workers):
            tx = ParentTransport(self.transport, arena_bytes)
            parent_conn, child_conn = context.Pipe(duplex=True)
            proc = context.Process(
                target=_worker_main,
                args=(
                    child_conn,
                    actor_factory,
                    factory_kwargs or {},
                    tx.worker_config(),
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
            self._pending.append(False)
            self._dead.append(False)
            self._tx.append(tx)

    # -- liveness ----------------------------------------------------------

    def alive(self, worker: int) -> bool:
        """True while the worker has not crashed or been killed."""
        return not self._dead[worker] and self._procs[worker].is_alive()

    def live_workers(self) -> list[int]:
        """Indices of every worker still accepting requests."""
        return [w for w in range(self.num_workers) if self.alive(w)]

    def kill(self, worker: int) -> None:
        """Terminate one worker and mark it dead (state is discarded).

        The worker's shm arena (if any) is unlinked here too, so the
        crash-failover path can never leak ``/dev/shm`` segments; its
        byte counters live parent-side and survive for reporting.
        """
        self._dead[worker] = True
        self._pending[worker] = False
        proc = self._procs[worker]
        if proc.is_alive():
            proc.terminate()
        self._conns[worker].close()
        self._tx[worker].close()

    def _lose(self, worker: int, detail: str = "") -> WorkerCrash:
        self.kill(worker)
        return WorkerCrash(worker, detail)

    # -- request/response --------------------------------------------------

    def submit(
        self,
        worker: int,
        kind: str,
        target: Any,
        args: Sequence[Any] = (),
        kwargs: dict[str, Any] | None = None,
    ) -> None:
        """Send one request to a worker (at most one in flight each).

        Args:
            worker: destination worker index.
            kind: ``"apply"`` (module-level function) or ``"invoke"``
                (actor method name).
            target: the function (apply) or method name (invoke).
            args: positional arguments (picklable).
            kwargs: keyword arguments (picklable).
        """
        if self._dead[worker]:
            raise WorkerCrash(worker, "submit to a dead worker")
        if self._pending[worker]:
            raise RuntimeError(
                f"worker {worker} already has a request in flight"
            )
        request = self._tx[worker].encode_request(
            (kind, target, tuple(args), kwargs or {})
        )
        try:
            self._conns[worker].send(request)
        except (BrokenPipeError, OSError) as exc:
            raise self._lose(worker, str(exc)) from None
        self._pending[worker] = True

    def resync(self, timeout: float = 5.0) -> None:
        """Discard in-flight responses after an interrupted wait.

        A ``KeyboardInterrupt`` can land while :meth:`result` is blocked
        in ``recv``, leaving the response unread and the worker marked
        pending — after which every further :meth:`submit` to it would
        refuse. Workers ignore SIGINT, so the response is normally still
        coming: read and drop it (without decoding — the payload is
        abandoned), returning each pipe to a request boundary.

        The read is bounded by ``timeout`` seconds per worker: a worker
        dying mid-response (or wedged inside a request) would otherwise
        hang the drain forever. On expiry the worker is marked dead
        (:class:`WorkerCrash` semantics) rather than waited on.
        """
        for worker in range(self.num_workers):
            if self._pending[worker] and not self._dead[worker]:
                try:
                    if not self._conns[worker].poll(timeout):
                        self._lose(worker, "no response within resync timeout")
                        continue
                    self._conns[worker].recv()
                except (EOFError, OSError) as exc:
                    self._lose(worker, str(exc))
                    continue
                self._pending[worker] = False

    def result(self, worker: int) -> Any:
        """Block for the worker's pending response; raise its failure."""
        if self._dead[worker]:
            raise WorkerCrash(worker, "result from a dead worker")
        if not self._pending[worker]:
            raise RuntimeError(f"worker {worker} has no request in flight")
        try:
            raw = self._conns[worker].recv()
        except (EOFError, OSError) as exc:
            raise self._lose(worker, str(exc)) from None
        status, *rest = self._tx[worker].decode_response(raw)
        self._pending[worker] = False
        if status == "ok":
            return rest[0]
        exc_obj, message, tb = rest
        if exc_obj is not None:
            try:
                exc_obj._pool_worker = worker  # remote_failure() marker
            except Exception:  # pragma: no cover - exotic __slots__ type
                return self._raise_remote(worker, message, tb)
            raise exc_obj
        raise RemoteError(worker, message, tb)

    def _raise_remote(self, worker: int, message: str, tb: str) -> None:
        raise RemoteError(worker, message, tb)

    def ready(self, timeout: float | None = None) -> list[int]:
        """Workers with a response waiting (or freshly dead), unblocking.

        Blocks up to ``timeout`` seconds (forever when ``None``) for at
        least one pending worker to become readable. A worker whose
        process died shows up here too — its :meth:`result` raises
        :class:`WorkerCrash`.
        """
        pending = {
            self._conns[w]: w
            for w in range(self.num_workers)
            if self._pending[w] and not self._dead[w]
        }
        if not pending:
            return []
        return sorted(pending[c] for c in wait(list(pending), timeout))

    def call(
        self,
        worker: int,
        kind: str,
        target: Any,
        args: Sequence[Any] = (),
        kwargs: dict[str, Any] | None = None,
    ) -> Any:
        """``submit`` + ``result``: one blocking round trip."""
        self.submit(worker, kind, target, args, kwargs)
        return self.result(worker)

    def invoke(self, worker: int, method: str, *args: Any, **kwargs: Any) -> Any:
        """Blocking actor method call on one worker."""
        return self.call(worker, "invoke", method, args, kwargs)

    def apply(self, worker: int, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Blocking module-level function call on one worker."""
        return self.call(worker, "apply", fn, args, kwargs)

    # -- accounting --------------------------------------------------------

    def transport_stats(self, worker: int | None = None) -> dict[str, Any]:
        """IPC byte/round counters (both directions, parent-side view).

        Args:
            worker: one worker's counters, or the whole pool's sum when
                ``None``. Dead workers keep their history — the
                counters live in the parent.
        """
        if worker is not None:
            stats = self._tx[worker].counters.as_dict()
        else:
            total = TransportCounters()
            for tx in self._tx:
                total.add(tx.counters)
            stats = total.as_dict()
        stats["transport"] = self.transport
        return stats

    # -- shutdown ----------------------------------------------------------

    def close(self, timeout: float = 2.0) -> None:
        """Stop every live worker, reap the processes, unlink arenas."""
        for w in range(self.num_workers):
            if self._dead[w]:
                continue
            try:
                if not self._pending[w]:
                    self._conns[w].send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for w, proc in enumerate(self._procs):
            proc.join(timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout)
            self._dead[w] = True
            self._conns[w].close()
            self._tx[w].close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            if any(not dead for dead in self._dead):
                self.close(timeout=0.1)
        except Exception:
            pass
