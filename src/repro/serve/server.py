"""The persistent schedule server: lookup-first, tune-on-miss,
persist-forever.

A :class:`ScheduleServer` is the long-lived serving face of the tuning
stack.  Requests name a ``PrimFunc`` workload; the server answers

* **hits** synchronously from its :class:`~repro.meta.database.Database`
  — the stored decision vector is replayed through the sketch (zero
  search, zero measurements) and the program is returned immediately;
* **misses** asynchronously: the request parks on a future, a
  background worker drains queued misses in batches, and each batch
  runs one shared :class:`~repro.meta.session.TuningSession` against
  the server's database — so concurrent requests for the *same*
  workload coalesce into a single tuning run, and concurrent requests
  for *different* workloads share one session's budget and model.

With a :class:`~repro.meta.database.PersistentDatabase` behind it every
tuned entry is committed to disk the moment its task finishes; a server
restarted on the same directory serves byte-identical programs without
re-tuning.  Each count has one store: request counts (failures
included) in :meth:`stats`, responses by outcome in the
``serve_latency_seconds`` histograms of :attr:`ScheduleServer.metrics`
(beside ``serve_queue_wait_seconds``, the one other measurement the
server keeps), the pending depth in :meth:`health`, memo-cache activity
in :mod:`repro.cache`, recovered database lines in the database's
``diagnostics``, and each request leaves a span in the server's
:class:`~repro.meta.telemetry.Telemetry`.  Every waiter is resolved:
a failure while serving one waiter fails that waiter alone, and a
tuning run that raises anything, ``SystemExit`` included, fails its
batch's waiters while the miss worker keeps draining.
"""

from __future__ import annotations

import dataclasses
import itertools
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..diagnostics import DiagnosticContext
from ..meta.database import (
    Database,
    DatabaseEntry,
    PersistentDatabase,
    TuningDatabase,
    workload_key,
)
from ..meta.session import TaskReport, TuningSession, fallback_tune
from ..meta.telemetry import Telemetry
from ..obs.metrics import MetricsRegistry, quantile
from ..sim import Target
from ..tir import PrimFunc
from ..tir.printer import script
from .api import CompileRequest, CompileResponse, ServeConfig, ServerStats

__all__ = ["ScheduleServer"]

#: the most distinct workloads one miss batch tunes in one session.
MAX_BATCH = 8


@dataclass
class _Pending:
    """One workload with an open tuning obligation and its waiters."""

    func: PrimFunc
    waiters: List[Tuple[Future, CompileRequest]] = field(default_factory=list)


class ScheduleServer:
    """Serve compiled schedules for ``PrimFunc`` workloads.

    >>> server = ScheduleServer(SimGPU(), ServeConfig(db_path="db/"))
    >>> resp = server.compile(ops.matmul(512, 512, 512))
    >>> resp.source, resp.trials   # ("miss", 16) first, ("hit", 0) after
    """

    def __init__(
        self,
        target: Target,
        config: Optional[ServeConfig] = None,
        *,
        database: Optional[Database] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.target = target
        self.config = config or ServeConfig()
        if database is not None:
            self.database = database
        elif self.config.db_path:
            self.database = PersistentDatabase(self.config.db_path)
        else:
            self.database = TuningDatabase()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stats = ServerStats()
        self._started_unix = time.time()
        #: the serving metrics registry (``repro.obs.metrics``), one per
        #: server: the response latencies and the miss queue waits.
        self.metrics = MetricsRegistry()
        latency = self.metrics.histogram(
            "serve_latency_seconds", "response latency by outcome",
            labels=("outcome",),
        )
        # Pre-resolved per-outcome children: the warm-hit path is
        # microsecond-class, so even the labels() dict lookup under the
        # family lock is measurable — resolve once, index a plain dict.
        self._m_lat_out = {
            o: latency.labels(outcome=o)
            for o in ("hit", "bucket-hit", "miss", "coalesced")
        }
        self._m_queue_wait = self.metrics.histogram(
            "serve_queue_wait_seconds",
            "miss time from submit to tuning-batch adoption",
        ).labels()
        #: served-program memo: key → (entry identity, scheduled func,
        #: script text, compiled callable).  Replaying a stored decision
        #: vector is deterministic, so repeat hits skip the rebuild and
        #: recompile entirely — this is what makes the warm hit path
        #: microsecond-class.  Invalidation is by entry identity: a
        #: better record landing for the key changes (cycles, sketch)
        #: and misses the memo.
        self._served: Dict[str, tuple] = {}
        self._served_max = 1024
        #: typed TIR7xx diagnostics from bucket canonicalization and
        #: cross-shape replay (TIR701 infeasible, TIR702 fallback,
        #: TIR703 out-of-bucket) — inspectable on a live server.
        self.diagnostics = DiagnosticContext()
        self._pending: Dict[str, _Pending] = {}
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._closed = False
        self._worker = threading.Thread(
            target=self._drain, name="serve-worker", daemon=True
        )
        self._worker.start()

    # -- the request path ----------------------------------------------
    def submit(self, func: PrimFunc) -> "Future[CompileResponse]":
        """Queue one compile request; returns a future.

        Hits resolve before this method returns; misses resolve when the
        background tuning session that adopts them finishes.  With
        ``ServeConfig.buckets`` set, the bucket representative's record
        is consulted *before* the exact lookup — an unseen in-bucket
        shape is served by adaptive replay with zero search — and
        in-bucket misses coalesce onto the representative's tuning run.
        """
        if self._closed:
            raise RuntimeError("ScheduleServer is closed")
        submitted_at = time.perf_counter()
        bucketed = None
        bucket_key: Optional[str] = None
        if self.config.buckets is not None:
            from ..frontend.shapes import canonicalize

            bucketed = canonicalize(func, self.config.buckets, ctx=self.diagnostics)
            if bucketed.bucketed:
                bucket_key = workload_key(bucketed.representative, self.target)
        request = CompileRequest(
            request_id=f"req-{next(self._ids):06d}",
            func=func,
            key=workload_key(func, self.target),
            submitted_at=submitted_at,
            bucket_key=bucket_key,
        )
        future: "Future[CompileResponse]" = Future()
        # The request-scoped trace anchor: every span opened inside (and
        # the off-thread tuning batch, stamped separately) is reachable
        # via ``telemetry.span_tree(request.request_id)``.
        with self.telemetry.span(
            "serve-request", task=request.key, request=request.request_id
        ):
            bucket_failed = False
            if bucket_key is not None:
                entry = self.database.get(bucket_key)
                if entry is not None:
                    response = self._respond(request, entry, "bucket-hit", trials=0)
                    if response is not None:
                        with self._lock:
                            self._stats.requests += 1
                            self._stats.bucket_hits += 1
                        future.set_result(response)
                        return future
                    # The representative's decisions are infeasible at
                    # this concrete shape (TIR701 in ``diagnostics``).
                    # The entry stays — it serves other shapes — but
                    # this request drops to the exact path, tuning its
                    # own shape on a miss.
                    bucket_failed = True
                    with self._lock:
                        self._stats.replay_fallbacks += 1
            entry = self.database.get(request.key)
            if entry is not None:
                response = self._respond(request, entry, "hit", trials=0)
                if response is not None:
                    with self._lock:
                        self._stats.requests += 1
                        self._stats.hits += 1
                    future.set_result(response)
                    return future
                # The stored record could not be replayed (e.g. an
                # unknown sketch from a newer writer, or decisions that do
                # not fit its sketch — TIR701): drop it and tune.
                self.database.evict(request.key)
            # Miss.  In-bucket misses park on the *bucket* key with the
            # representative function, so two shapes of one bucket in a
            # batch window share a single tuning run; after a failed
            # bucket replay the request pends on its exact key instead.
            if bucket_key is not None and not bucket_failed:
                pend_key, pend_func = bucket_key, bucketed.representative
            else:
                pend_key, pend_func = request.key, func
            if bucket_failed:
                self.diagnostics.emit(
                    "TIR702",
                    f"bucket replay for {request.key} fell back to a fresh "
                    f"tune at the concrete shape",
                    func=func,
                )
            with self._lock:
                # ``close`` sets ``_closed`` under this lock before it
                # stops the worker and sweeps ``_pending``: a waiter is
                # registered only while a sweep is still to come.
                if self._closed:
                    raise RuntimeError("ScheduleServer is closed")
                self._stats.requests += 1
                pending = self._pending.get(pend_key)
                if pending is not None:
                    pending.waiters.append((future, request))
                    self._stats.coalesced += 1
                    return future
                pending = _Pending(func=pend_func)
                pending.waiters.append((future, request))
                self._pending[pend_key] = pending
                self._stats.misses += 1
            self._queue.put(pend_key)
        return future

    def compile(
        self, func: PrimFunc, timeout: Optional[float] = None
    ) -> CompileResponse:
        """Synchronous :meth:`submit` — block until served."""
        return self.submit(func).result(timeout=timeout)

    # -- the miss worker ------------------------------------------------
    def _drain(self) -> None:
        """Background loop: batch queued misses, tune, resolve waiters."""
        while True:
            key = self._queue.get()
            if key is None:
                return
            batch = [key]
            deadline = time.perf_counter() + self.config.batch_window_seconds
            stop = False
            while len(batch) < MAX_BATCH:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                try:
                    nxt = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if nxt is None:
                    stop = True
                    break
                batch.append(nxt)
            try:
                self._tune_batch(batch)
            except BaseException as err:  # noqa: BLE001 — the worker must survive
                # Not re-raised, ``SystemExit`` included: this thread is
                # the server's one miss worker, and ending it would leave
                # every later miss waiting until ``close()``.
                self._fail_batch(batch, err)
            if stop:
                return

    def _tune_batch(self, keys: List[str]) -> None:
        """One shared tuning session for every queued miss in ``keys``."""
        t_adopt = time.perf_counter()
        with self._lock:
            funcs = {
                key: self._pending[key].func for key in keys if key in self._pending
            }
            owners = {
                key: self._pending[key].waiters[0][1]
                for key in funcs
                if self._pending[key].waiters
            }
        if not funcs:
            return
        for request in owners.values():
            self._m_queue_wait.observe(t_adopt - request.submitted_at)
        # The batch span is stamped with the batch-owning request (the
        # first miss adopted), so that request's span tree carries the
        # whole tuning session; sibling misses in the batch get a
        # zero-length marker span each so their trees reference the
        # batch too.
        owner_ids = [r.request_id for r in owners.values()]
        with self.telemetry.span(
            "serve-tune-batch",
            task=keys[0],
            request=owner_ids[0] if owner_ids else None,
        ):
            for key, request in owners.items():
                if request.request_id != (owner_ids[0] if owner_ids else None):
                    self.telemetry.add(
                        "serve-batch-member", 0.0, key, request=request.request_id
                    )
            session = TuningSession(
                self.target,
                self.config.tune,
                database=self.database,
                telemetry=self.telemetry,
            )
            for key, func in funcs.items():
                session.add(func, name=key)
            report = session.run()
        with self._lock:
            self._stats.tune_runs += 1
            self._stats.tuned_workloads += len(funcs)
        for key in funcs:
            entry = self.database.get(key)
            task = report.task(key)
            with self._lock:
                pending = self._pending.pop(key, None)
            if pending is None:  # pragma: no cover — defensive
                continue
            for index, (future, request) in enumerate(pending.waiters):
                try:
                    response = self._serve_waiter(key, entry, task, index, request)
                except BaseException as err:  # noqa: BLE001 — fails this waiter only
                    self._fail(future, err)
                else:
                    future.set_result(response)

    def _serve_waiter(
        self,
        key: str,
        entry: Optional[DatabaseEntry],
        task: TaskReport,
        index: int,
        request: CompileRequest,
    ) -> CompileResponse:
        """The response for the ``index``-th waiter on ``key`` after its
        batch's tuning run (``task`` is the run's report row for it);
        raises when the run left nothing to serve."""
        if entry is None:
            raise RuntimeError(
                f"tuning failed for workload {key}: "
                f"{task.error or 'no database entry'}"
            )
        source = "miss" if index == 0 else "coalesced"
        trials = task.measured if index == 0 else 0
        response = self._respond(request, entry, source, trials=trials)
        if response is None and request.bucket_key == key:
            # The freshly tuned representative's decisions do not adapt
            # to this waiter's concrete shape: tune the concrete shape
            # itself (TIR702).  A tune that raises fails this waiter.
            with self._lock:
                self._stats.replay_fallbacks += 1
            fresh = fallback_tune(
                request.func, self.target, self.config.tune, self.database,
                self.diagnostics, task=request.key, telemetry=self.telemetry,
            )
            fresh_entry = self.database.get(request.key)
            if fresh_entry is not None:
                response = self._respond(
                    request, fresh_entry, source, trials=fresh.stats.measured
                )
        if response is None:
            raise RuntimeError(f"replay failed for workload {key}")
        return response

    def _fail(self, future: Future, err: BaseException) -> None:
        """Resolve one waiter with ``err`` and count the failure.  A
        ``SystemExit`` or other non-``Exception`` reaches the waiter as
        a ``RuntimeError`` chained from it, never raised as itself in a
        client thread."""
        if not isinstance(err, Exception):
            failure = RuntimeError(f"tuning aborted: {type(err).__name__}: {err}")
            failure.__cause__ = err
            err = failure
        with self._lock:
            self._stats.failures += 1
        if not future.done():
            future.set_exception(err)

    def _fail_batch(self, keys: List[str], err: BaseException) -> None:
        for key in keys:
            with self._lock:
                pending = self._pending.pop(key, None)
            if pending is None:
                continue
            for future, _request in pending.waiters:
                self._fail(future, err)

    # -- response construction ------------------------------------------
    def _respond(
        self,
        request: CompileRequest,
        entry: DatabaseEntry,
        source: str,
        trials: int,
    ) -> Optional[CompileResponse]:
        identity = (entry.cycles, entry.sketch, tuple(map(str, entry.decisions)))
        with self._lock:
            cached = self._served.get(request.key)
        if cached is not None and cached[0] == identity:
            _, best_func, text, compiled = cached
        else:
            # ``entry`` may be the bucket representative's, which
            # ``replay_entry`` adapts to this request's concrete shape.
            sch = self.database.replay_entry(request.func, entry, ctx=self.diagnostics)
            if sch is None:
                return None
            best_func = sch.func
            text = script(best_func)
            compiled = None
            if self.config.compile_programs:
                from ..runtime import compile_func

                compiled = compile_func(best_func)
            with self._lock:
                if len(self._served) >= self._served_max:
                    self._served.clear()
                self._served[request.key] = (identity, best_func, text, compiled)
        wait = time.perf_counter() - request.submitted_at
        if source != "hit":
            # Hit latency is covered by the synchronous serve-request
            # span; miss/coalesced waits happen off-thread, so they are
            # recorded at their true start for the exported timeline —
            # stamped with the waiter's request id so every coalesced
            # response has its own non-empty span tree.
            self.telemetry.add(
                "serve-wait", wait, request.key,
                start=request.submitted_at, request=request.request_id,
            )
        self._m_lat_out[source].observe(wait)
        return CompileResponse(
            request_id=request.request_id,
            key=request.key,
            source=source,
            func=best_func,
            script=text,
            cycles=entry.cycles,
            sketch=entry.sketch,
            trials=trials,
            wait_seconds=wait,
            compiled=compiled,
        )

    # -- introspection / lifecycle --------------------------------------
    def stats(self) -> ServerStats:
        """A snapshot copy of the request accounting."""
        with self._lock:
            return dataclasses.replace(self._stats)

    def health(self) -> dict:
        """A point-in-time health summary for dashboards and probes.

        p50/p95/p99 are exact quantiles of the pooled rolling windows of
        the four ``serve_latency_seconds{outcome}`` histograms: the last
        ``DEFAULT_WINDOW`` response latencies of each of hit, bucket-hit,
        miss and coalesced (one observation per response), taken
        together unweighted.
        """
        with self._lock:
            stats = dataclasses.replace(self._stats)
            pending = len(self._pending)
        window = [v for child in self._m_lat_out.values() for v in child.window_values()]
        return {
            "status": "closed" if self._closed else "ok",
            "uptime_seconds": time.time() - self._started_unix,
            "requests": stats.requests,
            "failures": stats.failures,
            "error_rate": stats.failures / stats.requests if stats.requests else 0.0,
            "hit_rate": stats.hit_rate,
            "pending_workloads": pending,
            "window_size": len(window),
            "p50_seconds": quantile(window, 0.50),
            "p95_seconds": quantile(window, 0.95),
            "p99_seconds": quantile(window, 0.99),
        }

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Stop the miss worker and fail any unresolved waiters.

        Idempotent.  Queued-but-untuned workloads get a
        ``RuntimeError`` so no client blocks forever on a dead server.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(None)
        self._worker.join(timeout=timeout)
        with self._lock:
            leftovers = list(self._pending.items())
            self._pending.clear()
        for _key, pending in leftovers:
            for future, _request in pending.waiters:
                if not future.done():
                    future.set_exception(RuntimeError("ScheduleServer closed"))

    def __enter__(self) -> "ScheduleServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
