"""Multi-workload tuning orchestration: the §5.2 evaluation loop as a
first-class subsystem.

A :class:`TuningSession` takes a set of workloads (or every fusion
group of a dataflow graph), deduplicates them by
:func:`~repro.meta.database.workload_key`,
searches the unique ones (in parallel, see below), and replays
every duplicate from the shared
:class:`~repro.meta.database.TuningDatabase` instead of re-searching —
the paper's record-replay behaviour (§5.2) promoted to the default
path.  Within one :meth:`TuningSession.run` each distinct workload is
searched once (unless the database already holds it), replayed once,
and every duplicate shares that replayed program under its own task
report.  Every task whose program comes from a stored record takes one
step: replay the record (adaptively at an in-bucket shape), else, for
an in-bucket shape where it is infeasible, :func:`fallback_tune` — the
fresh tune the schedule server falls back through too.  Given a total
trial budget, it allocates trials across tasks
proportionally to each workload's estimated cost share, counted once
per task that shares it (heavy workloads get the search time; a 1x1
conv does not get a GEMM's budget).

The distinct searches run in parallel, one whole ``tune()`` per worker
process, on a fork pool made for the run and closed before it returns;
planning, database writes, replays and the task reports stay in the
calling process.  Results are identical at every pool width: every
search depends only on (workload, config), never on shared mutable
state, and the session folds each search's result, spans, recorder rows
and cache counts in task order, committing each search as it returns.
A forked worker starts from this process's caches and keeps its hash
seed, so the structural hashes it records verify here.  Fork is safe
only in a single-threaded process, so while another thread is alive —
a schedule server's — the session searches in-process, one search
after another.

The session gathers every search's spans into one
:class:`~repro.meta.telemetry.Telemetry`, and :meth:`TuningSession.run` returns a
:class:`SessionReport` — per-task accounting plus stage timings as one
JSON document, so Table 1-style tuning-time analysis comes from
instrumentation instead of ad-hoc arithmetic.  Each count in it is read
where it is kept: totals from the task reports, ``invalid_by_code``
from the :class:`~repro.meta.search.SearchStats` every search returns,
``cache_stats`` from :mod:`repro.cache`; the telemetry part is spans.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import threading
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

from .. import cache as _cache
from ..diagnostics import DiagnosticContext
from ..fileio import atomic_write
from ..obs.record import Recorder, Rejection, TrialRecord
from ..schedule import Schedule
from ..sim import Target
from ..tir import PrimFunc, const_int_value
from .config import TuneConfig
from .database import Database, DatabaseEntry, TuningDatabase, workload_key
from .search import SearchStats, TuneResult
from .sketch import main_block_of
from .telemetry import Span, Telemetry
from .tune import replay_result, tune

if TYPE_CHECKING:  # pragma: no cover
    from ..frontend.shapes import BucketedWorkload, BucketSpec

__all__ = ["TuningSession", "SessionReport", "TaskReport", "estimated_cost"]

#: floor for proportional budget allocation — every searched task gets
#: at least a token search even if its cost share rounds to nothing.
MIN_TRIALS_PER_TASK = 4


def estimated_cost(func: PrimFunc) -> float:
    """A static cost proxy for budget allocation: the iteration-space
    size of the dominant block (FLOP-proportional for the §5 operators).
    """
    sch = Schedule(func, record_trace=False)
    rv = main_block_of(sch)
    if rv is None:
        return 1.0
    size = 1.0
    for iv in sch.block_of(rv).iter_vars:
        extent = const_int_value(iv.dom.extent)
        size *= extent if extent else 1
    return max(size, 1.0)


def fallback_tune(
    func: PrimFunc,
    target: Target,
    config: TuneConfig,
    database: Database,
    ctx: DiagnosticContext,
    *,
    task: str,
    telemetry: Optional[Telemetry] = None,
    recorder: Optional[Recorder] = None,
) -> TuneResult:
    """Fresh tune of a concrete shape whose bucket replay was infeasible:
    emits ``TIR702`` into ``ctx``, then tunes ``func`` against
    ``database``, which records the result under its exact key.  The
    session and the schedule server both fall back through here."""
    ctx.emit(
        "TIR702",
        f"bucket replay for {task!r} fell back to a fresh tune at the "
        f"concrete shape",
        func=func,
    )
    return tune(
        func, target, config, database=database, telemetry=telemetry,
        task=task, recorder=recorder,
    )


@dataclass
class _Searched:
    """What one search hands back to its session, the same whether it
    ran in this process or in a worker: the result (``None`` with an
    ``error`` when the search raised), its spans and recorder rows, its
    cache activity (a :func:`repro.cache.delta_since` window) and the
    process it ran in."""

    result: Optional[TuneResult]
    error: Optional[str]
    spans: List[Span]
    trials: List[TrialRecord]
    rejections: List[Rejection]
    cache_delta: Dict[str, Dict[str, float]]
    pid: int


def _search(
    func: PrimFunc, target: Target, config: TuneConfig, task: str, record: bool
) -> _Searched:
    """One whole ``tune()`` of a session task, with a span collector of
    its own and, when ``record``, a recorder of its own."""
    telemetry = Telemetry()
    recorder = Recorder() if record else None
    before = _cache.snapshot_counts()
    result, error = None, None
    try:
        result = tune(
            func, target, config, telemetry=telemetry, task=task, recorder=recorder
        )
    except Exception as err:  # noqa: BLE001 — per-task isolation
        error = str(err)
    trials, rejections = (recorder.trials, recorder.rejections) if record else ([], [])
    return _Searched(
        result, error, telemetry.spans, trials, rejections,
        _cache.delta_since(before), os.getpid(),
    )


#: the pending searches' arguments while a worker pool runs them: the
#: workers inherit this list through the fork, so a job — a config
#: holding a sketch class defined in a function, say — is never pickled.
_JOBS: List[tuple] = []


def _search_job(index: int) -> _Searched:
    """A worker's entry point: search the ``index``-th pending job."""
    return _search(*_JOBS[index])


def _search_width(searches: int) -> int:
    """Worker processes for ``searches`` pending searches: one per search
    up to the CPUs this process may run on — or 1, searching in this
    process, while another thread is alive, because a forked child
    inherits every lock in the state the fork found it."""
    if threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), searches)


@dataclass
class _Task:
    name: str
    func: PrimFunc
    key: str = ""
    #: the shape-bucket mapping when the session runs with a
    #: :class:`~repro.frontend.shapes.BucketSpec` — ``None`` otherwise.
    bucketed: Optional["BucketedWorkload"] = None

    @property
    def search_func(self) -> PrimFunc:
        """What actually gets tuned: the bucket representative when
        bucketing is on, the concrete function otherwise."""
        if self.bucketed is not None:
            return self.bucketed.representative
        return self.func


@dataclass
class TaskReport:
    """Per-task accounting row of the session report."""

    name: str
    key: str
    status: str  # "searched" | "replayed" | "failed"
    sketch: Optional[str] = None
    cycles: Optional[float] = None
    seconds: Optional[float] = None
    trials_allocated: int = 0
    measured: int = 0
    #: simulated tuning wall-clock (profiling + compile/RPC overhead) —
    #: the Table 1 accounting unit.  Replayed tasks cost zero.
    tuning_seconds: float = 0.0
    error: Optional[str] = None


@dataclass
class SessionReport:
    """The structured result of one :meth:`TuningSession.run`."""

    target: str
    tasks: List[TaskReport]
    totals: Dict[str, float]
    telemetry: dict = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: invalid candidates rejected across all searches, grouped by
    #: diagnostic error code (TIR1xx–TIR3xx validation, TIR4xx
    #: primitive preconditions) — the §3.3 battery made observable.
    invalid_by_code: Dict[str, int] = field(default_factory=dict)
    #: memoization activity during this run, per cache: hits, misses
    #: and hit rate — this run's window of the :mod:`repro.cache`
    #: counters.
    cache_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def task(self, name: str) -> TaskReport:
        for t in self.tasks:
            if t.name == name:
                return t
        raise KeyError(f"no task named {name!r} in session report")

    def seconds_for(self, name: str) -> float:
        t = self.task(name)
        if t.seconds is None:
            raise RuntimeError(f"task {name!r} {t.status}: {t.error or 'no result'}")
        return t.seconds

    def cycles_for(self, name: str) -> float:
        t = self.task(name)
        if t.cycles is None:
            raise RuntimeError(f"task {name!r} {t.status}: {t.error or 'no result'}")
        return t.cycles

    @property
    def tuning_seconds(self) -> float:
        return self.totals["tuning_seconds"]

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "wall_seconds": self.wall_seconds,
            "tasks": [asdict(t) for t in self.tasks],
            "totals": dict(self.totals),
            "invalid_by_code": dict(self.invalid_by_code),
            "cache_stats": {k: dict(v) for k, v in sorted(self.cache_stats.items())},
            "telemetry": self.telemetry,
        }

    def dumps(self, **kwargs) -> str:
        return json.dumps(self.to_json(), **kwargs)

    def write(self, path: str) -> None:
        """Write the report atomically so a crashed worker can never
        leave a truncated JSON report."""
        atomic_write(path, self.dumps(indent=1, sort_keys=True))


class TuningSession:
    """Deduplicated, cached, observable tuning of many workloads.

    >>> session = TuningSession(SimGPU(), TuneConfig(trials=16))
    >>> session.add(ops.matmul(512, 512, 512), name="gemm")
    >>> session.add_graph(fuse_graph(gpu_graph("ResNet-50")))
    >>> report = session.run()
    >>> report.tuning_seconds, report.totals["tasks_replayed"]
    """

    def __init__(
        self,
        target: Target,
        config: Optional[TuneConfig] = None,
        *,
        database: Optional[Database] = None,
        telemetry: Optional[Telemetry] = None,
        recorder: Optional[Recorder] = None,
        buckets: Optional["BucketSpec"] = None,
    ):
        self.target = target
        self.config = config or TuneConfig()
        self.database = database if database is not None else TuningDatabase()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        #: the flight recorder every search of this session records
        #: into; ``None`` records nothing.
        self.recorder = recorder
        #: shape-bucket spec (``repro.frontend.shapes.BucketSpec``): when
        #: set, tasks are canonicalized to bucket representatives before
        #: dedup, so every in-bucket shape shares one search and replays
        #: the stored record adaptively at its concrete extents (§5.2).
        self.buckets = buckets
        #: typed TIR7xx diagnostics from bucket canonicalization and
        #: cross-shape replay (TIR701 infeasible, TIR702 fallback).
        self.diagnostics = DiagnosticContext()
        self._tasks: List[_Task] = []
        self.results: Dict[str, TuneResult] = {}

    def save_recording(self, path: str) -> dict:
        """Write the flight recording (the recorder's rows + this
        session's spans) atomically; see ``python -m repro.obs`` for
        readers."""
        if self.recorder is None:
            raise ValueError("this session has no recorder")
        return self.recorder.save(path, telemetry=self.telemetry)

    # -- workload intake -----------------------------------------------
    def add(self, func: PrimFunc, name: Optional[str] = None) -> str:
        """Register one workload; returns the (unique) task name."""
        base = name or func.name
        task_name = base
        suffix = 1
        existing = {t.name for t in self._tasks}
        while task_name in existing:
            suffix += 1
            task_name = f"{base}#{suffix}"
        self._tasks.append(_Task(task_name, func))
        return task_name

    def add_graph(self, plan_or_graph, fuse: bool = True) -> List[str]:
        """Register one task per fusion group of a dataflow graph.

        Accepts a :class:`~repro.frontend.fuse.FusionPlan` or a raw
        :class:`~repro.frontend.graph.Graph` (partitioned here with
        ``fuse_graph(fuse=...)``).  Group task names are the plan's
        ``task_name``s (``anchor+member+...``); structurally identical
        groups share a workload key, so the session searches each unique
        fused program once and replays the rest from the database.
        """
        from ..frontend.fuse import FusionPlan, fuse_graph, lower_group

        plan = plan_or_graph
        if not isinstance(plan, FusionPlan):
            plan = fuse_graph(plan, fuse=fuse)
        return [self.add(lower_group(g), name=g.task_name) for g in plan.groups]

    # -- budget allocation ---------------------------------------------
    def _allocate(
        self, uniques: List[_Task], shares: Counter, total_trials: Optional[int]
    ) -> Dict[str, int]:
        """Trials per unique workload key: proportional to estimated
        cost x the number of tasks sharing the key when a total budget
        is given, else ``config.trials`` each."""
        if total_trials is None:
            return {t.key: self.config.trials for t in uniques}
        costs = {t.key: estimated_cost(t.search_func) * shares[t.key] for t in uniques}
        total_cost = sum(costs.values()) or 1.0
        return {
            key: max(MIN_TRIALS_PER_TASK, round(total_trials * cost / total_cost))
            for key, cost in costs.items()
        }

    # -- the run --------------------------------------------------------
    def run(self, total_trials: Optional[int] = None) -> SessionReport:
        """Tune everything; returns the session report.

        Exactly one search per unique (workload, target) not already in
        the database; every other task replays.  With ``total_trials``
        the budget is split across searched tasks by cost share.
        """
        t_run = time.perf_counter()
        cache_before = _cache.snapshot_counts()
        telemetry_before = self.telemetry.mark()
        with self.telemetry.span("session") as session_span:
            reports, rejected, bucket = self._run_inner(total_trials, session_span)
        cache_delta = _cache.delta_since(cache_before)

        # The report covers this run alone, also on a collector shared
        # with earlier runs (a server's).
        run_telemetry = self.telemetry.since(telemetry_before, session_span)
        ordered = [reports[t.name] for t in self._tasks]
        totals = {
            "tasks": float(len(ordered)),
            "tasks_searched": float(sum(1 for r in ordered if r.status == "searched")),
            "tasks_replayed": float(sum(1 for r in ordered if r.status == "replayed")),
            "tasks_failed": float(sum(1 for r in ordered if r.status == "failed")),
            "trials_measured": float(sum(r.measured for r in ordered)),
            "tuning_seconds": sum(r.tuning_seconds for r in ordered),
        }
        if self.buckets is not None:
            totals["tasks_bucket_replayed"] = float(bucket["replayed"])
            totals["tasks_bucket_fallback"] = float(bucket["fallback"])
        return SessionReport(
            target=self.target.name,
            tasks=ordered,
            totals=totals,
            telemetry=run_telemetry.report(),
            wall_seconds=time.perf_counter() - t_run,
            invalid_by_code=dict(sorted(rejected.items())),
            cache_stats=cache_delta,
        )

    def _run_inner(
        self, total_trials: Optional[int], session_span: int
    ) -> Tuple[Dict[str, TaskReport], Counter, Counter]:
        """The search/replay body of :meth:`run`, inside the session span
        (``session_span``, which adopts every search's spans).

        Returns the task reports, the per-code rejections summed over
        every search this run made (a bucketed task's representative
        search and each fallback tune included, as each ``tune`` returns
        — ``self.results`` keeps only a task's final result), and the
        bucket tally: ``"replayed"`` bucketed tasks served by adaptive
        replay, ``"fallback"`` fresh tunes started after an infeasible
        one.
        """
        with self.telemetry.span("plan"):
            if self.buckets is not None:
                from ..frontend.shapes import canonicalize

                for task in self._tasks:
                    task.bucketed = canonicalize(
                        task.func, self.buckets, ctx=self.diagnostics
                    )
            for task in self._tasks:
                # Keyed on the *search* function: with bucketing on, every
                # in-bucket shape collapses onto the representative's key,
                # so the whole family dedups into one search.
                task.key = workload_key(task.search_func, self.target)
            uniques: List[_Task] = []
            shares: Counter = Counter()
            for task in self._tasks:
                if task.key not in shares:
                    uniques.append(task)
                shares[task.key] += 1
            budgets = self._allocate(uniques, shares, total_trials)

        to_search = [t for t in uniques if self.database.get(t.key) is None]
        reports: Dict[str, TaskReport] = {}
        rejected: Counter = Counter()
        bucket: Counter = Counter()
        # Each distinct exact workload's replayed program in this run.
        replayed: Dict[str, TuneResult] = {}
        with closing(self._search_all(to_search, budgets)) as outcomes:
            for task, outcome in zip(to_search, outcomes):
                trials = budgets[task.key]
                self._fold(outcome, session_span)
                result = outcome.result
                if result is None:
                    reports[task.name] = TaskReport(
                        task.name, task.key, "failed",
                        trials_allocated=trials, error=outcome.error,
                    )
                    continue
                rejected.update(result.stats.rejected_by_code)
                self.results[task.name] = result
                if result.best_sketch is None or result.best_decisions is None:
                    reports[task.name] = TaskReport(
                        task.name, task.key, "failed",
                        trials_allocated=trials,
                        measured=result.stats.measured,
                        tuning_seconds=result.tuning_seconds,
                        error="search found no valid program",
                    )
                    continue
                # A persistent backend makes each commit durable the moment
                # it lands — tuned entries are written incrementally as
                # tasks finish, never batched until the session ends.
                entry = self.database.record(
                    task.search_func, self.target, result.best_sketch,
                    result.best_decisions, result.best_cycles,
                )
                if task.bucketed is not None and task.bucketed.bucketed:
                    # The search ran at the bucket representative; the task's
                    # own program comes from the stored record at its
                    # concrete shape, and the search's cost stays with it.
                    reports[task.name] = self._from_record(
                        task, entry, trials, replayed, rejected, bucket, searched=result
                    )
                    continue
                reports[task.name] = TaskReport(
                    task.name, task.key, "searched",
                    sketch=result.best_sketch,
                    cycles=result.best_cycles,
                    seconds=result.best_report.seconds,
                    trials_allocated=trials,
                    measured=result.stats.measured,
                    tuning_seconds=result.tuning_seconds,
                )

        # Everything not searched above replays from the database: the
        # duplicates, plus uniques already tuned in a previous run.
        for task in self._tasks:
            if task.name in reports:
                continue
            entry = self.database.get(task.key)
            if entry is None:
                searched = reports.get(self._name_for_key(task.key))
                reports[task.name] = TaskReport(
                    task.name, task.key, "failed",
                    error=searched.error if searched else "no database record",
                )
                continue
            reports[task.name] = self._from_record(
                task, entry, budgets.get(task.key, self.config.trials),
                replayed, rejected, bucket,
            )

        return reports, rejected, bucket

    def _search_all(
        self, to_search: List[_Task], budgets: Dict[str, int]
    ) -> Iterator[_Searched]:
        """Each pending search's outcome, in task order, as it arrives —
        so the caller commits a search before waiting on the next.

        With two or more workers (:func:`_search_width`) each search runs
        in a worker of a fork pool made for this call and shut down when
        the generator ends or is closed; otherwise the searches run here,
        one after another.  The workers take their jobs from the fork,
        so only outcomes are pickled.  A worker that dies breaks the
        pool: every search not yet returned fails with an error naming
        the death.
        """
        global _JOBS
        jobs = [
            (task.search_func, self.target, self.config.with_(trials=budgets[task.key]),
             task.name, self.recorder is not None)
            for task in to_search
        ]
        width = _search_width(len(jobs))
        if width < 2:
            for job in jobs:
                yield _search(*job)
            return
        _JOBS = jobs
        pool = ProcessPoolExecutor(width, mp_context=multiprocessing.get_context("fork"))
        try:
            # The first submit forks every worker.  Frozen objects are
            # never scanned by a collection, so the workers' collections
            # leave this process's pages shared rather than copying them.
            gc.freeze()
            try:
                futures = [pool.submit(_search_job, i) for i in range(len(jobs))]
            finally:
                gc.unfreeze()
            for future in futures:
                try:
                    outcome = future.result()
                except Exception as err:  # noqa: BLE001 — a dead worker fails its searches
                    error = f"search worker failed: {type(err).__name__}: {err}"
                    outcome = _Searched(None, error, [], [], [], {}, os.getpid())
                yield outcome
        finally:
            _JOBS = []
            # An interrupt leaves searches queued; start none of them.
            pool.shutdown(cancel_futures=True)

    def _fold(self, outcome: _Searched, session_span: int) -> None:
        """Take one search's spans, recorder rows and, when it ran in a
        worker, cache counts into this session's stores."""
        in_worker = outcome.pid != os.getpid()
        self.telemetry.adopt(
            outcome.spans, session_span,
            thread=f"search-worker-{outcome.pid}" if in_worker else None,
        )
        if self.recorder is not None:
            self.recorder.adopt(outcome.trials, outcome.rejections)
        if in_worker:
            _cache.absorb_worker_counts(outcome.cache_delta)

    def _from_record(
        self,
        task: _Task,
        entry: DatabaseEntry,
        trials: int,
        replayed: Dict[str, TuneResult],
        rejected: Counter,
        bucket: Counter,
        searched: Optional[TuneResult] = None,
    ) -> TaskReport:
        """``task``'s report with its program rebuilt from the stored
        ``entry``; ``searched`` is the task's own representative search,
        if it ran one.

        Each distinct exact workload replays once per run (``replayed``)
        and later tasks with that exact key share the program; an
        in-bucket shape, whose key is not the record's, replays
        adaptively (§5.2, :meth:`~repro.meta.database.Database.replay_entry`
        picks the mode), counts in the
        ``bucket`` tally, and falls back to :func:`fallback_tune` at its
        concrete shape when the stored decisions are infeasible there.
        Rejections of that fallback search go into ``rejected``.
        """
        in_bucket = task.bucketed is not None and task.bucketed.bucketed
        exact = task.key if task.bucketed is None else workload_key(task.func, self.target)
        t0 = time.perf_counter()
        result = replayed.get(exact)
        if result is not None:
            result = replace(
                result, stats=SearchStats(), best_decisions=list(result.best_decisions)
            )
        else:
            result = replay_result(
                task.func, self.target, self.database, entry, ctx=self.diagnostics
            )
            if result is not None:
                replayed[exact] = result
        self.telemetry.add("replay", time.perf_counter() - t0, task.name, start=t0)
        fresh = None
        if in_bucket:
            bucket["replayed" if result is not None else "fallback"] += 1
            if result is None:
                try:
                    result = fresh = fallback_tune(
                        task.func, self.target, self.config.with_(trials=trials),
                        self.database, self.diagnostics, task=task.name,
                        telemetry=self.telemetry, recorder=self.recorder,
                    )
                except Exception as err:  # noqa: BLE001 — per-task isolation
                    return TaskReport(
                        task.name, task.key, "failed",
                        trials_allocated=trials, error=str(err),
                    )
                rejected.update(fresh.stats.rejected_by_code)
        if result is None:
            return TaskReport(
                task.name, task.key, "failed",
                error=f"stored record for {task.key} (sketch {entry.sketch!r}) "
                f"did not replay",
            )
        self.results[task.name] = result
        searches = [r for r in (searched, fresh) if r is not None]
        return TaskReport(
            task.name, task.key, "searched" if searches else "replayed",
            sketch=result.best_sketch,
            cycles=result.best_cycles,
            seconds=result.best_report.seconds,
            trials_allocated=trials if searches else 0,
            measured=sum(r.stats.measured for r in searches),
            tuning_seconds=sum((r.tuning_seconds for r in searches), 0.0),
        )

    def _name_for_key(self, key: str) -> str:
        for t in self._tasks:
            if t.key == key:
                return t.name
        return key
