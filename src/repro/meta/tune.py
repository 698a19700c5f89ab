"""The per-workload tuner: sketch generation + evolutionary search.

``tune`` is the full §4 pipeline for one operator: generate the
applicable sketches (tensorized candidates first), search each with the
shared cost model, and return the best program found.  Disabling
``TuneConfig.allow_tensorize`` is exactly the Ansor/TVM baseline
configuration used in the evaluation.

Record-replay (§5.2) is the default path: pass a ``database`` and an
already-tuned workload is rebuilt from its stored decision vector with
zero search; fresh results are recorded back.  :func:`replay_result` is
the one way a stored record becomes a ``TuneResult`` — ``tune`` and the
tuning session both use it.  Every tuning option lives on
:class:`~repro.meta.config.TuneConfig`.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Optional

from ..diagnostics import DiagnosticContext
from ..obs.record import Recorder
from ..schedule import Schedule
from ..sim import Target, estimate
from ..tir import PrimFunc
from .config import TuneConfig
from .cost_model import CostModel
from .database import Database, DatabaseEntry, workload_key
from .search import SearchStats, TuneResult, evolutionary_search
from .sketch import generate_sketches
from .telemetry import Telemetry

__all__ = ["tune"]


def replay_result(
    func: PrimFunc,
    target: Target,
    database: Database,
    entry: DatabaseEntry,
    *,
    ctx: Optional[DiagnosticContext] = None,
) -> Optional[TuneResult]:
    """``entry`` rebuilt at ``func`` with zero search (§5.2) and costed,
    as a ``replayed`` result; ``None`` when it does not replay there
    (see :meth:`~repro.meta.database.Database.replay_entry`, which
    picks the replay mode)."""
    sch = database.replay_entry(func, entry, ctx=ctx)
    if sch is None:
        return None
    report = estimate(sch.func, target)
    return TuneResult(
        func.name,
        sch.func,
        report.cycles,
        report,
        entry.sketch,
        stats=SearchStats(),
        best_decisions=list(entry.decisions),
        replayed=True,
    )


def tune(
    func: PrimFunc,
    target: Target,
    config: Optional[TuneConfig] = None,
    *,
    database: Optional[Database] = None,
    telemetry: Optional[Telemetry] = None,
    task: Optional[str] = None,
    recorder: Optional[Recorder] = None,
) -> TuneResult:
    """Tune one workload; returns the best schedule found.

    ``config.trials`` bounds the total number of measured candidates
    across all sketches.  Tensorized sketches get the larger share of
    the budget (their search space is the one that matters once an
    intrinsic matches — and the paper's §5.2 observes the
    divide-and-conquer search space is *smaller*, converging in fewer
    trials).

    Pass a ``recorder`` to flight-record the run: one row per candidate
    of every sketch's search (spans go to ``telemetry``).  No recorder
    means no recording.
    """
    config = config or TuneConfig()
    task = task or func.name

    task_span = (
        telemetry.span("task", task) if telemetry is not None else nullcontext()
    )
    with task_span:
        if database is not None:
            t0 = time.perf_counter()
            entry = database.get(workload_key(func, target))
            replayed = None if entry is None else replay_result(func, target, database, entry)
            if replayed is not None:
                if telemetry is not None:
                    telemetry.add("replay", time.perf_counter() - t0, task, start=t0)
                return replayed

        probe = Schedule(func, record_trace=False)
        sketches = config.sketches
        if sketches is None:
            t0 = time.perf_counter()
            sketches = generate_sketches(
                probe, target, allow_tensorize=config.allow_tensorize
            )
            if telemetry is not None:
                telemetry.add("sketch-gen", time.perf_counter() - t0, task, start=t0)
        if not sketches:
            raise ValueError(f"no applicable sketches for {func.name}")

        model = CostModel(target)
        best: Optional[TuneResult] = None
        combined_stats = SearchStats()
        has_tensor = any(s.name in ("tensor-core", "cpu-sdot") for s in sketches)
        for i, sketch in enumerate(sketches):
            if has_tensor and len(sketches) > 1:
                share = 0.75 if sketch.name in ("tensor-core", "cpu-sdot") else 0.25
            else:
                share = 1.0 / len(sketches)
            budget = max(2, int(config.trials * share))
            result = evolutionary_search(
                func,
                sketch,
                target,
                config.with_(trials=budget, seed=config.seed + i * 7919, sketches=None),
                cost_model=model,
                telemetry=telemetry,
                task=task,
                recorder=recorder,
            )
            combined_stats.merge(result.stats)
            if best is None or result.best_cycles < best.best_cycles:
                best = result
        assert best is not None
        out = TuneResult(
            func.name,
            best.best_func,
            best.best_cycles,
            best.best_report,
            best.best_sketch,
            stats=combined_stats,
            best_decisions=best.best_decisions,
        )
        if database is not None and out.best_sketch is not None and out.best_decisions is not None:
            database.record(
                func, target, out.best_sketch, out.best_decisions, out.best_cycles
            )
        return out
