"""Evolutionary search over sketch decisions (§4.4).

Candidates are (sketch, decision-vector) pairs.  Each generation:
random/mutated decision vectors are replayed through the sketch,
validated (§3.3 — invalid mutants are rejected before costing anything),
ranked by the learned cost model, and the most promising are *measured*
on the simulated hardware (the stand-in for on-device profiling).
Measurements feed back into the cost model.

Tuning-time accounting mirrors the paper's Table 1 analysis: hardware
profiling dominates tuning time, so each measurement is charged its
simulated wall-clock x repeat count plus a fixed compile/RPC overhead.
When a :class:`~repro.meta.telemetry.Telemetry` collector is passed,
real wall-clock is additionally partitioned into ``evolve`` /
``validate`` / ``measure`` / ``model-update`` spans per task.
"""

from __future__ import annotations

import dataclasses
import random
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

from .. import cache as _cache
from ..obs.record import Recorder
from ..schedule import Schedule, ScheduleError, verify
from ..sim import PerfReport, Target, estimate
from ..sim.cost import CostModelError
from ..tir import PrimFunc, structural_hash
from .config import TuneConfig
from .cost_model import CostModel
from .database import names_fingerprint, workload_key
from .sketch import Sketch, apply_sketch, sketch_prefix
from .telemetry import Telemetry

__all__ = ["TuneResult", "SearchStats", "evolutionary_search"]

#: profiling parameters of the simulated measurement harness
MEASURE_REPEATS = 10
MEASURE_OVERHEAD_SECONDS = 0.08  # compile + upload + RPC per candidate


@dataclass
class SearchStats:
    candidates_generated: int = 0
    invalid_rejected: int = 0
    apply_failed: int = 0
    measured: int = 0
    profiling_seconds: float = 0.0
    #: rejected candidates per diagnostic error code: validation
    #: failures count their primary (first) code, primitive-precondition
    #: failures the ScheduleError's code, and candidates the analytical
    #: model cannot cost count ``TIR501`` — so the per-code counts sum
    #: to ``invalid_rejected + apply_failed`` (asserted in tests).
    rejected_by_code: Counter = field(default_factory=Counter)

    def search_signature(self) -> dict:
        """These stats as plain data: every field is a pure function of
        (workload, config seed), so the determinism tests compare this
        view across cache states and search widths.
        """
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            out[f.name] = dict(value) if isinstance(value, Counter) else value
        return out

    def merge(self, other: "SearchStats") -> "SearchStats":
        """Accumulate ``other`` into this stats object, field-generic so
        a newly added counter can never be silently dropped (Counter
        fields merge key-wise)."""
        for f in dataclasses.fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, Counter):
                mine.update(theirs)
            else:
                setattr(self, f.name, mine + theirs)
        return self


@dataclass
class TuneResult:
    workload: str
    best_func: Optional[PrimFunc]
    best_cycles: float
    best_report: Optional[PerfReport]
    best_sketch: Optional[str]
    stats: SearchStats = field(default_factory=SearchStats)
    #: the winning candidate's decision vector — enough to rebuild the
    #: program via the tuning database (no search, §5.2).
    best_decisions: Optional[List[object]] = None
    #: True when the result was rebuilt from a database record instead
    #: of searched (§5.2's record-replay path).
    replayed: bool = False

    @property
    def tuning_seconds(self) -> float:
        """Simulated wall-clock spent tuning (profiling-dominated)."""
        return self.stats.profiling_seconds + self.stats.measured * MEASURE_OVERHEAD_SECONDS

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"TuneResult({self.workload}: best {self.best_cycles:.0f} cycles via "
            f"{self.best_sketch}, {self.stats.measured} measured)"
        )


class _Candidate:
    __slots__ = ("sketch", "func", "decisions", "trial_id", "parent_trial")

    def __init__(self, sketch: Sketch, func: PrimFunc, decisions: List[object]):
        self.sketch = sketch
        self.func = func
        self.decisions = decisions
        #: flight-recorder lineage (set only when a recorder is passed):
        #: the ledger id this candidate got when measured, and the
        #: ledger id of the elite it was mutated from.
        self.trial_id: Optional[int] = None
        self.parent_trial: Optional[int] = None


#: Whole-candidate memo: ``_build_candidate`` is a pure function of
#: (base func, sketch, seed, forced prefix, target, validate) — the
#: sketch prefix it forks from is itself a function of (base func,
#: sketch), so it is no part of the key — and its result, the scheduled
#: func + consumed decisions or the rejection, can be replayed from
#: cache.  The base func is keyed on its structural hash *and* its name
#: fingerprint: the hash is alpha-invariant, and a renamed copy of a
#: workload must get programs in its own names.  Within one cold search
#: hits are rare (seeds are fresh), but re-tuning the same workload
#: (§5.2's workflow, parameter sweeps, session restarts) replays every
#: build for free, the prefix build included: a search builds its
#: prefix on its first miss.
_CANDIDATE_CACHE = _cache.MemoCache("search.candidates", maxsize=2048)


def _sketch_token(sketch: Sketch) -> tuple:
    """A cache key for a sketch that is stable across instances."""
    return (
        type(sketch).__qualname__,
        sketch.name,
        getattr(sketch, "intrin_name", None),
    )


#: what :func:`~repro.meta.sketch.sketch_prefix` gave for a search's
#: (func, sketch): the prefix schedule and its state, or the
#: ``ScheduleError`` it raised.
Prefix = Union[Tuple[Schedule, object], ScheduleError]


def _prefix_of(func: PrimFunc, sketch: Sketch) -> Prefix:
    try:
        return sketch_prefix(func, sketch)
    except ScheduleError as err:
        return err


def _build_candidate_cached(
    func: PrimFunc,
    sketch: Sketch,
    seed: int,
    forced: Optional[List[object]],
    target: Target,
    validate: bool,
    names: int,
    prefix: Callable[[], Prefix],
) -> Tuple[Optional[_Candidate], Optional[Tuple[str, str]], float]:
    """Memoizing front of :func:`_build_candidate` (see cache note above);
    ``names`` is ``func``'s :func:`~repro.meta.database.names_fingerprint`,
    taken once per search, and ``prefix()`` gives the search's sketch
    prefix, called on a miss only."""
    key = (
        structural_hash(func),
        names,
        _sketch_token(sketch),
        seed,
        _cache.freeze(forced),
        getattr(target, "name", None),
        validate,
    )
    hit = _CANDIDATE_CACHE.lookup(key)
    if hit is not _cache.MISS:
        built, decisions, rejection = hit
        cand = _Candidate(sketch, built, list(decisions)) if rejection is None else None
        return cand, rejection, 0.0
    cand, rejection, seconds = _build_candidate(
        func, sketch, seed, forced, target, validate, prefix()
    )
    _CANDIDATE_CACHE.put(
        key,
        (
            cand.func if cand is not None else None,
            tuple(cand.decisions) if cand is not None else None,
            rejection,
        ),
    )
    return cand, rejection, seconds


def _apply_rejection(err: ScheduleError) -> Tuple[str, str]:
    return "apply", err.diagnostics[0].code if err.diagnostics else "TIR400"


def _build_candidate(
    func: PrimFunc,
    sketch: Sketch,
    seed: int,
    forced: Optional[List[object]],
    target: Target,
    validate: bool,
    prefix: Prefix,
) -> Tuple[Optional[_Candidate], Optional[Tuple[str, str]], float]:
    """Instantiate one candidate, forked from ``prefix``, without
    touching shared state — pure in its arguments, so a cached build is
    what a fresh one would be.  A prefix takes no decision, so a prefix
    that raised rejects every candidate with the code a from-scratch
    build of it would raise.

    Returns ``(candidate, rejection, validate_seconds)`` where
    ``rejection`` is ``("apply" | "invalid", code)`` on failure.
    """
    if isinstance(prefix, ScheduleError):
        return None, _apply_rejection(prefix), 0.0
    try:
        sch = apply_sketch(func, sketch, seed=seed, forced=forced, prefix=prefix)
    except ScheduleError as err:
        return None, _apply_rejection(err), 0.0
    if validate:
        t0 = time.perf_counter()
        problems = verify(sch.func, target)
        validate_seconds = time.perf_counter() - t0
        if problems:
            return None, ("invalid", problems[0].code), validate_seconds
        return _Candidate(sketch, sch.func, list(sch.decisions)), None, validate_seconds
    return _Candidate(sketch, sch.func, list(sch.decisions)), None, 0.0


def _count_rejection(stats: SearchStats, rejection: Tuple[str, str]) -> None:
    kind, code = rejection
    if kind == "apply":
        stats.apply_failed += 1
    else:
        stats.invalid_rejected += 1
    stats.rejected_by_code[code] += 1


def evolutionary_search(
    func: PrimFunc,
    sketch: Sketch,
    target: Target,
    config: Optional[TuneConfig] = None,
    *,
    cost_model: Optional[CostModel] = None,
    telemetry: Optional[Telemetry] = None,
    task: Optional[str] = None,
    recorder: Optional[Recorder] = None,
) -> TuneResult:
    """Search one sketch's decision space; ``config.trials`` bounds the
    number of measured candidates.

    Each candidate is drawn from the one search RNG — a seed and, for a
    mutant, a prefix of an elite's decisions — and built inline, in
    draw order, so the programs found, the stats and the flight
    recording are a pure function of (workload, config).  A session
    that searches several workloads at once runs each whole search in
    its own worker process (:mod:`repro.meta.session`).

    With a :class:`~repro.obs.record.Recorder`, every candidate gets one
    row: a trial row when it reaches the measurer, a rejection row when
    it dies before — without consuming search RNG, so recorded and
    unrecorded runs find identical programs.
    """
    config = config or TuneConfig()
    rng = random.Random(config.seed)
    recording = recorder is not None
    model = cost_model or CostModel(target)
    stats = SearchStats()
    result = TuneResult(func.name, None, float("inf"), None, None, stats=stats)
    task = task or func.name
    sk_token = sketch.token()
    wl_key = workload_key(func, target) if recording else None
    timings = {"validate": 0.0, "measure": 0.0, "model-update": 0.0}
    t_start = time.perf_counter()

    trials, population = config.trials, config.population
    elites: List[Tuple[float, _Candidate]] = []
    measured_budget = trials
    generation = 0
    max_generations = config.generations or max(2, trials // max(population // 2, 1))
    names = names_fingerprint(func)
    built: List[Prefix] = []

    def _prefix() -> Prefix:
        """The sketch's prefix of ``func``, built on the first candidate
        cache miss and forked by every later build."""
        if not built:
            built.append(_prefix_of(func, sketch))
        return built[0]

    def _draw() -> Tuple[int, Optional[List[object]], Optional[int]]:
        """One candidate's (seed, forced prefix, parent trial id), drawn
        from the search RNG.  The parent trial id is provenance only —
        it never feeds back into the RNG stream, so recording cannot
        perturb the search."""
        forced = None
        parent_trial = None
        if elites and rng.random() < 0.7:
            # Mutation: keep a prefix of an elite's decisions, then
            # resample the rest.
            _, parent = rng.choice(elites)
            if parent.decisions:
                cut = rng.randrange(len(parent.decisions))
                forced = parent.decisions[:cut]
                parent_trial = parent.trial_id
        return rng.randrange(1 << 30), forced, parent_trial

    def _emit_rejection(rejection: Tuple[str, str]) -> None:
        if recording:
            kind, code = rejection
            recorder.rejection(task, sk_token, generation, kind, code)

    def _fill_pool() -> List[_Candidate]:
        # Draw until the pool is full or six draws per slot are spent.
        pool: List[_Candidate] = []
        attempts = 0
        while len(pool) < population and attempts < population * 6:
            attempts += 1
            stats.candidates_generated += 1
            seed, forced, parent_trial = _draw()
            cand, rejection, validate_seconds = _build_candidate_cached(
                func, sketch, seed, forced, target, config.validate, names, _prefix
            )
            timings["validate"] += validate_seconds
            if rejection is not None:
                _count_rejection(stats, rejection)
                _emit_rejection(rejection)
            elif cand is not None:
                cand.parent_trial = parent_trial
                pool.append(cand)
        return pool

    while stats.measured < measured_budget and generation < max_generations:
        generation += 1
        gen_span = (
            telemetry.span("generation", task)
            if telemetry is not None
            else nullcontext()
        )
        with gen_span:
            gen_t0 = time.perf_counter()
            gen_prev = dict(timings)
            # Stage start times within this generation, for the
            # exported timeline (validation begins with pool fill).
            gen_starts = {"validate": gen_t0}
            pool = _fill_pool()
            if not pool:
                break
            # Rank by the learned cost model; measure the top half.
            # The model refits here, on read, if measurements
            # arrived since its last fit.
            t0 = time.perf_counter()
            gen_starts["model-update"] = t0
            model.refit()
            timings["model-update"] += time.perf_counter() - t0
            scores = model.predict([c.func for c in pool])
            order = sorted(range(len(pool)), key=lambda i: -scores[i])
            to_measure = order[
                : max(1, min(len(pool) // 2 + 1, measured_budget - stats.measured))
            ]
            measured_funcs = []
            measured_cycles = []
            for idx in to_measure:
                cand = pool[idx]
                t0 = time.perf_counter()
                gen_starts.setdefault("measure", t0)
                try:
                    report = estimate(cand.func, target)
                except CostModelError:
                    stats.invalid_rejected += 1
                    stats.rejected_by_code["TIR501"] += 1
                    if recording:
                        recorder.trial(
                            task=task, workload=wl_key, sketch=sk_token,
                            generation=generation, parent=cand.parent_trial,
                            decisions=cand.decisions,
                            predicted=float(scores[idx]),
                            rejection="TIR501", func=cand.func,
                        )
                    continue
                finally:
                    timings["measure"] += time.perf_counter() - t0
                stats.measured += 1
                stats.profiling_seconds += report.seconds * MEASURE_REPEATS
                measured_funcs.append(cand.func)
                measured_cycles.append(report.cycles)
                if recording:
                    trial_rec = recorder.trial(
                        task=task, workload=wl_key, sketch=sk_token,
                        generation=generation, parent=cand.parent_trial,
                        decisions=cand.decisions, predicted=float(scores[idx]),
                        cycles=report.cycles, seconds=report.seconds,
                        bound=report.bound, func=cand.func,
                    )
                    cand.trial_id = trial_rec.trial_id
                if report.cycles < result.best_cycles:
                    result.best_cycles = report.cycles
                    result.best_func = cand.func
                    result.best_report = report
                    result.best_sketch = sketch.name
                    result.best_decisions = list(cand.decisions)
                elites.append((report.cycles, cand))
            if measured_funcs:
                t0 = time.perf_counter()
                model.update(measured_funcs, measured_cycles)
                timings["model-update"] += time.perf_counter() - t0
            elites.sort(key=lambda t: t[0])
            del elites[max(4, population // 2) :]
            if telemetry is not None:
                # Flush this generation's stage deltas as child spans
                # of the generation span, placed at their true starts.
                gen_total = time.perf_counter() - gen_t0
                gen_deltas = {
                    stage: timings[stage] - gen_prev[stage] for stage in timings
                }
                evolve = max(gen_total - sum(gen_deltas.values()), 0.0)
                telemetry.add("evolve", evolve, task, start=gen_t0)
                for stage, seconds in gen_deltas.items():
                    if seconds:
                        telemetry.add(
                            stage, seconds, task, start=gen_starts.get(stage)
                        )

    return result
