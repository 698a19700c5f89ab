"""The flight recorder: per-trial provenance + the run artifact.

A :class:`Recorder` is threaded through ``tune`` /
``evolutionary_search`` / ``TuningSession`` / ``CostModel`` (built from
``TuneConfig.obs``).  It owns

* the bounded :class:`~repro.obs.events.EventStream` (optionally backed
  by a JSONL sink),
* the **provenance ledger** — one :class:`TrialRecord` per candidate
  that reached the measurer, carrying everything needed to re-derive
  the program: workload key, sketch, generation index, mutation lineage
  (parent trial id), the decision vector, the serialized schedule
  :class:`~repro.schedule.trace.Trace` and the program's
  ``structural_hash``.

It records what happened in a run, not a second copy of its counts:
per-search counts live in :class:`~repro.meta.search.SearchStats`,
cache activity in :mod:`repro.cache` (a run's window arrives here as
:class:`~repro.obs.events.CacheEvent` rows).

Disabled (the default), every method returns immediately — the search
hot path pays only an attribute check.  All methods are thread-safe;
trial ids are globally ordered across concurrent task searches.

:func:`replay_trial` is the other half of the contract: given a record
and the base workload function, it replays the stored trace and asserts
the rebuilt program hashes to the recorded value.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import cache as _cache
from ..fileio import atomic_write
from .config import ObsConfig
from .events import (
    BestImproved,
    CacheEvent,
    EventStream,
    GenerationEnd,
    JsonlSink,
    ModelUpdate,
    Rejection,
    TrialEvent,
)

__all__ = ["Recorder", "TrialRecord", "replay_trial", "load_recording"]

#: artifact schema identifier (bump on breaking changes to the layout).
SCHEMA = "repro.obs/1"

#: Serialized-trace memo: re-deriving a measured candidate's trace is a
#: full (deterministic) candidate build, keyed exactly like the
#: candidate cache — so re-tuning a recorded workload, or measuring the
#: same decision vector twice, serializes its provenance once.  Cached
#: values are the JSON dicts stored verbatim in the artifact; callers
#: must not mutate them.
_TRACE_CACHE = _cache.MemoCache("obs.traces", maxsize=1024)


@dataclass
class TrialRecord:
    """Provenance of one candidate that reached the measurer.

    ``rejection`` is the diagnostic code when the measurer itself killed
    the candidate (``TIR501`` — the analytical model could not cost it);
    otherwise ``predicted``/``cycles``/``seconds`` hold the scored and
    measured cost.  ``trace`` is the serialized schedule trace
    (:meth:`~repro.schedule.trace.Trace.to_json`); replaying it onto a
    fresh schedule of the workload re-derives a program whose
    ``structural_hash`` equals the recorded one.
    """

    trial_id: int
    task: str
    workload: str  # workload_key(func, target) — database-compatible
    sketch: str
    generation: int
    parent: Optional[int]  # trial id of the mutation parent, if any
    decisions: List[object] = field(default_factory=list)
    predicted: Optional[float] = None
    cycles: Optional[float] = None
    seconds: Optional[float] = None
    bound: Optional[str] = None
    rejection: Optional[str] = None
    structural_hash: Optional[int] = None
    trace: Optional[dict] = None

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "TrialRecord":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


class Recorder:
    """Collects events + trial provenance for one run (or many)."""

    def __init__(
        self,
        config: Optional[ObsConfig] = None,
        telemetry=None,
        clock=time.perf_counter,
    ):
        self.config = config or ObsConfig()
        self.enabled = bool(self.config.enabled)
        self.telemetry = telemetry
        self._clock = clock
        self.sink = (
            JsonlSink(self.config.sink_path)
            if self.enabled and self.config.sink_path
            else None
        )
        self.stream = EventStream(sink=self.sink)
        self.trials: List[TrialRecord] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        #: wall-clock ↔ telemetry-clock anchor, so exporters can place
        #: perf_counter timestamps in absolute time.
        self.created_unix = time.time()
        self.created_clock = clock()

    # -- trial provenance ----------------------------------------------
    def trial(
        self,
        *,
        task: str,
        workload: str,
        sketch: str,
        generation: int,
        parent: Optional[int],
        decisions: List[object],
        predicted: Optional[float] = None,
        cycles: Optional[float] = None,
        seconds: Optional[float] = None,
        bound: Optional[str] = None,
        rejection: Optional[str] = None,
        func=None,
        base_func=None,
        sketch_obj=None,
    ) -> Optional[TrialRecord]:
        """Ledger one measured (or measurer-rejected) candidate.

        ``func`` is the scheduled program (hashed); ``base_func`` +
        ``sketch_obj`` let the recorder serialize the replayable trace by
        re-deriving the candidate from its decision vector — the hot
        path builds candidates without trace recording, so provenance is
        reconstructed only for the few candidates that get measured.
        """
        if not self.enabled:
            return None
        from ..tir import structural_hash

        record = TrialRecord(
            trial_id=next(self._ids),
            task=task,
            workload=workload,
            sketch=sketch,
            generation=generation,
            parent=parent,
            decisions=list(decisions),
            predicted=predicted,
            cycles=cycles,
            seconds=seconds,
            bound=bound,
            rejection=rejection,
        )
        if func is not None:
            record.structural_hash = structural_hash(func)
        if cycles is not None and base_func is not None and sketch_obj is not None:
            record.trace = self._serialize_trace(base_func, sketch_obj, decisions)
        with self._lock:
            self.trials.append(record)
        if cycles is not None:
            self.stream.emit(
                TrialEvent(
                    ts=self._clock(),
                    task=task,
                    sketch=sketch,
                    generation=generation,
                    trial_id=record.trial_id,
                    predicted=predicted,
                    cycles=cycles,
                    seconds=seconds if seconds is not None else 0.0,
                    bound=bound or "",
                )
            )
        return record

    def _serialize_trace(self, base_func, sketch_obj, decisions) -> Optional[dict]:
        """Re-derive the candidate with trace recording on and serialize.

        Replaying the sketch with the full forced-decision vector is the
        §5.2 database-replay mechanism; it is deterministic, consumes no
        search RNG, and costs one candidate build — memoized through
        :data:`_TRACE_CACHE` since the rebuild is a pure function of the
        (workload, sketch, decisions) key.
        """
        from ..tir import structural_hash

        def rebuild() -> Optional[dict]:
            from ..schedule import Schedule, ScheduleError

            sch = Schedule(base_func, seed=0, record_trace=True)
            sch.forced_decisions = list(decisions)
            try:
                sketch_obj.apply(sch)
            except ScheduleError:  # pragma: no cover — build succeeded once
                return None
            return sch.trace.to_json() if sch.trace is not None else None

        key = (
            structural_hash(base_func),
            type(sketch_obj).__qualname__,
            sketch_obj.token(),
            _cache.freeze(decisions),
        )
        return _TRACE_CACHE.get_or_compute(key, rebuild)

    # -- events ---------------------------------------------------------
    def rejection(
        self, task: str, sketch: str, generation: int, stage: str, code: str
    ) -> None:
        if not self.enabled:
            return
        self.stream.emit(
            Rejection(
                ts=self._clock(), task=task, sketch=sketch,
                generation=generation, stage=stage, code=code,
            )
        )

    def best_improved(
        self, task: str, trial_id: int, cycles: float, previous: Optional[float]
    ) -> None:
        if not self.enabled:
            return
        self.stream.emit(
            BestImproved(
                ts=self._clock(), task=task, trial_id=trial_id,
                cycles=cycles, previous=previous,
            )
        )

    def generation_end(
        self,
        task: str,
        sketch: str,
        index: int,
        pool: int,
        measured: int,
        best_cycles: Optional[float],
    ) -> None:
        if not self.enabled:
            return
        if best_cycles is not None and best_cycles == float("inf"):
            best_cycles = None
        self.stream.emit(
            GenerationEnd(
                ts=self._clock(), task=task, sketch=sketch, index=index,
                pool=pool, measured=measured, best_cycles=best_cycles,
            )
        )

    def model_update(self, samples: int, trained: bool) -> None:
        if not self.enabled:
            return
        self.stream.emit(
            ModelUpdate(ts=self._clock(), samples=samples, trained=trained)
        )

    def record_cache_delta(self, delta: Dict[str, Dict[str, float]]) -> None:
        """One :class:`CacheEvent` per cache active in a run window
        (fed from :func:`repro.cache.delta_since`)."""
        if not self.enabled:
            return
        now = self._clock()
        for name, counts in sorted(delta.items()):
            self.stream.emit(
                CacheEvent(
                    ts=now,
                    name=name,
                    hits=int(counts.get("hits", 0)),
                    misses=int(counts.get("misses", 0)),
                    evictions=int(counts.get("evictions", 0)),
                )
            )

    # -- the artifact ----------------------------------------------------
    def recording(self) -> dict:
        """The flight recording as one JSON-ready document."""
        with self._lock:
            trials = [t.to_json() for t in self.trials]
        out = {
            "schema": SCHEMA,
            "created_unix": self.created_unix,
            "clock_anchor": self.created_clock,
            "config": self.config.to_json(),
            "events": self.stream.events(),
            "event_stats": self.stream.stats(),
            "trials": trials,
        }
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry.report()
        return out

    def save(self, path: str) -> dict:
        """Write the recording atomically; returns the document written."""
        doc = self.recording()
        atomic_write(path, json.dumps(doc, indent=1, sort_keys=True))
        return doc

    def close(self) -> None:
        """Flush the JSONL sink (the stream stays usable — the sink
        reopens in append mode on the next write)."""
        if self.sink is not None:
            self.sink.close()

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_recording(path: str) -> dict:
    """Load a saved recording (``Recorder.save`` artifact)."""
    with open(path) as f:
        return json.load(f)


def replay_trial(record, base_func):
    """Re-derive a trial's program from its serialized trace.

    ``record`` is a :class:`TrialRecord` or its JSON dict.  Returns the
    rebuilt :class:`~repro.tir.function.PrimFunc`; raises ``ValueError``
    if no trace was recorded or the rebuilt program's
    ``structural_hash`` does not match the recorded one.
    """
    from ..schedule import Schedule
    from ..schedule.trace import Trace
    from ..tir import structural_hash

    if isinstance(record, TrialRecord):
        record = record.to_json()
    trace_json = record.get("trace")
    if trace_json is None:
        raise ValueError(
            f"trial {record.get('trial_id')} has no serialized trace "
            "(never measured)"
        )
    sch = Schedule(base_func, seed=0, record_trace=False)
    Trace.from_json(trace_json).apply_to(sch)
    rebuilt_hash = structural_hash(sch.func)
    expected = record.get("structural_hash")
    if expected is not None and rebuilt_hash != expected:
        raise ValueError(
            f"trial {record.get('trial_id')}: replayed program hash "
            f"{rebuilt_hash} != recorded {expected}"
        )
    return sch.func
