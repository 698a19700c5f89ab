"""The flight recorder: one row per candidate, and the run artifact.

A :class:`Recorder` handed to ``tune`` / ``evolutionary_search`` /
``fallback_tune`` / ``TuningSession`` keeps two lists:

* ``trials`` — one :class:`TrialRecord` per candidate that reached the
  measurer, carrying everything needed to re-derive the program:
  workload key, sketch, generation index, mutation lineage (parent
  trial id), the decision vector, the serialized schedule
  :class:`~repro.schedule.trace.Trace` and the program's
  ``structural_hash`` — or, when the measurer refused it, its code
  (``TIR501``);
* ``rejections`` — one :class:`Rejection` per candidate rejected before
  it reached the measurer.

No recorder means no recording.  A session's searches each record
into a recorder of their own — in a worker process when the session
runs them in parallel — and the session's recorder takes their rows in
task order (:meth:`Recorder.adopt`).  The recorder keeps no copy of what
another store holds: spans live in
:class:`~repro.meta.telemetry.Telemetry` (a saved recording embeds the
ones it is handed), per-search counts in
:class:`~repro.meta.search.SearchStats`, cache activity in
:mod:`repro.cache`; the best-cost curve is derived from the trial rows
(:mod:`repro.obs.export`).  All methods are thread-safe.

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
from typing import List, Optional

from .. import cache as _cache
from ..fileio import atomic_write

__all__ = ["Recorder", "TrialRecord", "Rejection", "replay_trial", "load_recording"]

#: artifact schema identifier (bump on breaking changes to the layout).
SCHEMA = "repro.obs/2"

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

    ``ts`` is when it was recorded (``time.perf_counter``, the telemetry
    clock).  ``rejection`` is the diagnostic code when the measurer
    itself killed the candidate (``TIR501`` — the analytical model could
    not cost it); otherwise ``predicted``/``cycles``/``seconds`` hold the
    scored and measured cost.  ``trace`` is the serialized schedule
    trace (:meth:`~repro.schedule.trace.Trace.to_json`); replaying it
    onto a fresh schedule of the workload re-derives a program whose
    ``structural_hash`` equals the recorded one.
    """

    trial_id: int
    ts: float
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


@dataclass
class Rejection:
    """One candidate rejected before it reached the measurer.

    ``stage`` is where it died — ``"apply"`` (a primitive precondition)
    or ``"invalid"`` (the §3.3 validation battery) — and ``code`` the
    diagnostic error code (``TIRnnn``)."""

    ts: float
    task: str
    sketch: str
    generation: int
    stage: str
    code: str


class Recorder:
    """The trial ledger and rejection rows of one run (or many)."""

    def __init__(self):
        self.trials: List[TrialRecord] = []
        self.rejections: List[Rejection] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        #: wall-clock ↔ telemetry-clock anchor, so exporters can place
        #: perf_counter timestamps in absolute time.
        self.created_unix = time.time()
        self.created_clock = time.perf_counter()

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
    ) -> TrialRecord:
        """Ledger one measured (or measurer-rejected) candidate.

        ``func`` is the scheduled program (hashed); ``base_func`` +
        ``sketch_obj`` let the recorder serialize the replayable trace by
        re-deriving the candidate from its decision vector — the hot
        path builds candidates without trace recording, so provenance is
        reconstructed only for the few candidates that get measured.
        """
        from ..tir import structural_hash

        shash = None if func is None else structural_hash(func)
        trace = None
        if cycles is not None and base_func is not None and sketch_obj is not None:
            trace = self._serialize_trace(base_func, sketch_obj, decisions)
        with self._lock:
            record = TrialRecord(
                trial_id=next(self._ids),
                ts=time.perf_counter(),
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
                structural_hash=shash,
                trace=trace,
            )
            self.trials.append(record)
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

    def rejection(
        self, task: str, sketch: str, generation: int, stage: str, code: str
    ) -> None:
        """Record one candidate rejected before measuring."""
        row = Rejection(time.perf_counter(), task, sketch, generation, stage, code)
        with self._lock:
            self.rejections.append(row)

    def adopt(self, trials: List[TrialRecord], rejections: List[Rejection]) -> None:
        """Append the rows of another recorder — one search of a session,
        perhaps in a worker process — renumbering their trial ids and
        mutation parents onto this recorder's sequence."""
        with self._lock:
            ids = {}
            for row in trials:
                ids[row.trial_id] = next(self._ids)
                parent = None if row.parent is None else ids[row.parent]
                self.trials.append(
                    dataclasses.replace(row, trial_id=ids[row.trial_id], parent=parent)
                )
            self.rejections.extend(rejections)

    # -- the artifact ----------------------------------------------------
    def recording(self) -> dict:
        """The recorded rows as one JSON-ready document."""
        with self._lock:
            trials = [t.to_json() for t in self.trials]
            rejections = [dataclasses.asdict(r) for r in self.rejections]
        return {
            "schema": SCHEMA,
            "created_unix": self.created_unix,
            "clock_anchor": self.created_clock,
            "trials": trials,
            "rejections": rejections,
        }

    def save(self, path: str, telemetry=None) -> dict:
        """Write the recording atomically, with the spans of
        ``telemetry`` when given; returns the document written."""
        doc = self.recording()
        if telemetry is not None:
            doc["telemetry"] = telemetry.report()
        atomic_write(path, json.dumps(doc, indent=1, sort_keys=True))
        return doc


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
