"""The flight recorder: one row per candidate, and the run artifact.

A :class:`Recorder` handed to ``tune`` / ``evolutionary_search`` /
``fallback_tune`` / ``TuningSession`` keeps two lists:

* ``trials`` — one :class:`TrialRecord` per candidate that reached the
  measurer: workload key, sketch token, generation index, mutation
  lineage (parent trial id), the decision vector and the program's
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

:func:`replay_trial` is the other half of the contract: a trial row is
stored as a database record is, as a sketch and its decisions, and
:func:`replay_trial` rebuilds it the way
:meth:`~repro.meta.database.Database.replay_entry` does (§5.2) and
checks that the program hashes to the recorded value.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

from ..fileio import atomic_write

__all__ = ["Recorder", "TrialRecord", "Rejection", "replay_trial", "load_recording"]

#: artifact schema identifier (bump on breaking changes to the layout).
SCHEMA = "repro.obs/3"


@dataclass
class TrialRecord:
    """Provenance of one candidate that reached the measurer.

    ``ts`` is when it was recorded (``time.perf_counter``, the telemetry
    clock).  ``rejection`` is the diagnostic code when the measurer
    itself killed the candidate (``TIR501`` — the analytical model could
    not cost it); otherwise ``predicted``/``cycles``/``seconds`` hold the
    scored and measured cost.  ``sketch`` (a :meth:`Sketch.token
    <repro.meta.sketch.Sketch.token>`) and ``decisions`` are the
    program: :func:`replay_trial` rebuilds it from them at the base
    workload, and its ``structural_hash`` equals the recorded one.
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
    ) -> TrialRecord:
        """Ledger one measured (or measurer-rejected) candidate;
        ``func`` is its scheduled program, kept only as its
        ``structural_hash``."""
        from ..tir import structural_hash

        shash = None if func is None else structural_hash(func)
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
            )
            self.trials.append(record)
        return record

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
    """Rebuild a trial's program from its sketch token and decisions.

    ``record`` is a :class:`TrialRecord` or its JSON dict.  The rebuild
    is :func:`~repro.meta.sketch.replay_sketch`, the one
    :meth:`~repro.meta.database.Database.replay_entry` makes.  Returns
    the rebuilt :class:`~repro.tir.function.PrimFunc`; raises
    ``ValueError`` when the token names no sketch, the decisions no
    longer fit it, or the rebuilt program's ``structural_hash`` does not
    match the recorded one.  The hash is stable across processes that
    share ``PYTHONHASHSEED``.
    """
    from ..meta.sketch import replay_sketch
    from ..schedule import ScheduleError
    from ..tir import structural_hash

    if isinstance(record, TrialRecord):
        record = record.to_json()
    where = f"trial {record.get('trial_id')}"
    token = record["sketch"]
    try:
        sch = replay_sketch(base_func, token, record["decisions"])
    except ScheduleError as err:
        raise ValueError(f"{where}: decisions do not fit sketch {token}: {err}") from err
    if sch is None:
        raise ValueError(f"{where}: unknown sketch token {token!r}")
    rebuilt_hash = structural_hash(sch.func)
    expected = record.get("structural_hash")
    if expected is not None and rebuilt_hash != expected:
        raise ValueError(
            f"{where}: replayed program hash {rebuilt_hash} != recorded {expected}"
        )
    return sch.func
