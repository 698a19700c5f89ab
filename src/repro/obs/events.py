"""Typed events and the bounded, thread-safe event stream.

The flight recorder observes the search loop through a small set of
typed events rather than log lines, so exporters and diffs can work on
a schema instead of parsing text:

* :class:`TrialEvent` — one measured candidate (the event-stream face of
  a :class:`~repro.obs.record.TrialRecord`).
* :class:`Rejection` — one candidate killed before measurement, with its
  diagnostic code.  Every one is kept, so a recording's per-code mix is
  exact unless the bounded ring dropped events (counted).
* :class:`BestImproved` — the best-cost curve, one point per improvement.
* :class:`GenerationEnd` — one evolutionary generation completed.
* :class:`ModelUpdate` — the cost model refit on new measurements.
* :class:`CacheEvent` — memoization activity over a run window.

Every event carries ``ts`` on the telemetry clock
(``time.perf_counter``), so exported timelines interleave events with
spans on one time axis.  :class:`EventStream` is a bounded ring: once
:data:`MAX_EVENTS` are held the oldest in-memory events are dropped
(and counted), while an attached :class:`JsonlSink` has already
streamed every event to disk — long sessions never grow memory
unboundedly.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from collections import deque
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional

__all__ = [
    "BestImproved",
    "CacheEvent",
    "EventStream",
    "GenerationEnd",
    "JsonlSink",
    "ModelUpdate",
    "Rejection",
    "TrialEvent",
    "event_to_json",
]


@dataclass
class TrialEvent:
    """One candidate measured on the (simulated) hardware."""

    kind: ClassVar[str] = "trial"
    ts: float
    task: str
    sketch: str
    generation: int
    trial_id: int
    predicted: Optional[float]
    cycles: float
    seconds: float
    bound: str


@dataclass
class Rejection:
    """One candidate rejected before measurement.

    ``stage`` is where it died — ``"apply"`` (a primitive precondition),
    ``"invalid"`` (the §3.3 validation battery) or ``"estimate"`` (the
    analytical model could not cost it) — and ``code`` the diagnostic
    error code (``TIRnnn``)."""

    kind: ClassVar[str] = "rejection"
    ts: float
    task: str
    sketch: str
    generation: int
    stage: str
    code: str


@dataclass
class BestImproved:
    """The incumbent best program was beaten."""

    kind: ClassVar[str] = "best-improved"
    ts: float
    task: str
    trial_id: int
    cycles: float
    previous: Optional[float]


@dataclass
class GenerationEnd:
    """One evolutionary generation finished (the live-progress beat)."""

    kind: ClassVar[str] = "generation"
    ts: float
    task: str
    sketch: str
    index: int
    pool: int
    measured: int
    best_cycles: Optional[float]


@dataclass
class ModelUpdate:
    """The learned cost model absorbed a measurement batch."""

    kind: ClassVar[str] = "model-update"
    ts: float
    samples: int
    trained: bool


@dataclass
class CacheEvent:
    """Memoization activity of one named cache over a run window."""

    kind: ClassVar[str] = "cache"
    ts: float
    name: str
    hits: int
    misses: int
    evictions: int = 0


def event_to_json(event) -> dict:
    """``{"kind": ..., <fields>}`` — the JSONL/artifact wire form."""
    out = {"kind": event.kind}
    out.update(dataclasses.asdict(event))
    return out


class JsonlSink:
    """Append-only JSON-lines writer, safe to share across threads.

    The file is opened lazily on the first write and re-opened (append)
    after :meth:`close`, so one sink can span several ``run()`` calls.
    Lines are ``json.dumps(..., sort_keys=True)`` — stable for diffing.
    """

    def __init__(self, path: str):
        self.path = path
        self.lines_written = 0
        self._lock = threading.Lock()
        self._fh = None

    def write(self, obj: dict) -> None:
        line = json.dumps(obj, sort_keys=True)
        with self._lock:
            if self._fh is None:
                self._fh = open(self.path, "a")
            self._fh.write(line + "\n")
            self.lines_written += 1

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: capacity of a recorder's in-memory event ring.
MAX_EVENTS = 65536


class EventStream:
    """Bounded, thread-safe event collector with optional JSONL sink."""

    def __init__(self, max_events: int = MAX_EVENTS, sink: Optional[JsonlSink] = None):
        self.sink = sink
        self.emitted = 0       # events offered
        self.dropped = 0       # evicted from the bounded in-memory ring
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=max_events)

    def emit(self, event) -> None:
        """Record one event."""
        with self._lock:
            self.emitted += 1
            obj = event_to_json(event)
            if len(self._events) == self._events.maxlen:
                self.dropped += 1
            self._events.append(obj)
        # The sink has its own lock; writing outside ours keeps emitters
        # from serializing on file I/O ordering (JSONL lines are
        # self-contained, so interleaving across threads is fine).
        if self.sink is not None:
            self.sink.write(obj)

    def events(self, kind: Optional[str] = None) -> List[dict]:
        """A snapshot of the in-memory events (oldest first)."""
        with self._lock:
            out = list(self._events)
        if kind is not None:
            out = [e for e in out if e.get("kind") == kind]
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "emitted": self.emitted,
                "kept": len(self._events),
                "dropped": self.dropped,
            }
