"""Observability configuration.

``ObsConfig`` is the single switch for the flight recorder: it rides on
:class:`~repro.meta.config.TuneConfig` (``TuneConfig(obs=ObsConfig(...))``)
and is consumed by a :class:`~repro.obs.record.Recorder`.  The default
is **off** — with ``enabled=False`` every recorder call is a no-op and
the search hot path pays only a handful of predicate checks.
Recording never changes what a search finds
(``tests/obs/test_recorder.py``); EXPERIMENTS.md keeps the dated
overhead measurement.

This module imports only the standard library so configuration can be
constructed anywhere without pulling the compiler stack.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["ObsConfig"]


@dataclass(frozen=True)
class ObsConfig:
    """Flight-recorder settings for one tuning run.

    * ``enabled`` — master switch; off by default.
    * ``sink_path`` — append events as JSON lines to this file while the
      run progresses, so long sessions don't grow memory unboundedly
      (the in-memory stream stays bounded by ``max_events`` either way).
    * ``max_events`` — capacity of the in-memory event ring; the oldest
      events are dropped (and counted) once it fills.
    * ``sample_rate`` — fraction of *high-volume* events (per-candidate
      rejections) kept, applied deterministically by count so identical
      runs record identical event streams.  Trials, generation marks,
      best-improvements and cache events are never sampled out.
    * ``record_traces`` — serialize the schedule trace of every measured
      trial (the replayable provenance).  Costs one extra candidate
      build per *measured* trial; disable to trade replayability for
      overhead.
    * ``on_generation`` / ``on_best_improved`` — live progress callbacks
      for driving scripts; called synchronously with a JSON-ready dict.
      Callbacks are excluded from serialized form.
    """

    enabled: bool = False
    sink_path: Optional[str] = None
    max_events: int = 65536
    sample_rate: float = 1.0
    record_traces: bool = True
    on_generation: Optional[Callable[[dict], None]] = None
    on_best_improved: Optional[Callable[[dict], None]] = None

    def with_(self, **changes) -> "ObsConfig":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def to_json(self) -> dict:
        """JSON-ready form (callbacks omitted — they don't serialize)."""
        return {
            "enabled": self.enabled,
            "sink_path": self.sink_path,
            "max_events": self.max_events,
            "sample_rate": self.sample_rate,
            "record_traces": self.record_traces,
        }
