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
from typing import Optional

__all__ = ["ObsConfig"]


@dataclass(frozen=True)
class ObsConfig:
    """Flight-recorder settings for one tuning run.

    * ``enabled`` — master switch; off by default.  When on, every event
      is kept (the in-memory ring holds the newest
      :data:`~repro.obs.events.MAX_EVENTS`) and every measured trial
      gets its replayable schedule trace.
    * ``sink_path`` — append events as JSON lines to this file while the
      run progresses, so long sessions keep every event on disk while
      memory stays bounded.
    """

    enabled: bool = False
    sink_path: Optional[str] = None

    def with_(self, **changes) -> "ObsConfig":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def to_json(self) -> dict:
        """JSON-ready form."""
        return dataclasses.asdict(self)
