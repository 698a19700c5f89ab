"""Tuning configuration shared by the whole §4 search stack.

``TuneConfig`` replaces the kwarg lists that used to grow on ``tune``
and ``evolutionary_search``; the same object parameterises a
:class:`~repro.meta.session.TuningSession`, so one config describes a
search whether it runs on one operator or an entire network.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .sketch import Sketch

__all__ = ["TuneConfig"]


@dataclass(frozen=True)
class TuneConfig:
    """Search-budget and search-space settings for one tuning run.

    * ``trials`` — measured-candidate budget per workload (a session may
      override it per task when given a total budget to allocate).
    * ``seed`` — RNG seed; identical (workload, config) pairs reproduce
      identical searches regardless of scheduling order.
    * ``allow_tensorize`` — switch auto-tensorization off to get the
      Ansor/TVM baseline configuration.
    * ``sketches`` — explicit sketch list; ``None`` generates the
      applicable sketches (§4.3).
    * ``validate`` — reject invalid mutants before measuring (§3.3).
    * ``population`` / ``generations`` — evolutionary-search shape.

    There is no parallelism setting: one search builds its candidates
    inline, and a :class:`~repro.meta.session.TuningSession` spreads its
    distinct searches over worker processes by itself, with results
    identical at every width.
    """

    trials: int = 32
    seed: int = 0
    allow_tensorize: bool = True
    sketches: Optional[Sequence["Sketch"]] = None
    validate: bool = True
    population: int = 8
    generations: Optional[int] = None

    def with_(self, **changes) -> "TuneConfig":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def field_names(cls) -> tuple:
        return tuple(f.name for f in dataclasses.fields(cls))
