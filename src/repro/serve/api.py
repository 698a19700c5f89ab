"""Request/response types and configuration for the schedule server.

The serve surface is deliberately small and typed: a
:class:`CompileRequest` names one ``PrimFunc`` workload, a
:class:`CompileResponse` carries the served program (plus provenance:
hit, miss, or coalesced-behind-a-miss), and :class:`ServeConfig`
bundles every knob a long-lived :class:`~repro.serve.server.ScheduleServer`
needs — the persistent database location, the tuning config used on
cache misses, and the miss-coalescing window.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from ..frontend.shapes import BucketSpec
from ..meta.config import TuneConfig
from ..tir import PrimFunc

__all__ = ["ServeConfig", "CompileRequest", "CompileResponse", "ServerStats"]


@dataclass(frozen=True)
class ServeConfig:
    """Settings for one :class:`~repro.serve.server.ScheduleServer`.

    * ``db_path`` — root directory of the persistent on-disk database
      (:class:`~repro.meta.database.PersistentDatabase`).  ``None`` runs
      on an in-memory :class:`~repro.meta.database.TuningDatabase` —
      useful for tests; restarts then start cold.
    * ``tune`` — the :class:`~repro.meta.TuneConfig` every cache-miss
      tuning session runs with.
    * ``batch_window_seconds`` — how long the miss worker waits after
      the first queued miss for more misses to share the session (the
      amortize-across-tenants knob; a batch holds at most
      ``repro.serve.server.MAX_BATCH`` distinct workloads).
    * ``compile_programs`` — attach a runtime-compiled callable to every
      response (off for pure schedule-serving).
    * ``buckets`` — a :class:`~repro.frontend.shapes.BucketSpec` enabling
      shape-generic serving: requests whose dynamic dims fall in a
      declared bucket are answered from the bucket representative's
      record (adaptive §5.2 replay) before any exact lookup, and
      in-bucket misses coalesce into one tuning run at the
      representative shape.  ``None`` keeps exact-shape serving.
    """

    db_path: Optional[str] = None
    tune: TuneConfig = field(default_factory=lambda: TuneConfig(trials=16))
    batch_window_seconds: float = 0.02
    compile_programs: bool = True
    buckets: Optional[BucketSpec] = None

    def with_(self, **changes) -> "ServeConfig":
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class CompileRequest:
    """One compile/tune request as queued inside the server.

    ``request_id`` is the request-scoped trace id (``"req-000042"``):
    it stamps the request's telemetry spans, so
    ``telemetry.span_tree(request_id)`` recovers the full serve →
    session → search trace for any response.
    """

    request_id: str
    func: PrimFunc
    key: str  # workload_key(func, target)
    submitted_at: float
    #: the bucket representative's workload key when the server runs
    #: with ``ServeConfig.buckets`` and this request's shape maps to a
    #: different representative — ``None`` for exact-shape requests.
    bucket_key: Optional[str] = None


@dataclass
class CompileResponse:
    """The served result for one request.

    ``source`` is the serving path taken: ``"hit"`` (answered from the
    database with zero search), ``"bucket-hit"`` (no record at this
    exact shape, but the shape-bucket representative's record replayed
    adaptively — still zero search), ``"miss"`` (this request triggered
    the tuning run) or ``"coalesced"`` (this request arrived while the
    same workload — or another shape in its bucket — was already
    queued/tuning and shared that run).  ``trials`` is the number of
    candidates measured *to serve this request* — by contract 0 for
    hits, bucket-hits and every coalesced waiter beyond the first.

    ``request_id`` is the request-scoped trace id minted at submit time;
    feed it to ``server.telemetry.span_tree(...)`` (or the Chrome-trace
    exporter, which carries it per span) to see where this response's
    latency went.
    """

    request_id: str
    key: str
    source: str  # "hit" | "bucket-hit" | "miss" | "coalesced"
    func: PrimFunc  # the scheduled (best) program
    script: str  # printed program text — the byte-identity unit
    cycles: float
    sketch: str
    trials: int
    wait_seconds: float
    compiled: Optional[object] = None  # runtime.CompiledFunc when requested

    def __call__(self, *args, **kwargs):
        if self.compiled is None:
            raise RuntimeError(
                "response carries no compiled function "
                "(ServeConfig.compile_programs=False)"
            )
        return self.compiled(*args, **kwargs)


@dataclass
class ServerStats:
    """A point-in-time snapshot of one server's request accounting.

    The request-side counts live here only; response latencies live in
    the server's ``serve_latency_seconds{outcome}`` histograms, whose
    ``count`` is the number of responses per outcome.
    """

    requests: int = 0
    hits: int = 0
    misses: int = 0
    coalesced: int = 0
    tune_runs: int = 0
    tuned_workloads: int = 0
    failures: int = 0
    #: requests served from a bucket representative's record (adaptive
    #: replay at an unseen in-bucket shape, zero search).
    bucket_hits: int = 0
    #: bucket replays that proved infeasible at the concrete shape and
    #: fell back to an exact lookup or a fresh tune (TIR702).
    replay_fallbacks: int = 0

    @property
    def hit_rate(self) -> float:
        """Zero-search serves (exact + bucket) per request."""
        if not self.requests:
            return 0.0
        return (self.hits + self.bucket_hits) / self.requests

    @property
    def coalesce_factor(self) -> float:
        """Workloads tuned per miss-side request — how many tenants one
        tuning run served.  1.0 means no sharing happened."""
        miss_side = self.misses + self.coalesced
        return miss_side / self.tuned_workloads if self.tuned_workloads else 0.0

    def to_json(self) -> dict:
        return {
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "tune_runs": self.tune_runs,
            "tuned_workloads": self.tuned_workloads,
            "failures": self.failures,
            "bucket_hits": self.bucket_hits,
            "replay_fallbacks": self.replay_fallbacks,
            "hit_rate": round(self.hit_rate, 4),
            "coalesce_factor": round(self.coalesce_factor, 4),
        }
