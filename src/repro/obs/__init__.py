"""``repro.obs`` — the tuning flight recorder.

A structured tracing layer threaded through the whole tuning stack
(§Table 1 of the paper is a tuning-*time* result; explaining one
requires knowing where every second and every rejected candidate went):

* **Hierarchical spans** — :class:`~repro.meta.telemetry.Telemetry`
  spans carry ids and parent links
  (``session → task → generation → validate/measure/model-update``),
  nested through a per-thread span stack: a session searches on the
  thread that opened its span.  The flat ``stage_seconds()`` view
  counts leaf spans only.
* **Typed events** — a bounded, thread-safe
  :class:`~repro.obs.events.EventStream` (:class:`TrialEvent`,
  :class:`Rejection`, :class:`BestImproved`, :class:`GenerationEnd`,
  :class:`ModelUpdate`, :class:`CacheEvent`) with an optional JSONL
  sink, so long sessions never grow memory unboundedly.
* **Per-trial provenance** — every candidate that reaches the measurer
  gets a :class:`~repro.obs.record.TrialRecord` (workload key, sketch,
  generation, mutation lineage, decision vector, serialized schedule
  trace, structural hash): any recorded best program can be re-derived
  by :func:`replay_trial`.
* **Exporters + CLI** — ``python -m repro.obs`` summarizes a recording,
  exports a Chrome-trace/Perfetto timeline (optionally narrowed to one
  serving request's span tree), diffs two runs, and digests a
  serving-metrics snapshot (``serve-report``, ``--prom`` for Prometheus
  text exposition).
* **Serving metrics** — :mod:`repro.obs.metrics`: a typed, thread-safe
  Counter/Gauge/Histogram registry with labeled families,
  ``snapshot()``/``delta_since()`` and zero-dep Prometheus exposition,
  owned by the schedule server and bound by its persistent database.

Each count has one store.  Spans live in Telemetry, per-search counts
in :class:`~repro.meta.search.SearchStats`, cache activity in
:mod:`repro.cache`, and request counts in the server's ``stats()`` and
latency histograms; the recorder and the registry keep no copies.

Switch it on through the tune config::

    cfg = TuneConfig(trials=32, obs=ObsConfig(enabled=True, sink_path="run.jsonl"))
    session = TuningSession(SimGPU(), cfg)
    session.add(ops.matmul(512, 512, 512))
    report = session.run()
    session.recorder.save("run.json")          # the flight recording
    # then: python -m repro.obs summarize run.json
"""

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
    event_to_json,
)
from .export import chrome_trace, diff_recordings, serve_report, summarize
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)
from .record import Recorder, TrialRecord, load_recording, replay_trial

__all__ = [
    "ObsConfig",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "render_prometheus",
    "serve_report",
    "Recorder",
    "TrialRecord",
    "EventStream",
    "JsonlSink",
    "TrialEvent",
    "Rejection",
    "BestImproved",
    "GenerationEnd",
    "ModelUpdate",
    "CacheEvent",
    "event_to_json",
    "chrome_trace",
    "summarize",
    "diff_recordings",
    "load_recording",
    "replay_trial",
]
