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
* **One row per candidate** — a :class:`~repro.obs.record.Recorder`
  keeps a :class:`~repro.obs.record.TrialRecord` for every candidate
  that reached the measurer (workload key, sketch, generation, mutation
  lineage, decision vector, serialized schedule trace, structural hash
  — or the measurer's rejection code), so any recorded program can be
  re-derived by :func:`replay_trial`, and a
  :class:`~repro.obs.record.Rejection` for every candidate rejected
  before that point.
* **Exporters + CLI** — ``python -m repro.obs`` summarizes a recording,
  exports a Chrome-trace/Perfetto timeline (optionally narrowed to one
  serving request's span tree), diffs two runs, and digests a
  serving-metrics snapshot (``serve-report``, ``--prom`` for Prometheus
  text exposition).
* **Serving metrics** — :mod:`repro.obs.metrics`: the schedule
  server's two latency histograms (``serve_latency_seconds{outcome}``
  and ``serve_queue_wait_seconds``) with bucket counts, a rolling
  window for exact quantiles, a ``snapshot()``/``save()`` document and
  zero-dep Prometheus exposition.

Each count has one store.  Spans live in Telemetry, per-search counts
in :class:`~repro.meta.search.SearchStats`, cache activity in
:mod:`repro.cache`, request counts in the server's ``stats()`` and
responses in its latency histograms; the recorder and the histograms
keep no copies, and the exporters derive the best-cost curve from the
trial rows.

Record by handing a recorder to the run; no recorder means no
recording::

    session = TuningSession(SimGPU(), TuneConfig(trials=32), recorder=Recorder())
    session.add(ops.matmul(512, 512, 512))
    report = session.run()
    session.save_recording("run.json")         # rows + the session's spans
    # then: python -m repro.obs summarize run.json
"""

from .export import chrome_trace, diff_recordings, serve_report, summarize
from .metrics import Histogram, MetricsRegistry, render_prometheus
from .record import Recorder, Rejection, TrialRecord, load_recording, replay_trial

__all__ = [
    "MetricsRegistry",
    "Histogram",
    "render_prometheus",
    "serve_report",
    "Recorder",
    "TrialRecord",
    "Rejection",
    "chrome_trace",
    "summarize",
    "diff_recordings",
    "load_recording",
    "replay_trial",
]
