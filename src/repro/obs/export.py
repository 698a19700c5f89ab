"""Exporters over a saved flight recording.

* :func:`chrome_trace` — the telemetry span hierarchy + the recorded
  rows as a Chrome-trace/Perfetto JSON timeline (``traceEvents`` with
  complete ``ph: "X"`` slices per span, ``ph: "i"`` instants per trial,
  rejection and best-cost improvement, and thread-name metadata).  Load
  it at ``ui.perfetto.dev`` or ``chrome://tracing``.
* :func:`summarize` — a per-stage / per-task text table: where the
  seconds went, what was rejected and why, the best program per task.
* :func:`diff_recordings` — two runs side by side: stage seconds,
  rejection mix, and the best-cost curve, so a tuning-time regression
  can be localized without re-running anything.

All three consume the plain-dict artifact written by
:meth:`~repro.obs.record.Recorder.save`, and derive what the artifact
does not store from its two row lists: the rejection mix from the
rejection rows plus the trial rows that carry a code, the best-cost
curve as the running minimum of trial cycles per task in trial-id
order.  The exporters read plain dicts with the standard library alone,
but importing this module imports the ``repro`` package, and with it
the compiler stack and numpy: post-mortem analysis needs the package,
not a tuning run.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from .metrics import quantile

__all__ = ["chrome_trace", "summarize", "diff_recordings", "serve_report"]


def _spans(recording: dict) -> List[dict]:
    return recording.get("telemetry", {}).get("spans", [])


def _request_tree(spans: List[dict], request: str) -> List[dict]:
    """The span tree of one serving request: spans stamped with the
    request id, closed over ``parent_id`` links — the exporter-side
    mirror of :meth:`repro.meta.telemetry.Telemetry.span_tree`."""
    keep = {s.get("span_id") for s in spans if s.get("request") == request}
    grew = bool(keep)
    while grew:
        grew = False
        for s in spans:
            parent = s.get("parent_id")
            if s.get("span_id") not in keep and parent is not None and parent in keep:
                keep.add(s.get("span_id"))
                grew = True
    return [s for s in spans if s.get("span_id") in keep]


def _leaf_spans(recording: dict) -> List[dict]:
    """Spans with no recorded children — the same leaf-only rule
    :meth:`repro.meta.telemetry.Telemetry.stage_seconds` uses, so
    summed seconds track wall time instead of double-counting the
    ``session``/``task``/``generation`` containers."""
    spans = _spans(recording)
    parents = {s.get("parent_id") for s in spans if s.get("parent_id") is not None}
    return [s for s in spans if s.get("span_id") not in parents]


def _improvements(recording: dict) -> List[dict]:
    """The trial rows that lowered their task's best cycles, in trial-id
    order — the best-cost curve, derived from the ledger."""
    best: Dict[str, float] = {}
    out: List[dict] = []
    for trial in sorted(recording.get("trials", []), key=lambda t: t["trial_id"]):
        cycles, task = trial.get("cycles"), trial.get("task", "?")
        if cycles is not None and (task not in best or cycles < best[task]):
            best[task] = cycles
            out.append(trial)
    return out


def _base_ts(recording: dict) -> float:
    rows = recording.get("trials", []) + recording.get("rejections", [])
    candidates = [s["start"] for s in _spans(recording)] + [r["ts"] for r in rows]
    anchor = recording.get("clock_anchor")
    if anchor is not None:
        candidates.append(anchor)
    return min(candidates) if candidates else 0.0


def chrome_trace(recording: dict, request: Optional[str] = None) -> dict:
    """Convert a recording to Chrome-trace JSON (Perfetto-loadable).

    Timestamps are microseconds relative to the earliest span/row.
    Each telemetry thread becomes a ``tid`` (named via ``thread_name``
    metadata); spans carry their ``span_id``/``parent_id``/``task`` —
    and, for serving spans, the ``request`` id — in ``args`` so the
    hierarchy survives into the UI and a request's span tree
    round-trips through the export.  ``request`` narrows the timeline
    to one serving request's span tree (rows are dropped).
    """
    base = _base_ts(recording)
    tids: Dict[str, int] = {}
    trace_events: List[dict] = []

    def tid_of(thread: str) -> int:
        if thread not in tids:
            tids[thread] = len(tids) + 1
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tids[thread],
                    "args": {"name": thread},
                }
            )
        return tids[thread]

    spans = _spans(recording)
    if request is not None:
        spans = _request_tree(spans, request)
    for span in spans:
        trace_events.append(
            {
                "name": span["stage"],
                "cat": "span",
                "ph": "X",
                "ts": round((span["start"] - base) * 1e6, 3),
                "dur": round(span["duration"] * 1e6, 3),
                "pid": 1,
                "tid": tid_of(span.get("thread", "main")),
                "args": {
                    "task": span.get("task"),
                    "span_id": span.get("span_id"),
                    "parent_id": span.get("parent_id"),
                    "request": span.get("request"),
                },
            }
        )
    instants = [] if request is not None else (
        [("trial", t) for t in recording.get("trials", [])]
        + [("rejection", r) for r in recording.get("rejections", [])]
        + [("best-improved", t) for t in _improvements(recording)]
    )
    for name, row in instants:
        trace_events.append(
            {
                "name": name,
                "cat": "row",
                "ph": "i",
                "s": "p",  # process-scoped instant
                "ts": round((row["ts"] - base) * 1e6, 3),
                "pid": 1,
                "tid": tid_of("rows"),
                "args": {k: v for k, v in row.items() if k != "ts"},
            }
        )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": recording.get("schema"),
            "created_unix": recording.get("created_unix"),
        },
    }


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------


def _table(rows: List[List[str]], header: List[str]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return "\n".join(lines)


def _rejection_mix(recording: dict) -> Dict[str, int]:
    """Per-code rejection counts: every rejection row plus every trial
    row the measurer refused — one row per candidate, so the mix is
    exact."""
    codes = [r["code"] for r in recording.get("rejections", [])]
    codes += [t["rejection"] for t in recording.get("trials", []) if t.get("rejection")]
    return dict(Counter(codes))


def _best_by_task(recording: dict) -> Dict[str, float]:
    # Improvements are strictly decreasing per task: the last one wins.
    return {t.get("task", "?"): t["cycles"] for t in _improvements(recording)}


def summarize(recording: dict) -> str:
    """A human-readable digest of one recording."""
    telemetry = recording.get("telemetry", {})
    out: List[str] = []
    out.append(f"flight recording ({recording.get('schema', '?')})")
    trials = recording.get("trials", [])
    measured = [t for t in trials if t.get("cycles") is not None]
    out.append(
        f"trials: {len(trials)} recorded, {len(measured)} measured; "
        f"rejections before measuring: {len(recording.get('rejections', []))}"
    )

    stage_seconds = telemetry.get("stage_seconds", {})
    if stage_seconds:
        total = sum(stage_seconds.values()) or 1.0
        rows = [
            [stage, f"{seconds:.4f}", f"{100 * seconds / total:.1f}%"]
            for stage, seconds in sorted(
                stage_seconds.items(), key=lambda kv: -kv[1]
            )
        ]
        out.append("")
        out.append(_table(rows, ["stage", "seconds", "share"]))

    tasks: Dict[str, Dict[str, float]] = {}
    for span in _leaf_spans(recording):
        task = span.get("task")
        if task is None:
            continue
        tasks.setdefault(task, {"seconds": 0.0})
        tasks[task]["seconds"] += span["duration"]
    best = _best_by_task(recording)
    trials_per_task: Dict[str, int] = {}
    for t in measured:
        trials_per_task[t["task"]] = trials_per_task.get(t["task"], 0) + 1
    if tasks or best:
        rows = []
        for task in sorted(set(tasks) | set(best)):
            rows.append(
                [
                    task,
                    f"{tasks.get(task, {}).get('seconds', 0.0):.4f}",
                    str(trials_per_task.get(task, 0)),
                    f"{best[task]:.0f}" if task in best else "-",
                ]
            )
        out.append("")
        out.append(_table(rows, ["task", "span-seconds", "measured", "best-cycles"]))

    mix = _rejection_mix(recording)
    if mix:
        total_rej = sum(mix.values()) or 1
        rows = [
            [code, str(count), f"{100 * count / total_rej:.1f}%"]
            for code, count in sorted(mix.items(), key=lambda kv: (-kv[1], kv[0]))
        ]
        out.append("")
        out.append(_table(rows, ["rejection", "count", "share"]))
    return "\n".join(out)


# ---------------------------------------------------------------------------
# serving metrics
# ---------------------------------------------------------------------------


def _fmt_seconds(value: Optional[float]) -> str:
    return f"{value:.6f}" if value is not None else "-"


def serve_report(snapshot: dict) -> str:
    """A human-readable digest of one serving-metrics snapshot
    (:meth:`repro.obs.metrics.MetricsRegistry.snapshot`/``save``): one
    count / mean / p50 / p95 / p99 row per histogram series — exact
    quantiles of the rolling window of raw observations, by the rule
    ``ScheduleServer.health()`` uses.
    """
    rows: List[List[str]] = []
    for name, family in sorted(snapshot.get("metrics", {}).items()):
        for key, value in sorted(family.get("series", {}).items()):
            count = int(value.get("count", 0))
            mean = float(value.get("sum", 0.0)) / count if count else None
            window = value.get("window", [])
            rows.append(
                [f"{name}{{{key}}}" if key else name, str(count), _fmt_seconds(mean)]
                + [_fmt_seconds(quantile(window, q)) for q in (0.50, 0.95, 0.99)]
            )
    out = [f"serving metrics ({snapshot.get('namespace', 'repro')})"]
    if rows:
        out += ["", _table(rows, ["histogram", "count", "mean", "p50", "p95", "p99"])]
    else:
        out.append("no metrics recorded")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------


def _best_curve(recording: dict, task: str) -> List[float]:
    """``task``'s best-cost curve: its best cycles after each improvement."""
    return [t["cycles"] for t in _improvements(recording) if t.get("task") == task]


def diff_recordings(a: dict, b: dict, label_a: str = "A", label_b: str = "B") -> str:
    """Compare two recordings: stage seconds, rejection mix, best cost."""
    out: List[str] = [f"diff: {label_a} vs {label_b}"]

    sa = a.get("telemetry", {}).get("stage_seconds", {})
    sb = b.get("telemetry", {}).get("stage_seconds", {})
    rows = []
    for stage in sorted(set(sa) | set(sb)):
        va, vb = sa.get(stage, 0.0), sb.get(stage, 0.0)
        delta = vb - va
        pct = f"{100 * delta / va:+.1f}%" if va else "new"
        rows.append([stage, f"{va:.4f}", f"{vb:.4f}", f"{delta:+.4f}", pct])
    if rows:
        out.append("")
        out.append(_table(rows, ["stage", label_a, label_b, "delta", "pct"]))

    ma, mb = _rejection_mix(a), _rejection_mix(b)
    rows = []
    for code in sorted(set(ma) | set(mb)):
        rows.append(
            [code, str(ma.get(code, 0)), str(mb.get(code, 0)),
             f"{mb.get(code, 0) - ma.get(code, 0):+d}"]
        )
    if rows:
        out.append("")
        out.append(_table(rows, ["rejection", label_a, label_b, "delta"]))

    besta, bestb = _best_by_task(a), _best_by_task(b)
    rows = []
    for task in sorted(set(besta) | set(bestb)):
        va, vb = besta.get(task), bestb.get(task)
        if va is not None and vb is not None:
            verdict = "same" if va == vb else ("better" if vb < va else "worse")
        else:
            verdict = "only-" + (label_a if va is not None else label_b)
        rows.append(
            [
                task,
                f"{va:.0f}" if va is not None else "-",
                f"{vb:.0f}" if vb is not None else "-",
                f"{len(_best_curve(a, task))}/{len(_best_curve(b, task))}",
                verdict,
            ]
        )
    if rows:
        out.append("")
        out.append(
            _table(rows, ["task", f"best({label_a})", f"best({label_b})",
                          "improvements", "verdict"])
        )
    return "\n".join(out)
