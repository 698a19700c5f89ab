"""``repro.obs.metrics`` — the serving latency histograms.

The schedule server keeps two measurements of its own:
``serve_latency_seconds{outcome}`` (one observation per response) and
``serve_queue_wait_seconds`` (one per tuned miss, from submit to
adoption by a tuning batch).  Both are a :class:`Histogram`: fixed
log-spaced bucket counts, sum and count, plus a bounded **rolling
window** of the last :data:`DEFAULT_WINDOW` raw observations for exact
recent quantiles.  Every quantile reported anywhere (``health()``,
``serve-report``) is :func:`quantile` over such a window.

A :class:`MetricsRegistry` holds named histogram families, each with
zero or more label dimensions (``registry.histogram(name,
labels=("outcome",)).labels(outcome="hit").observe(s)``).  Reading is
uniform: ``registry.snapshot()`` returns one JSON-ready dict, ``save()``
writes it atomically, and :func:`render_prometheus` (also
``registry.prometheus_text()``) gives the standard text exposition —
so the ``serve-report`` CLI, dashboards and the benchmark share one
data shape.

Every histogram updates its state under its own lock: an observation
is never lost and never half-applied, and a reader always sees the
buckets, sum, count and window agree.

Counts kept elsewhere are read there, never copied in: requests and
failures in the server's ``stats()``, cache activity in
:mod:`repro.cache`, per-search counts in ``SearchStats``, recovered
database lines in ``PersistentDatabase.diagnostics``.
"""

from __future__ import annotations

import json
import math
import threading
import time
from bisect import bisect_left
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from ..fileio import atomic_write

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_WINDOW",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "quantile",
    "render_prometheus",
]

#: the metric-name prefix of every exposition.
NAMESPACE = "repro"

#: fixed latency bucket upper bounds (seconds): log-spaced from 10 µs to
#: 10 s — wide enough for microsecond-class warm hits and multi-second
#: cache-miss tuning runs on one axis.  ``inf`` is implicit.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1, 1.0, 2.5, 5.0, 10.0,
)

#: rolling-window capacity (raw recent observations kept for exact
#: quantiles; the bucket counts keep the full distribution).
DEFAULT_WINDOW = 512


class Histogram:
    """Fixed-bucket distribution + bounded rolling window.

    ``bucket_counts`` are per bucket: the count for bound ``b`` is the
    number of observations in ``(previous bound, b]``, so a value equal
    to a bound lands in that bound's bucket (Prometheus ``le``); values
    past the last bound are counted only in ``count``.  The window keeps
    the last :data:`DEFAULT_WINDOW` raw observations in arrival order.
    """

    bounds: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS

    def __init__(self):
        self._lock = threading.Lock()
        self._counts = [0] * len(self.bounds)
        self._sum = 0.0
        self._count = 0
        self._window: deque = deque(maxlen=DEFAULT_WINDOW)

    def observe(self, value: float) -> None:
        value = float(value)
        # The first bound >= value: its bucket and every later one
        # count it (``le``); past the last bound only +Inf does.
        index = bisect_left(self.bounds, value)
        with self._lock:
            if index < len(self._counts):
                self._counts[index] += 1
            self._sum += value
            self._count += 1
            self._window.append(value)

    def window_values(self) -> List[float]:
        with self._lock:
            return list(self._window)

    def to_json(self) -> dict:
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "bounds": list(self.bounds),
                "bucket_counts": list(self._counts),
                "window": list(self._window),
            }


def quantile(values: Sequence[float], q: float) -> Optional[float]:
    """The exact q-quantile of raw observations (``None`` when empty):
    the value at rank ``int(q * n)`` of the sorted values, capped at the
    largest."""
    if not values:
        return None
    ordered = sorted(values)
    q = min(max(q, 0.0), 1.0)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class MetricFamily:
    """One named histogram with zero or more label dimensions.

    :meth:`labels` resolves the histogram of one label set, creating it
    on first use; an unlabeled family has one, resolved by
    ``labels()``.
    """

    def __init__(self, name: str, help_text: str, label_names: Tuple[str, ...]):
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Histogram] = {}
        if not label_names:
            self._children[()] = Histogram()

    def labels(self, **labels) -> Histogram:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = Histogram()
            return child

    def to_json(self) -> dict:
        with self._lock:
            children = sorted(self._children.items())
        return {
            "kind": "histogram",
            "help": self.help,
            "labels": list(self.label_names),
            "series": {
                _series_key(self.label_names, key): child.to_json()
                for key, child in children
            },
        }


def _escape_label_value(value: str) -> str:
    """Backslash-escape the series-key structural characters so a label
    value containing ``,`` or ``=`` round-trips through the flat key
    string."""
    return value.replace("\\", "\\\\").replace(",", "\\,").replace("=", "\\=")


def _series_key(label_names: Tuple[str, ...], label_values: Tuple[str, ...]) -> str:
    """The stable JSON key for one label set (empty string when unlabeled)."""
    return ",".join(
        f"{n}={_escape_label_value(v)}" for n, v in zip(label_names, label_values)
    )


def _parse_series_key(key: str) -> List[Tuple[str, str]]:
    """Invert :func:`_series_key`, honouring backslash escapes (label
    *names* are identifiers and never need escaping; values may contain
    any character)."""
    if not key:
        return []
    pairs: List[Tuple[str, str]] = []
    name: List[str] = []
    value: List[str] = []
    current = name
    chars = iter(key)
    for ch in chars:
        if ch == "\\":
            current.append(next(chars, ""))
        elif ch == "=" and current is name:
            current = value
        elif ch == ",":
            pairs.append(("".join(name), "".join(value)))
            name, value = [], []
            current = name
        else:
            current.append(ch)
    pairs.append(("".join(name), "".join(value)))
    return pairs


class MetricsRegistry:
    """A named collection of histogram families; the unit of exposition.
    One per server."""

    def __init__(self):
        self.created_unix = time.time()
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    def histogram(self, name: str, help_text: str = "", labels: Sequence[str] = ()):
        """The family ``name``, created on first use; asking again with
        other label names raises."""
        labels = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = MetricFamily(name, help_text, labels)
            elif family.label_names != labels:
                raise ValueError(
                    f"metric {name!r} re-registered with labels {labels} "
                    f"(was {family.label_names})"
                )
            return family

    def snapshot(self) -> dict:
        """Every family as one JSON-ready document (stable key order)."""
        with self._lock:
            families = sorted(self._families.items())
        return {
            "namespace": NAMESPACE,
            "created_unix": self.created_unix,
            "metrics": {name: family.to_json() for name, family in families},
        }

    def prometheus_text(self) -> str:
        """The registry in Prometheus text exposition format."""
        return render_prometheus(self.snapshot())

    def save(self, path: str) -> dict:
        """Write :meth:`snapshot` as JSON, atomically; returns the
        document."""
        doc = self.snapshot()
        atomic_write(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return doc


def _prom_labels(pairs: List[Tuple[str, str]]) -> str:
    if not pairs:
        return ""
    body = ",".join(
        '{}="{}"'.format(name, value.replace("\\", "\\\\").replace('"', '\\"'))
        for name, value in pairs
    )
    return "{" + body + "}"


def _prom_number(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(snapshot: dict) -> str:
    """Zero-dep Prometheus text exposition of a registry snapshot:
    cumulative ``le`` buckets, ``_sum`` and ``_count`` per series.

    Works from the plain :meth:`MetricsRegistry.snapshot` dict so the
    CLI can render saved snapshots without a live registry.
    """
    namespace = snapshot.get("namespace", NAMESPACE)
    lines: List[str] = []
    for name, family in sorted(snapshot.get("metrics", {}).items()):
        full = f"{namespace}_{name}"
        help_text = family.get("help") or name.replace("_", " ")
        lines.append(f"# HELP {full} {help_text}")
        lines.append(f"# TYPE {full} histogram")
        for key, value in sorted(family.get("series", {}).items()):
            pairs = _parse_series_key(key)
            running = 0
            for bound, n in zip(value["bounds"], value["bucket_counts"]):
                running += n
                le = pairs + [("le", _prom_number(bound))]
                lines.append(f"{full}_bucket{_prom_labels(le)} {running}")
            inf = pairs + [("le", "+Inf")]
            lines.append(f"{full}_bucket{_prom_labels(inf)} {value['count']}")
            lines.append(
                f"{full}_sum{_prom_labels(pairs)} {_prom_number(value['sum'])}"
            )
            lines.append(f"{full}_count{_prom_labels(pairs)} {value['count']}")
    return "\n".join(lines) + ("\n" if lines else "")
