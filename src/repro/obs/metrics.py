"""``repro.obs.metrics`` — the typed, thread-safe metrics layer for the
serving stack.

PR 4's flight recorder observes *tuning runs*; this module observes
*the service*.  Three instrument types, Prometheus-shaped but with zero
dependencies:

* :class:`Counter` — monotonic counts (requests, evictions, corrupt
  lines recovered).
* :class:`Gauge` — point-in-time values, settable directly or sourced
  from a callback at read time (queue depth, cache hit rates).
* :class:`Histogram` — fixed-bucket distributions with cumulative
  bucket counts, sum and count, plus a bounded **rolling window** of
  raw observations for exact recent quantiles (the ``health()``
  p50/p95/p99 source).  Every quantile reported anywhere is
  :func:`quantile` over such a window.

Instruments are created through a :class:`MetricsRegistry` as **labeled
families** (``registry.histogram("serve_latency_seconds",
labels=("outcome",))`` → ``family.labels(outcome="hit").observe(s)``).
Label cardinality is bounded per family (:data:`MAX_LABEL_SETS`):
once a family holds that many distinct label sets, further new label
values collapse onto an ``"other"`` overflow series instead of growing
without limit — high-cardinality keys (workload hashes, request ids)
must never be labels.

Reading is uniform: ``registry.snapshot()`` returns one JSON-ready
dict, ``registry.delta_since(snapshot)`` the activity window between
two snapshots, and :func:`render_prometheus` (also
``registry.prometheus_text()``) the standard text exposition format —
all three work for every instrument type, so dashboards, the
``serve-report`` CLI and the bench harness share one data shape.

Every instrument updates its state under its own lock: an increment or
an observation is never lost and never half-applied, and a reader
always sees the buckets, sum, count and window agree.

The registry holds the server's own measurements only.  Counts kept
elsewhere are read there: cache activity from :mod:`repro.cache` (the
server's ``cache_hit_rate`` gauge samples it live), per-search counts
from ``SearchStats``.
"""

from __future__ import annotations

import json
import math
import threading
import time
from bisect import bisect_left
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "MAX_LABEL_SETS",
    "OVERFLOW_LABEL",
    "render_prometheus",
    "quantile",
]

#: fixed latency bucket upper bounds (seconds): log-spaced from 10 µs to
#: 10 s — wide enough for microsecond-class warm hits and multi-second
#: cache-miss tuning runs on one axis.  ``inf`` is implicit.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1, 1.0, 2.5, 5.0, 10.0,
)

#: distinct label sets one family may hold before new ones collapse
#: onto the :data:`OVERFLOW_LABEL` series (the cardinality guard).
MAX_LABEL_SETS = 64

#: the label value every over-cardinality series collapses onto.
OVERFLOW_LABEL = "other"

#: rolling-window capacity for histograms (raw recent observations kept
#: for exact quantiles; the bucket counts keep the full distribution).
DEFAULT_WINDOW = 512


class Counter:
    """A monotonic counter.  ``inc`` only; negative increments raise."""

    kind = "counter"

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"Counter.inc({amount}): counters are monotonic")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def to_json(self) -> float:
        return self.value


class Gauge:
    """A settable point-in-time value, or a callback sampled at read
    time (``fn``) — callback gauges ignore ``set``/``inc``."""

    kind = "gauge"

    def __init__(self, lock: threading.Lock, fn: Optional[Callable[[], float]] = None):
        self._lock = lock
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        if self._fn is not None:
            try:
                return float(self._fn())
            except Exception:  # noqa: BLE001 — a dead callback reads as 0
                return 0.0
        with self._lock:
            return self._value

    def to_json(self) -> float:
        return self.value


class Histogram:
    """Fixed-bucket distribution + bounded rolling window.

    Bucket counts are **cumulative** (Prometheus ``le`` semantics): the
    count for bound ``b`` is the number of observations ``<= b``; the
    implicit ``+Inf`` bucket equals ``count``.  The rolling window keeps
    the last ``window`` raw observations for exact recent quantiles.
    """

    kind = "histogram"

    def __init__(
        self,
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        window: int = DEFAULT_WINDOW,
    ):
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("Histogram needs at least one bucket bound")
        self._lock = lock
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self._counts = [0] * len(bounds)  # per-bucket (non-cumulative)
        self._sum = 0.0
        self._count = 0
        self._window: deque = deque(maxlen=max(1, int(window)))

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

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def cumulative(self) -> List[Tuple[float, int]]:
        """``[(le_bound, cumulative_count), ...]`` ending at ``+Inf``."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
        out, running = [], 0
        for bound, n in zip(self.bounds, counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, total))
        return out

    def window_values(self) -> List[float]:
        with self._lock:
            return list(self._window)

    def window_quantile(self, q: float) -> Optional[float]:
        """Exact q-quantile over the rolling window of recent raw
        observations (``None`` when empty)."""
        return quantile(self.window_values(), q)

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
    """One named metric with zero or more label dimensions.

    Unlabeled families proxy the single underlying instrument
    (``family.inc()`` works directly); labeled families vend children
    via :meth:`labels`.  Children are created on first use and capped at
    :data:`MAX_LABEL_SETS` distinct label sets — past the cap, unseen
    label values collapse onto :data:`OVERFLOW_LABEL` so a mislabeled
    high-cardinality key degrades accounting, never memory.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        label_names: Tuple[str, ...],
        make: Callable[[], object],
    ):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self._make = make
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        if not label_names:
            self._children[()] = make()

    def labels(self, **labels) -> object:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if len(self._children) >= MAX_LABEL_SETS:
                    key = tuple(OVERFLOW_LABEL for _ in self.label_names)
                    child = self._children.get(key)
                    if child is None:
                        child = self._children[key] = self._make()
                else:
                    child = self._children[key] = self._make()
            return child

    def children(self) -> Dict[Tuple[str, ...], object]:
        with self._lock:
            return dict(self._children)

    # -- unlabeled proxy -------------------------------------------------
    def _solo(self):
        if self.label_names:
            raise ValueError(
                f"metric {self.name!r} is labeled {self.label_names}; "
                "use .labels(...)"
            )
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    @property
    def value(self):
        return self._solo().value

    def window_quantile(self, q: float):
        return self._solo().window_quantile(q)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "labels": list(self.label_names),
            "series": {
                _series_key(self.label_names, key): child.to_json()
                for key, child in sorted(self.children().items())
            },
        }


def _escape_label_value(value: str) -> str:
    """Backslash-escape the series-key structural characters so a label
    value containing ``,`` or ``=`` (e.g. a cache or backend name)
    round-trips through the flat key string."""
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
    """A named collection of metric families; the unit of exposition.

    One registry per server (the default), or shared across components
    of one process.
    """

    def __init__(self, namespace: str = "repro"):
        self.namespace = namespace
        self.created_unix = time.time()
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}
        self._fn_families: Dict[str, tuple] = {}

    # -- family constructors --------------------------------------------
    def _family(
        self, name: str, kind: str, help_text: str,
        labels: Sequence[str], make: Callable[[], object],
    ):
        labels = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != labels:
                    raise ValueError(
                        f"metric {name!r} re-registered as {kind}{labels} "
                        f"(was {family.kind}{family.label_names})"
                    )
                return family
            if name in self._fn_families:
                raise ValueError(
                    f"metric {name!r} already registered as a callback "
                    f"gauge family (gauge_fn)"
                )
            family = MetricFamily(name, kind, help_text, labels, make)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "", labels: Sequence[str] = ()):
        return self._family(
            name, "counter", help_text, labels, lambda: Counter(threading.Lock())
        )

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        fn: Optional[Callable[[], float]] = None,
    ):
        """A gauge family; ``fn`` makes an unlabeled callback gauge
        sampled at snapshot/exposition time."""
        if fn is not None and labels:
            raise ValueError("callback gauges cannot be labeled")
        return self._family(
            name, "gauge", help_text, labels,
            lambda: Gauge(threading.Lock(), fn=fn),
        )

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        window: int = DEFAULT_WINDOW,
    ):
        bounds = tuple(buckets)
        return self._family(
            name, "histogram", help_text, labels,
            lambda: Histogram(threading.Lock(), buckets=bounds, window=window),
        )

    def gauge_fn(self, name: str, help_text: str, fn: Callable[[], Dict[str, float]]):
        """Register a callback gauge family label-wise: ``fn`` returns
        ``{label_value: gauge_value}``; each key becomes one series of a
        single-label family at read time (used for the per-cache
        hit-rate gauges sourced from :mod:`repro.cache`).  Re-binding
        the same callback-family name replaces its callback; colliding
        with a regular family raises (snapshots merge both dicts, so a
        silent shadow would drop one family from every read view)."""
        with self._lock:
            if name in self._families:
                raise ValueError(
                    f"metric {name!r} already registered as a "
                    f"{self._families[name].kind} family"
                )
            self._fn_families[name] = (help_text, fn)

    # -- reading ---------------------------------------------------------
    def families(self) -> Dict[str, MetricFamily]:
        with self._lock:
            return dict(self._families)

    def _fn_snapshot(self) -> Dict[str, dict]:
        out: Dict[str, dict] = {}
        with self._lock:
            fn_families = dict(self._fn_families)
        for name, (help_text, fn) in sorted(fn_families.items()):
            try:
                values = fn() or {}
            except Exception:  # noqa: BLE001 — a dead callback reads empty
                values = {}
            out[name] = {
                "kind": "gauge",
                "help": help_text,
                "labels": ["name"],
                "series": {
                    _series_key(("name",), (str(key),)): float(value)
                    for key, value in sorted(values.items())
                },
            }
        return out

    def snapshot(self) -> dict:
        """Every family as one JSON-ready document (stable key order)."""
        doc = {
            "namespace": self.namespace,
            "created_unix": self.created_unix,
            "metrics": {},
        }
        for name, family in sorted(self.families().items()):
            doc["metrics"][name] = family.to_json()
        doc["metrics"].update(self._fn_snapshot())
        return doc

    def delta_since(self, before: dict) -> dict:
        """Counter/histogram activity since a prior :meth:`snapshot`.

        Gauges are point-in-time and pass through at their current
        value; counters subtract; histograms subtract count/sum and
        per-bucket counts (windows pass through — they are already
        recency-bounded).  Series absent from ``before`` diff against
        zero; series with no activity are dropped.
        """
        now = self.snapshot()
        prior_metrics = (before or {}).get("metrics", {})
        out = {
            "namespace": self.namespace,
            "metrics": {},
        }
        for name, family in now["metrics"].items():
            prior_series = prior_metrics.get(name, {}).get("series", {})
            kind = family["kind"]
            series_out = {}
            for key, value in family["series"].items():
                prev = prior_series.get(key)
                if kind == "counter":
                    delta = value - (prev or 0.0)
                    if delta:
                        series_out[key] = delta
                elif kind == "gauge":
                    series_out[key] = value
                else:  # histogram
                    prev = prev or {}
                    d_count = value["count"] - prev.get("count", 0)
                    if not d_count:
                        continue
                    prev_buckets = prev.get("bucket_counts") or [0] * len(
                        value["bucket_counts"]
                    )
                    series_out[key] = {
                        "count": d_count,
                        "sum": value["sum"] - prev.get("sum", 0.0),
                        "bounds": value["bounds"],
                        "bucket_counts": [
                            n - p
                            for n, p in zip(value["bucket_counts"], prev_buckets)
                        ],
                        "window": value["window"],
                    }
            if series_out:
                out["metrics"][name] = {**family, "series": series_out}
        return out

    def prometheus_text(self) -> str:
        """The registry in Prometheus text exposition format."""
        return render_prometheus(self.snapshot())

    def save(self, path: str) -> dict:
        """Write :meth:`snapshot` as JSON; returns the document."""
        doc = self.snapshot()
        with open(path, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
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
    """Zero-dep Prometheus text exposition of a registry snapshot.

    Works from the plain :meth:`MetricsRegistry.snapshot` dict so the
    CLI can render saved snapshots without a live registry.
    """
    namespace = snapshot.get("namespace", "repro")
    lines: List[str] = []
    for name, family in sorted(snapshot.get("metrics", {}).items()):
        full = f"{namespace}_{name}"
        kind = family.get("kind", "gauge")
        help_text = family.get("help") or name.replace("_", " ")
        lines.append(f"# HELP {full} {help_text}")
        lines.append(f"# TYPE {full} {kind}")
        for key, value in sorted(family.get("series", {}).items()):
            pairs = _parse_series_key(key)
            if kind in ("counter", "gauge"):
                lines.append(f"{full}{_prom_labels(pairs)} {_prom_number(value)}")
                continue
            # histogram: cumulative le-buckets + _sum/_count
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
