"""Process-wide memoization caches for the compiler's search hot path.

Evolutionary search evaluates thousands of candidate programs that share
most of their structure (a mutation keeps a prefix of the parent's
decisions, so whole subtrees are byte-for-byte identical).  Expensive
analyses keyed on *program structure* — feature extraction, the
shared-memory footprint, the analytical cost estimate — are therefore
memoized on :func:`repro.tir.structural_hash`, through the small
registry in this module.

Design rules:

* This module imports nothing from :mod:`repro` — it sits below
  :mod:`repro.tir` in the import graph so every layer can use it.
* Each :class:`MemoCache` is a named, bounded LRU with hit/miss/eviction
  counters; all caches register themselves in a process-wide registry so
  telemetry (``SessionReport.cache_stats``) and the benchmark can
  observe them uniformly.
* :func:`clear_all` is the one way to a cold state.  A tuning session's
  search workers are forked for one run, so they start from the
  caches of the process that forked them and need no clear of their
  own.  Every memo front keeps the uncached ``_impl`` function it
  wraps, which tests use as the oracle.
* Cached values must be immutable or defensively copied by the caller:
  a cache returns the same object to every hit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Tuple

__all__ = [
    "MemoCache",
    "MISS",
    "absorb_worker_counts",
    "all_caches",
    "cache_stats",
    "clear_all",
    "delta_since",
    "freeze",
    "register_stats_source",
    "snapshot_counts",
    "worker_counts",
]


class _Miss:
    """Sentinel distinguishing "not cached" from a cached ``None``."""

    def __repr__(self) -> str:  # pragma: no cover
        return "<cache miss>"


#: returned by :meth:`MemoCache.lookup` when the key is absent.
MISS = _Miss()

_REGISTRY_LOCK = threading.Lock()
_CACHES: "OrderedDict[str, MemoCache]" = OrderedDict()
#: extra (hits, misses) sources that are not MemoCaches — e.g. the
#: per-node structural-hash memo, which lives on the IR nodes themselves.
_STATS_SOURCES: Dict[str, Callable[[], Tuple[int, int]]] = {}
#: counters absorbed from worker *processes* (see
#: :func:`absorb_worker_counts`): each worker owns a private registry, so
#: its activity is shipped back as deltas and merged here.  Keyed like the
#: local registry; folded into :func:`snapshot_counts` so session reports
#: see one merged view wherever their searches ran.
_WORKER_COUNTS: Dict[str, list] = {}


def freeze(values):
    """A hashable copy of a decision vector for a memo key: nested lists
    become tuples (``sample_perfect_tile`` decisions are lists)."""
    if values is None:
        return None
    return tuple(freeze(v) if isinstance(v, (list, tuple)) else v for v in values)


class MemoCache:
    """A named, bounded, thread-safe LRU memo table.

    Values are returned as-is on a hit — store immutable objects, or
    copy on the way in *and* out if the caller may mutate results.
    """

    def __init__(self, name: str, maxsize: int = 4096):
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        with _REGISTRY_LOCK:
            _CACHES[name] = self

    def lookup(self, key: Any) -> Any:
        """The cached value, or :data:`MISS`."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return MISS
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def get_or_compute(self, key: Any, compute: Callable[[], Any]) -> Any:
        """Memoized ``compute()``.  The lock is *not* held during the
        computation, so concurrent misses may compute redundantly — by
        construction every cached computation is deterministic, so the
        racing writes store identical values."""
        value = self.lookup(key)
        if value is MISS:
            value = compute()
            self.put(key, value)
        return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def stats(self) -> Dict[str, float]:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self),
            "maxsize": self.maxsize,
            "hit_rate": self.hits / total if total else 0.0,
        }


# ---------------------------------------------------------------------------
# registry-wide views
# ---------------------------------------------------------------------------


def register_stats_source(name: str, fn: Callable[[], Tuple[int, int]]) -> None:
    """Expose an external ``() -> (hits, misses)`` counter pair in the
    registry views (used by the per-node structural-hash memo)."""
    with _REGISTRY_LOCK:
        _STATS_SOURCES[name] = fn


def all_caches() -> Dict[str, MemoCache]:
    with _REGISTRY_LOCK:
        return dict(_CACHES)


def cache_stats() -> Dict[str, Dict[str, float]]:
    """Per-cache statistics for every registered cache and source."""
    out = {name: cache.stats() for name, cache in all_caches().items()}
    with _REGISTRY_LOCK:
        sources = dict(_STATS_SOURCES)
    for name, fn in sources.items():
        hits, misses = fn()
        total = hits + misses
        out[name] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
        }
    return out


def absorb_worker_counts(delta: Dict[str, Dict[str, float]]) -> None:
    """Merge the cache activity of a worker *process*: a
    :func:`delta_since` window it shipped back.

    Worker processes run their own private cache registries (memo
    entries never cross the process boundary — only these counters do).
    Each absorbed window accumulates into a process-level side table that
    :func:`snapshot_counts` folds into the per-cache totals, so
    ``delta_since`` windows and ``SessionReport.cache_stats`` cover the
    workers too, not just the coordinating process.
    """
    with _REGISTRY_LOCK:
        for name, window in delta.items():
            slot = _WORKER_COUNTS.setdefault(name, [0, 0, 0])
            slot[0] += window["hits"]
            slot[1] += window["misses"]
            slot[2] += window["evictions"]


def worker_counts() -> Dict[str, Tuple[int, int, int]]:
    """Accumulated worker-process counters (merged into snapshots)."""
    with _REGISTRY_LOCK:
        return {name: tuple(counts) for name, counts in _WORKER_COUNTS.items()}


def snapshot_counts() -> Dict[str, Tuple[int, int, int]]:
    """``{name: (hits, misses, evictions)}`` for delta accounting across
    a run — local registry activity plus any counters absorbed from
    worker processes.  External stats sources have no eviction counter
    and report 0."""
    snap = {
        name: (cache.hits, cache.misses, cache.evictions)
        for name, cache in all_caches().items()
    }
    with _REGISTRY_LOCK:
        sources = dict(_STATS_SOURCES)
        workers = {name: tuple(counts) for name, counts in _WORKER_COUNTS.items()}
    for name, fn in sources.items():
        hits, misses = fn()
        snap[name] = (hits, misses, 0)
    for name, (hits, misses, evictions) in workers.items():
        base = snap.get(name, (0, 0, 0))
        snap[name] = (base[0] + hits, base[1] + misses, base[2] + evictions)
    return snap


def delta_since(before: Dict[str, Tuple[int, int, int]]) -> Dict[str, Dict[str, float]]:
    """Hit/miss/eviction activity since a :func:`snapshot_counts` call,
    dropping caches with no activity in the window."""
    out: Dict[str, Dict[str, float]] = {}
    for name, (hits, misses, evictions) in snapshot_counts().items():
        h0, m0, e0 = before.get(name, (0, 0, 0))
        dh, dm, de = hits - h0, misses - m0, evictions - e0
        if dh or dm or de:
            total = dh + dm
            out[name] = {
                "hits": dh,
                "misses": dm,
                "evictions": de,
                "hit_rate": dh / total if total else 0.0,
            }
    return out


def clear_all() -> None:
    """Empty every registered cache.  Counters are kept — they are
    cumulative; use :func:`snapshot_counts` for windowed accounting."""
    for cache in all_caches().values():
        cache.clear()
