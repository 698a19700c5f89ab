"""Tuning-record databases: the unified ``Database`` protocol, the
in-memory backend, and the persistent on-disk backend.

§5.2: "TensorIR can eliminate search time further by caching historical
cost models and search records.  So no search is needed to build a model
for an operator already tuned."

Records are keyed by :func:`workload_key` — a stable structural hash of
(workload, target) that is **public API**: a
:class:`~repro.meta.session.TuningSession` uses it to deduplicate
repeated layers before searching, external tools may use it to shard or
merge databases, and the schedule server (:mod:`repro.serve`) uses it to
coalesce concurrent cache-miss requests.

The access surface is one typed protocol — :class:`Database` with
``get`` / ``put`` / ``evict`` / ``keys`` — implemented by both
:class:`TuningDatabase` (in-memory) and :class:`PersistentDatabase`
(a JSONL-per-entry directory with atomic commits, TTL/LRU eviction and
corrupt-entry recovery).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional

from .. import cache as _cache
from ..diagnostics import DiagnosticContext
from ..schedule import Schedule, ScheduleError
from ..schedule.validation import _names_fingerprint
from ..sim import Target
from ..tir import PrimFunc, structural_hash
from ..tir.printer import script

__all__ = [
    "workload_key",
    "DatabaseEntry",
    "Database",
    "TuningDatabase",
    "PersistentDatabase",
    "DB_SCHEMA",
]

#: on-disk record schema identifier; bump on breaking layout changes.
#: Loaders skip records from an unknown major schema with a diagnostic
#: instead of crashing, so mixed-version directories stay readable.
DB_SCHEMA = "repro.db/1"

#: memoized key computation — serializing the full function on every
#: database/serve lookup is the hot cost; the memo key is the same
#: (alpha-invariant hash, name fingerprint, target) triple the verify
#: cache uses, so structurally-equal-but-renamed functions never alias.
_KEY_CACHE = _cache.MemoCache("meta.workload_key", maxsize=8192)


def workload_key(func: PrimFunc, target: Target) -> str:
    """A stable key for (workload, target): hash of the script text
    (names included — the builder generates them deterministically) and
    the target name.

    Public API: identical keys mean a tuned record for one workload is
    exactly replayable for the other, which is what session-level
    deduplication — and the schedule server's request coalescing —
    relies on.  The serialization is memoized per process on
    ``structural_hash`` plus a name fingerprint (the exact content the
    script adds over structure), so repeat lookups on the serve path
    skip the full-function print.
    """
    cache_key = (structural_hash(func), _names_fingerprint(func), target.name)
    hit = _KEY_CACHE.lookup(cache_key)
    if hit is not _cache.MISS:
        return hit
    value = _workload_key_impl(func, target)
    _KEY_CACHE.put(cache_key, value)
    return value


def _workload_key_impl(func: PrimFunc, target: Target) -> str:
    digest = hashlib.sha256()
    digest.update(script(func).encode())
    digest.update(target.name.encode())
    return digest.hexdigest()[:24]


@dataclass(frozen=True)
class DatabaseEntry:
    """One stored tuning record (the typed result of ``get``)."""

    key: str
    workload: str
    target: str
    sketch: str
    decisions: List[object]
    cycles: float
    #: where the record came from: ``"search"`` for a fresh tuning run,
    #: ``"session"`` for a session-recorded result, ``"serve"`` for a
    #: schedule-server miss, ``"disk"`` when loaded from a persisted
    #: database file.
    provenance: str = "search"
    #: alpha-invariant hash of the *base* workload function — a second
    #: identity check alongside the script-text key, so a persisted
    #: record is never replayed onto a structurally different workload.
    structural_hash: Optional[int] = None

    def to_record(self) -> dict:
        record = asdict(self)
        record.pop("key")
        return record


class Database:
    """The typed store protocol every backend implements.

    Four primitives — ``get`` / ``put`` / ``evict`` / ``keys`` — plus
    shared conveniences (``record``, ``replay``, ``entries``) built on
    them.  Subclasses only implement the primitives; everything keyed
    flows through them, so an on-disk backend inherits record/replay
    for free.
    """

    # -- the protocol ---------------------------------------------------
    def get(self, key: str) -> Optional[DatabaseEntry]:
        """The stored entry for a :func:`workload_key`, or ``None``."""
        raise NotImplementedError

    def put(self, entry: DatabaseEntry) -> DatabaseEntry:
        """Store ``entry`` if it beats the stored one for its key;
        returns the entry now held for the key."""
        raise NotImplementedError

    def evict(self, key: str) -> bool:
        """Drop one entry; returns whether it existed."""
        raise NotImplementedError

    def keys(self) -> List[str]:
        """Every stored workload key (stable order)."""
        raise NotImplementedError

    # -- shared conveniences --------------------------------------------
    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def entries(self) -> List[DatabaseEntry]:
        return [e for e in (self.get(k) for k in self.keys()) if e is not None]

    def record(
        self,
        func: PrimFunc,
        target: Target,
        sketch_name: str,
        decisions: List[object],
        cycles: float,
        provenance: str = "search",
    ) -> DatabaseEntry:
        """Store a result if it beats the stored one for this workload;
        returns the entry now held for the workload."""
        from ..tir import structural_hash

        return self.put(
            DatabaseEntry(
                key=workload_key(func, target),
                workload=func.name,
                target=target.name,
                sketch=sketch_name,
                decisions=list(decisions),
                cycles=cycles,
                provenance=provenance,
                structural_hash=structural_hash(func),
            )
        )

    def replay(self, func: PrimFunc, target: Target) -> Optional[Schedule]:
        """Rebuild the stored best schedule (no search, no measurement)."""
        entry = self.get(workload_key(func, target))
        if entry is None:
            return None
        return self.replay_entry(func, entry)

    def replay_entry(
        self,
        func: PrimFunc,
        entry: DatabaseEntry,
        *,
        decision_mode: str = "strict",
        ctx: Optional[DiagnosticContext] = None,
    ) -> Optional[Schedule]:
        """Apply one stored record's sketch + decision vector to ``func``.

        ``func`` need not be the function the entry was recorded for:
        with ``decision_mode="adapt"`` this is §5.2 forced-decision
        replay across a shape bucket — each stored decision is coerced
        to the nearest feasible choice at ``func``'s extents, and a
        sketch constraint that cannot hold at the new shape surfaces as
        ``None`` with a ``TIR701`` diagnostic in ``ctx``.
        """
        from .sketch import (
            CpuScalarSketch,
            CpuSdotSketch,
            GpuScalarSketch,
            TensorCoreSketch,
        )

        sketches = {
            "tensor-core": TensorCoreSketch,
            "gpu-scalar": GpuScalarSketch,
            "cpu-sdot": CpuSdotSketch,
            "cpu-scalar": CpuScalarSketch,
        }
        cls = sketches.get(entry.sketch)
        if cls is None:
            return None
        sch = Schedule(func, seed=0, record_trace=False)
        sch.decision_mode = decision_mode
        sch.forced_decisions = list(entry.decisions)
        try:
            cls().apply(sch)
        except ScheduleError as err:
            if ctx is not None:
                ctx.emit(
                    "TIR701",
                    f"stored decisions for {entry.key} are infeasible at the "
                    f"shape of {func.name}: {err}",
                    func=func,
                )
            return None
        return sch

    def replay_bucketed(
        self,
        bucketed,
        target: Target,
        *,
        ctx: Optional[DiagnosticContext] = None,
    ) -> Optional[Schedule]:
        """Replay the bucket representative's record at the concrete shape.

        ``bucketed`` is a :class:`~repro.frontend.shapes.BucketedWorkload`;
        the lookup key is the *representative*'s, the schedule is built
        for the *concrete* function.  Degenerate buckets (representative
        == concrete) replay strictly.
        """
        entry = self.get(workload_key(bucketed.representative, target))
        if entry is None:
            return None
        mode = "adapt" if bucketed.bucketed else "strict"
        return self.replay_entry(bucketed.concrete, entry, decision_mode=mode, ctx=ctx)


class TuningDatabase(Database):
    """The in-memory backend.  For crash-safe, multi-process-friendly
    persistence use :class:`PersistentDatabase`.
    """

    def __init__(self):
        self._store: Dict[str, DatabaseEntry] = {}
        self._lock = threading.Lock()

    # -- the protocol ---------------------------------------------------
    def get(self, key: str) -> Optional[DatabaseEntry]:
        with self._lock:
            return self._store.get(key)

    def put(self, entry: DatabaseEntry) -> DatabaseEntry:
        with self._lock:
            existing = self._store.get(entry.key)
            if existing is not None and existing.cycles <= entry.cycles:
                return existing
            self._store[entry.key] = entry
            return entry

    def evict(self, key: str) -> bool:
        with self._lock:
            return self._store.pop(key, None) is not None

    def keys(self) -> List[str]:
        with self._lock:
            return list(self._store)

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._store


@dataclass
class _LruState:
    """Per-key access bookkeeping for the persistent backend."""

    last_access: float
    stored_at: float
    hits: int = 0


class PersistentDatabase(Database):
    """A durable on-disk database: one JSONL file per entry.

    Layout under ``root``::

        root/
          entries/<workload_key>.jsonl   # one versioned record per line
          lru.json                       # access bookkeeping (best-effort)

    Contracts:

    * **Atomic commits** — every :meth:`put` writes the full entry file
      to a temp file in the same directory and ``os.replace``s it into
      place, so a crashed writer can never leave a truncated record.
      Persistence is *incremental*: the entry is durable the moment
      ``put`` returns, which is what lets a tuning session commit each
      task as it finishes.
    * **Corruption recovery** — a truncated or unparseable JSONL line is
      skipped with a diagnostic (collected in :attr:`diagnostics`),
      never a crash; the last valid line in a file wins, so an appended
      half-line cannot shadow a good record.
    * **Versioned schema** — each line carries ``schema``; records from
      an unknown major version are skipped with a diagnostic.
    * **TTL / LRU eviction** — ``ttl_seconds`` expires entries not
      accessed within the window (:meth:`evict_expired`, also applied
      lazily on ``get``); ``max_entries`` bounds the store, evicting the
      least-recently-used key on overflow.  Access times persist in
      ``lru.json`` (best-effort: bookkeeping loss degrades eviction
      ordering, never correctness).
    """

    def __init__(
        self,
        root: str,
        *,
        ttl_seconds: Optional[float] = None,
        max_entries: Optional[int] = None,
        clock=time.time,
    ):
        self.root = root
        self.ttl_seconds = ttl_seconds
        self.max_entries = max_entries
        self._clock = clock
        self._lock = threading.RLock()
        #: human-readable notes about skipped/corrupt records, in scan order.
        self.diagnostics: List[str] = []
        #: corrupt/skipped records recovered (scan + reload) — mirrors
        #: into the bound metrics counter.
        self._recovered = 0
        # metrics instruments (duck-typed — see :meth:`bind_metrics`);
        # unbound, the storage path pays a single None check.
        self._m_get = None
        self._m_put = None
        self._m_corrupt = None
        self._m_evictions = None
        self._cache: Dict[str, DatabaseEntry] = {}
        self._lru: Dict[str, _LruState] = {}
        os.makedirs(self._entries_dir, exist_ok=True)
        self._load_lru()
        self._scan()

    # -- metrics binding -------------------------------------------------
    def bind_metrics(self, registry) -> None:
        """Bind serving metrics (duck-typed against
        :class:`repro.obs.metrics.MetricsRegistry` so the storage layer
        carries no obs dependency): get/put latency histograms,
        corrupt-line recoveries, evictions labeled by reason
        (``ttl`` / ``lru`` / ``explicit``), and a live entry-count
        gauge.  Recoveries already seen (the construction-time scan)
        are backfilled into the counter."""
        if self._m_get is not None:
            return
        # ``.labels()`` on an unlabeled family resolves its single child
        # instrument — bound once here so the per-get observe skips the
        # family proxy on the warm-hit path.
        self._m_get = registry.histogram(
            "db_get_seconds", "persistent database get latency"
        ).labels()
        self._m_put = registry.histogram(
            "db_put_seconds", "persistent database put latency (incl. fsync path)"
        ).labels()
        self._m_corrupt = registry.counter(
            "db_corrupt_lines_total", "corrupt/skipped records recovered"
        )
        self._m_evictions = registry.counter(
            "db_evictions_total", "entries evicted by reason", labels=("reason",)
        )
        registry.gauge(
            "db_entries", "entries in the persistent database",
            fn=lambda: len(self._cache),
        )
        if self._recovered:
            self._m_corrupt.inc(self._recovered)

    def _note_recovery(self, message: str) -> None:
        self.diagnostics.append(message)
        self._recovered += 1
        if self._m_corrupt is not None:
            self._m_corrupt.inc()

    # -- layout ---------------------------------------------------------
    @property
    def _entries_dir(self) -> str:
        return os.path.join(self.root, "entries")

    @property
    def _lru_path(self) -> str:
        return os.path.join(self.root, "lru.json")

    def _entry_path(self, key: str) -> str:
        return os.path.join(self._entries_dir, f"{key}.jsonl")

    # -- loading --------------------------------------------------------
    def _parse_line(self, path: str, lineno: int, line: str) -> Optional[DatabaseEntry]:
        line = line.strip()
        if not line:
            return None
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            self._note_recovery(
                f"{os.path.basename(path)}:{lineno}: truncated/corrupt JSONL "
                "line skipped"
            )
            return None
        schema = data.get("schema")
        if schema is not None and str(schema).split("/")[0] != DB_SCHEMA.split("/")[0]:
            self._note_recovery(
                f"{os.path.basename(path)}:{lineno}: unknown schema "
                f"{schema!r} skipped"
            )
            return None
        try:
            known = {f for f in DatabaseEntry.__dataclass_fields__}
            fields = {k: v for k, v in data.items() if k in known}
            fields.setdefault("provenance", "disk")
            return DatabaseEntry(**fields)
        except (TypeError, KeyError):
            self._note_recovery(
                f"{os.path.basename(path)}:{lineno}: record missing required "
                "fields, skipped"
            )
            return None

    def _load_entry_file(self, path: str) -> Optional[DatabaseEntry]:
        """The last valid line of one entry file (line order = history)."""
        best: Optional[DatabaseEntry] = None
        try:
            with open(path) as f:
                for lineno, line in enumerate(f, 1):
                    entry = self._parse_line(path, lineno, line)
                    if entry is not None:
                        best = entry
        except OSError as err:
            self.diagnostics.append(f"{os.path.basename(path)}: unreadable ({err})")
        return best

    def _scan(self) -> None:
        now = self._clock()
        for name in sorted(os.listdir(self._entries_dir)):
            if not name.endswith(".jsonl"):
                continue
            entry = self._load_entry_file(os.path.join(self._entries_dir, name))
            if entry is None:
                continue
            key = name[: -len(".jsonl")]
            if entry.key != key:
                self._note_recovery(
                    f"{name}: record key {entry.key!r} does not match "
                    "filename, skipped"
                )
                continue
            self._cache[key] = entry
            self._lru.setdefault(key, _LruState(last_access=now, stored_at=now))

    def _load_lru(self) -> None:
        if not os.path.exists(self._lru_path):
            return
        try:
            with open(self._lru_path) as f:
                data = json.load(f)
            for key, state in data.items():
                self._lru[key] = _LruState(
                    last_access=float(state.get("last_access", 0.0)),
                    stored_at=float(state.get("stored_at", 0.0)),
                    hits=int(state.get("hits", 0)),
                )
        except (json.JSONDecodeError, OSError, TypeError, ValueError):
            # Bookkeeping is best-effort: a corrupt sidecar only costs
            # eviction ordering, never stored records.
            self.diagnostics.append("lru.json: corrupt bookkeeping, reset")
            self._lru = {}

    def flush_lru(self) -> None:
        """Persist access bookkeeping (atomic tmp+rename)."""
        with self._lock:
            payload = {
                key: {
                    "last_access": st.last_access,
                    "stored_at": st.stored_at,
                    "hits": st.hits,
                }
                for key, st in sorted(self._lru.items())
            }
        self._atomic_write(self._lru_path, json.dumps(payload, indent=1))

    def _atomic_write(self, path: str, payload: str) -> None:
        directory = os.path.dirname(os.path.abspath(path)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".db-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(payload)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # -- the protocol ---------------------------------------------------
    def get(self, key: str) -> Optional[DatabaseEntry]:
        if self._m_get is None:
            return self._get_impl(key)
        t0 = time.perf_counter()
        try:
            return self._get_impl(key)
        finally:
            self._m_get.observe(time.perf_counter() - t0)

    def _get_impl(self, key: str) -> Optional[DatabaseEntry]:
        with self._lock:
            entry = self._cache.get(key)
            if entry is None:
                return None
            now = self._clock()
            state = self._lru.get(key)
            if (
                self.ttl_seconds is not None
                and state is not None
                and now - state.last_access > self.ttl_seconds
            ):
                self._evict_locked(key, reason="ttl")
                return None
            if state is None:
                state = self._lru[key] = _LruState(last_access=now, stored_at=now)
            state.last_access = now
            state.hits += 1
            return entry

    def put(self, entry: DatabaseEntry) -> DatabaseEntry:
        if self._m_put is None:
            return self._put_impl(entry)
        t0 = time.perf_counter()
        try:
            return self._put_impl(entry)
        finally:
            self._m_put.observe(time.perf_counter() - t0)

    def _put_impl(self, entry: DatabaseEntry) -> DatabaseEntry:
        with self._lock:
            existing = self._cache.get(entry.key)
            if existing is not None and existing.cycles <= entry.cycles:
                return existing
            record = {"schema": DB_SCHEMA, "key": entry.key}
            record.update(entry.to_record())
            self._atomic_write(
                self._entry_path(entry.key), json.dumps(record, sort_keys=True) + "\n"
            )
            now = self._clock()
            self._cache[entry.key] = entry
            state = self._lru.get(entry.key)
            if state is None:
                self._lru[entry.key] = _LruState(last_access=now, stored_at=now)
            else:
                state.last_access = now
                state.stored_at = now
            if self.max_entries is not None:
                while len(self._cache) > self.max_entries:
                    victim = min(
                        (k for k in self._cache if k != entry.key),
                        key=lambda k: self._lru[k].last_access
                        if k in self._lru
                        else 0.0,
                        default=None,
                    )
                    if victim is None:
                        break
                    self._evict_locked(victim, reason="lru")
            self.flush_lru()
            return entry

    def _evict_locked(self, key: str, reason: str = "explicit") -> bool:
        existed = self._cache.pop(key, None) is not None
        self._lru.pop(key, None)
        path = self._entry_path(key)
        if os.path.exists(path):
            os.unlink(path)
            existed = True
        if existed and self._m_evictions is not None:
            self._m_evictions.labels(reason=reason).inc()
        return existed

    def evict(self, key: str) -> bool:
        with self._lock:
            existed = self._evict_locked(key)
            if existed:
                self.flush_lru()
            return existed

    def evict_expired(self, now: Optional[float] = None) -> List[str]:
        """Drop every entry whose last access is beyond the TTL window;
        returns the evicted keys."""
        if self.ttl_seconds is None:
            return []
        now = self._clock() if now is None else now
        evicted = []
        with self._lock:
            for key in list(self._cache):
                state = self._lru.get(key)
                if state is not None and now - state.last_access > self.ttl_seconds:
                    self._evict_locked(key, reason="ttl")
                    evicted.append(key)
            if evicted:
                self.flush_lru()
        return evicted

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._cache)

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._cache

    def stats(self) -> Dict[str, float]:
        """Store-level accounting: size, total hits, diagnostics count."""
        with self._lock:
            return {
                "entries": float(len(self._cache)),
                "hits": float(sum(st.hits for st in self._lru.values())),
                "diagnostics": float(len(self.diagnostics)),
            }
