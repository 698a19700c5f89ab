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
(a JSONL-per-entry directory with atomic commits and corrupt-entry
recovery).  :meth:`Database.replay_entry` is the one code path that
rebuilds a stored record into a schedule.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional

from .. import cache as _cache
from ..diagnostics import DiagnosticContext
from ..fileio import atomic_write
from ..schedule import Schedule, ScheduleError
from ..schedule.sref import children_of
from ..sim import Target
from ..tir import Block, For, PrimFunc, Stmt, structural_hash
from ..tir.printer import script
from .sketch import SKETCHES

__all__ = [
    "workload_key",
    "names_fingerprint",
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
#: database/serve lookup is the hot cost; the memo key is the
#: (alpha-invariant hash, name fingerprint, target) triple, so
#: structurally-equal-but-renamed functions never alias.
_KEY_CACHE = _cache.MemoCache("meta.workload_key", maxsize=8192)


def names_fingerprint(func: PrimFunc) -> int:
    """Hash of every name in ``func`` — what its alpha-invariant
    structural hash ignores.  Caches whose values print names (workload
    keys, built candidates) key on it next to that hash."""
    parts: List[str] = [func.name]
    parts.extend(buf.name for buf in func.buffer_map.values())
    stack: List[Stmt] = [func.body]
    while stack:
        node = stack.pop()
        if isinstance(node, For):
            parts.append(node.loop_var.name)
            parts.append(node.thread_tag or "")
        elif isinstance(node, Block):
            parts.append(node.name_hint)
            parts.extend(iv.var.name for iv in node.iter_vars)
            parts.extend(buf.name for buf in node.alloc_buffers)
            parts.extend(r.buffer.name for r in node.reads)
            parts.extend(w.buffer.name for w in node.writes)
        stack.extend(children_of(node))
    return hash(tuple(parts))


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
    cache_key = (structural_hash(func), names_fingerprint(func), target.name)
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
    shared conveniences (``record``, ``replay_entry``, ``entries``)
    built on them.  Subclasses only implement the primitives; everything
    keyed flows through them, so an on-disk backend inherits
    record/replay for free.
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

    def replay_entry(
        self,
        func: PrimFunc,
        entry: DatabaseEntry,
        *,
        decision_mode: str = "strict",
        ctx: Optional[DiagnosticContext] = None,
    ) -> Optional[Schedule]:
        """Apply one stored record's sketch + decision vector to ``func``
        (no search, no measurement).

        ``func`` need not be the function the entry was recorded for:
        with ``decision_mode="adapt"`` this is §5.2 forced-decision
        replay across a shape bucket — each stored decision is coerced
        to the nearest feasible choice at ``func``'s extents.  Decisions
        that do not fit the sketch at ``func``'s shape — infeasible, or
        of the wrong type — surface as ``None`` with a ``TIR701``
        diagnostic in ``ctx``; an unknown sketch name as ``None``.
        """
        cls = SKETCHES.get(entry.sketch)
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


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _well_typed(entry: DatabaseEntry) -> bool:
    """Whether a loaded record holds the types a writer stores: string
    identity fields, finite real cycles, a decision vector of ints and
    lists of ints (what the samplers produce), an int-or-null hash."""
    text = (entry.key, entry.workload, entry.target, entry.sketch, entry.provenance)
    return (
        all(isinstance(v, str) for v in text)
        and isinstance(entry.cycles, (int, float))
        and not isinstance(entry.cycles, bool)
        and math.isfinite(entry.cycles)
        and isinstance(entry.decisions, list)
        and all(
            _is_int(d) or (isinstance(d, list) and all(map(_is_int, d)))
            for d in entry.decisions
        )
        and (entry.structural_hash is None or _is_int(entry.structural_hash))
    )


class PersistentDatabase(Database):
    """A durable on-disk database: one JSONL file per entry, held in a
    dict under a lock.

    Layout under ``root``::

        root/
          entries/<workload_key>.jsonl   # one versioned record per line

    Contracts:

    * **Atomic commits** — every :meth:`put` writes the full entry file
      to a temp file in the same directory and ``os.replace``s it into
      place, so a crashed writer can never leave a truncated record.
      Persistence is *incremental*: the entry is durable the moment
      ``put`` returns, which is what lets a tuning session commit each
      task as it finishes.
    * **Corruption recovery** — the scan on open skips, with one
      diagnostic each (collected in :attr:`diagnostics`), every line
      that is truncated, not a JSON object, missing required fields or
      of the wrong field types — never a crash; the last valid line in
      a file wins, so an appended half-line cannot shadow a good record.
    * **Versioned schema** — each line carries ``schema``; records from
      an unknown major version are skipped with a diagnostic.
    """

    def __init__(self, root: str):
        self.root = root
        self._lock = threading.Lock()
        #: human-readable notes about skipped/corrupt records, in scan
        #: order — one per recovered record, the one count of them.
        self.diagnostics: List[str] = []
        self._cache: Dict[str, DatabaseEntry] = {}
        os.makedirs(self._entries_dir, exist_ok=True)
        self._scan()

    # -- layout ---------------------------------------------------------
    @property
    def _entries_dir(self) -> str:
        return os.path.join(self.root, "entries")

    def _entry_path(self, key: str) -> str:
        return os.path.join(self._entries_dir, f"{key}.jsonl")

    # -- loading --------------------------------------------------------
    def _parse_line(self, path: str, lineno: int, line: str) -> Optional[DatabaseEntry]:
        line = line.strip()
        if not line:
            return None
        where = f"{os.path.basename(path)}:{lineno}"
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            self.diagnostics.append(f"{where}: truncated/corrupt JSONL line skipped")
            return None
        if not isinstance(data, dict):
            self.diagnostics.append(f"{where}: line is not a JSON object, skipped")
            return None
        schema = data.get("schema")
        if schema is not None and str(schema).split("/")[0] != DB_SCHEMA.split("/")[0]:
            self.diagnostics.append(f"{where}: unknown schema {schema!r} skipped")
            return None
        fields = {k: v for k, v in data.items() if k in DatabaseEntry.__dataclass_fields__}
        fields.setdefault("provenance", "disk")
        try:
            entry = DatabaseEntry(**fields)
        except TypeError:
            self.diagnostics.append(f"{where}: record missing required fields, skipped")
            return None
        if not _well_typed(entry):
            self.diagnostics.append(f"{where}: record fields have the wrong types, skipped")
            return None
        return entry

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
        for name in sorted(os.listdir(self._entries_dir)):
            if not name.endswith(".jsonl"):
                continue
            entry = self._load_entry_file(os.path.join(self._entries_dir, name))
            if entry is None:
                continue
            key = name[: -len(".jsonl")]
            if entry.key != key:
                self.diagnostics.append(
                    f"{name}: record key {entry.key!r} does not match "
                    "filename, skipped"
                )
                continue
            self._cache[key] = entry

    # -- the protocol ---------------------------------------------------
    def get(self, key: str) -> Optional[DatabaseEntry]:
        with self._lock:
            return self._cache.get(key)

    def put(self, entry: DatabaseEntry) -> DatabaseEntry:
        with self._lock:
            existing = self._cache.get(entry.key)
            if existing is not None and existing.cycles <= entry.cycles:
                return existing
            record = {"schema": DB_SCHEMA, "key": entry.key, **entry.to_record()}
            atomic_write(
                self._entry_path(entry.key), json.dumps(record, sort_keys=True) + "\n"
            )
            self._cache[entry.key] = entry
            return entry

    def evict(self, key: str) -> bool:
        with self._lock:
            existed = self._cache.pop(key, None) is not None
            path = self._entry_path(key)
            if os.path.exists(path):
                os.unlink(path)
                existed = True
        return existed

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._cache)

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._cache
