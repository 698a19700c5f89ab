"""Candidate-evaluation backends (the §4.4 measurement seam).

Evolutionary search draws *candidate specs* — (seed, forced-decision
prefix) pairs — centrally, from one RNG stream, and hands them to an
:class:`Evaluator` to be built and validated.  The contract that keeps
the backends interchangeable:

* **Specs are data.** A :class:`CandidateSpec` is picklable and carries
  no live compiler state; the per-search invariants (base function,
  sketch, target, validation switch) travel once per batch as an
  :class:`EvalContext`.
* **Submission order is result order.** ``evaluate`` returns outcomes
  in the order specs were submitted, regardless of completion order —
  so the search, its statistics, and the flight recording are a pure
  function of (workload, config), never of scheduling.
* **Building is pure.** Candidate construction touches no shared
  mutable state (see ``search._build_candidate``), so it can run in
  another process or inline and produce identical results.

``TuneConfig.search_workers`` picks the backend:

* :class:`SerialEvaluator` — the exact inline path, for
  ``search_workers=1``.
* :class:`ProcessEvaluator` — a ``ProcessPoolExecutor`` backend with
  that many workers otherwise: specs ship to warmed-up worker processes
  with private memo-cache registries, results (and the workers' cache
  counters) ship back, and a batch that cannot cross the pickle
  boundary builds inline instead.

Threads are not a backend: candidate builds are pure Python and would
queue on the interpreter lock.

Pools are expensive, so module-level shared instances are reused across
searches (:func:`get_evaluator`) and torn down at interpreter exit or
explicitly via :func:`shutdown_evaluators`.
"""

from __future__ import annotations

import atexit
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .. import cache as _cache
from ..schedule.validation import _names_fingerprint
from ..sim import Target
from ..tir import PrimFunc, structural_hash

__all__ = [
    "CandidateSpec",
    "EvalContext",
    "EvalOutcome",
    "Evaluator",
    "SerialEvaluator",
    "ProcessEvaluator",
    "get_evaluator",
    "resolve_evaluator",
    "shutdown_evaluators",
]


@dataclass(frozen=True)
class CandidateSpec:
    """One candidate to instantiate: pure picklable data.

    ``seed`` drives the candidate's private decision RNG; ``forced``
    replays a prefix of a parent's decisions (mutation); and
    ``parent_trial`` is flight-recorder lineage only — it never crosses
    into the build, so provenance cannot perturb the search.
    """

    seed: int
    forced: Optional[Tuple[object, ...]] = None
    parent_trial: Optional[int] = None

    def forced_list(self) -> Optional[List[object]]:
        return list(self.forced) if self.forced is not None else None


@dataclass(frozen=True)
class EvalContext:
    """The per-search invariants every spec in a batch shares."""

    func: PrimFunc
    sketch: object  # Sketch — kept loose to avoid an import cycle
    target: Target
    validate: bool = True

    @cached_property
    def names(self) -> int:
        """The base function's name fingerprint, taken once per search.

        ``structural_hash`` ignores names, so this is what keeps a
        renamed copy of a workload from being served the original's
        candidates (``search.candidates``) or context (:meth:`key`).
        """
        return _names_fingerprint(self.func)

    def key(self) -> tuple:
        """A content-stable identity used for per-process context caching."""
        return (
            structural_hash(self.func),
            self.names,
            type(self.sketch).__qualname__,
            self.sketch.token(),
            getattr(self.target, "name", None),
            self.validate,
        )


@dataclass
class EvalOutcome:
    """The result of building one spec, in submission order.

    Exactly one of (``func``, ``rejection``) is set: a successful build
    carries the scheduled function and its consumed decision vector, a
    failed one carries ``("apply" | "invalid", TIR-code)``.
    """

    spec: CandidateSpec
    func: Optional[PrimFunc] = None
    decisions: Optional[List[object]] = None
    rejection: Optional[Tuple[str, str]] = None
    validate_seconds: float = 0.0


def _build_one(ctx: EvalContext, spec: CandidateSpec) -> EvalOutcome:
    """Build a single spec in this process (inline or in a worker)."""
    from .search import _build_candidate_cached

    cand, rejection, validate_seconds = _build_candidate_cached(
        ctx.func, ctx.sketch, spec.seed, spec.forced_list(), ctx.target,
        ctx.validate, ctx.names,
    )
    if cand is None:
        return EvalOutcome(spec, rejection=rejection, validate_seconds=validate_seconds)
    return EvalOutcome(
        spec, func=cand.func, decisions=cand.decisions,
        validate_seconds=validate_seconds,
    )


class Evaluator:
    """Protocol base for candidate-evaluation backends.

    Subclasses implement :meth:`evaluate`; everything else has working
    defaults.  ``workers`` is the parallel width the backend exposes
    (``SearchStats.eval_batch_slots`` accounting) and ``counters()`` the
    backend's own activity: ``busy_seconds`` in :meth:`evaluate`, and for
    the process pool ``fallbacks`` and ``ipc_batches``.  Batches and
    candidates are counted once, by the search
    (``SearchStats.eval_batches`` / ``eval_batch_candidates``).
    """

    name = "abstract"
    workers = 1

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {"busy_seconds": 0.0}

    # -- the protocol ---------------------------------------------------
    def evaluate(
        self, ctx: EvalContext, specs: Sequence[CandidateSpec]
    ) -> List[EvalOutcome]:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release pool resources; the instance is dead afterwards."""

    # -- shared accounting ----------------------------------------------
    def _account(self, seconds: float) -> None:
        with self._lock:
            self._counters["busy_seconds"] += seconds

    def counters(self) -> Dict[str, float]:
        """A snapshot of this backend's occupancy/latency counters."""
        with self._lock:
            return dict(self._counters)

    def __enter__(self) -> "Evaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} workers={self.workers}>"


class SerialEvaluator(Evaluator):
    """The exact inline build path — no pool, no reordering, no cost."""

    name = "serial"

    def evaluate(self, ctx, specs):
        t0 = time.perf_counter()
        outcomes = [_build_one(ctx, spec) for spec in specs]
        self._account(time.perf_counter() - t0)
        return outcomes


# ---------------------------------------------------------------------------
# the process backend
# ---------------------------------------------------------------------------

#: per-worker-process context cache: ctx.key() -> unpickled EvalContext.
#: Bounded crudely — contexts are small and a worker serves few searches.
_WORKER_CONTEXTS: Dict[tuple, EvalContext] = {}
_WORKER_CONTEXTS_MAX = 32
#: per-worker-process cache-counter snapshot for delta shipping.
_WORKER_SNAPSHOT: Dict[str, tuple] = {}
#: the coordinator's :func:`repro.cache.generation` this worker's memo
#: caches belong to.
_WORKER_GENERATION: Optional[int] = None


def _worker_init() -> None:
    """Warm a worker process up-front: import the registries a candidate
    build touches (sketch classes, the tensor-intrinsic table, schedule
    primitives) so the first real spec doesn't pay import latency.  With
    the ``fork`` start method these are inherited already; under
    ``spawn`` this is what makes the first batch representative."""
    import repro.intrin  # noqa: F401
    import repro.meta.sketch  # noqa: F401
    import repro.schedule  # noqa: F401
    global _WORKER_SNAPSHOT, _WORKER_GENERATION
    _WORKER_SNAPSHOT = _cache.snapshot_counts()
    # A forked worker inherits the coordinator's caches and counter
    # together, so they start in step.
    _WORKER_GENERATION = _cache.generation()


def _sync_generation(generation: int) -> None:
    """Empty this worker's caches if the coordinator has called
    :func:`repro.cache.clear_all` since the last batch, so a cold pass
    is cold in every process."""
    global _WORKER_GENERATION
    if generation != _WORKER_GENERATION:
        _cache.clear_all()
        _WORKER_GENERATION = generation


def _worker_cache_delta() -> Dict[str, Tuple[int, int, int]]:
    """Cache-counter activity in this worker since the last shipment —
    the payload :func:`repro.cache.absorb_worker_counts` merges."""
    global _WORKER_SNAPSHOT
    now = _cache.snapshot_counts()
    last = _WORKER_SNAPSHOT
    _WORKER_SNAPSHOT = now
    delta = {}
    for name, (hits, misses, evictions) in now.items():
        prior = last.get(name, (0, 0, 0))
        d = (hits - prior[0], misses - prior[1], evictions - prior[2])
        if any(d):
            delta[name] = d
    return delta


def _worker_build_batch(generation: int, ctx_key: tuple, ctx_blob: bytes, specs_blob: bytes):
    """Build a whole chunk of specs in one IPC round-trip.

    Per-candidate pickling cost is what a 1-core process pool pays for
    nothing, so specs ship as one blob per chunk and outcomes return as
    one list per chunk (submission order preserved), with a single
    cache-counter delta covering the chunk.  The worker's own memo
    caches serve repeat builds; their counters ride back as that delta
    so the coordinator's merged cache view covers the whole fleet.
    """
    _sync_generation(generation)
    ctx = _WORKER_CONTEXTS.get(ctx_key)
    if ctx is None:
        ctx = pickle.loads(ctx_blob)
        if len(_WORKER_CONTEXTS) >= _WORKER_CONTEXTS_MAX:
            _WORKER_CONTEXTS.clear()
        _WORKER_CONTEXTS[ctx_key] = ctx
    specs: List[CandidateSpec] = pickle.loads(specs_blob)
    return [_build_one(ctx, spec) for spec in specs], _worker_cache_delta()


def _worker_ping() -> int:
    import os

    return os.getpid()


class ProcessEvaluator(Evaluator):
    """Candidate evaluation on a pool of worker processes.

    Escapes the GIL: the pure-Python build/validate path runs truly in
    parallel, one private memo-cache registry per worker.  Contexts are
    pickled once per search and cached per-process; specs ship as tiny
    blobs; results ship back with each worker's cache-counter delta,
    which is merged into the coordinator's registry
    (:func:`repro.cache.absorb_worker_counts`).  Every batch also carries
    :func:`repro.cache.generation`, so a ``clear_all()`` in the
    coordinator empties each worker's registry before its next build.

    Specs are shipped in **chunks** — one IPC round-trip per worker
    rather than one per candidate — so a 64-candidate batch on a 1-core
    pool costs one pickle/unpickle cycle instead of 64 (the per-spec
    overhead the PR-6 single-core run exposed).  Chunks are formed and
    flattened in submission order, so results remain byte-identical to
    the serial backend regardless of worker count or chunking.

    A batch that fails to pickle — a closure-carrying sketch, an exotic
    decision object — builds inline, as :class:`SerialEvaluator` would,
    and the ``fallbacks`` counter records it.  A broken pool (a worker
    killed by the OS) degrades the same way permanently.
    """

    name = "processes"

    def __init__(self, workers: int = 2):
        super().__init__()
        self.workers = max(1, int(workers))
        self._counters["fallbacks"] = 0
        self._counters["ipc_batches"] = 0
        self._pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=self.workers, initializer=_worker_init
        )
        self._blobs: Dict[tuple, bytes] = {}

    # -- plumbing -------------------------------------------------------
    def warm_up(self) -> int:
        """Spin every worker up now (rather than on first submit);
        returns the number of live workers."""
        if self._pool is None:
            return 0
        futures = [self._pool.submit(_worker_ping) for _ in range(self.workers)]
        return len({fut.result() for fut in futures})

    def _context_blob(self, ctx: EvalContext, key: tuple) -> bytes:
        blob = self._blobs.get(key)
        if blob is None:
            blob = pickle.dumps(ctx)
            if len(self._blobs) >= _WORKER_CONTEXTS_MAX:
                self._blobs.clear()
            self._blobs[key] = blob
        return blob

    @staticmethod
    def _chunk(specs: Sequence[CandidateSpec], n_chunks: int) -> List[List[CandidateSpec]]:
        """Split ``specs`` into at most ``n_chunks`` contiguous runs.

        Contiguity is what preserves determinism: flattening the chunk
        results in chunk order reproduces the original submission order
        exactly, so chunking is invisible to the search.
        """
        n_chunks = max(1, min(n_chunks, len(specs)))
        size, extra = divmod(len(specs), n_chunks)
        chunks, start = [], 0
        for i in range(n_chunks):
            end = start + size + (1 if i < extra else 0)
            chunks.append(list(specs[start:end]))
            start = end
        return chunks

    def _on_pool(self, ctx, specs) -> Optional[List[EvalOutcome]]:
        """The batch's outcomes built on the pool, or ``None`` when the
        batch will not pickle or the pool is gone."""
        if self._pool is None:
            return None
        try:
            key = ctx.key()
            ctx_blob = self._context_blob(ctx, key)
            chunk_blobs = [
                pickle.dumps(chunk) for chunk in self._chunk(specs, self.workers)
            ]
        except (pickle.PicklingError, TypeError, AttributeError):
            return None
        try:
            futures = [
                self._pool.submit(
                    _worker_build_batch, _cache.generation(), key, ctx_blob, blob
                )
                for blob in chunk_blobs
            ]
            outcomes = []
            for fut in futures:
                results, delta = fut.result()
                if delta:
                    _cache.absorb_worker_counts(delta)
                outcomes.extend(results)
        except BrokenProcessPool:
            self._pool = None  # degrade permanently, keep searching
            return None
        with self._lock:
            self._counters["ipc_batches"] += len(chunk_blobs)
        return outcomes

    # -- the protocol ---------------------------------------------------
    def evaluate(self, ctx, specs):
        if not specs:
            return []
        t0 = time.perf_counter()
        outcomes = self._on_pool(ctx, specs)
        if outcomes is None:
            with self._lock:
                self._counters["fallbacks"] += 1
            outcomes = [_build_one(ctx, spec) for spec in specs]
        self._account(time.perf_counter() - t0)
        return outcomes

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._blobs.clear()


# ---------------------------------------------------------------------------
# shared instances + config resolution
# ---------------------------------------------------------------------------

_SHARED_LOCK = threading.Lock()
_SHARED: Dict[int, Evaluator] = {}


def get_evaluator(workers: int = 1) -> Evaluator:
    """The process-wide shared evaluator for ``workers``: the
    :class:`SerialEvaluator` for 1, a :class:`ProcessEvaluator` with
    that many worker processes otherwise.

    Pools are expensive to start, so every search with the same worker
    count reuses one instance; they are torn down at interpreter exit
    or via :func:`shutdown_evaluators`.
    """
    workers = max(1, int(workers))
    with _SHARED_LOCK:
        evaluator = _SHARED.get(workers)
        if evaluator is None:
            evaluator = SerialEvaluator() if workers == 1 else ProcessEvaluator(workers)
            _SHARED[workers] = evaluator
    return evaluator


def shutdown_evaluators() -> None:
    """Close every shared evaluator (tests, interpreter exit)."""
    with _SHARED_LOCK:
        shared = list(_SHARED.values())
        _SHARED.clear()
    for evaluator in shared:
        evaluator.close()


atexit.register(shutdown_evaluators)


def resolve_evaluator(config) -> Evaluator:
    """The shared evaluator a :class:`~repro.meta.config.TuneConfig`'s
    ``search_workers`` asks for (see :func:`get_evaluator`)."""
    return get_evaluator(config.search_workers)
