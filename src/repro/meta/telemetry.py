"""Structured instrumentation for the tuning stack.

Table 1 of the paper is a tuning-*time* result, so where time goes must
be observable, not reconstructed.  ``Telemetry`` collects **spans** —
wall-clock stage timings (``sketch-gen``, ``evolve``, ``validate``,
``measure``, ``model-update``, ``replay``…), each optionally attributed
to a task.  Spans form a **hierarchy**: every span carries a
``span_id`` and a ``parent_id`` link
(``session → task → generation → build/verify/estimate/measure``),
maintained per-thread via a context-manager stack so nesting needs no
plumbing.  A session's searches record into collectors of their own —
in a worker process when it runs them in parallel — and the session
takes their spans in under its own span (:meth:`Telemetry.adopt`).  The flat
``stage_seconds()`` view aggregates **leaf** spans only, so its sums
still track wall time — hierarchy is additive, container spans are
never double-counted.

Spans are all it keeps.  Every count has its own store: per-search
counts in :class:`~repro.meta.search.SearchStats`, tasks searched or
replayed in the session's task reports, cache activity in
:mod:`repro.cache`.

All mutation is lock-protected: one ``Telemetry`` can be shared by
threads — a schedule server's client threads and its miss worker record
into the same collector.
``report()`` returns a JSON-ready dict with spans sorted by start time,
so two identical runs produce byte-identical reports; a session wraps
it with per-task accounting into its own session report.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

__all__ = ["Span", "Telemetry"]


@dataclass
class Span:
    """One completed timing span."""

    stage: str
    task: Optional[str]
    start: float
    duration: float
    thread: str
    #: unique id within one Telemetry (allocation order, not start order).
    span_id: int = 0
    #: enclosing span at record time: the innermost open ``span()`` on
    #: this thread, else ``None``.
    parent_id: Optional[int] = None
    #: serving request id this span was stamped with (``None`` for spans
    #: not tied to one request).  Only the entry-point span of a request
    #: needs the stamp — descendants are reachable via ``parent_id``
    #: links (:meth:`Telemetry.span_tree`).
    request: Optional[str] = None


def _subtree(spans: List[Span], roots: Set[int]) -> List[Span]:
    """The spans among ``spans`` (in record order) that are a root or
    descend from one, in record order.

    A span is recorded when it closes, after its children (``add``
    records at once, under a parent still open), so one newest-first
    pass meets every parent before its children.
    """
    keep = set(roots)
    out = []
    for s in reversed(spans):
        if s.span_id in keep or s.parent_id in keep:
            keep.add(s.span_id)
            out.append(s)
    return out[::-1]


class Telemetry:
    """Thread-safe span collector for one tuning run."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- span hierarchy -------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self) -> Optional[int]:
        """The innermost open span id on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- spans ---------------------------------------------------------
    @contextmanager
    def span(
        self,
        stage: str,
        task: Optional[str] = None,
        request: Optional[str] = None,
    ):
        """Time a stage; nested/concurrent spans are all recorded.

        Yields the span id so callers may reference it (e.g.
        :meth:`since`); spans opened inside the ``with`` body on the
        same thread become children automatically.  ``request`` stamps
        the span with a serving request id — the anchor
        :meth:`span_tree` grows a per-request trace from.
        """
        span_id = next(self._ids)
        parent = self.current_span()
        stack = self._stack()
        stack.append(span_id)
        start = self._clock()
        try:
            yield span_id
        finally:
            duration = self._clock() - start
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(
                        stage, task, start, duration,
                        threading.current_thread().name, span_id, parent,
                        request,
                    )
                )

    def add(
        self,
        stage: str,
        duration: float,
        task: Optional[str] = None,
        start: Optional[float] = None,
        request: Optional[str] = None,
    ) -> None:
        """Record an already-measured duration as a span (used by inner
        loops that accumulate many tiny timings into one span).

        ``start`` is the stage's true start time on the telemetry clock;
        without it the span is assumed to end "now", which misplaces
        accumulated spans on an exported timeline.
        """
        if start is None:
            start = self._clock() - duration
        span_id = next(self._ids)
        parent = self.current_span()
        with self._lock:
            self.spans.append(
                Span(
                    stage, task, start, duration,
                    threading.current_thread().name, span_id, parent,
                    request,
                )
            )

    def adopt(
        self, spans: List[Span], parent: Optional[int], thread: Optional[str] = None
    ) -> None:
        """Take in ``spans`` recorded by another collector — one search of
        a session, perhaps in a worker process — under span ``parent``.

        Each span gets a new id here, so ids stay unique; the spans'
        roots get ``parent`` as their parent; ``thread`` (when given)
        relabels the lane they ran on.  Start times are comparable
        across processes: ``perf_counter`` is a system-wide monotonic
        clock.
        """
        with self._lock:
            ids = {s.span_id: next(self._ids) for s in spans}
            for s in spans:
                self.spans.append(
                    dataclasses.replace(
                        s,
                        span_id=ids[s.span_id],
                        parent_id=ids.get(s.parent_id, parent),
                        thread=thread or s.thread,
                    )
                )

    def span_tree(self, request: str) -> List[Span]:
        """Every completed span belonging to one serving request.

        Roots are the spans stamped ``request=...``; the tree is closed
        over ``parent_id`` links, so work a request triggered on another
        thread (a coalesced tuning batch on the server's miss worker)
        rides along without any per-call plumbing.
        Sorted by (start, span_id) like :meth:`report`.

        Note: only *completed* spans are visible — a request's own
        entry-point span joins the tree once its ``with`` block exits.
        """
        with self._lock:
            spans = list(self.spans)
        roots = {s.span_id for s in spans if s.request == request}
        return sorted(
            _subtree(spans, roots), key=lambda s: (s.start, s.span_id)
        )

    def _leaf_spans(self) -> List[Span]:
        """Spans with no recorded children.

        The flat aggregate views count only leaves: container spans
        (``session``/``task``/``generation``) cover the same wall-clock
        as their children, so counting both would double-count — this is
        what keeps ``stage_seconds()`` sums ≈ wall time now that spans
        form a hierarchy."""
        with self._lock:
            spans = list(self.spans)
        parents = {s.parent_id for s in spans if s.parent_id is not None}
        return [s for s in spans if s.span_id not in parents]

    def stage_seconds(self) -> Dict[str, float]:
        """Total wall-clock per stage over **leaf** spans (concurrent
        spans both count; container spans are structure, not stages)."""
        out: Dict[str, float] = {}
        for s in self._leaf_spans():
            out[s.stage] = out.get(s.stage, 0.0) + s.duration
        return dict(sorted(out.items()))

    # -- windows -------------------------------------------------------
    def mark(self) -> int:
        """Where this collector stands now — the start of a
        :meth:`since` window."""
        with self._lock:
            return len(self.spans)

    def since(self, mark: int, root: int) -> "Telemetry":
        """A new collector holding what was recorded after ``mark``
        under span ``root`` (the root and its descendants).

        How one run reports only itself on a collector that outlives it
        (a server's, shared by every tuning session it starts): the cost
        follows the window, not everything recorded before it.
        """
        with self._lock:
            recent = self.spans[mark:]
        out = Telemetry(self._clock)
        out.spans = _subtree(recent, {root})
        return out

    # -- reporting -----------------------------------------------------
    def report(self) -> dict:
        """A JSON-ready snapshot of everything collected.

        Deterministically ordered — spans by (start, span_id), stages by
        name — so identical runs diff cleanly.
        """
        with self._lock:
            spans = sorted(self.spans, key=lambda s: (s.start, s.span_id))
        return {
            "stage_seconds": self.stage_seconds(),
            "spans": [dataclasses.asdict(s) for s in spans],
        }

    def to_json(self, **dump_kwargs) -> str:
        return json.dumps(self.report(), **dump_kwargs)
