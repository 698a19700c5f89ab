"""Span tracing of the program's layers, done from outside the program.

The tracer replaces a layer's public function with a timing wrapper at
*every* place the function is bound: each ``repro.*`` module attribute
that holds it (``repro.meta.search`` imports ``estimate`` and ``verify``
by name, so patching ``repro.sim.estimate`` alone would record nothing)
and, for methods, each class in the hierarchy that defines it.
:meth:`Tracer.restore` puts every original back, so code runs
untouched outside the traced stretches.

Each thread keeps its own span stack, so serve client threads, the
server's worker thread and session tune-worker threads nest their spans
independently.  A span's self time is its duration minus the durations
of its direct children; spans are held in memory and written once, by
:meth:`Tracer.write`, when the run ends.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from typing import Callable, List, Optional, Tuple

# One span: (id, name, thread id, start, end, self seconds, parent id,
# failed, size) -- ``size`` is a per-call quantity such as rows fitted.
Span = Tuple[int, str, int, float, float, float, int, bool, float]


class Tracer:
    """Installs timing wrappers and collects the spans they record."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- installing wrappers ---------------------------------------------
    def _wrap(self, name: str, original: Callable, failed: Optional[Callable],
              size: Optional[Callable]) -> Callable:
        local, spans, ids = self._local, self.spans, self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            # A layer function re-entering itself is one span: call
            # counts then count outermost calls.
            if stack and stack[-1][0] == name:
                return original(*args, **kwargs)
            frame = [name, next(ids), 0.0]  # name, span id, child seconds
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            bad, amount = True, 0.0
            start = clock()
            try:
                result = original(*args, **kwargs)
                bad = bool(failed(result)) if failed is not None else False
                amount = size(args, result) if size is not None else 0.0
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                spans.append(
                    (frame[1], name, threading.get_ident(), start, end,
                     duration - frame[2], parent, bad, amount)
                )

        traced.__wrapped__ = original
        return traced

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_function(self, name: str, module: str, attr: str,
                      failed: Optional[Callable] = None,
                      size: Optional[Callable] = None) -> None:
        """Trace ``module.attr`` under ``name`` wherever a ``repro``
        module binds that same function object.

        ``failed(result)`` marks a call as a rejection; ``size(args,
        result)`` gives the per-call quantity stored in the span."""
        original = getattr(importlib.import_module(module), attr)
        traced = self._wrap(name, original, failed, size)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, traced)

    def wrap_method(self, name: str, cls: type, attr: str,
                    failed: Optional[Callable] = None,
                    size: Optional[Callable] = None) -> None:
        """Trace method ``attr`` of ``cls`` and of every subclass that
        overrides it."""
        todo, seen = [cls], set()
        while todo:
            klass = todo.pop()
            if klass in seen:
                continue
            seen.add(klass)
            todo.extend(klass.__subclasses__())
            if attr in vars(klass):
                self._patch(klass, attr, self._wrap(name, vars(klass)[attr], failed, size))

    def restore(self) -> None:
        """Put every original function back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str, meta: dict) -> None:
        """Write ``meta`` and every span, one JSON document per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(meta) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install_layers(tracer: Tracer) -> None:
    """Wrap the public functions of each layer the benchmark reports.

    Span names are ``<layer>.<function>``; ``failed`` marks a call whose
    outcome was a rejection (an empty diagnostics list means valid);
    ``size`` records rows per GBDT fit and groups per fusion plan.
    """
    import repro  # noqa: F401  (loads every module that binds a wrapped name)
    from repro.arith import Analyzer
    from repro.learn import GradientBoostedTrees
    from repro.meta.cost_model import CostModel
    from repro.meta.database import Database
    from repro.meta.sketch import Sketch

    tracer.wrap_method("sketch.apply", Sketch, "apply")
    tracer.wrap_function("schedule.verify", "repro.schedule.validation", "verify",
                         failed=bool)
    tracer.wrap_method("arith.simplify", Analyzer, "simplify")
    tracer.wrap_function("tir.structural_hash", "repro.tir.structural", "structural_hash")
    tracer.wrap_function("tir.script", "repro.tir.printer", "script")
    tracer.wrap_function("feature.extract", "repro.meta.feature", "extract_features")
    tracer.wrap_method("cost_model.predict", CostModel, "predict")
    tracer.wrap_method("cost_model.update", CostModel, "update")
    tracer.wrap_method("gbdt.fit", GradientBoostedTrees, "fit",
                       size=lambda args, result: len(args[1]))
    tracer.wrap_function("sim.estimate", "repro.sim.cost", "estimate")
    tracer.wrap_method("database.replay", Database, "replay")
    tracer.wrap_method("database.replay", Database, "replay_entry")
    tracer.wrap_method("database.get", Database, "get")
    tracer.wrap_method("database.put", Database, "put")
    tracer.wrap_function("database.workload_key", "repro.meta.database", "workload_key")
    tracer.wrap_function("frontend.fuse", "repro.frontend.fuse", "fuse_graph",
                         size=lambda args, result: result.num_groups)
    tracer.wrap_function("frontend.lower", "repro.frontend.fuse", "lower_group")
    tracer.wrap_function("runtime.compile", "repro.runtime.codegen", "compile_func")
