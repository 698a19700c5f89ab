"""Schedule state: the user-facing :class:`Schedule` object.

A Schedule wraps one PrimFunc and exposes the paper's transformation
primitives (§3.2) as methods.  Each primitive is implemented as a
standalone TensorIR→TensorIR transformation in
:mod:`repro.schedule.primitives`; the Schedule resolves *random
variables* (:class:`BlockRV`, :class:`LoopRV`) to nodes of the current
body, applies the transform, and records the call in a replayable
:class:`~repro.schedule.trace.Trace`.

Blocks are referenced by their (unique) ``name_hint`` and loops by their
(unique) loop-variable name, so references stay valid across the
tree-rebuilding transforms.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..diagnostics import DiagnosticContext
from ..tir import (
    Block,
    BlockRealize,
    For,
    PrimFunc,
    Stmt,
    StmtMutator,
    Var,
)
from .sref import (
    ScheduleError,
    find_blocks,
    find_loops,
    loops_above,
    path_to,
    replace_stmt,
)

__all__ = ["BlockRV", "LoopRV", "Schedule", "ScheduleError"]


class BlockRV:
    """A reference to a block, stable across transformations."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover
        return f"BlockRV({self.name})"


class LoopRV:
    """A reference to a loop, stable across transformations."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover
        return f"LoopRV({self.name})"


class _Uniquifier(StmtMutator):
    """Rename duplicate block names and loop variables on entry."""

    def __init__(self):
        self.block_names: Dict[str, int] = {}
        self.var_names: Dict[str, int] = {}
        self._vmap: Dict[Var, Var] = {}

    def _fresh(self, table: Dict[str, int], name: str) -> str:
        count = table.get(name, 0)
        table[name] = count + 1
        return name if count == 0 else f"{name}_{count}"

    def rewrite_var(self, var: Var):
        return self._vmap.get(var, var)

    def rewrite_for(self, stmt: For) -> Stmt:
        new_name = self._fresh(self.var_names, stmt.loop_var.name)
        if new_name != stmt.loop_var.name:
            new_var = Var(new_name, stmt.loop_var.dtype)
            self._vmap[stmt.loop_var] = new_var
            rebuilt = super().rewrite_for(stmt)
            del self._vmap[stmt.loop_var]
            return For(
                new_var,
                rebuilt.min,
                rebuilt.extent,
                rebuilt.kind,
                rebuilt.body,
                rebuilt.thread_tag,
                rebuilt.annotations,
            )
        return super().rewrite_for(stmt)

    def rewrite_block(self, stmt: Block) -> Stmt:
        rebuilt = super().rewrite_block(stmt)
        new_name = self._fresh(self.block_names, stmt.name_hint)
        if new_name != stmt.name_hint:
            rebuilt = rebuilt.replace(name_hint=new_name) if isinstance(rebuilt, Block) else rebuilt
        return rebuilt


class Schedule:
    """A schedulable view over one PrimFunc."""

    def __init__(self, func: PrimFunc, seed: Optional[int] = None, record_trace: bool = True):
        uniq = _Uniquifier()
        self.func = func.with_body(uniq.rewrite_stmt(func.body))
        self.rng = random.Random(seed)
        from .trace import Trace

        self.trace: Optional[Trace] = Trace() if record_trace else None
        self._name_counts: Dict[str, int] = uniq.block_names
        self._var_counts: Dict[str, int] = uniq.var_names
        #: Decisions taken at sampling instructions, in order.  The
        #: evolutionary search re-runs a sketch generator with
        #: ``forced_decisions`` set to a mutated copy of this vector.
        self.decisions: List[object] = []
        self.forced_decisions: Optional[List[object]] = None
        self._forced_idx = 0
        #: how forced decisions are validated: ``"strict"`` (the search
        #: and same-shape replay contract — an infeasible decision
        #: raises) or ``"adapt"`` (cross-shape bucket replay — each
        #: forced decision is coerced to the nearest feasible choice at
        #: the current extents before it is applied).  Adapted replays
        #: record the *coerced* vector in ``decisions``.
        self.decision_mode: str = "strict"
        #: forced decisions that had to be coerced under ``"adapt"``.
        self.adapted_decisions: int = 0
        #: Every primitive-precondition failure observed on this
        #: schedule, as typed diagnostics (shared sink for tooling).
        self.diagnostics = DiagnosticContext()

    # ------------------------------------------------------------------
    # naming / resolution
    # ------------------------------------------------------------------
    def fresh_block_name(self, hint: str) -> str:
        while True:
            count = self._name_counts.get(hint, 0)
            self._name_counts[hint] = count + 1
            name = hint if count == 0 else f"{hint}_{count}"
            # Different hints can collide on the suffixed form; the name
            # itself is registered so the next request skips it.
            if self._name_counts.get(name, 0) == 0 or name == hint:
                self._name_counts[name] = max(1, self._name_counts.get(name, 0))
                return name

    def fresh_var(self, hint: str) -> Var:
        while True:
            count = self._var_counts.get(hint, 0)
            self._var_counts[hint] = count + 1
            name = hint if count == 0 else f"{hint}_{count}"
            if self._var_counts.get(name, 0) == 0 or name == hint:
                self._var_counts[name] = max(1, self._var_counts.get(name, 0))
                return Var(name, "int32")

    def _block_realize(self, rv: Union[BlockRV, str]) -> BlockRealize:
        name = rv.name if isinstance(rv, BlockRV) else rv
        realizes = find_blocks(self.func.body, name)
        if not realizes:
            raise ScheduleError(f"no block named {name!r}")
        if len(realizes) > 1:
            raise ScheduleError(f"block name {name!r} is ambiguous")
        return realizes[0]

    def _loop(self, rv: Union[LoopRV, str]) -> For:
        name = rv.name if isinstance(rv, LoopRV) else rv
        loops = find_loops(self.func.body, name)
        if not loops:
            raise ScheduleError(f"no loop over a variable named {name!r}")
        if len(loops) > 1:
            raise ScheduleError(f"loop variable name {name!r} is ambiguous")
        return loops[0]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get_block(self, name: str) -> BlockRV:
        """Look up a block by name (raises if absent/ambiguous)."""
        self._block_realize(name)
        return BlockRV(name)

    def get_blocks(self) -> List[BlockRV]:
        """All non-root blocks in preorder."""
        return [
            BlockRV(r.block.name_hint)
            for r in find_blocks(self.func.body)
            if r is not self.func.body
        ]

    def get_loops(self, block: BlockRV) -> List[LoopRV]:
        """Loops enclosing ``block``, outermost first."""
        realize = self._block_realize(block)
        return [LoopRV(lp.loop_var.name) for lp in loops_above(self.func.body, realize)]

    def get_child_blocks(self, block: BlockRV) -> List[BlockRV]:
        from .sref import child_block_realizes

        realize = self._block_realize(block)
        return [BlockRV(r.block.name_hint) for r in child_block_realizes(realize.block)]

    def block_of(self, rv: BlockRV) -> Block:
        """The current Block node behind ``rv`` (read-only inspection)."""
        return self._block_realize(rv).block

    def loop_of(self, rv: LoopRV) -> For:
        """The current For node behind ``rv`` (read-only inspection)."""
        return self._loop(rv)

    # ------------------------------------------------------------------
    # state update
    # ------------------------------------------------------------------
    def replace(self, target: Stmt, replacement: Optional[Stmt]) -> None:
        """Replace ``target`` (by identity) in the function body."""
        new_body = replace_stmt(self.func.body, target, replacement)
        self.func = self.func.with_body(new_body)

    def _record(self, inst: str, inputs: Sequence[object], attrs=None, outputs=(), decision=None):
        if self.trace is not None:
            from .trace import Instruction

            self.trace.append(
                Instruction(inst, list(inputs), dict(attrs or {}), list(outputs), decision)
            )

    # ------------------------------------------------------------------
    # schedule primitives (implemented in repro.schedule.primitives.*)
    # ------------------------------------------------------------------
    def _atomic_call(self, fn, *args, **kwargs):
        """Apply a primitive transactionally: on failure the schedule
        state is rolled back so a raising primitive leaves no trace.
        Precondition failures are recorded into ``self.diagnostics``
        (with the pre-failure function attached for span rendering)
        before propagating."""
        saved = self.func
        try:
            return fn(self, *args, **kwargs)
        except ScheduleError as err:
            self.func = saved
            for diag in err.diagnostics:
                if diag.func is None:
                    diag.func = saved
            self.diagnostics.extend(err.diagnostics)
            raise
        except Exception:
            self.func = saved
            raise

    def split(self, loop: LoopRV, factors: Sequence[Optional[int]]) -> List[LoopRV]:
        from .primitives.loops import split

        out = self._atomic_call(split, loop, factors)
        self._record("split", [loop], {"factors": list(factors)}, out)
        return out

    def fuse(self, *loops: LoopRV) -> LoopRV:
        from .primitives.loops import fuse

        out = self._atomic_call(fuse, list(loops))
        self._record("fuse", list(loops), {}, [out])
        return out

    def reorder(self, *loops: LoopRV) -> None:
        from .primitives.loops import reorder

        self._atomic_call(reorder, list(loops))
        self._record("reorder", list(loops))

    def parallel(self, loop: LoopRV) -> None:
        from .primitives.loops import set_loop_kind

        self._atomic_call(set_loop_kind, loop, "parallel")
        self._record("parallel", [loop])

    def vectorize(self, loop: LoopRV) -> None:
        from .primitives.loops import set_loop_kind

        self._atomic_call(set_loop_kind, loop, "vectorized")
        self._record("vectorize", [loop])

    def unroll(self, loop: LoopRV) -> None:
        from .primitives.loops import set_loop_kind

        self._atomic_call(set_loop_kind, loop, "unrolled")
        self._record("unroll", [loop])

    def bind(self, loop: LoopRV, thread: str) -> None:
        from .primitives.loops import bind

        self._atomic_call(bind, loop, thread)
        self._record("bind", [loop], {"thread": thread})

    def annotate(self, target: Union[LoopRV, BlockRV], key: str, value: object) -> None:
        from .primitives.loops import annotate

        self._atomic_call(annotate, target, key, value)
        self._record("annotate", [target], {"key": key, "value": value})

    def compute_at(self, block: BlockRV, loop: LoopRV) -> None:
        from .primitives.compute import compute_at

        self._atomic_call(compute_at, block, loop)
        self._record("compute_at", [block, loop])

    def reverse_compute_at(self, block: BlockRV, loop: LoopRV) -> None:
        from .primitives.compute import reverse_compute_at

        self._atomic_call(reverse_compute_at, block, loop)
        self._record("reverse_compute_at", [block, loop])

    def compute_inline(self, block: BlockRV) -> None:
        from .primitives.compute import compute_inline

        self._atomic_call(compute_inline, block)
        self._record("compute_inline", [block])

    def reverse_compute_inline(self, block: BlockRV) -> None:
        from .primitives.compute import reverse_compute_inline

        self._atomic_call(reverse_compute_inline, block)
        self._record("reverse_compute_inline", [block])

    def cache_read(self, block: BlockRV, read_index: int, scope: str) -> BlockRV:
        from .primitives.cache import cache_read

        out = self._atomic_call(cache_read, block, read_index, scope)
        self._record("cache_read", [block], {"read_index": read_index, "scope": scope}, [out])
        return out

    def cache_write(self, block: BlockRV, write_index: int, scope: str) -> BlockRV:
        from .primitives.cache import cache_write

        out = self._atomic_call(cache_write, block, write_index, scope)
        self._record("cache_write", [block], {"write_index": write_index, "scope": scope}, [out])
        return out

    def decompose_reduction(self, block: BlockRV, loop: LoopRV) -> BlockRV:
        from .primitives.reduction import decompose_reduction

        out = self._atomic_call(decompose_reduction, block, loop)
        self._record("decompose_reduction", [block, loop], {}, [out])
        return out

    def merge_reduction(self, init_block: BlockRV, update_block: BlockRV) -> None:
        from .primitives.reduction import merge_reduction

        self._atomic_call(merge_reduction, init_block, update_block)
        self._record("merge_reduction", [init_block, update_block])

    def blockize(self, loop: LoopRV) -> BlockRV:
        from .primitives.blockize import blockize

        out = self._atomic_call(blockize, loop)
        self._record("blockize", [loop], {}, [out])
        return out

    def tensorize(self, target: Union[LoopRV, BlockRV], intrin: str) -> None:
        from .primitives.blockize import tensorize

        self._atomic_call(tensorize, target, intrin)
        self._record("tensorize", [target], {"intrin": intrin})

    def reindex(
        self, block: BlockRV, buffer_role: str, buffer_index: int, iter_order=None
    ) -> BlockRV:
        from .primitives.reindex import reindex

        out = self._atomic_call(reindex, block, buffer_role, buffer_index, iter_order)
        self._record(
            "reindex",
            [block],
            {
                "buffer_role": buffer_role,
                "buffer_index": buffer_index,
                "iter_order": list(iter_order) if iter_order is not None else None,
            },
            [out],
        )
        return out

    def fuse_buffer_dims(
        self, block: BlockRV, buffer_name: str, dim_groups: Sequence[Sequence[int]]
    ) -> None:
        from .primitives.layout import fuse_buffer_dims

        self._atomic_call(fuse_buffer_dims, block, buffer_name, dim_groups)
        self._record(
            "fuse_buffer_dims",
            [block],
            {"buffer_name": buffer_name, "dim_groups": [list(g) for g in dim_groups]},
        )

    def fuse_block_iters(
        self, block: BlockRV, groups: Sequence[Sequence[int]]
    ) -> List[LoopRV]:
        from .primitives.layout import fuse_block_iters

        names = self._atomic_call(fuse_block_iters, block, groups)
        self._record(
            "fuse_block_iters",
            [block],
            {"groups": [list(g) for g in groups]},
            [LoopRV(n) for n in names],
        )
        return [LoopRV(n) for n in names]

    def pad_einsum(self, block: BlockRV, paddings: Sequence[int]) -> None:
        from .primitives.padding import pad_einsum

        self._atomic_call(pad_einsum, block, paddings)
        self._record("pad_einsum", [block], {"paddings": list(paddings)})

    def set_scope(self, block: BlockRV, write_index: int, scope: str) -> None:
        from .primitives.cache import set_scope

        self._atomic_call(set_scope, block, write_index, scope)
        self._record("set_scope", [block], {"write_index": write_index, "scope": scope})

    # ------------------------------------------------------------------
    # sampling (recorded decisions, mutable by the evolutionary search)
    # ------------------------------------------------------------------
    def sample_perfect_tile(
        self,
        loop: LoopRV,
        n: int,
        max_innermost_factor: int = 64,
        decision: Optional[List[int]] = None,
    ) -> List[int]:
        """Sample ``n`` factors whose product equals the loop extent."""
        from .sampling import coerce_perfect_tile, sample_perfect_tile

        extent = self._loop(loop).extent
        if decision is None:
            decision = self._next_forced_decision()
            if decision is not None and self.decision_mode == "adapt":
                from ..tir import const_int_value

                coerced = coerce_perfect_tile(
                    decision, const_int_value(extent), n, max_innermost_factor
                )
                # A decision the coercer cannot read stays as stored, so
                # the strict check below rejects it, as in strict mode.
                if coerced is not None:
                    if coerced != list(decision):
                        self.adapted_decisions += 1
                    decision = coerced
        factors = sample_perfect_tile(self.rng, extent, n, max_innermost_factor, decision)
        self.decisions.append(list(factors))
        self._record(
            "sample_perfect_tile",
            [loop],
            {"n": n, "max_innermost_factor": max_innermost_factor},
            [],
            decision=list(factors),
        )
        return factors

    def sample_categorical(
        self,
        candidates: Sequence[object],
        probs: Optional[Sequence[float]] = None,
        decision: Optional[int] = None,
    ) -> object:
        """Sample one of ``candidates`` (recorded as an index decision)."""
        from .sampling import coerce_categorical, sample_categorical

        if decision is None:
            decision = self._next_forced_decision()
            if decision is not None and self.decision_mode == "adapt":
                coerced = coerce_categorical(decision, len(candidates))
                if coerced is not None:  # else rejected below, as in strict mode
                    if coerced != decision:
                        self.adapted_decisions += 1
                    decision = coerced
        index = sample_categorical(self.rng, len(candidates), probs, decision)
        self.decisions.append(index)
        self._record(
            "sample_categorical",
            [],
            {"candidates": list(candidates), "probs": list(probs) if probs else None},
            [],
            decision=index,
        )
        return candidates[index]

    def _next_forced_decision(self) -> Optional[object]:
        if self.forced_decisions is None or self._forced_idx >= len(self.forced_decisions):
            return None
        value = self.forced_decisions[self._forced_idx]
        self._forced_idx += 1
        return value

    # ------------------------------------------------------------------
    def copy(self, seed: Optional[int] = None) -> "Schedule":
        """An independent schedule in the same state: a fork.

        The clone shares the (immutable) function and copies everything
        a later step reads — the block and loop-var name counters, the
        decisions and the forced-decision position, the decision mode,
        the diagnostics and the trace (``None`` stays ``None``) — so
        continuing either schedule builds what continuing the other
        would, names included.  Only the RNG differs.

        Determinism contract: with ``seed=None`` the clone's seed is one
        integer drawn from the parent's RNG stream — so clone streams
        are a reproducible function of the parent seed, successive
        copies get distinct well-defined seeds, and the parent's stream
        advances by exactly one draw.  Passing ``seed`` pins the clone's
        stream without consuming parent entropy.
        """
        if seed is None:
            seed = self.rng.randrange(1 << 30)
        clone = object.__new__(Schedule)
        clone.__dict__.update(self.__dict__)
        clone.rng = random.Random(seed)
        clone.trace = self.trace.copy() if self.trace is not None else None
        clone._name_counts = dict(self._name_counts)
        clone._var_counts = dict(self._var_counts)
        clone.decisions = list(self.decisions)
        clone.diagnostics = DiagnosticContext()
        clone.diagnostics.extend(self.diagnostics)
        return clone

    def show(self) -> str:
        """Script of the current program (paper: print at any stage)."""
        return self.func.script()
