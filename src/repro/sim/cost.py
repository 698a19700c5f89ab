"""Analytical performance model for scheduled TensorIR programs.

This is the reproduction's stand-in for running on real hardware: a
roofline-style cycle estimator that walks a scheduled PrimFunc and
charges

* scalar arithmetic against the scalar pipelines,
* tensorized blocks against the tensor units (via each intrinsic's
  declared per-issue cost),
* buffer traffic against the memory level of each access's scope
  (with a coalescing/vectorisation efficiency factor), and
* parallelism against the machine's width (occupancy).

The model deliberately captures the first-order effects the paper's
evaluation turns on: tensor units are ~8x (GPU) / ~16x (CPU) faster than
scalar pipes, so tensorized programs shift from compute-bound to
memory-bound and data-movement scheduling decides the winner (§4.3).
Schedules that cache into shared memory at the right loop level reduce
the counted global traffic; vectorised, coalesced copies reduce the
per-byte cost; unrolled loops shed loop overhead — so every scheduling
decision the auto-scheduler searches over moves the estimate the way it
would move a real kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..tir import (
    BinaryOp,
    Block,
    BlockRealize,
    Buffer,
    BufferStore,
    Call,
    Cast,
    For,
    ForKind,
    IfThenElse,
    IntImm,
    LetStmt,
    Not,
    PrimExpr,
    PrimFunc,
    Select,
    SeqStmt,
    Stmt,
    Var,
    collect_vars,
    const_int_value,
    evaluate_expr,
)
from ..tir import dtype as _dt
from ..tir.expr import BufferLoad
from ..tir.stmt import Evaluate
from .. import cache as _cache
from .target import SimCPU, SimGPU, Target

__all__ = ["PerfReport", "estimate", "CostModelError"]


class CostModelError(Exception):
    pass


@dataclass
class PerfReport:
    """Cycle estimate with its roofline breakdown."""

    cycles: float
    seconds: float
    bound: str  # which term dominates: "scalar"|"tensor"|"global"|"shared"|...
    breakdown: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover
        us = self.seconds * 1e6
        return f"PerfReport({self.cycles:.0f} cycles, {us:.1f} us, {self.bound}-bound)"


class _Counters:
    def __init__(self):
        self.scalar_ops = 0.0
        self.tensor_busy = 0.0  # sum of per-issue cycles over all issues
        self.loop_iters = 0.0
        self.global_bytes = 0.0
        self.shared_bytes = 0.0
        self.buffer_bytes: Dict[int, Tuple[Buffer, float]] = {}
        self.block_extents: Dict[str, int] = {}
        self.thread_extents: Dict[str, int] = {}
        self.parallel = 1
        self.max_vthread = 1

    @property
    def blocks(self) -> int:
        total = 1
        for e in self.block_extents.values():
            total *= e
        return total

    @property
    def threads(self) -> int:
        total = 1
        for e in self.thread_extents.values():
            total *= e
        return total


_OP_COST = {"exp": 4.0, "log": 4.0, "sqrt": 2.0, "rsqrt": 2.0, "tanh": 6.0, "erf": 6.0, "sigmoid": 6.0, "pow": 6.0}


def _expr_flops(expr: PrimExpr) -> float:
    """Arithmetic operation count of one evaluation of ``expr``."""
    ops = 0.0
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, BinaryOp):
            ops += 1.0
            stack.append(e.a)
            stack.append(e.b)
        elif isinstance(e, Call):
            ops += _OP_COST.get(e.op, 2.0)
            stack.extend(e.args)
        elif isinstance(e, Select):
            ops += 1.0
            stack.extend((e.condition, e.true_value, e.false_value))
        elif isinstance(e, Cast):
            ops += 0.5
            stack.append(e.value)
        elif isinstance(e, Not):
            ops += 0.5
            stack.append(e.a)
        elif isinstance(e, BufferLoad):
            stack.extend(e.indices)
    return ops


def _collect_loads(expr: PrimExpr) -> List[BufferLoad]:
    loads = []
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, BufferLoad):
            loads.append(e)
            stack.extend(e.indices)
        elif isinstance(e, BinaryOp):
            stack.extend((e.a, e.b))
        elif isinstance(e, Call):
            stack.extend(e.args)
        elif isinstance(e, Select):
            stack.extend((e.condition, e.true_value, e.false_value))
        elif isinstance(e, (Cast, Not)):
            stack.append(e.value if isinstance(e, Cast) else e.a)
    return loads


class _Walker:
    def __init__(self, target: Target):
        self.target = target
        self.c = _Counters()
        #: extents of loops on the current path, by var identity.
        self.loop_extents: Dict[int, int] = {}
        self.innermost_var: Optional[Var] = None
        self.vector_width = 1
        #: substitution of block iterator vars by their binding exprs,
        #: used to trace coalescing through block boundaries.
        self.iter_binding: Dict[int, PrimExpr] = {}
        #: thread tags currently bound on the path: an inner loop bound
        #: to an already-active tag re-distributes over the same threads
        #: (cooperative fetch) instead of multiplying the work.
        self.active_tags: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def walk(self, stmt: Stmt, mult: float) -> None:
        if isinstance(stmt, SeqStmt):
            for s in stmt.stmts:
                self.walk(s, mult)
        elif isinstance(stmt, For):
            self._walk_for(stmt, mult)
        elif isinstance(stmt, BlockRealize):
            self._walk_block(stmt, mult)
        elif isinstance(stmt, BufferStore):
            self._charge_store(stmt, mult)
        elif isinstance(stmt, IfThenElse):
            self.c.scalar_ops += mult * _expr_flops(stmt.condition)
            self.walk(stmt.then_case, mult)
            if stmt.else_case is not None:
                self.walk(stmt.else_case, mult)
        elif isinstance(stmt, LetStmt):
            self.c.scalar_ops += mult * _expr_flops(stmt.value)
            self.walk(stmt.body, mult)
        elif isinstance(stmt, Evaluate):
            self.c.scalar_ops += mult * _expr_flops(stmt.value)
        else:
            from ..tir.stmt import AllocateConst

            if isinstance(stmt, AllocateConst):
                self.walk(stmt.body, mult)
            else:
                raise CostModelError(f"cannot cost {type(stmt).__name__}")

    def _walk_for(self, loop: For, mult: float) -> None:
        extent = const_int_value(loop.extent)
        if extent is None:
            raise CostModelError(f"symbolic loop extent on {loop.loop_var.name}")
        self.loop_extents[id(loop.loop_var)] = extent
        saved_inner = self.innermost_var
        saved_vec = self.vector_width
        new_mult = mult * extent
        if loop.kind == ForKind.SERIAL:
            self.c.loop_iters += new_mult
            self.innermost_var = loop.loop_var
        elif loop.kind == ForKind.UNROLLED:
            self.innermost_var = loop.loop_var  # unrolled: no iter overhead
        elif loop.kind == ForKind.VECTORIZED:
            self.innermost_var = loop.loop_var
            self.vector_width = max(self.vector_width, extent)
            self.c.loop_iters += mult
        elif loop.kind == ForKind.PARALLEL:
            self.c.parallel *= extent
            self.c.loop_iters += new_mult
        saved_tag_extent = None
        tag = loop.thread_tag
        if loop.kind == ForKind.THREAD_BINDING:
            if tag != "vthread" and self.active_tags.get(tag, 0) > 0:
                # Re-binding an active axis: the iterations distribute
                # over the already-launched threads (cooperative fetch),
                # so each thread runs ceil(extent / active) of them.
                active = self.active_tags[tag]
                new_mult = mult * max(1.0, math.ceil(extent / active))
            if tag.startswith("blockIdx"):
                prev = self.c.block_extents.get(tag, 1)
                self.c.block_extents[tag] = max(prev, extent)
            elif tag.startswith("threadIdx"):
                prev = self.c.thread_extents.get(tag, 1)
                self.c.thread_extents[tag] = max(prev, extent)
                # threadIdx.x is the coalescing axis.
                if tag == "threadIdx.x":
                    self.innermost_var = (
                        loop.loop_var if self.innermost_var is None else self.innermost_var
                    )
            else:  # vthread
                self.c.max_vthread = max(self.c.max_vthread, extent)
            if tag != "vthread":
                saved_tag_extent = self.active_tags.get(tag, 0)
                if saved_tag_extent == 0:
                    self.active_tags[tag] = extent
        self.walk(loop.body, new_mult)
        self.innermost_var = saved_inner
        self.vector_width = saved_vec
        if saved_tag_extent is not None:
            self.active_tags[tag] = saved_tag_extent
        del self.loop_extents[id(loop.loop_var)]

    def _walk_block(self, realize: BlockRealize, mult: float) -> None:
        block = realize.block
        if block.annotations.get("reshape"):
            # A row-major reshape relayout: free on real hardware (the
            # compiler elides it / weights are pre-packed offline).
            return
        for iv, binding in zip(block.iter_vars, realize.iter_values):
            self.iter_binding[id(iv.var)] = binding
        intrin_name = block.annotations.get("tensorize")
        if intrin_name:
            self._charge_tensorized(realize, mult, intrin_name)
        else:
            if block.init is not None:
                init_mult = mult / max(1.0, self._reduce_extent(realize))
                self.walk(block.init, init_mult)
            self.walk(block.body, mult)
        for iv in block.iter_vars:
            del self.iter_binding[id(iv.var)]

    def _reduce_extent(self, realize: BlockRealize) -> float:
        """Product of path-loop extents driving reduction iterators —
        the init statement runs on 1/this of the instances."""
        total = 1.0
        seen = set()
        for iv, binding in zip(realize.block.iter_vars, realize.iter_values):
            if not iv.is_reduce:
                continue
            for v in collect_vars(binding):
                if id(v) in self.loop_extents and id(v) not in seen:
                    seen.add(id(v))
                    total *= self.loop_extents[id(v)]
                elif id(v) in self.iter_binding and id(v) not in seen:
                    # an enclosing block's reduce iterator
                    seen.add(id(v))
        return total

    # -- tensorized blocks ------------------------------------------------
    def _charge_tensorized(self, realize: BlockRealize, mult: float, intrin_name: str) -> None:
        from ..intrin import get_intrin

        intrin = get_intrin(intrin_name)
        self.c.tensor_busy += mult * float(intrin.cost.get("cycles", 1.0))
        # Memory traffic for operands that live in addressable memory.
        block = realize.block
        for region in list(block.reads) + list(block.writes):
            scope = region.buffer.scope
            if scope.startswith("wmma") or scope == "local":
                continue
            elements = 1.0
            for rng in region.region:
                extent = const_int_value(rng.extent)
                if extent is None:
                    extent = 1
                elements *= extent
            nbytes = elements * _dt.bytes_of(region.buffer.dtype)
            self._add_traffic(region.buffer, mult * nbytes, efficiency=1.0)

    # -- scalar memory/compute ---------------------------------------------
    def _charge_store(self, store: BufferStore, mult: float) -> None:
        # SIMD width is bounded by the accumulator element width
        # (128-bit vectors: 4 lanes of int32/fp32, 8 of fp16).
        lanes = max(1, 128 // _dt.bits_of(store.buffer.dtype))
        vec = min(self.vector_width, lanes)
        flops = _expr_flops(store.value) + 1.0  # +1 for the store itself
        self.c.scalar_ops += mult * flops / vec if vec > 1 else mult * flops
        self._charge_access(store.buffer, store.indices, mult, is_store=True)
        for load in _collect_loads(store.value):
            self._charge_access(load.buffer, load.indices, mult, is_store=False)

    def _charge_access(self, buffer: Buffer, indices, mult: float, is_store: bool) -> None:
        scope = buffer.scope
        if scope.startswith("wmma") or scope == "local":
            return  # registers
        eff = self._access_efficiency(indices)
        nbytes = _dt.bytes_of(buffer.dtype)
        if not is_store:
            # Register reuse: a load invariant to the innermost loop is
            # hoisted out of it by any real backend — charge it once per
            # outer iteration, not once per instance.
            hoist = 1.0
            v = self.innermost_var
            if v is not None and not any(
                any(u is v for u in collect_vars(idx)) for idx in indices
            ):
                hoist = float(self.loop_extents.get(id(v), 1))
            mult = mult / max(hoist, 1.0)
        self._add_traffic(buffer, mult * nbytes, efficiency=eff)

    def _access_efficiency(self, indices) -> float:
        """1.0 for unit-stride (coalesced / vectorisable) accesses along
        the fastest axis, else a strided-transaction penalty."""
        if not indices:
            return 1.0
        v = self.innermost_var
        if v is None:
            return 1.0
        last = indices[-1]
        stride = _stride_of(last, v)
        if stride is None:
            # the fastest loop variable indexes a *higher* dimension →
            # large stride in memory.
            used_elsewhere = any(
                any(u is v for u in collect_vars(idx)) for idx in indices[:-1]
            )
            return 0.25 if used_elsewhere else 1.0
        if abs(stride) <= 1:
            return 1.0
        if abs(stride) <= 4:
            return 0.5
        return 0.25

    def _add_traffic(self, buffer: Buffer, nbytes: float, efficiency: float) -> None:
        cost_bytes = nbytes / max(efficiency, 1e-6)
        if buffer.scope == "shared":
            self.c.shared_bytes += cost_bytes
        else:
            self.c.global_bytes += cost_bytes
            key = id(buffer)
            prev = self.c.buffer_bytes.get(key)
            total = cost_bytes if prev is None else prev[1] + cost_bytes
            self.c.buffer_bytes[key] = (buffer, total)


def _stride_of(index: PrimExpr, var: Var) -> Optional[int]:
    """Coefficient of ``var`` in ``index`` (None if var is absent)."""
    if not any(v is var for v in collect_vars(index)):
        return None
    env0 = {v: 0 for v in collect_vars(index)}
    env1 = dict(env0)
    env1[var] = 1
    try:
        return int(evaluate_expr(index, env1) - evaluate_expr(index, env0))
    except Exception:  # noqa: BLE001 - non-affine: treat as strided
        return 8


# ---------------------------------------------------------------------------
# roofline combination
# ---------------------------------------------------------------------------


def _combine_gpu(c: _Counters, t: SimGPU) -> PerfReport:
    total_threads = c.blocks * c.threads
    occupancy = min(1.0, total_threads / (t.sm_count * t.full_occupancy_threads))
    occupancy = max(occupancy, 1.0 / (t.sm_count * t.full_occupancy_threads))
    sm_util = min(1.0, c.blocks / t.sm_count) if c.blocks else 1.0
    util = max(0.02, min(1.0, math.sqrt(occupancy * max(sm_util, occupancy))))

    scalar = (c.scalar_ops + 0.5 * c.loop_iters) / (
        t.scalar_flops_per_cycle * t.sm_count * util
    )
    tensor = c.tensor_busy / (t.tensor_units_per_sm * t.sm_count * util)
    # Global traffic: each buffer's first (compulsory) pass comes from
    # DRAM; re-reads of L2-resident buffers hit L2 bandwidth.
    mem_global = 0.0
    for buffer, traffic in c.buffer_bytes.values():
        try:
            footprint = buffer.nbytes()
        except ValueError:
            footprint = t.l2_capacity + 1
        compulsory = min(traffic, float(footprint))
        repeated = traffic - compulsory
        repeat_bw = t.l2_bytes_per_cycle if footprint <= t.l2_capacity else t.global_bytes_per_cycle
        mem_global += compulsory / t.global_bytes_per_cycle + repeated / repeat_bw
    mem_global /= max(util, 0.1)
    mem_shared = c.shared_bytes / (t.shared_bytes_per_cycle_per_sm * t.sm_count * util)

    terms = {
        "scalar": scalar,
        "tensor": tensor,
        "global": mem_global,
        "shared": mem_shared,
    }
    bound = max(terms, key=terms.get)
    peak = terms[bound]
    overlap_rest = 0.15 * (sum(terms.values()) - peak)
    cycles = t.kernel_launch_cycles + peak + overlap_rest
    return PerfReport(
        cycles=cycles,
        seconds=t.cycles_to_seconds(cycles),
        bound=bound,
        breakdown=dict(terms, launch=t.kernel_launch_cycles, occupancy=util),
        counts={
            "scalar_ops": c.scalar_ops,
            "tensor_busy": c.tensor_busy,
            "global_bytes": c.global_bytes,
            "shared_bytes": c.shared_bytes,
            "blocks": c.blocks,
            "threads_per_block": c.threads,
        },
    )


def _cpu_level_bw(t: SimCPU, footprint: int) -> float:
    if footprint <= t.l1_capacity:
        return t.l1_bytes_per_cycle
    if footprint <= t.l2_capacity:
        return t.l2_bytes_per_cycle
    return t.dram_bytes_per_cycle


def _combine_cpu(c: _Counters, t: SimCPU) -> PerfReport:
    cores_used = min(t.cores, max(1, c.parallel))
    util = cores_used / t.cores

    scalar = (c.scalar_ops + 0.5 * c.loop_iters) / (
        t.scalar_ops_per_cycle * t.cores * util
    )
    tensor = c.tensor_busy / max(cores_used, 1)
    mem = 0.0
    for buffer, traffic in c.buffer_bytes.values():
        try:
            footprint = buffer.nbytes()
        except ValueError:
            footprint = t.l2_capacity + 1
        mem += traffic / _cpu_level_bw(t, footprint)
    terms = {"scalar": scalar, "tensor": tensor, "memory": mem}
    bound = max(terms, key=terms.get)
    peak = terms[bound]
    overlap_rest = 0.15 * (sum(terms.values()) - peak)
    cycles = t.op_launch_cycles + peak + overlap_rest
    return PerfReport(
        cycles=cycles,
        seconds=t.cycles_to_seconds(cycles),
        bound=bound,
        breakdown=dict(terms, launch=t.op_launch_cycles, cores_used=cores_used),
        counts={
            "scalar_ops": c.scalar_ops,
            "tensor_busy": c.tensor_busy,
            "memory_bytes": sum(tr for _, tr in c.buffer_bytes.values()),
            "parallel": c.parallel,
        },
    )


#: memoized estimates keyed on (structural hash, target) — the estimate
#: depends only on program structure, never on names.  Stores a pristine
#: copy ("ok") or the error message ("err"); callers get fresh copies
#: because ``estimate`` results are mutated downstream (launch overhead).
_ESTIMATE_CACHE = _cache.MemoCache("sim.estimate", maxsize=4096)


def _copy_report(report: PerfReport) -> PerfReport:
    return PerfReport(
        cycles=report.cycles,
        seconds=report.seconds,
        bound=report.bound,
        breakdown=dict(report.breakdown),
        counts=dict(report.counts),
    )


def estimate(func: PrimFunc, target: Target) -> PerfReport:
    """Estimate the execution cost of ``func`` on ``target``.

    Deterministic in (structure of ``func``, ``target``), so results are
    memoized on :func:`repro.tir.structural_hash` — identical candidates
    re-surfacing during evolutionary search cost a hash, not a walk.
    """
    from ..tir.structural import structural_hash

    key = (structural_hash(func), getattr(target, "name", repr(target)))
    hit = _ESTIMATE_CACHE.lookup(key)
    if hit is not _cache.MISS:
        kind, payload = hit
        if kind == "err":
            raise CostModelError(payload)
        return _copy_report(payload)
    try:
        report = _estimate_impl(func, target)
    except CostModelError as err:
        _ESTIMATE_CACHE.put(key, ("err", str(err)))
        raise
    _ESTIMATE_CACHE.put(key, ("ok", _copy_report(report)))
    return report


def _estimate_impl(func: PrimFunc, target: Target) -> PerfReport:
    walker = _Walker(target)
    root = func.body.block
    walker.walk(root.body, 1.0)
    # Each top-level nest is its own kernel launch / op dispatch.
    body = root.body
    n_kernels = len(body.stmts) if isinstance(body, SeqStmt) else 1
    if isinstance(target, SimGPU):
        report = _combine_gpu(walker.c, target)
        extra = (n_kernels - 1) * target.kernel_launch_cycles
    elif isinstance(target, SimCPU):
        report = _combine_cpu(walker.c, target)
        extra = (n_kernels - 1) * target.op_launch_cycles
    else:
        raise CostModelError(f"no performance model for target {target!r}")
    if extra:
        report.cycles += extra
        report.seconds = target.cycles_to_seconds(report.cycles)
        report.breakdown["launch"] = report.breakdown.get("launch", 0.0) + extra
    return report
