"""Program validation (§3.3).

Three families of checks, exactly as the paper lays out:

* **Loop nest validation** — block iterator bindings must form an
  independent quasi-affine map of the enclosing loop iterators
  (pattern-matched by :func:`repro.arith.detect_iter_map`), stay inside
  the iterator domains (or be guarded by the realize predicate), and
  reduction iterators must not be driven by parallel/thread loops.
  Producer blocks must cover the regions consumers read.
* **Threading validation** — thread-extent consistency and launch
  limits, shared-memory capacity, cooperative-fetch coverage, and
  execution scope of tensor intrinsics.
* **Intrinsic constraints** — operand storage scopes required by a
  tensorized block's intrinsic.

``verify`` returns a list of :class:`~repro.diagnostics.Diagnostic`
objects (empty = valid), each carrying a stable ``TIRnnn`` error code
(``TIR1xx`` loop nest, ``TIR2xx`` producer/consumer, ``TIR3xx``
threading/intrinsic) and the offending IR node for span rendering.
``str(diag)`` is the legacy message text, so string-matching callers
are unaffected.  The evolutionary search uses ``verify`` to reject
invalid mutants (§4.4) and aggregates the rejection codes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .. import cache as _cache
from ..arith import Analyzer, IntSet, detect_iter_map, eval_int_set
from ..diagnostics import Diagnostic, DiagnosticContext, DiagnosticError
from ..tir import (
    BlockRealize,
    Buffer,
    For,
    ForKind,
    IntImm,
    PrimFunc,
    Range,
    Stmt,
    Var,
    collect_vars,
    const_int_value,
)
from ..tir.expr import And, LT
from .sref import find_blocks, loops_above

__all__ = [
    "verify",
    "is_valid",
    "VerificationError",
    "assert_valid",
    "shared_footprint_bytes",
]


#: the shared-memory footprint, memoized on structural hash — see
#: :func:`shared_footprint_bytes`.
_FOOTPRINT_CACHE = _cache.MemoCache("schedule.shared_footprint", maxsize=4096)


def shared_footprint_bytes(func: PrimFunc) -> int:
    """Live shared-memory footprint per thread block: for each shared
    buffer, the hull of the region written within one blockIdx iteration
    (what a compacting lowering would allocate).

    Depends only on program structure, so the result is memoized on
    :func:`repro.tir.structural_hash` (both the threading checks and
    feature extraction ask for it, once per candidate each).
    """
    from ..tir.structural import structural_hash

    return _FOOTPRINT_CACHE.get_or_compute(
        structural_hash(func), lambda: _shared_footprint_impl(func)
    )


def _shared_footprint_impl(func: PrimFunc) -> int:
    from ..tir import dtype as _dt

    footprint: Dict[int, int] = {}
    for realize in find_blocks(func.body):
        for region in realize.block.writes:
            buf = region.buffer
            if buf.scope != "shared":
                continue
            hull = _per_block_hull(func, realize, region)
            if hull is None:
                try:
                    elements = buf.numel()
                except ValueError:
                    continue
            else:
                elements = 1
                for iv in hull:
                    elements *= iv.extent() or 1
            nbytes = elements * _dt.bytes_of(buf.dtype)
            prev = footprint.get(id(buf))
            footprint[id(buf)] = nbytes if prev is None else max(prev, nbytes)
    return sum(footprint.values())


def _per_block_hull(func: PrimFunc, realize: BlockRealize, region):
    """Hull of the region one *instance group* of ``realize`` touches:
    the block's own loops (those its iterator bindings use) and thread
    loops are relaxed; all outer serial/blockIdx loops are pinned — a
    reused staging buffer's live tile, not its lifetime union."""
    loops = loops_above(func.body, realize)
    dom: Dict[Var, IntSet] = {}
    for lp in loops:
        extent = const_int_value(lp.extent)
        lo = const_int_value(lp.min)
        if extent is None or lo is None:
            return None
        is_thread = lp.kind == ForKind.THREAD_BINDING and (lp.thread_tag or "").startswith(
            "threadIdx"
        )
        # "Own" loops host only this block; loops shared with other
        # blocks (e.g. the reduction loop the staging sits under) are
        # pinned — the buffer is refilled there, not enlarged.
        exclusive = len(find_blocks(lp)) == 1
        if exclusive or is_thread:
            dom[lp.loop_var] = IntSet.from_range(lo, extent)
        else:
            dom[lp.loop_var] = IntSet.point(lo)
    block = realize.block
    for iv, binding in zip(block.iter_vars, realize.iter_values):
        dom[iv.var] = eval_int_set(binding, dom)
    hull = []
    for rng in region.region:
        lo_set = eval_int_set(rng.min, dom)
        hi_set = eval_int_set(rng.min + rng.extent - 1, dom)
        if lo_set.min_value is None or hi_set.max_value is None:
            return None
        hull.append(IntSet(lo_set.min_value, hi_set.max_value))
    return hull


class VerificationError(DiagnosticError):
    """§3.3 validation rejected the program.

    Carries ``.diagnostics``; ``str()`` is the ``"; "``-joined problem
    text.
    """


def verify(
    func: PrimFunc, target=None, *, ctx: Optional[DiagnosticContext] = None
) -> List[Diagnostic]:
    """Validate ``func``; returns the diagnostics found (empty = valid).

    Each diagnostic's ``str()`` is the old problem string; its ``.code``
    / ``.render()`` give the typed view.  Pass ``ctx`` to accumulate
    into an existing :class:`~repro.diagnostics.DiagnosticContext`.
    """
    if ctx is None:
        ctx = DiagnosticContext(func)
    first = len(ctx.diagnostics)
    realizes = [r for r in find_blocks(func.body) if r is not func.body]
    _check_loop_nests(func, realizes, ctx)
    _check_producer_consumer(func, realizes, ctx)
    _check_execution_order(func, ctx)
    _check_intrinsic_scopes(func, realizes, ctx)
    if target is not None and getattr(target, "kind", None) == "gpu":
        _check_threading(func, realizes, target, ctx)
    return ctx.diagnostics[first:]


def _check_execution_order(func: PrimFunc, ctx: DiagnosticContext) -> None:
    """A block must not read an intermediate buffer before any producer
    of that buffer has run.  Checked on the preorder (= first-execution)
    sequence of blocks: the first reader of an intermediate buffer must
    not precede its first writer."""
    first_write: Dict[int, int] = {}
    first_read: Dict[int, Tuple[int, BlockRealize]] = {}
    params = set(func.buffer_map.values())
    order = [r for r in find_blocks(func.body) if r is not func.body]
    for idx, realize in enumerate(order):
        block = realize.block
        for region in block.writes:
            first_write.setdefault(id(region.buffer), idx)
        for region in block.reads:
            if region.buffer not in params:
                first_read.setdefault(id(region.buffer), (idx, realize))
    for buf_id, (ridx, realize) in first_read.items():
        widx = first_write.get(buf_id)
        if widx is not None and ridx < widx:
            name = realize.block.name_hint
            ctx.emit(
                "TIR203",
                f"{name}: reads a buffer before its producer runs",
                block=name,
                stmt=realize,
            )


def is_valid(func: PrimFunc, target=None) -> bool:
    return not verify(func, target)


def assert_valid(func: PrimFunc, target=None) -> None:
    problems = verify(func, target)
    if problems:
        raise VerificationError(problems)


# ---------------------------------------------------------------------------
# loop nest validation
# ---------------------------------------------------------------------------


def _conjuncts(pred) -> List:
    if isinstance(pred, And):
        return _conjuncts(pred.a) + _conjuncts(pred.b)
    return [pred]


def _check_loop_nests(func: PrimFunc, realizes, ctx: DiagnosticContext) -> None:
    from .sref import path_to

    for realize in realizes:
        block = realize.block
        name = block.name_hint
        loops = loops_above(func.body, realize)
        analyzer = Analyzer()
        extents: Dict[Var, int] = {}
        kinds: Dict[int, str] = {}
        ok = True
        # Iterators of enclosing blocks are legal inputs to the bindings:
        # the outer block's signature guarantees their domains.
        path = path_to(func.body, realize) or []
        for node in path[:-1]:
            if isinstance(node, BlockRealize):
                for iv in node.block.iter_vars:
                    ext = const_int_value(iv.dom.extent)
                    if ext is not None and const_int_value(iv.dom.min) == 0:
                        extents[iv.var] = ext
                        analyzer.bind(iv.var, Range(0, ext))
        for lp in loops:
            if const_int_value(lp.min) != 0:
                ctx.emit(
                    "TIR101",
                    f"{name}: loop {lp.loop_var.name} min != 0",
                    block=name,
                    stmt=lp,
                )
                ok = False
                continue
            extent = const_int_value(lp.extent)
            if extent is None:
                ctx.emit(
                    "TIR102",
                    f"{name}: loop {lp.loop_var.name} has symbolic extent",
                    block=name,
                    stmt=lp,
                )
                ok = False
                continue
            extents[lp.loop_var] = extent
            kinds[id(lp.loop_var)] = lp.kind
            analyzer.bind(lp.loop_var, Range(0, extent))
        if not ok:
            continue

        # 1) quasi-affine independent mapping of the bindings.  When a
        # non-divisible split leaves a guard predicate, the digit algebra
        # no longer matches the pattern matcher; fall back to domain
        # containment only (conservative, like the paper's warning path).
        has_predicate = const_int_value(realize.predicate) != 1
        if realize.iter_values:
            detected = detect_iter_map(
                list(realize.iter_values), extents, analyzer, require_bijective=False
            )
            if detected is None and not has_predicate:
                ctx.emit(
                    "TIR103",
                    f"{name}: iterator bindings are not an independent "
                    "quasi-affine map of the loop iterators",
                    block=name,
                    stmt=realize,
                )
                continue

        # 2) domain containment (predicate-aware).
        guards = {
            _guard_key(c) for c in _conjuncts(realize.predicate) if _guard_key(c)
        }
        for iv, binding in zip(block.iter_vars, realize.iter_values):
            extent = const_int_value(iv.dom.extent)
            if extent is None:
                ctx.emit(
                    "TIR104",
                    f"{name}: symbolic domain for {iv.var.name}",
                    block=name,
                    stmt=realize,
                )
                continue
            bound = analyzer.int_set(binding)
            if bound.is_bounded and bound.min_value >= 0 and bound.max_value < extent:
                continue
            key = _guard_key(LT(binding, IntImm(extent)), analyzer)
            if key is not None and key in {
                _guard_key(c, analyzer) for c in _conjuncts(realize.predicate)
            }:
                continue
            ctx.emit(
                "TIR105",
                f"{name}: binding of {iv.var.name} can leave its "
                f"domain [0, {extent}) and is not guarded by the predicate",
                block=name,
                stmt=realize,
            )

        # 3) reduction iterators must not bind parallel/thread loops.
        for iv, binding in zip(block.iter_vars, realize.iter_values):
            if not iv.is_reduce:
                continue
            for v in collect_vars(binding):
                kind = kinds.get(id(v))
                if kind in (ForKind.PARALLEL, ForKind.THREAD_BINDING):
                    lp = next(l for l in loops if l.loop_var is v)
                    if lp.thread_tag == "vthread":
                        continue
                    ctx.emit(
                        "TIR106",
                        f"{name}: reduction iterator {iv.var.name} is "
                        f"driven by {kind} loop {v.name} (non-atomic cross-thread "
                        "reduction)",
                        block=name,
                        stmt=lp,
                    )


def _guard_key(cond, analyzer: Optional[Analyzer] = None):
    """A canonical key for a `x < c` guard, for predicate matching."""
    from ..arith.simplify import structural_key

    if analyzer is not None:
        cond = analyzer.simplify(cond)
    if isinstance(cond, IntImm):
        return None
    try:
        return structural_key(cond)
    except TypeError:
        return None


# ---------------------------------------------------------------------------
# producer/consumer coverage
# ---------------------------------------------------------------------------


def _concrete_hull(
    func: PrimFunc, realize: BlockRealize, region, analyzer_cache
) -> Optional[List[IntSet]]:
    """Fully-relaxed [min,max] hull of a block's access region."""
    loops = loops_above(func.body, realize)
    dom: Dict[Var, IntSet] = {}
    for lp in loops:
        extent = const_int_value(lp.extent)
        lo = const_int_value(lp.min)
        if extent is None or lo is None:
            return None
        dom[lp.loop_var] = IntSet.from_range(lo, extent)
    # Block iterators take the range of their bindings.
    block = realize.block
    for iv, binding in zip(block.iter_vars, realize.iter_values):
        dom[iv.var] = eval_int_set(binding, dom)
    hull = []
    for rng in region.region:
        lo_set = eval_int_set(rng.min, dom)
        hi_set = eval_int_set(rng.min + rng.extent - 1, dom)
        if lo_set.min_value is None or hi_set.max_value is None:
            return None
        hull.append(IntSet(lo_set.min_value, hi_set.max_value))
    return hull


def _check_producer_consumer(func: PrimFunc, realizes, ctx: DiagnosticContext) -> None:
    writes: Dict[int, Tuple[Buffer, List[List[IntSet]]]] = {}
    reads: Dict[int, List[Tuple[BlockRealize, List[IntSet]]]] = {}
    param_buffers = set(func.buffer_map.values())
    for realize in realizes:
        block = realize.block
        for region in block.writes:
            hull = _concrete_hull(func, realize, region, None)
            if hull is None:
                continue
            writes.setdefault(id(region.buffer), (region.buffer, []))[1].append(hull)
        for region in block.reads:
            if region.buffer in param_buffers:
                continue  # inputs are externally initialised
            hull = _concrete_hull(func, realize, region, None)
            if hull is None:
                continue
            reads.setdefault(id(region.buffer), []).append((realize, hull))
    for buf_id, consumer_list in reads.items():
        if buf_id not in writes:
            consumer = consumer_list[0][0]
            name = consumer.block.name_hint
            ctx.emit(
                "TIR201",
                f"{name}: reads a buffer that no block produces",
                block=name,
                stmt=consumer,
            )
            continue
        buffer, write_hulls = writes[buf_id]
        for d in range(buffer.ndim):
            w_lo = min(h[d].min_value for h in write_hulls)
            w_hi = max(h[d].max_value for h in write_hulls)
            for consumer, hull in consumer_list:
                if hull[d].min_value < w_lo or hull[d].max_value > w_hi:
                    name = consumer.block.name_hint
                    ctx.emit(
                        "TIR202",
                        f"{name}: reads {buffer.name} dim {d} over "
                        f"[{hull[d].min_value}, {hull[d].max_value}] but producers "
                        f"only cover [{w_lo}, {w_hi}]",
                        block=name,
                        stmt=consumer,
                    )


# ---------------------------------------------------------------------------
# intrinsic constraints
# ---------------------------------------------------------------------------


def _check_intrinsic_scopes(func: PrimFunc, realizes, ctx: DiagnosticContext) -> None:
    from ..intrin import get_intrin

    for realize in realizes:
        block = realize.block
        name = block.name_hint
        intrin_name = block.annotations.get("tensorize")
        if not intrin_name:
            continue
        intrin = get_intrin(intrin_name)
        operands = block.annotations.get("tensorize_operands", {})
        buffers = {}
        for region in list(block.reads) + list(block.writes):
            buffers[region.buffer.name] = region.buffer
        for role, required in intrin.operand_scopes.items():
            op_name = operands.get(role)
            if op_name is None or op_name not in buffers:
                ctx.emit(
                    "TIR351",
                    f"{name}: tensorized operand {role!r} not found",
                    block=name,
                    stmt=realize,
                )
                continue
            allowed = (required,) if isinstance(required, str) else tuple(required)
            if buffers[op_name].scope not in allowed:
                ctx.emit(
                    "TIR352",
                    f"{name}: intrinsic {intrin_name} requires operand "
                    f"{role} in scope {allowed}, but {op_name} is in "
                    f"{buffers[op_name].scope!r}",
                    block=name,
                    stmt=realize,
                )


# ---------------------------------------------------------------------------
# threading validation (GPU targets)
# ---------------------------------------------------------------------------


def _check_threading(func: PrimFunc, realizes, target, ctx: DiagnosticContext) -> None:
    from ..intrin import get_intrin
    from ..tir import SeqStmt

    # Each top-level nest under the root block is its own kernel launch:
    # thread-extent consistency and launch limits apply per kernel.
    root_body = func.body.block.body
    kernels = list(root_body.stmts) if isinstance(root_body, SeqStmt) else [root_body]
    for kernel in kernels:
        thread_extents: Dict[str, Set[int]] = {}
        thread_loops: Dict[str, For] = {}
        all_loops: List[For] = []

        def visit(stmt: Stmt) -> None:
            from .sref import children_of

            if isinstance(stmt, For):
                all_loops.append(stmt)
            for child in children_of(stmt):
                visit(child)

        visit(kernel)
        for lp in all_loops:
            if lp.kind == ForKind.THREAD_BINDING and lp.thread_tag != "vthread":
                extent = const_int_value(lp.extent)
                if extent is None:
                    ctx.emit(
                        "TIR301",
                        f"thread loop {lp.loop_var.name} has symbolic extent",
                        stmt=lp,
                    )
                    continue
                thread_extents.setdefault(lp.thread_tag, set()).add(extent)
                thread_loops.setdefault(lp.thread_tag, lp)

        # Thread binding consistency: loops on one axis must agree up to
        # masked subsets (a smaller extent that divides the launch extent
        # lowers to an `if (tid < n)` guard; anything else is flagged).
        for tag, extents in thread_extents.items():
            launch = max(extents)
            bad = sorted(e for e in extents if launch % e != 0)
            if bad:
                ctx.emit(
                    "TIR302",
                    f"inconsistent extents {sorted(extents)} for thread axis {tag}",
                    stmt=thread_loops.get(tag),
                )

        # Launch limits (per kernel: max extent per axis is the launch).
        n_threads = 1
        for tag in ("threadIdx.x", "threadIdx.y", "threadIdx.z"):
            if tag in thread_extents:
                extent = max(thread_extents[tag])
                limit = target.max_thread_extent(tag)
                if extent > limit:
                    ctx.emit(
                        "TIR303",
                        f"{tag} extent {extent} exceeds limit {limit}",
                        stmt=thread_loops.get(tag),
                    )
                n_threads *= extent
        if n_threads > target.max_threads_per_block:
            ctx.emit(
                "TIR304",
                f"{n_threads} threads per block exceeds limit "
                f"{target.max_threads_per_block}",
                stmt=kernel,
            )

    # Shared memory capacity (per-tile live footprint; the allocation is
    # declared full-size but lowering compacts it to the produced tile).
    shared_bytes = shared_footprint_bytes(func)
    if shared_bytes > target.shared_memory_per_block:
        ctx.emit(
            "TIR305",
            f"shared memory {shared_bytes}B exceeds capacity "
            f"{target.shared_memory_per_block}B",
        )

    # Execution scope: warp-level intrinsics must not sit inside a
    # threadIdx.x loop (the 32 lanes of the warp execute it together).
    for realize in realizes:
        intrin_name = realize.block.annotations.get("tensorize")
        if not intrin_name:
            continue
        intrin = get_intrin(intrin_name)
        if intrin.execution_scope != "warp":
            continue
        for lp in loops_above(func.body, realize):
            if lp.kind == ForKind.THREAD_BINDING and lp.thread_tag == "threadIdx.x":
                name = realize.block.name_hint
                ctx.emit(
                    "TIR306",
                    f"{name}: warp-scope intrinsic "
                    f"{intrin_name} may not be nested inside a threadIdx.x loop",
                    block=name,
                    stmt=lp,
                )
                break

    # Cooperative memory access: writers of a shared buffer must cover
    # the reads of all threads in the block (hull check over all axes
    # including thread loops — already concrete in _concrete_hull).
    shared_writes: Dict[int, Tuple[Buffer, List[List[IntSet]]]] = {}
    shared_reads: Dict[int, List[Tuple[BlockRealize, List[IntSet]]]] = {}
    for realize in realizes:
        block = realize.block
        for region in block.writes:
            if region.buffer.scope != "shared":
                continue
            hull = _concrete_hull(func, realize, region, None)
            if hull is not None:
                shared_writes.setdefault(id(region.buffer), (region.buffer, []))[1].append(hull)
        for region in block.reads:
            if region.buffer.scope != "shared":
                continue
            hull = _concrete_hull(func, realize, region, None)
            if hull is not None:
                shared_reads.setdefault(id(region.buffer), []).append(
                    (realize, hull)
                )
    for buf_id, consumer_list in shared_reads.items():
        if buf_id not in shared_writes:
            consumer = consumer_list[0][0]
            name = consumer.block.name_hint
            ctx.emit(
                "TIR307",
                f"{name}: reads a shared buffer no block fills "
                "(cooperative fetch missing)",
                block=name,
                stmt=consumer,
            )
