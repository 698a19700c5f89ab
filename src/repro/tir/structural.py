"""Structural (alpha) equality for TensorIR.

Two IR fragments are structurally equal when they have the same tree
shape and their variables/buffers correspond under a consistent bijective
mapping.  This is the comparison used by tests and by tensor-intrinsic
matching (``tensorize`` checks the candidate block against the intrinsic's
*semantics* block up to renaming).
"""

from __future__ import annotations

from typing import Dict, Optional

from .buffer import Buffer, BufferRegion
from .expr import (
    BinaryOp,
    BufferLoad,
    Call,
    Cast,
    FloatImm,
    IntImm,
    IterVar,
    Not,
    PrimExpr,
    Range,
    Select,
    StringImm,
    Var,
)
from .function import PrimFunc
from .stmt import (
    AllocateConst,
    Block,
    BlockRealize,
    BufferStore,
    Evaluate,
    For,
    IfThenElse,
    LetStmt,
    SeqStmt,
    Stmt,
)

__all__ = [
    "structural_equal",
    "structural_hash",
    "assert_structural_equal",
    "StructuralMatcher",
]


class StructuralMatcher:
    """Stateful matcher accumulating var/buffer correspondences."""

    def __init__(self, map_free_vars: bool = False):
        self.map_free_vars = map_free_vars
        self.var_map: Dict[Var, Var] = {}
        self.rev_var_map: Dict[Var, Var] = {}
        self.buffer_map: Dict[Buffer, Buffer] = {}
        self.rev_buffer_map: Dict[Buffer, Buffer] = {}

    # -- bindings --------------------------------------------------------
    def bind_var(self, a: Var, b: Var) -> bool:
        if a.dtype != b.dtype:
            return False
        if a in self.var_map:
            return self.var_map[a] is b
        if b in self.rev_var_map:
            return False
        self.var_map[a] = b
        self.rev_var_map[b] = a
        return True

    def bind_buffer(self, a: Buffer, b: Buffer) -> bool:
        if a in self.buffer_map:
            return self.buffer_map[a] is b
        if b in self.rev_buffer_map:
            return False
        if a.dtype != b.dtype or a.ndim != b.ndim or a.scope != b.scope:
            return False
        if not all(self.match_expr(sa, sb) for sa, sb in zip(a.shape, b.shape)):
            return False
        self.buffer_map[a] = b
        self.rev_buffer_map[b] = a
        return True

    # -- expressions -----------------------------------------------------
    def match_expr(self, a: PrimExpr, b: PrimExpr) -> bool:
        # No identity shortcut: a shared subtree must still register its
        # variable correspondences, or later uses could bind inconsistently.
        if type(a) is not type(b):
            return False
        if a.dtype != b.dtype:
            return False
        if isinstance(a, Var):
            if a in self.var_map:
                return self.var_map[a] is b
            if self.map_free_vars:
                return self.bind_var(a, b)
            # Free vars must be identical; record the self-binding so a
            # later bound use cannot remap either side.
            return a is b and self.bind_var(a, b)
        if isinstance(a, IntImm):
            return a.value == b.value
        if isinstance(a, FloatImm):
            return a.value == b.value
        if isinstance(a, StringImm):
            return a.value == b.value
        if isinstance(a, Cast):
            return self.match_expr(a.value, b.value)
        if isinstance(a, BinaryOp):
            return self.match_expr(a.a, b.a) and self.match_expr(a.b, b.b)
        if isinstance(a, Not):
            return self.match_expr(a.a, b.a)
        if isinstance(a, Select):
            return (
                self.match_expr(a.condition, b.condition)
                and self.match_expr(a.true_value, b.true_value)
                and self.match_expr(a.false_value, b.false_value)
            )
        if isinstance(a, BufferLoad):
            if not self.match_buffer_use(a.buffer, b.buffer):
                return False
            return len(a.indices) == len(b.indices) and all(
                self.match_expr(ia, ib) for ia, ib in zip(a.indices, b.indices)
            )
        if isinstance(a, Call):
            return (
                a.op == b.op
                and len(a.args) == len(b.args)
                and all(self.match_expr(ia, ib) for ia, ib in zip(a.args, b.args))
            )
        raise TypeError(f"unhandled expr node: {type(a).__name__}")

    def match_buffer_use(self, a: Buffer, b: Buffer) -> bool:
        if a in self.buffer_map:
            return self.buffer_map[a] is b
        if self.map_free_vars:
            return self.bind_buffer(a, b)
        return a is b

    def match_range(self, a: Range, b: Range) -> bool:
        return self.match_expr(a.min, b.min) and self.match_expr(a.extent, b.extent)

    def match_region(self, a: BufferRegion, b: BufferRegion) -> bool:
        if not self.match_buffer_use(a.buffer, b.buffer):
            return False
        return len(a.region) == len(b.region) and all(
            self.match_range(ra, rb) for ra, rb in zip(a.region, b.region)
        )

    # -- statements --------------------------------------------------------
    def match_stmt(self, a: Stmt, b: Stmt) -> bool:
        if type(a) is not type(b):
            return False
        if isinstance(a, BufferStore):
            return (
                self.match_buffer_use(a.buffer, b.buffer)
                and self.match_expr(a.value, b.value)
                and len(a.indices) == len(b.indices)
                and all(self.match_expr(ia, ib) for ia, ib in zip(a.indices, b.indices))
            )
        if isinstance(a, Evaluate):
            return self.match_expr(a.value, b.value)
        if isinstance(a, SeqStmt):
            return len(a.stmts) == len(b.stmts) and all(
                self.match_stmt(sa, sb) for sa, sb in zip(a.stmts, b.stmts)
            )
        if isinstance(a, IfThenElse):
            if not self.match_expr(a.condition, b.condition):
                return False
            if not self.match_stmt(a.then_case, b.then_case):
                return False
            if (a.else_case is None) != (b.else_case is None):
                return False
            return a.else_case is None or self.match_stmt(a.else_case, b.else_case)
        if isinstance(a, LetStmt):
            if not self.match_expr(a.value, b.value):
                return False
            if not self.bind_var(a.var, b.var):
                return False
            return self.match_stmt(a.body, b.body)
        if isinstance(a, For):
            if a.kind != b.kind or a.thread_tag != b.thread_tag:
                return False
            if a.annotations != b.annotations:
                return False
            if not (self.match_expr(a.min, b.min) and self.match_expr(a.extent, b.extent)):
                return False
            if not self.bind_var(a.loop_var, b.loop_var):
                return False
            return self.match_stmt(a.body, b.body)
        if isinstance(a, BlockRealize):
            if len(a.iter_values) != len(b.iter_values):
                return False
            if not all(
                self.match_expr(va, vb) for va, vb in zip(a.iter_values, b.iter_values)
            ):
                return False
            if not self.match_expr(a.predicate, b.predicate):
                return False
            return self.match_stmt(a.block, b.block)
        if isinstance(a, Block):
            return self.match_block(a, b)
        if isinstance(a, AllocateConst):
            if not self.bind_buffer(a.buffer, b.buffer):
                return False
            return self.match_stmt(a.body, b.body)
        raise TypeError(f"unhandled stmt node: {type(a).__name__}")

    def match_block(self, a: Block, b: Block) -> bool:
        if len(a.iter_vars) != len(b.iter_vars):
            return False
        for iva, ivb in zip(a.iter_vars, b.iter_vars):
            if iva.kind != ivb.kind:
                return False
            if not self.match_range(iva.dom, ivb.dom):
                return False
            if not self.bind_var(iva.var, ivb.var):
                return False
        if len(a.alloc_buffers) != len(b.alloc_buffers):
            return False
        for ba, bb in zip(a.alloc_buffers, b.alloc_buffers):
            if not self.bind_buffer(ba, bb):
                return False
        if len(a.reads) != len(b.reads) or len(a.writes) != len(b.writes):
            return False
        if not all(self.match_region(ra, rb) for ra, rb in zip(a.reads, b.reads)):
            return False
        if not all(self.match_region(wa, wb) for wa, wb in zip(a.writes, b.writes)):
            return False
        if a.annotations != b.annotations:
            return False
        if (a.init is None) != (b.init is None):
            return False
        if a.init is not None and not self.match_stmt(a.init, b.init):
            return False
        return self.match_stmt(a.body, b.body)

    def match_func(self, a: PrimFunc, b: PrimFunc) -> bool:
        if len(a.params) != len(b.params):
            return False
        for pa, pb in zip(a.params, b.params):
            if not self.bind_var(pa, pb):
                return False
            if not self.bind_buffer(a.buffer_map[pa], b.buffer_map[pb]):
                return False
        return self.match_stmt(a.body, b.body)


def structural_equal(a, b, map_free_vars: bool = False) -> bool:
    """Alpha-equivalence of two IR fragments.

    Bound variables (loop vars, block iters, let vars, function params)
    always correspond positionally; free variables and externally-declared
    buffers must be identical unless ``map_free_vars`` is set.
    """
    matcher = StructuralMatcher(map_free_vars=map_free_vars)
    if isinstance(a, PrimFunc) and isinstance(b, PrimFunc):
        return matcher.match_func(a, b)
    if isinstance(a, Stmt) and isinstance(b, Stmt):
        return matcher.match_stmt(a, b)
    if isinstance(a, PrimExpr) and isinstance(b, PrimExpr):
        return matcher.match_expr(a, b)
    return False


def assert_structural_equal(a, b, map_free_vars: bool = False) -> None:
    """Raise AssertionError with both scripts when not structurally equal."""
    if not structural_equal(a, b, map_free_vars=map_free_vars):
        from .printer import script

        raise AssertionError(
            "structural inequality\n--- lhs ---\n"
            f"{script(a)}\n--- rhs ---\n{script(b)}"
        )


# ---------------------------------------------------------------------------
# structural (alpha-invariant) hashing
# ---------------------------------------------------------------------------
#
# The hash must satisfy: ``structural_equal(a, b)`` implies
# ``structural_hash(a) == structural_hash(b)``, with per-node memoization
# so re-hashing a program that shares subtrees with an already-hashed one
# costs O(shared boundary), not O(tree).
#
# Memoizing per node rules out numbering bound variables top-down (a
# node's hash would then depend on where it sits).  Instead every subtree
# gets a *context-free* summary ``(digest, free_atoms)``: ``free_atoms``
# is the tuple of variables/buffers occurring free in the subtree, in
# first-occurrence order, and ``digest`` describes the tree shape with
# each atom occurrence replaced by its index into that tuple (de
# Bruijn-style levels local to the subtree).  A parent merges its
# children's atom tuples into one first-occurrence list and folds each
# child in as ``(child_digest, index-pattern)``; a binding node
# additionally records where its bound atoms landed and then drops them
# from the outward tuple.  Renaming a bound variable changes neither any
# digest nor any pattern, so alpha-equivalent trees agree node-by-node —
# and each node's summary is a pure function of the subtree, safe to
# cache on the node itself (the ``_memo_hash`` slot; races between
# threads recompute the identical value, which is benign).
#
# What the digest includes mirrors ``StructuralMatcher`` exactly: node
# types, dtypes, immediate values, ``For`` kind/thread_tag/annotations,
# ``Block`` annotations and iterator kinds, ``Call.op``, and buffer
# dtype/ndim/scope/shape at binding sites.  It excludes what the matcher
# ignores: ``PrimFunc.name``, ``Block.name_hint`` and
# ``AllocateConst.data``.  Annotation dicts are canonicalized by sorted
# key so insertion order cannot leak into the hash.
#
# The final ``structural_hash`` combines the root digest with the
# remaining free atoms — by identity (``id``) in the default mode, where
# ``structural_equal`` requires free atoms to be identical objects, or by
# a coarse (dtype, ndim, scope) signature under ``map_free_vars``, where
# any consistent renaming must collide (the contract is one-directional:
# equal programs must agree; unequal programs may).  Everything else a
# digest folds in is a string, number or tuple of them — a missing
# attribute or a ``None`` value enters as the ``_NONE`` constant — so the
# hash of a ``PrimFunc`` (whose every atom is bound) is the same in every
# process that shares ``PYTHONHASHSEED``; what hashes free atoms by
# identity is stable only within one process.  Use
# :func:`repro.meta.database.workload_key`, a digest of the script text,
# for anything persisted across seeds.

from .. import cache as _cache

#: hit/miss counters of the per-node memo, surfaced through
#: :func:`repro.cache.cache_stats` as ``tir.structural_hash_nodes``.
_NODE_HITS = 0
_NODE_MISSES = 0

_cache.register_stats_source(
    "tir.structural_hash_nodes", lambda: (_NODE_HITS, _NODE_MISSES)
)

#: leaf digest marking a buffer *use* (the buffer's own signature enters
#: the hash at its binding site, not at every use).
_BUFFER_USE_DIGEST = hash("tir.buffer_use")

#: what the hash folds in where a node has no attribute, or an attribute
#: is ``None``: ``hash(None)`` follows the object's address on Python
#: 3.11, which would make every hash differ between processes.
_NONE = ("none",)


def _canon(value):
    """A hashable, order-canonical image of an annotation value."""
    if isinstance(value, dict):
        return ("d",) + tuple((k, _canon(value[k])) for k in sorted(value))
    if isinstance(value, (list, tuple)):
        return ("l",) + tuple(_canon(v) for v in value)
    if value is None:
        return _NONE
    if isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def _combine(kind, attrs, parts, binders=()):
    """Fold child summaries into one ``(digest, free_atoms)`` summary.

    ``parts`` are child ``(digest, atoms)`` pairs in structural order;
    ``binders`` are the atoms this node binds (dropped from the outward
    tuple after their positions are recorded in the digest).
    """
    order = []
    index = {}
    folded = []
    for digest, atoms in parts:
        pattern = []
        for atom in atoms:
            key = id(atom)
            pos = index.get(key)
            if pos is None:
                pos = len(order)
                index[key] = pos
                order.append(atom)
            pattern.append(pos)
        folded.append((digest, tuple(pattern)))
    if binders:
        bound_positions = tuple(index.get(id(b), -1) for b in binders)
        digest = hash((kind, attrs, tuple(folded), bound_positions))
        bound_ids = {id(b) for b in binders}
        free = tuple(a for a in order if id(a) not in bound_ids)
    else:
        digest = hash((kind, attrs, tuple(folded)))
        free = tuple(order)
    return digest, free


def _var_decl(var: Var):
    """The summary of a variable at its binding site."""
    return hash(("VarDecl", var.dtype)), (var,)


def _buffer_use(buf: Buffer):
    return _BUFFER_USE_DIGEST, (buf,)


def _buffer_decl(buf: Buffer):
    """The summary of a buffer at its binding site: signature + shape
    (matching ``StructuralMatcher.bind_buffer``).  Memoized on the node."""
    global _NODE_HITS, _NODE_MISSES
    cached = getattr(buf, "_memo_hash", None)
    if cached is not None:
        _NODE_HITS += 1
        return cached
    _NODE_MISSES += 1
    parts = [_buffer_use(buf)]
    parts.extend(_hash_expr(dim) for dim in buf.shape)
    summary = _combine("BufferDecl", (buf.dtype, buf.ndim, buf.scope), parts)
    buf._memo_hash = summary
    return summary


def _hash_range(rng: Range):
    return _combine("Range", _NONE, (_hash_expr(rng.min), _hash_expr(rng.extent)))


def _hash_region(region: BufferRegion):
    parts = [_buffer_use(region.buffer)]
    for rng in region.region:
        parts.append(_hash_range(rng))
    return _combine("Region", _NONE, parts)


def _hash_expr(expr: PrimExpr):
    global _NODE_HITS, _NODE_MISSES
    cached = getattr(expr, "_memo_hash", None)
    if cached is not None:
        _NODE_HITS += 1
        return cached
    _NODE_MISSES += 1
    if isinstance(expr, Var):
        summary = hash(("Var", expr.dtype)), (expr,)
    elif isinstance(expr, (IntImm, FloatImm, StringImm)):
        summary = hash((type(expr).__name__, expr.dtype, expr.value)), ()
    elif isinstance(expr, Cast):
        summary = _combine("Cast", expr.dtype, (_hash_expr(expr.value),))
    elif isinstance(expr, BinaryOp):
        summary = _combine(
            type(expr).__name__,
            expr.dtype,
            (_hash_expr(expr.a), _hash_expr(expr.b)),
        )
    elif isinstance(expr, Not):
        summary = _combine("Not", expr.dtype, (_hash_expr(expr.a),))
    elif isinstance(expr, Select):
        summary = _combine(
            "Select",
            expr.dtype,
            (
                _hash_expr(expr.condition),
                _hash_expr(expr.true_value),
                _hash_expr(expr.false_value),
            ),
        )
    elif isinstance(expr, BufferLoad):
        parts = [_buffer_use(expr.buffer)]
        parts.extend(_hash_expr(i) for i in expr.indices)
        summary = _combine("BufferLoad", expr.dtype, parts)
    elif isinstance(expr, Call):
        parts = [_hash_expr(a) for a in expr.args]
        summary = _combine("Call", (expr.dtype, expr.op), parts)
    else:
        raise TypeError(f"unhandled expr node: {type(expr).__name__}")
    expr._memo_hash = summary
    return summary


def _hash_block(block: Block):
    parts = []
    kinds = []
    for iv in block.iter_vars:
        kinds.append(iv.kind)
        parts.append(
            _combine(
                "IterVar",
                iv.kind,
                (
                    _hash_expr(iv.dom.min),
                    _hash_expr(iv.dom.extent),
                    _var_decl(iv.var),
                ),
            )
        )
    for buf in block.alloc_buffers:
        parts.append(_buffer_decl(buf))
    for region in block.reads:
        parts.append(_hash_region(region))
    for region in block.writes:
        parts.append(_hash_region(region))
    if block.init is not None:
        parts.append(_hash_stmt(block.init))
    parts.append(_hash_stmt(block.body))
    binders = tuple(iv.var for iv in block.iter_vars) + tuple(block.alloc_buffers)
    # name_hint intentionally excluded: the matcher ignores it.
    attrs = (
        len(block.iter_vars),
        len(block.reads),
        len(block.writes),
        block.init is not None,
        _canon(block.annotations),
    )
    return _combine("Block", attrs, parts, binders)


def _hash_stmt(stmt: Stmt):
    global _NODE_HITS, _NODE_MISSES
    cached = getattr(stmt, "_memo_hash", None)
    if cached is not None:
        _NODE_HITS += 1
        return cached
    _NODE_MISSES += 1
    if isinstance(stmt, BufferStore):
        parts = [_buffer_use(stmt.buffer), _hash_expr(stmt.value)]
        parts.extend(_hash_expr(i) for i in stmt.indices)
        summary = _combine("BufferStore", _NONE, parts)
    elif isinstance(stmt, Evaluate):
        summary = _combine("Evaluate", _NONE, (_hash_expr(stmt.value),))
    elif isinstance(stmt, SeqStmt):
        summary = _combine("SeqStmt", _NONE, [_hash_stmt(s) for s in stmt.stmts])
    elif isinstance(stmt, IfThenElse):
        parts = [_hash_expr(stmt.condition), _hash_stmt(stmt.then_case)]
        if stmt.else_case is not None:
            parts.append(_hash_stmt(stmt.else_case))
        summary = _combine("IfThenElse", stmt.else_case is not None, parts)
    elif isinstance(stmt, LetStmt):
        parts = (
            _hash_expr(stmt.value),
            _var_decl(stmt.var),
            _hash_stmt(stmt.body),
        )
        summary = _combine("LetStmt", _NONE, parts, (stmt.var,))
    elif isinstance(stmt, For):
        parts = (
            _hash_expr(stmt.min),
            _hash_expr(stmt.extent),
            _var_decl(stmt.loop_var),
            _hash_stmt(stmt.body),
        )
        attrs = (stmt.kind, _canon(stmt.thread_tag), _canon(stmt.annotations))
        summary = _combine("For", attrs, parts, (stmt.loop_var,))
    elif isinstance(stmt, BlockRealize):
        parts = [_hash_expr(v) for v in stmt.iter_values]
        parts.append(_hash_expr(stmt.predicate))
        parts.append(_hash_stmt(stmt.block))
        summary = _combine("BlockRealize", len(stmt.iter_values), parts)
    elif isinstance(stmt, Block):
        summary = _hash_block(stmt)
    elif isinstance(stmt, AllocateConst):
        # ``data`` intentionally excluded: the matcher ignores it.
        parts = (_buffer_decl(stmt.buffer), _hash_stmt(stmt.body))
        summary = _combine("AllocateConst", _NONE, parts, (stmt.buffer,))
    else:
        raise TypeError(f"unhandled stmt node: {type(stmt).__name__}")
    stmt._memo_hash = summary
    return summary


def _hash_func(func: PrimFunc):
    global _NODE_HITS, _NODE_MISSES
    cached = getattr(func, "_memo_hash", None)
    if cached is not None:
        _NODE_HITS += 1
        return cached
    _NODE_MISSES += 1
    parts = []
    binders = []
    for param in func.params:
        parts.append(_var_decl(param))
        parts.append(_buffer_decl(func.buffer_map[param]))
        binders.append(param)
        binders.append(func.buffer_map[param])
    parts.append(_hash_stmt(func.body))
    # name (and attrs) intentionally excluded: the matcher ignores them.
    summary = _combine("PrimFunc", len(func.params), parts, tuple(binders))
    func._memo_hash = summary
    return summary


def _free_atom_signature(atom) -> tuple:
    if isinstance(atom, Buffer):
        return ("buffer", atom.dtype, atom.ndim, atom.scope)
    return ("var", atom.dtype)


def structural_hash(node, map_free_vars: bool = False) -> int:
    """Alpha-invariant hash consistent with :func:`structural_equal`:
    equal programs always agree (collisions the other way are possible
    but vanishingly rare).  Summaries are cached per node, so re-hashing
    shared subtrees is O(1).  A ``PrimFunc``'s hash is stable across
    processes that share ``PYTHONHASHSEED``; a fragment with free atoms
    hashes them by identity in the default mode, so its hash is stable
    only within one process.
    """
    if isinstance(node, PrimFunc):
        digest, free = _hash_func(node)
    elif isinstance(node, Stmt):
        digest, free = _hash_stmt(node)
    elif isinstance(node, PrimExpr):
        digest, free = _hash_expr(node)
    else:
        raise TypeError(f"cannot structurally hash {type(node).__name__}")
    if map_free_vars:
        tail = tuple(_free_atom_signature(a) for a in free)
    else:
        tail = tuple(id(a) for a in free)
    return hash((digest, map_free_vars, tail))
