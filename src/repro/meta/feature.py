"""Program feature extraction for the learned cost model (§4.4).

"The feature vector contains information related to memory access
patterns, reuse, and loop annotations.  Importantly, we extract features
from both block signatures in an isolated way as well as the body of the
block (e.g., to mark the use of Tensor Core)."

We reuse the performance-model walker's counters (they are exactly
memory-pattern/annotation aggregates) plus signature-level statistics,
log-scaled into a fixed vector.

Extraction is on the search hot path (every candidate is ranked), so it
is kept lean: one combined traversal collects every block/loop
statistic (the old code walked the tree once per statistic family), the
shared-memory footprint comes from the structurally-hashed cache in
:mod:`repro.schedule.validation`, and whole vectors are memoized on
:func:`repro.tir.structural_hash` — mutated candidates that resurface
are a dictionary hit, not a walk.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from .. import cache as _cache
from ..sim.cost import _Walker
from ..sim.target import Target
from ..tir import Block, BlockRealize, For, ForKind, PrimFunc, const_int_value
from ..schedule.sref import children_of

__all__ = ["extract_features", "FEATURE_NAMES"]

FEATURE_NAMES = [
    "log_scalar_ops",
    "log_tensor_busy",
    "log_global_bytes",
    "log_shared_bytes",
    "log_loop_iters",
    "log_blocks",
    "log_threads",
    "log_parallel",
    "vthread",
    "n_blocks_ir",
    "n_tensorized",
    "n_cache_stages",
    "n_vectorized",
    "n_unrolled",
    "max_vector_width",
    "n_loops",
    "log_flops_per_byte",
    "log_shared_alloc",
    "n_reduce_blocks",
    "log_touched_buffers",
]

#: memoized feature vectors keyed on (structural hash, target).  Cached
#: arrays are frozen (``writeable = False``) because every hit returns
#: the same object.
_FEATURE_CACHE = _cache.MemoCache("meta.features", maxsize=8192)


def _log1(x: float) -> float:
    return math.log1p(max(0.0, float(x)))


def _collect_ir_stats(func: PrimFunc) -> Tuple[List[BlockRealize], List[For]]:
    """All non-root block realizes and all loops, in one traversal
    (replacing the separate ``find_blocks`` + ``find_loops`` walks)."""
    realizes: List[BlockRealize] = []
    loops: List[For] = []
    stack = list(children_of(func.body))
    while stack:
        node = stack.pop()
        if isinstance(node, BlockRealize):
            realizes.append(node)
        elif isinstance(node, For):
            loops.append(node)
        stack.extend(children_of(node))
    return realizes, loops


def extract_features(func: PrimFunc, target: Target) -> np.ndarray:
    """A fixed-length feature vector for one scheduled function.

    Memoized on program structure; cached vectors are read-only (copy
    before mutating, which no caller currently does).
    """
    from ..tir.structural import structural_hash

    key = (structural_hash(func), getattr(target, "name", repr(target)))
    hit = _FEATURE_CACHE.lookup(key)
    if hit is not _cache.MISS:
        return hit
    vec = _extract_features_impl(func, target)
    vec.flags.writeable = False
    _FEATURE_CACHE.put(key, vec)
    return vec


def _extract_features_impl(func: PrimFunc, target: Target) -> np.ndarray:
    walker = _Walker(target)
    walker.walk(func.body.block.body, 1.0)
    c = walker.c

    realizes, loops = _collect_ir_stats(func)
    n_tensorized = n_cache = n_reduce = 0
    for r in realizes:
        block = r.block
        if block.annotations.get("tensorize"):
            n_tensorized += 1
        if block.annotations.get("data_movement"):
            n_cache += 1
        if block.is_reduction:
            n_reduce += 1
    n_vec = n_unroll = 0
    max_vec = 0
    for lp in loops:
        if lp.kind == ForKind.VECTORIZED:
            n_vec += 1
            max_vec = max(max_vec, const_int_value(lp.extent) or 0)
        elif lp.kind == ForKind.UNROLLED:
            n_unroll += 1
    from ..schedule.validation import shared_footprint_bytes

    shared_alloc = shared_footprint_bytes(func)
    flops = c.scalar_ops + c.tensor_busy * 64.0
    total_bytes = c.global_bytes + 1.0

    vec = [
        _log1(c.scalar_ops),
        _log1(c.tensor_busy),
        _log1(c.global_bytes),
        _log1(c.shared_bytes),
        _log1(c.loop_iters),
        _log1(c.blocks),
        _log1(c.threads),
        _log1(c.parallel),
        float(c.max_vthread),
        float(len(realizes)),
        float(n_tensorized),
        float(n_cache),
        float(n_vec),
        float(n_unroll),
        float(max_vec),
        float(len(loops)),
        _log1(flops / total_bytes),
        _log1(shared_alloc),
        float(n_reduce),
        float(len(c.buffer_bytes)),
    ]
    return np.array(vec, dtype=np.float64)
