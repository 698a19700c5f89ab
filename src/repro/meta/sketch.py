"""Tensorized program sketch generation (§4.3).

A *sketch* fixes the structure of the program (tiling hierarchy, data
movement block placement, tensorization) while leaving parametric
choices (tile sizes, vector widths, unrolling) as sampled decisions
recorded on the schedule — the evolutionary search mutates those
decisions and replays the sketch.

A sketch runs in two parts.  :meth:`Sketch.prefix` takes the steps that
depend on the workload alone — for a tensorized sketch the §4.2
preparation (ReIndex, padding, layout fusion), the AutoCopy stages and
the intrinsic-tile splits — and takes no decision: it samples nothing
and reads no RNG.  :meth:`Sketch.apply` takes the rest, from the first
sampled decision on, given the state the prefix returned (block and
loop references and the prepared tensorization, all still valid in a
fork).  So one search builds its prefix once and forks every candidate
from it through :meth:`~repro.schedule.Schedule.copy`;
:func:`apply_sketch` is the one place either happens.

Sketches:

* :class:`TensorCoreSketch` — the paper's headline flow (Figure 8):
  auto-tensorization (§4.2) + multi-level tiling over blocks/warps with
  AutoCopy data-movement blocks through shared memory and fragments.
* :class:`GpuScalarSketch` — Ansor-style thread-tiled schedule on the
  CUDA-core (scalar) pipeline; used for workloads with no intrinsic
  mapping and by the TVM baseline.
* :class:`CpuSdotSketch` — sdot micro-kernel tiling for the simulated
  ARM CPU.
* :class:`CpuScalarSketch` — parallel + vectorised CPU schedule.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..autotensorize import generate_candidates, prepare_tensorize
from ..intrin import get_intrin, list_intrins
from ..schedule import BlockRV, LoopRV, Schedule, ScheduleError
from ..sim.target import SimCPU, SimGPU, Target
from ..tir import ForKind, PrimFunc, const_int_value
from .autocopy import (
    own_loops,
    schedule_default_spatial_cpu,
    schedule_default_spatial_gpu,
    schedule_fragment_copy,
    schedule_shared_copy,
)

__all__ = [
    "Sketch",
    "TensorCoreSketch",
    "GpuScalarSketch",
    "CpuSdotSketch",
    "CpuScalarSketch",
    "SKETCHES",
    "apply_sketch",
    "sketch_prefix",
    "replay_sketch",
    "generate_sketches",
    "main_block_of",
    "inline_prologue",
    "collapse_epilogue",
    "schedule_remaining_stages",
]


def main_block_of(sch: Schedule) -> Optional[BlockRV]:
    """The block carrying the most work: prefer the reduction block with
    the largest iteration space."""
    best = None
    best_size = -1.0
    for rv in sch.get_blocks():
        block = sch.block_of(rv)
        size = 1.0
        for iv in block.iter_vars:
            extent = const_int_value(iv.dom.extent)
            size *= extent if extent else 1
        if block.is_reduction:
            size *= 1e6  # reductions dominate
        if size > best_size:
            best_size = size
            best = rv
    return best


def inline_prologue(sch: Schedule) -> None:
    """Inline gather/pad/relayout stages into the data-movement blocks
    that consume them (the paper: "ReIndex stages ... will be inlined
    into consumers during the sketch generation phase")."""
    from ..schedule.primitives.compute import _blocks_reading

    changed = True
    while changed:
        changed = False
        for rv in list(sch.get_blocks()):
            try:
                block = sch.block_of(rv)
            except ScheduleError:
                continue
            notes = block.annotations
            # Padding stages are kept standalone: inlining them would
            # drop their clipped read signatures (the Select guard is
            # invisible to region detection).
            is_stage = notes.get("reindex") == "read" or (
                notes.get("reshape") and notes.get("padding") is None
            )
            if not is_stage or block.is_reduction or not block.writes:
                continue
            out_buf = block.writes[0].buffer
            consumers = _blocks_reading(sch.func.body, out_buf)
            if not consumers:
                continue
            if not all(
                c.block.annotations.get("data_movement")
                or c.block.annotations.get("padding")
                or c.block.annotations.get("reindex")
                for c in consumers
            ):
                continue
            try:
                sch.compute_inline(rv)
                changed = True
            except ScheduleError:
                continue


def _has_epilogue(sch: Schedule, main: BlockRV) -> bool:
    """True when another block consumes the main block's output — a
    fused elementwise epilogue that a local write-back stage can absorb
    (see :mod:`repro.frontend.fuse`)."""
    from ..schedule.primitives.compute import _blocks_reading

    block = sch.block_of(main)
    if not block.writes:
        return False
    return bool(_blocks_reading(sch.func.body, block.writes[0].buffer))


def collapse_epilogue(sch: Schedule, main: BlockRV) -> None:
    """Fold identity/elementwise consumers back into their producers
    (extract stages, relayouts, elementwise epilogues like ReLU)."""
    changed = True
    while changed:
        changed = False
        for rv in list(sch.get_blocks()):
            if rv.name == main.name:
                continue
            try:
                block = sch.block_of(rv)
            except ScheduleError:
                continue
            if block.is_reduction or block.init is not None:
                continue
            if block.annotations.get("data_movement"):
                continue  # cache stages are scheduled, not collapsed
            if any(w.buffer.scope != "global" for w in block.writes):
                continue
            # Never inline into the tensorization target: its body must
            # keep the canonical einsum form for intrinsic matching.
            from ..schedule.primitives.compute import _blocks_writing

            producer_is_main = False
            for region in block.reads:
                writers = _blocks_writing(sch.func.body, region.buffer)
                if any(w.block.name_hint == main.name for w in writers):
                    producer_is_main = True
                    break
            if producer_is_main:
                continue
            try:
                sch.reverse_compute_inline(rv)
                changed = True
            except ScheduleError:
                continue


def schedule_remaining_stages(sch: Schedule, target: Target, exclude: Sequence[str]) -> None:
    """Give every still-serial root-level stage a default schedule."""
    skip = set(exclude)
    for rv in list(sch.get_blocks()):
        if rv.name in skip:
            continue
        try:
            block = sch.block_of(rv)
        except ScheduleError:
            continue
        if block.annotations.get("tensorize") or block.annotations.get("reshape"):
            continue
        loops = sch.get_loops(rv)
        kinds = [sch.loop_of(lp).kind for lp in loops]
        if any(k in (ForKind.THREAD_BINDING, ForKind.PARALLEL) for k in kinds):
            continue  # already scheduled / nested under a scheduled nest
        try:
            if isinstance(target, SimGPU):
                schedule_default_spatial_gpu(sch, rv)
            else:
                schedule_default_spatial_cpu(sch, rv)
        except ScheduleError:
            continue


def _sample_tile3(sch: Schedule, loop: LoopRV, cap_mid: int, cap_inner: int):
    """Split a loop into [outer, mid<=cap_mid, inner<=cap_inner] with the
    caps enforced at sampling time (recorded categorical decisions)."""
    from ..schedule import divisors_of

    extent = const_int_value(sch.loop_of(loop).extent)
    inner_choices = [d for d in divisors_of(extent) if d <= cap_inner] or [1]
    inner = sch.sample_categorical(inner_choices)
    rem = extent // inner
    mid_choices = [d for d in divisors_of(rem) if d <= cap_mid] or [1]
    mid = sch.sample_categorical(mid_choices)
    outer = rem // mid
    return sch.split(loop, [outer, mid, inner])


def _sample_tile2(sch: Schedule, loop: LoopRV, cap_inner: int):
    from ..schedule import divisors_of

    extent = const_int_value(sch.loop_of(loop).extent)
    inner_choices = [d for d in divisors_of(extent) if d <= cap_inner] or [1]
    inner = sch.sample_categorical(inner_choices)
    return sch.split(loop, [extent // inner, inner])


class Sketch:
    """Base class: ``prefix`` takes a fresh schedule through the steps
    before the first sampled decision and returns the state ``apply``
    needs; ``apply`` takes the rest, consuming sampled decisions.

    A prefix must take no decision, since every candidate of a search is
    forked from one prefix: :func:`apply_sketch` raises ``ValueError``
    when it does.  Its state may hold only block and loop references and
    the :class:`~repro.autotensorize.PreparedTensorization`, which stay
    valid in a fork.  The base prefix does nothing and returns ``None``.
    """

    name = "sketch"

    def applicable(self, sch: Schedule) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def prefix(self, sch: Schedule) -> object:
        return None

    def apply(self, sch: Schedule, state: object) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def token(self) -> str:
        """Stable identity string used by the flight recorder and the
        tuning database — ``name`` plus the intrinsic it binds, if any,
        so two parameterizations of one sketch class stay distinguishable
        in recordings."""
        intrin = getattr(self, "intrin_name", None)
        return f"{self.name}@{intrin}" if intrin else self.name


class TensorCoreSketch(Sketch):
    """Figure 8's tensorized sketch for the simulated GPU."""

    name = "tensor-core"

    def __init__(self, intrin_name: str = "wmma_16x16x16_f16"):
        self.intrin_name = intrin_name

    def applicable(self, sch: Schedule) -> bool:
        main = main_block_of(sch)
        if main is None:
            return False
        return bool(generate_candidates(sch, main, [self.intrin_name]))

    def prefix(self, sch: Schedule) -> tuple:
        main = main_block_of(sch)
        prep = prepare_tensorize(sch, main, self.intrin_name)
        tm, tn, tk = prep.tile_shape

        # --- data movement blocks (AutoCopy insertion) ------------------
        copies = (
            sch.cache_read(main, 0, "shared"),
            sch.cache_read(main, 0, "wmma.matrix_a"),
            sch.cache_read(main, 1, "shared"),
            sch.cache_read(main, 1, "wmma.matrix_b"),
            sch.cache_write(main, 0, "wmma.accumulator"),
        )

        inline_prologue(sch)
        collapse_epilogue(sch, main)

        # --- intrinsic tiles ---------------------------------------------
        x, y, k = prep.tile_loops
        tiles = (
            *sch.split(x, [None, tm]),
            *sch.split(y, [None, tn]),
            *sch.split(k, [None, tk]),
        )
        return main, prep, copies, tiles

    def apply(self, sch: Schedule, state: tuple) -> None:
        main, prep, copies, tiles = state
        intrin = get_intrin(self.intrin_name)
        tm, tn, tk = prep.tile_shape
        a_shared, a_frag, b_shared, b_frag, acc = copies
        xo, xt, yo, yt, ko, kt = tiles

        # --- multi-level tiling ------------------------------------------
        x_bx, x_ty, x_i = _sample_tile3(sch, xo, cap_mid=4, cap_inner=4)
        y_bx, y_ty, y_i = _sample_tile3(sch, yo, cap_mid=4, cap_inner=4)
        k_o, k_i = _sample_tile2(sch, ko, cap_inner=4)
        sch.reorder(x_bx, y_bx, x_ty, y_ty, k_o, k_i, x_i, y_i, xt, yt, kt)
        x_rows = (
            const_int_value(sch.loop_of(x_ty).extent)
            * const_int_value(sch.loop_of(x_i).extent)
            * tm
        )
        y_cols = (
            const_int_value(sch.loop_of(y_ty).extent)
            * const_int_value(sch.loop_of(y_i).extent)
            * tn
        )
        k_depth = const_int_value(sch.loop_of(k_i).extent) * tk
        bx_parts = list(prep.outer_loops) + [x_bx, y_bx]
        bx = sch.fuse(*bx_parts) if len(bx_parts) > 1 else bx_parts[0]
        ty = sch.fuse(x_ty, y_ty)
        ty_extent = const_int_value(sch.loop_of(ty).extent)
        if ty_extent > 16:
            raise ScheduleError(
                f"tensor-core sketch: {ty_extent} warps per block exceeds the "
                "useful range; resample"
            )
        # Cheap shared-memory feasibility check before building copies.
        if (x_rows + y_cols) * k_depth * 2 > SimGPU.shared_memory_per_block:
            raise ScheduleError("tensor-core sketch: staging tile exceeds shared memory")
        sch.bind(bx, "blockIdx.x")
        sch.bind(ty, "threadIdx.y")

        # --- AutoCopy placement (before blockize so consumer regions are
        # expressed over plain loops) ---------------------------------------
        sch.compute_at(a_frag, k_i)
        sch.compute_at(b_frag, k_i)
        sch.compute_at(a_shared, k_o)
        sch.compute_at(b_shared, k_o)
        sch.reverse_compute_at(acc, ty)

        # --- reduction decomposition + tensorization ----------------------
        init = sch.decompose_reduction(main, k_o)
        sch.tensorize(xt, self.intrin_name)
        fill = intrin.paired.get("fill")
        init_loops = own_loops(sch, init)
        fm, fn = init_loops[-2], init_loops[-1]
        fmo, fmi = sch.split(fm, [None, tm])
        fno, fni = sch.split(fn, [None, tn])
        sch.reorder(fmo, fno, fmi, fni)
        if fill:
            sch.tensorize(fmi, fill)

        # --- AutoCopy scheduling ------------------------------------------
        vec = sch.sample_categorical([1, 2, 4, 8])
        schedule_shared_copy(sch, a_shared, ty_extent, vector_len=vec)
        schedule_shared_copy(sch, b_shared, ty_extent, vector_len=vec)
        load_a = intrin.paired.get("load_A")
        load_b = intrin.paired.get("load_B")
        store = intrin.paired.get("store")
        if load_a:
            schedule_fragment_copy(sch, a_frag, load_a)
        if load_b:
            schedule_fragment_copy(sch, b_frag, load_b)
        if store:
            try:
                schedule_fragment_copy(sch, acc, store)
            except ScheduleError:
                # A fused epilogue changed the copy body: keep plain loops.
                pass

        # --- annotations ----------------------------------------------------
        unroll = sch.sample_categorical([0, 16, 64])
        if unroll:
            sch.annotate(k_i, "pragma_auto_unroll", unroll)
        schedule_remaining_stages(sch, SimGPU(), exclude=[main.name])


class GpuScalarSketch(Sketch):
    """Ansor-style multi-level thread tiling on the scalar pipeline.  It
    keeps the base (empty) prefix: its first step samples."""

    name = "gpu-scalar"

    def applicable(self, sch: Schedule) -> bool:
        return main_block_of(sch) is not None

    def apply(self, sch: Schedule, state: object) -> None:
        from ..schedule import divisors_of

        main = main_block_of(sch)
        block = sch.block_of(main)
        n_reads = len(block.reads)
        copies = []
        writeback = None
        use_cache = bool(sch.sample_categorical([0, 1, 1])) and block.is_reduction
        if use_cache:
            # Stage the inputs through shared memory (cooperative fetch)
            # — the classic Ansor structure; placement happens after
            # tiling.
            for idx in range(min(n_reads, 2)):
                try:
                    copies.append(sch.cache_read(main, idx, "shared"))
                except ScheduleError:
                    pass
        if block.is_reduction:
            # Accumulate in registers; write the output once at the end.
            try:
                writeback = sch.cache_write(main, 0, "local")
            except ScheduleError:
                writeback = None
        collapse_epilogue(sch, main)
        inline_prologue(sch)
        block = sch.block_of(main)
        loops = own_loops(sch, main)
        spatial = [lp for lp, iv in zip(loops, block.iter_vars) if iv.is_spatial]
        reduce = [lp for lp, iv in zip(loops, block.iter_vars) if iv.is_reduce]

        # Per-axis multi-level tiling (Ansor's S-S-S-R-R-S structure):
        # each spatial axis splits into [block, vthread, thread, inner].
        bx_parts, vt_parts, tx_parts, inner_parts = [], [], [], []
        tx_total = 1
        vt_total = 1
        for lp in spatial:
            extent = const_int_value(sch.loop_of(lp).extent)
            i_f = sch.sample_categorical([d for d in divisors_of(extent) if d <= 4] or [1])
            rem = extent // i_f
            t_f = sch.sample_categorical([d for d in divisors_of(rem) if d <= 32] or [1])
            rem //= t_f
            v_f = sch.sample_categorical([d for d in divisors_of(rem) if d <= 2] or [1])
            b, v, t, i = sch.split(lp, [rem // v_f, v_f, t_f, i_f])
            tx_total *= t_f
            vt_total *= v_f
            bx_parts.append(b)
            vt_parts.append(v)
            tx_parts.append(t)
            inner_parts.append(i)
        if not 8 <= tx_total <= 512:
            raise ScheduleError(f"gpu-scalar sketch: {tx_total} threads; resample")
        if vt_total > 8:
            raise ScheduleError("gpu-scalar sketch: too many vthreads; resample")
        r_outer, r_inner = [], []
        for r in reduce:
            ro, ri = sch.split(r, sch.sample_perfect_tile(r, 2, 16))
            r_outer.append(ro)
            r_inner.append(ri)
        order = bx_parts + vt_parts + tx_parts + r_outer + r_inner + inner_parts
        sch.reorder(*order)
        bx = sch.fuse(*bx_parts) if len(bx_parts) > 1 else bx_parts[0]
        vt = sch.fuse(*vt_parts) if len(vt_parts) > 1 else vt_parts[0]
        tx = sch.fuse(*tx_parts) if len(tx_parts) > 1 else tx_parts[0]
        sch.bind(bx, "blockIdx.x")
        sch.bind(vt, "vthread")
        sch.bind(tx, "threadIdx.x")
        if inner_parts:
            sch.unroll(inner_parts[-1])

        # Sink the shared staging to the outer reduction loop, and the
        # register write-back to the thread tile.
        anchor = r_outer[0] if r_outer else None
        for copy in copies:
            try:
                if anchor is not None:
                    sch.compute_at(copy, anchor)
                schedule_shared_copy(
                    sch,
                    copy,
                    1,
                    thread_x=tx_total,
                    vector_len=sch.sample_categorical([1, 2, 4]),
                )
            except ScheduleError:
                pass
        if writeback is not None:
            try:
                sch.reverse_compute_at(writeback, tx)
            except ScheduleError:
                pass
        schedule_remaining_stages(sch, SimGPU(), exclude=[main.name])


class CpuSdotSketch(Sketch):
    """Micro-kernel tiling over the sdot instruction (§5.3)."""

    name = "cpu-sdot"

    def __init__(self, intrin_name: str = "sdot_4x4x4_i8"):
        self.intrin_name = intrin_name

    def applicable(self, sch: Schedule) -> bool:
        main = main_block_of(sch)
        if main is None:
            return False
        return bool(generate_candidates(sch, main, [self.intrin_name]))

    def prefix(self, sch: Schedule) -> tuple:
        main = main_block_of(sch)
        prep = prepare_tensorize(sch, main, self.intrin_name)
        tm, tn, tk = prep.tile_shape
        writeback = None
        if _has_epilogue(sch, main):
            # Accumulate in registers so a fused epilogue can collapse
            # into the write-back instead of re-reading the output.
            try:
                writeback = sch.cache_write(main, 0, "local")
            except ScheduleError:
                writeback = None
        inline_prologue(sch)
        collapse_epilogue(sch, main)

        x, y, k = prep.tile_loops
        tiles = (
            *sch.split(x, [None, tm]),
            *sch.split(y, [None, tn]),
            *sch.split(k, [None, tk]),
        )
        return main, prep, writeback, tiles

    def apply(self, sch: Schedule, state: tuple) -> None:
        main, prep, writeback, tiles = state
        intrin = get_intrin(self.intrin_name)
        tm, tn, tk = prep.tile_shape
        xo, xt, yo, yt, ko, kt = tiles
        x_p, x_i = [LoopRV(n.name) for n in sch.split(xo, sch.sample_perfect_tile(xo, 2, 16))]
        y_o, y_i = [LoopRV(n.name) for n in sch.split(yo, sch.sample_perfect_tile(yo, 2, 16))]
        k_o, k_i = [LoopRV(n.name) for n in sch.split(ko, sch.sample_perfect_tile(ko, 2, 16))]
        sch.reorder(x_p, y_o, k_o, x_i, y_i, k_i, xt, yt, kt)
        to_fuse = list(prep.outer_loops) + [x_p]
        par = sch.fuse(*to_fuse) if len(to_fuse) > 1 else to_fuse[0]
        sch.parallel(par)
        if writeback is not None:
            try:
                sch.reverse_compute_at(writeback, par)
            except ScheduleError:
                pass
        init = sch.decompose_reduction(main, k_o)
        sch.tensorize(xt, self.intrin_name)
        fill = intrin.paired.get("fill")
        init_loops = own_loops(sch, init)
        fm, fn = init_loops[-2], init_loops[-1]
        fmo, fmi = sch.split(fm, [None, tm])
        fno, fni = sch.split(fn, [None, tn])
        sch.reorder(fmo, fno, fmi, fni)
        if fill:
            sch.tensorize(fmi, fill)
        if sch.sample_categorical([0, 1]):
            sch.unroll(k_i)
        schedule_remaining_stages(sch, SimCPU(), exclude=[main.name])


class CpuScalarSketch(Sketch):
    """Parallel + vectorised CPU tiling (TVM-on-CPU baseline shape)."""

    name = "cpu-scalar"

    def applicable(self, sch: Schedule) -> bool:
        return main_block_of(sch) is not None

    def prefix(self, sch: Schedule) -> tuple:
        main = main_block_of(sch)
        writeback = None
        if sch.block_of(main).is_reduction and _has_epilogue(sch, main):
            try:
                writeback = sch.cache_write(main, 0, "local")
            except ScheduleError:
                writeback = None
        collapse_epilogue(sch, main)
        inline_prologue(sch)
        block = sch.block_of(main)
        loops = own_loops(sch, main)
        spatial = [lp for lp, iv in zip(loops, block.iter_vars) if iv.is_spatial]
        reduce = [lp for lp, iv in zip(loops, block.iter_vars) if iv.is_reduce]
        if len(spatial) > 1:
            sch.reorder(*(spatial + reduce))
            fused = sch.fuse(*spatial)
        else:
            fused = spatial[0]
        return main, writeback, tuple(reduce), fused

    def apply(self, sch: Schedule, state: tuple) -> None:
        main, writeback, reduce, fused = state
        tiles = sch.sample_perfect_tile(fused, 3, 16)
        par, mid, inner = [LoopRV(n.name) for n in sch.split(fused, tiles)]
        sch.parallel(par)
        if reduce:
            sch.reorder(*reduce, mid, inner)
        vec_ok = const_int_value(sch.loop_of(inner).extent)
        if vec_ok and vec_ok > 1:
            sch.vectorize(inner)
        if sch.sample_categorical([0, 1]):
            sch.unroll(mid)
        if writeback is not None:
            try:
                sch.reverse_compute_at(writeback, par)
            except ScheduleError:
                pass
        schedule_remaining_stages(sch, SimCPU(), exclude=[main.name])


#: every sketch class by its ``name`` — what a stored record's
#: ``sketch`` field names when it is replayed.
SKETCHES = {
    cls.name: cls
    for cls in (TensorCoreSketch, GpuScalarSketch, CpuSdotSketch, CpuScalarSketch)
}


def sketch_prefix(
    func: PrimFunc, sketch: Sketch, seed: int = 0
) -> Tuple[Schedule, object]:
    """A fresh schedule of ``func`` taken through ``sketch``'s prefix,
    and the state the prefix returned.  Raises ``ScheduleError`` when
    the prefix does not apply, and ``ValueError`` when it took a
    decision: a fork of it would then replay that decision for every
    candidate."""
    sch = Schedule(func, seed=seed, record_trace=False)
    state = sketch.prefix(sch)
    if sch.decisions:
        raise ValueError(
            f"sketch {sketch.token()!r} took {len(sch.decisions)} decision(s) "
            "in its prefix"
        )
    return sch, state


def apply_sketch(
    func: PrimFunc,
    sketch: Sketch,
    *,
    seed: int = 0,
    forced: Optional[List[object]] = None,
    decision_mode: str = "strict",
    prefix: Optional[Tuple[Schedule, object]] = None,
) -> Schedule:
    """A schedule of ``func`` with ``sketch`` applied: its sampled
    decisions come from ``forced`` first, then from the ``seed`` RNG.
    Every candidate the search and the baselines build, and every
    replayed record, is built here.

    Given ``prefix`` — :func:`sketch_prefix` of this ``func`` and
    ``sketch`` — the schedule is a fork of it; without one, the prefix
    runs on a fresh schedule first.  Both build the same program with
    the same decisions.  Raises ``ScheduleError`` when the sketch does
    not apply."""
    if prefix is None:
        sch, state = sketch_prefix(func, sketch, seed)
    else:
        base, state = prefix
        sch = base.copy(seed)
    sch.decision_mode = decision_mode
    sch.forced_decisions = forced
    sketch.apply(sch, state)
    return sch


def replay_sketch(
    func: PrimFunc,
    token: str,
    decisions: List[object],
    *,
    decision_mode: str = "strict",
) -> Optional[Schedule]:
    """§5.2 replay: the sketch ``token`` names, applied to ``func`` with
    every decision forced — no search, no RNG.

    ``token`` is a sketch name, as a database record stores it (the
    sketch's default intrinsic), or ``name@intrin``, as
    :meth:`Sketch.token` gives it to the flight recorder.  Returns
    ``None`` when the token names no sketch, or an intrinsic that is no
    compute intrinsic of a tensorized sketch; raises ``ScheduleError``
    when the decisions do not fit the sketch at ``func``'s shape."""
    name, _, intrin = token.partition("@")
    cls = SKETCHES.get(name)
    if cls is None:
        return None
    if not intrin:
        sketch = cls()
    elif cls in (TensorCoreSketch, CpuSdotSketch) and intrin in list_intrins("compute"):
        sketch = cls(intrin)
    else:
        return None
    return apply_sketch(func, sketch, forced=list(decisions), decision_mode=decision_mode)


def generate_sketches(sch: Schedule, target: Target, allow_tensorize: bool = True) -> List[Sketch]:
    """The applicable sketches for a workload on a target (tensorized
    candidates first, following §4.3's candidate-centric construction)."""
    out: List[Sketch] = []
    if isinstance(target, SimGPU):
        if allow_tensorize:
            for name in target.compute_intrins:
                sk = TensorCoreSketch(name)
                if sk.applicable(sch):
                    out.append(sk)
        out.append(GpuScalarSketch())
    else:
        if allow_tensorize:
            for name in target.compute_intrins:
                sk = CpuSdotSketch(name)
                if sk.applicable(sch):
                    out.append(sk)
        out.append(CpuScalarSketch())
    return out
