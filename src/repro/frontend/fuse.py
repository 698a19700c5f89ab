"""Graph-level fusion: partition a dataflow graph into anchor groups
and lower each group to a single fused PrimFunc.

The pass walks a :class:`~repro.frontend.graph.Graph` in topological
order.  Every *anchor* op (matmul/conv/softmax/... — anything with a
real compute pattern the sketches know how to schedule) claims

* its **epilogue chain**: the maximal run of single-consumer elementwise
  ops hanging off its output whose shapes match the anchor output
  (bias_add, relu, cast, residual add, ...), and
* its **prologue chain**: unclaimed single-consumer elementwise
  producers feeding its inputs.

Chains stop — with a typed ``TIR6xx`` rejection recorded on the plan —
at non-elementwise consumers (TIR601), shape-changing consumers
(TIR602) and multi-consumer boundary tensors (TIR603).  Everything
left over becomes a singleton group, so a :class:`FusionPlan` always
covers the whole graph.

Lowering composes the members' bodies into one PrimFunc with canonical
positional buffer names (``in0..``, ``out0..``, internals ``t0..`` —
so structurally identical groups share a ``workload_key`` and the
tuning database replays across them), then ``compute_inline``s every
spatial block that writes a group-internal boundary tensor.  The result
is a legal, sketchable TensorIR program: one anchor block plus at most
one epilogue block, which the GPU/CPU sketches fold into the anchor's
cache-write stage at schedule time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..tir import (
    Buffer,
    For,
    PrimFunc,
    Var,
    make_root_block,
    post_order_visit,
    seq,
    substitute,
)
from .graph import Graph, GraphError, OpNode, TensorNode


def _loop_vars(stmt) -> List[Var]:
    """Every loop variable bound in ``stmt``, in deterministic order."""
    out: List[Var] = []
    post_order_visit(stmt, lambda n: out.append(n.loop_var) if isinstance(n, For) else None)
    return out

__all__ = [
    "ANCHOR_KINDS",
    "FusionRejection",
    "FusionGroup",
    "FusionPlan",
    "fuse_graph",
    "compose_group",
    "lower_group",
    "random_graph_inputs",
    "run_graph",
    "run_plan",
    "graph_latency",
]

#: op kinds that can own a fusion group (the sketches schedule these).
ANCHOR_KINDS = frozenset(
    {
        "matmul",
        "batch_matmul",
        "conv1d",
        "conv2d",
        "conv3d",
        "depthwise_conv2d",
        "group_conv2d",
        "conv2d_transposed",
        "softmax",
        "layer_norm",
    }
)


@dataclass
class FusionRejection:
    """Why an op chain could not extend past a boundary tensor."""

    code: str
    anchor: str
    consumer: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.anchor} -x- {self.consumer}: {self.message}"


@dataclass
class FusionGroup:
    """One fusion group: an anchor plus its prologue/epilogue members."""

    graph: Graph
    anchor: OpNode
    members: List[OpNode]
    #: tensors crossing the group boundary, aligned with the fused
    #: func's ``in0..`` / ``out0..`` params (filled by compose_group).
    inputs: List[TensorNode] = field(default_factory=list)
    outputs: List[TensorNode] = field(default_factory=list)
    #: canonical names of group-internal boundary buffers that lowering
    #: is allowed to inline (never member-internal scratch buffers).
    inline_buffers: Set[str] = field(default_factory=set)
    fused: Optional[PrimFunc] = None
    task_name: str = ""

    def __post_init__(self) -> None:
        if not self.task_name:
            extras = "".join(f"+{m.func.name}" for m in self.members if m is not self.anchor)
            self.task_name = self.anchor.name + extras

    @property
    def is_fused(self) -> bool:
        return len(self.members) > 1


@dataclass
class FusionPlan:
    """The full partition of a graph into fusion groups."""

    graph: Graph
    groups: List[FusionGroup]
    rejections: List[FusionRejection] = field(default_factory=list)

    @property
    def num_ops(self) -> int:
        return len(self.graph.ops)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def rejection_codes(self) -> List[str]:
        return [r.code for r in self.rejections]

    def lower(self) -> List[PrimFunc]:
        """Lower every group (memoized on the group) and return the
        fused funcs aligned with ``self.groups``."""
        return [lower_group(g) for g in self.groups]

    def summary(self) -> str:
        lines = [
            f"fusion plan for {self.graph.name}: "
            f"{self.num_ops} ops -> {self.num_groups} groups"
        ]
        for g in self.groups:
            tag = "fused" if g.is_fused else "single"
            chain = " + ".join(m.kind for m in g.members)
            lines.append(f"  [{tag}] {g.task_name}: {chain}")
        for r in self.rejections:
            lines.append(f"  reject {r}")
        return "\n".join(lines)


def fuse_graph(graph: Graph, fuse: bool = True) -> FusionPlan:
    """Partition ``graph`` into fusion groups.

    With ``fuse=False`` every op becomes its own singleton group — the
    unfused comparison plan measured by the benches.
    """
    if not fuse:
        groups = [FusionGroup(graph, op, [op]) for op in graph.ops]
        return FusionPlan(graph, groups)

    claimed: Dict[int, OpNode] = {}
    rejections: List[FusionRejection] = []
    anchor_groups: Dict[int, FusionGroup] = {}

    for op in graph.ops:
        if id(op) in claimed or op.kind not in ANCHOR_KINDS:
            continue
        members: List[OpNode] = [op]
        claimed[id(op)] = op

        # Prologue: pull chains of unclaimed single-consumer elementwise
        # producers feeding this anchor (they inline *into* the anchor).
        prologue: List[OpNode] = []
        frontier = list(op.inputs)
        while frontier:
            t = frontier.pop()
            p = t.producer
            if (
                p is None
                or id(p) in claimed
                or p.kind != "elementwise"
                or len(graph.consumers(t)) != 1
            ):
                continue
            prologue.append(p)
            claimed[id(p)] = op
            frontier.extend(p.inputs)
        prologue.reverse()
        members = prologue + members

        # Epilogue: follow the single-consumer elementwise chain off the
        # anchor output while shapes stay put.
        cur = op.output
        while True:
            consumers = graph.consumers(cur)
            if not consumers:
                break
            if len(consumers) > 1:
                if any(c.kind == "elementwise" for c in consumers):
                    rejections.append(
                        FusionRejection(
                            "TIR603",
                            op.name,
                            "/".join(c.name for c in consumers),
                            f"boundary tensor {cur.name} has "
                            f"{len(consumers)} consumers",
                        )
                    )
                break
            c = consumers[0]
            if id(c) in claimed:
                break
            if c.kind != "elementwise":
                if c.kind not in ANCHOR_KINDS:
                    rejections.append(
                        FusionRejection(
                            "TIR601",
                            op.name,
                            c.name,
                            f"consumer kind {c.kind!r} is not a pure "
                            "elementwise op",
                        )
                    )
                break
            if tuple(c.output.shape) != tuple(cur.shape):
                rejections.append(
                    FusionRejection(
                        "TIR602",
                        op.name,
                        c.name,
                        f"epilogue output shape {tuple(c.output.shape)} != "
                        f"anchor output shape {tuple(cur.shape)}",
                    )
                )
                break
            members.append(c)
            claimed[id(c)] = op
            cur = c.output
        anchor_groups[id(op)] = FusionGroup(graph, op, members)

    # Leftovers (unclaimed elementwise/pad/reshape ops) become singleton
    # groups; emit every group in topological order of its first member.
    groups: List[FusionGroup] = []
    seen: Set[int] = set()
    for op in graph.ops:
        owner = claimed.get(id(op))
        if owner is None:
            groups.append(FusionGroup(graph, op, [op]))
        elif id(owner) not in seen:
            seen.add(id(owner))
            groups.append(anchor_groups[id(owner)])
    return FusionPlan(graph, groups, rejections)


def compose_group(group: FusionGroup) -> PrimFunc:
    """Concatenate the members' bodies into one PrimFunc with canonical
    positional buffer names (``in0..``/``out0..`` params, ``t0..``
    internals) so structurally identical groups share a workload key."""
    graph = group.graph
    members = group.members
    member_ids = {id(m) for m in members}

    canon: Dict[int, Buffer] = {}
    in_bufs: List[Buffer] = []
    out_bufs: List[Buffer] = []
    allocs: List[Buffer] = []
    group.inputs = []
    group.outputs = []
    group.inline_buffers = set()
    tmp = 0

    # Pass 1: canonical buffers for every boundary tensor, numbered by
    # first use in member order.
    for m in members:
        for t in m.inputs:
            if id(t) in canon:
                continue
            if t.producer is not None and id(t.producer) in member_ids:
                continue  # internal edge: named when its producer is seen
            buf = Buffer(f"in{len(in_bufs)}", t.shape, t.dtype)
            canon[id(t)] = buf
            in_bufs.append(buf)
            group.inputs.append(t)
        t = m.output
        consumers = graph.consumers(t)
        escapes = not consumers or any(id(c) not in member_ids for c in consumers)
        if escapes:
            buf = Buffer(f"out{len(out_bufs)}", t.shape, t.dtype)
            out_bufs.append(buf)
            group.outputs.append(t)
        else:
            buf = Buffer(f"t{tmp}", t.shape, t.dtype)
            tmp += 1
            allocs.append(buf)
            group.inline_buffers.add(buf.name)
        canon[id(t)] = buf

    # Pass 2: remap each member body onto the canonical buffers and
    # concatenate.  Member-internal scratch buffers keep their scope but
    # get unique canonical names (never eligible for inlining).  Loop
    # variables are uniquified across members: every member's builder
    # started numbering from scratch, and the schedule layer resolves
    # loops by name, so a composed body must not carry duplicates.
    stmts = []
    used_loop_names: Set[str] = set()
    for m in members:
        params = [m.func.buffer_map[p] for p in m.func.params]
        bmap: Dict[Buffer, Buffer] = {}
        for buf, t in zip(params[:-1], m.inputs):
            bmap[buf] = canon[id(t)]
        bmap[params[-1]] = canon[id(m.output)]
        root = m.func.body.block
        for ab in root.alloc_buffers:
            nb = Buffer(f"t{tmp}", ab.shape, ab.dtype, ab.scope)
            tmp += 1
            bmap[ab] = nb
            allocs.append(nb)
        vmap: Dict[Var, Var] = {}
        for lv in _loop_vars(root.body):
            name = lv.name
            while name in used_loop_names:
                name += "_f"
            used_loop_names.add(name)
            if name != lv.name:
                vmap[lv] = Var(name, lv.dtype)
        stmts.append(substitute(root.body, vmap, bmap))

    if len(members) == 1:
        # Singleton: the builder's func is already canonical per kind.
        return members[0].func

    param_bufs = in_bufs + out_bufs
    pvars = [Var(b.name, "handle") for b in param_bufs]
    buffer_map = dict(zip(pvars, param_bufs))
    name = "fused_" + "_".join(m.func.name for m in members)
    func = PrimFunc(pvars, buffer_map, make_root_block(seq(stmts), allocs), name)
    return func.with_attrs(op="fused", ops="+".join(m.kind for m in members))


def lower_group(group: FusionGroup) -> PrimFunc:
    """Compose the group and inline its internal elementwise stages so
    the fused body is a legal, sketchable program (memoized on the
    group)."""
    if group.fused is not None:
        return group.fused
    composed = compose_group(group)
    if len(group.members) == 1 or not group.inline_buffers:
        group.fused = composed
        return composed

    from ..schedule import Schedule, ScheduleError

    sch = Schedule(composed, record_trace=False)
    changed = True
    while changed:
        changed = False
        for rv in sch.get_blocks():
            blk = sch.block_of(rv)
            writes = {w.buffer.name for w in blk.writes}
            if not (writes & group.inline_buffers):
                continue
            try:
                sch.compute_inline(rv)
            except ScheduleError:
                continue  # reduction writers legally stay materialized
            changed = True
            break
    group.fused = sch.func
    return group.fused


def random_graph_inputs(graph: Graph, seed: int = 0):
    """Random arrays for every graph input, keyed by tensor name (the
    same distributions :func:`repro.runtime.random_args` uses)."""
    import numpy as np

    from ..tir.dtype import numpy_dtype

    rng = np.random.default_rng(seed)
    out = {}
    for t in graph.tensors:
        if t.producer is not None:
            continue
        dt = numpy_dtype(t.dtype)
        if t.dtype.startswith("float"):
            arr = rng.uniform(-1.0, 1.0, size=t.shape).astype(dt)
        elif t.dtype == "bool":
            arr = rng.integers(0, 2, size=t.shape).astype(dt)
        else:
            arr = rng.integers(-4, 5, size=t.shape).astype(dt)
        out[t.name] = arr
    return out


def _execute(specs, inputs, run_func):
    """Run ``(func, input_tensors, output_tensors)`` specs in sequence,
    threading arrays through a tensor-name environment."""
    import numpy as np

    from ..tir.dtype import numpy_dtype

    if run_func is None:
        from ..runtime import run as run_func
    env = dict(inputs)
    for func, ins, outs in specs:
        params = [func.buffer_map[p] for p in func.params]
        args = {}
        for buf, t in zip(params, ins):
            args[buf.name] = env[t.name]
        for buf, t in zip(params[len(ins):], outs):
            args[buf.name] = np.zeros(buf.shape_ints(), dtype=numpy_dtype(buf.dtype))
        run_func(func, args)
        for buf, t in zip(params[len(ins):], outs):
            env[t.name] = args[buf.name]
    return env


def run_graph(graph: Graph, inputs, run_func=None):
    """Execute the *unfused* graph op by op (the reference semantics).

    ``inputs`` maps graph-input tensor names to arrays; returns the full
    tensor-name -> array environment.  ``run_func`` defaults to the
    compiled path (:func:`repro.runtime.run`); pass
    :func:`repro.runtime.interpret` for the oracle.
    """
    specs = [(op.func, op.inputs, [op.output]) for op in graph.ops]
    return _execute(specs, inputs, run_func)


def run_plan(plan: FusionPlan, inputs, run_func=None):
    """Execute the lowered fusion groups in sequence (the fused
    semantics); returns the tensor-name -> array environment."""
    specs = [(lower_group(g), g.inputs, g.outputs) for g in plan.groups]
    return _execute(specs, inputs, run_func)


def graph_latency(
    plan: FusionPlan,
    group_latency,
    per_op_overhead: float = 0.0,
) -> float:
    """Measured end-to-end latency of a fusion plan, in seconds.

    ``group_latency`` is either a callable ``group -> seconds`` or a
    :class:`~repro.meta.session.SessionReport` whose task names match
    ``group.task_name`` (the names ``TuningSession.add_graph`` used).
    ``per_op_overhead`` charges one dispatch per *group* — fused plans
    pay it fewer times, which is the point.
    """
    if not callable(group_latency):
        report = group_latency
        group_latency = lambda g: report.seconds_for(g.task_name)  # noqa: E731
    return sum(group_latency(g) + per_op_overhead for g in plan.groups)
