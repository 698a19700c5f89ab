"""Operator-graph layer for end-to-end evaluation (§5.2).

Two representations live here:

* The *layer list*: a network is a list of :class:`LayerSpec`
  (name, PrimFunc builder, count) entries and end-to-end latency is the
  per-layer sum.  ``network_latency(fold_fusible=True)`` zero-costs
  fusible layers, an accounting model used for baseline rows.

* The *dataflow graph*: :class:`Graph` holds :class:`OpNode` /
  :class:`TensorNode` nodes with actual producer→consumer edges, built
  from the same ``frontend.ops`` builders.  :mod:`repro.frontend.fuse`
  partitions a graph into anchor+prologue/epilogue groups and lowers
  each group to a single fused :class:`~repro.tir.PrimFunc`, so fused
  latency comes from *measured* fused programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..diagnostics import DiagnosticError
from ..tir import PrimFunc, structural_hash

__all__ = [
    "LayerSpec",
    "NetworkSpec",
    "network_latency",
    "GraphError",
    "TensorNode",
    "OpNode",
    "Graph",
]


class GraphError(DiagnosticError):
    """Graph construction or fusion-legality failure (``TIR6xx``)."""

    default_code = "TIR604"


@dataclass(frozen=True)
class LayerSpec:
    """One layer kind in a network."""

    name: str
    builder: Callable[[], PrimFunc]
    count: int = 1
    #: elementwise layers can be fused into their producer by engines
    #: with graph-level fusion.
    fusible: bool = False


@dataclass
class NetworkSpec:
    name: str
    layers: List[LayerSpec]

    def unique_layers(self) -> List[LayerSpec]:
        """Layers deduplicated by workload identity (structural hash of
        the built PrimFunc); counts of merged duplicates accumulate onto
        the first occurrence."""
        order: List[str] = []
        merged: Dict[str, LayerSpec] = {}
        for layer in self.layers:
            key = "%016x" % structural_hash(layer.builder())
            if key in merged:
                prev = merged[key]
                merged[key] = replace(prev, count=prev.count + layer.count)
            else:
                order.append(key)
                merged[key] = layer
        return [merged[k] for k in order]

    def total_ops(self) -> int:
        return sum(layer.count for layer in self.layers)


def network_latency(
    net: NetworkSpec,
    op_latency,
    per_op_overhead: float = 0.0,
    fold_fusible: bool = False,
) -> float:
    """End-to-end latency in seconds.

    ``op_latency`` maps a layer to one invocation's latency.  It is
    either a callable ``layer -> seconds`` or a tuned
    :class:`~repro.meta.session.SessionReport` whose task names match
    the layer names (the default path: tune the network once with a
    ``TuningSession``, then aggregate here).

    ``fold_fusible`` zero-costs layers marked fusible — an *accounting
    model* of a fusing engine (TensorRT-like) used for baseline rows.
    Real measured fusion lives in :func:`repro.frontend.fuse.fuse_graph`
    / :func:`~repro.frontend.fuse.graph_latency`.
    """
    if not callable(op_latency):
        report = op_latency
        op_latency = lambda layer: report.seconds_for(layer.name)  # noqa: E731
    total = 0.0
    for layer in net.layers:
        if fold_fusible and layer.fusible:
            continue
        total += layer.count * (op_latency(layer) + per_op_overhead)
    return total


# --------------------------------------------------------------------------
# Dataflow graph
# --------------------------------------------------------------------------


@dataclass
class TensorNode:
    """One value flowing between ops (or into the graph)."""

    name: str
    shape: Tuple[int, ...]
    dtype: str
    #: the op writing this tensor; ``None`` for graph inputs/weights.
    producer: Optional["OpNode"] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TensorNode({self.name}, {self.shape}, {self.dtype})"


@dataclass
class OpNode:
    """One operator instance: a built PrimFunc wired to tensor operands."""

    name: str
    func: PrimFunc
    kind: str
    inputs: List[TensorNode]
    output: TensorNode = field(init=False)
    #: param buffer names aligned with ``inputs`` + the output param,
    #: used when composing fused bodies / running constituents.
    input_params: List[str] = field(default_factory=list)
    output_param: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        ins = ", ".join(t.name for t in self.inputs)
        return f"OpNode({self.name}: {self.kind}({ins}))"


class Graph:
    """A dataflow graph of :class:`OpNode`/:class:`TensorNode`.

    Ops are added in topological (execution) order; each op's PrimFunc
    is built once at wiring time.  By the repo-wide builder convention
    the *last* parameter of every op is its output; the given operands
    bind to the leading input parameters positionally and any remaining
    input parameters (weights, biases, ...) become fresh graph-input
    tensors automatically.
    """

    def __init__(self, name: str):
        self.name = name
        self.ops: List[OpNode] = []
        self.tensors: List[TensorNode] = []
        self._names: Dict[str, int] = {}

    # -- construction ------------------------------------------------------

    def _unique(self, name: str) -> str:
        n = self._names.get(name, 0)
        self._names[name] = n + 1
        return name if n == 0 else f"{name}#{n + 1}"

    def input(self, name: str, shape: Sequence[int], dtype: str) -> TensorNode:
        """Declare a graph input (activations or weights)."""
        t = TensorNode(self._unique(name), tuple(shape), dtype)
        self.tensors.append(t)
        return t

    def op(self, name: str, func: PrimFunc, *operands: TensorNode) -> TensorNode:
        """Wire ``func`` into the graph; returns its output tensor."""
        params = [func.buffer_map[p] for p in func.params]
        if len(params) < 1 + len(operands):
            raise GraphError(
                f"op {name!r} ({func.name}) takes {len(params) - 1} inputs, "
                f"got {len(operands)} operands",
                code="TIR604",
                func=func,
            )
        out_buf = params[-1]
        in_bufs = params[:-1]
        for operand, buf in zip(operands, in_bufs):
            if tuple(operand.shape) != buf.shape_ints() or operand.dtype != buf.dtype:
                raise GraphError(
                    f"op {name!r}: operand {operand.name} is "
                    f"{operand.dtype}{tuple(operand.shape)} but parameter "
                    f"{buf.name!r} wants {buf.dtype}{buf.shape_ints()}",
                    code="TIR604",
                    func=func,
                )
        uname = self._unique(name)
        inputs = list(operands)
        # Trailing unbound input params are weights: fresh graph inputs.
        for buf in in_bufs[len(operands):]:
            inputs.append(self.input(f"{uname}.{buf.name}", buf.shape_ints(), buf.dtype))
        node = OpNode(
            name=uname,
            func=func,
            kind=str(func.attrs.get("op", func.name)),
            inputs=inputs,
            input_params=[b.name for b in in_bufs],
            output_param=out_buf.name,
        )
        out = TensorNode(f"{uname}_out", out_buf.shape_ints(), out_buf.dtype, producer=node)
        node.output = out
        self.tensors.append(out)
        self.ops.append(node)
        return out

    # -- queries -----------------------------------------------------------

    def consumers(self, tensor: TensorNode) -> List[OpNode]:
        return [op for op in self.ops if tensor in op.inputs]

    def outputs(self) -> List[TensorNode]:
        """Tensors produced by some op but consumed by none."""
        consumed = set()
        for op in self.ops:
            consumed.update(id(t) for t in op.inputs)
        return [op.output for op in self.ops if id(op.output) not in consumed]

    def __len__(self) -> int:
        return len(self.ops)

    def summary(self) -> str:
        lines = [f"graph {self.name}: {len(self.ops)} ops"]
        for op in self.ops:
            ins = ", ".join(t.name for t in op.inputs)
            lines.append(f"  {op.output.name} = {op.kind}({ins})")
        return "\n".join(lines)
