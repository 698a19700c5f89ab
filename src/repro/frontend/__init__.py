"""Frontend: operator builders, evaluation workloads and network graphs."""

from . import ops
from .fuse import (
    ANCHOR_KINDS,
    FusionGroup,
    FusionPlan,
    FusionRejection,
    compose_group,
    fuse_graph,
    graph_latency,
    lower_group,
    random_graph_inputs,
    run_graph,
    run_plan,
)
from .graph import Graph, GraphError, OpNode, TensorNode
from .networks import cpu_graph, gpu_graph
from .shapes import (
    BucketedWorkload,
    BucketSpec,
    ShapeBucket,
    canonicalize,
    rebuild,
    shape_args_of,
    shape_parametric,
)
from .workloads import CPU_WORKLOADS, GPU_WORKLOADS, cpu_workload, gpu_workload

__all__ = [
    "ops",
    "Graph",
    "GraphError",
    "OpNode",
    "TensorNode",
    "ANCHOR_KINDS",
    "FusionGroup",
    "FusionPlan",
    "FusionRejection",
    "fuse_graph",
    "compose_group",
    "lower_group",
    "graph_latency",
    "random_graph_inputs",
    "run_graph",
    "run_plan",
    "gpu_graph",
    "cpu_graph",
    "GPU_WORKLOADS",
    "CPU_WORKLOADS",
    "gpu_workload",
    "cpu_workload",
    "ShapeBucket",
    "BucketSpec",
    "BucketedWorkload",
    "canonicalize",
    "shape_parametric",
    "shape_args_of",
    "rebuild",
]
