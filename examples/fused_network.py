"""Graph-level fusion: from a dataflow graph to tuned fused kernels.

Builds a small MLP block as a ``Graph``, partitions it with
``fuse_graph`` into anchor + prologue/epilogue groups, cross-checks the
fused lowering against the unfused graph numerically, then tunes the
fused and unfused plans through ``TuningSession.add_graph`` and
compares the measured end-to-end latencies — fewer kernels, fewer
dispatches, and epilogues folded into their anchors' schedules.

Run:  python examples/fused_network.py
"""

import numpy as np

from repro import TuneConfig, TuningSession
from repro.frontend import (
    Graph,
    fuse_graph,
    graph_latency,
    lower_group,
    ops,
    random_graph_inputs,
    run_graph,
    run_plan,
)
from repro.meta import workload_key
from repro.sim import SimGPU


def build_block() -> Graph:
    """A 2-layer MLP block with bias/activation epilogues and a
    residual connection (the residual's second consumer is a fusion
    boundary — the pass records why)."""
    g = Graph("mlp_block")
    x = g.input("x", (128, 256), "float16")
    w1 = g.input("w1", (256, 512), "float16")
    b1 = g.input("b1", (512,), "float16")
    w2 = g.input("w2", (512, 256), "float16")
    b2 = g.input("b2", (256,), "float16")

    h = g.op("fc1", ops.matmul(128, 512, 256), x, w1)
    h = g.op("fc1_bias", ops.bias_add((128, 512)), h, b1)
    h = g.op("fc1_relu", ops.elementwise((128, 512), "relu"), h)
    y = g.op("fc2", ops.matmul(128, 256, 512), h, w2)
    y = g.op("fc2_bias", ops.bias_add((128, 256)), y, b2)
    g.op("residual", ops.add((128, 256)), y, x)
    return g


def build_fused_fc1():
    """The first group's fused PrimFunc — matmul with bias and relu
    inlined into one sketchable program."""
    plan = fuse_graph(build_block())
    return lower_group(plan.groups[0])


def main():
    target = SimGPU()
    graph = build_block()

    # --- partition -------------------------------------------------------
    plan = fuse_graph(graph)
    print(plan.summary())
    print(
        f"\n{plan.num_ops} ops -> {plan.num_groups} kernels "
        f"({plan.num_ops - plan.num_groups} dispatches saved)"
    )

    # --- the fused programs are real programs: run them ------------------
    inputs = random_graph_inputs(graph, seed=0)
    unfused = run_graph(graph, inputs)
    fused = run_plan(plan, inputs)
    for t in graph.outputs():
        err = np.abs(
            fused[t.name].astype(np.float32) - unfused[t.name].astype(np.float32)
        ).max()
        print(f"fused vs unfused max |error| on {t.name}: {err}")

    # --- tune both plans through a TuningSession -------------------------
    print("\ntuning the fused plan (each group is one task):")
    session = TuningSession(target, TuneConfig(trials=12, seed=0))
    session.add_graph(plan)
    report = session.run()
    for task in report.tasks:
        print(
            f"  {task.name:<18s} {task.status:<9s} cycles={task.cycles:>10.0f}"
            f"  key={task.key[:12]}..."
        )

    unfused_plan = fuse_graph(graph, fuse=False)
    unfused_session = TuningSession(target, TuneConfig(trials=12, seed=0))
    unfused_session.add_graph(unfused_plan)
    unfused_report = unfused_session.run()

    # --- fewer kernels and fewer dispatches win end to end ---------------
    overhead = target.cycles_to_seconds(target.kernel_launch_cycles)
    fused_lat = graph_latency(plan, report, per_op_overhead=overhead)
    unfused_lat = graph_latency(unfused_plan, unfused_report, per_op_overhead=overhead)
    tasks = {workload_key(lower_group(g), target) for g in plan.groups}
    unfused_tasks = {workload_key(lower_group(g), target) for g in unfused_plan.groups}
    print(
        f"\nunique tasks: {len(unfused_tasks)} unfused -> {len(tasks)} fused; "
        f"latency {unfused_lat * 1e6:.1f}us -> {fused_lat * 1e6:.1f}us "
        f"({unfused_lat / fused_lat:.2f}x)"
    )


if __name__ == "__main__":
    main()
