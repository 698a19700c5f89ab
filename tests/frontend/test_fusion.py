"""Graph construction, fusion planning, lowering and numerical identity."""

import numpy as np
import pytest

from repro.frontend import ops
from repro.frontend.fuse import (
    compose_group,
    fuse_graph,
    graph_latency,
    lower_group,
    random_graph_inputs,
    run_graph,
    run_plan,
)
from repro.frontend.graph import Graph, GraphError
from repro.frontend.networks import (
    bert_base_graph,
    bert_large_graph,
    cpu_graph,
    mobilenet_v2_graph,
    resnet50_graph,
    vit_graph,
)
from repro.meta import TuneConfig, TuningDatabase
from repro.runtime import interpret
from repro.schedule import verify
from repro.sim import SimCPU, SimGPU
from repro.tir import IRBuilder

from ..common import tune_fused_and_unfused


def _mini_matmul_chain():
    """matmul -> bias_add -> relu: the canonical epilogue chain."""
    g = Graph("mm_chain")
    x = g.input("x", (8, 8), "float32")
    t = g.op("mm", ops.matmul(8, 8, 8, dtype="float32"), x)
    t = g.op("bias", ops.bias_add((8, 8), "float32"), t)
    t = g.op("relu", ops.elementwise((8, 8), "relu", "float32"), t)
    return g


def _shape_changing_elementwise(n: int, m: int):
    """An op *claiming* to be elementwise whose output shape differs —
    the legality check must reject it, not trust the attr."""
    b = IRBuilder("halve")
    A = b.arg_buffer("A", (n, m), "float32")
    C = b.arg_buffer("C", (n, m // 2), "float32")
    with b.grid(n, m // 2) as (i, j):
        with b.block("halve") as blk:
            vi = blk.spatial(n, i)
            vj = blk.spatial(m // 2, j)
            b.store(C, (vi, vj), A[vi, vj])
    return b.finish().with_attrs(op="elementwise")


def _reducing_consumer(n: int, m: int):
    """A non-elementwise, non-anchor consumer (row reduction)."""
    b = IRBuilder("row_sum")
    A = b.arg_buffer("A", (n, m), "float32")
    C = b.arg_buffer("C", (n,), "float32")
    with b.grid(n, m) as (i, j):
        with b.block("row_sum") as blk:
            vi = blk.spatial(n, i)
            vj = blk.reduce(m, j)
            with blk.init():
                b.store(C, (vi,), 0.0)
            b.store(C, (vi,), C[vi] + A[vi, vj])
    return b.finish().with_attrs(op="reduce")


class TestGraphConstruction:
    def test_wiring_and_auto_weights(self):
        g = _mini_matmul_chain()
        assert len(g) == 3
        mm = g.ops[0]
        # matmul's B operand was auto-created as a weight input
        assert [t.name for t in mm.inputs] == ["x", "mm.B"]
        assert g.ops[1].inputs[1].name == "bias.bias"
        assert [t.name for t in g.outputs()] == ["relu_out"]

    def test_arity_mismatch_raises_tir604(self):
        g = Graph("bad")
        x = g.input("x", (8, 8), "float32")
        y = g.input("y", (8, 8), "float32")
        z = g.input("z", (8, 8), "float32")
        with pytest.raises(GraphError) as exc_info:
            g.op("mm", ops.matmul(8, 8, 8, dtype="float32"), x, y, z)
        assert exc_info.value.diagnostics[0].code == "TIR604"

    def test_shape_mismatch_raises_tir604(self):
        g = Graph("bad")
        x = g.input("x", (4, 4), "float32")
        with pytest.raises(GraphError) as exc_info:
            g.op("mm", ops.matmul(8, 8, 8, dtype="float32"), x)
        assert exc_info.value.diagnostics[0].code == "TIR604"

    def test_dtype_mismatch_raises_tir604(self):
        g = Graph("bad")
        x = g.input("x", (8, 8), "float16")
        with pytest.raises(GraphError):
            g.op("mm", ops.matmul(8, 8, 8, dtype="float32"), x)

    def test_name_uniquification(self):
        g = Graph("dup")
        x = g.input("x", (8, 8), "float32")
        a = g.op("mm", ops.matmul(8, 8, 8, dtype="float32"), x)
        b = g.op("mm", ops.matmul(8, 8, 8, dtype="float32"), a)
        assert g.ops[0].name == "mm" and g.ops[1].name == "mm#2"
        assert b.name == "mm#2_out"


class TestFusionPlan:
    def test_epilogue_chain_fuses(self):
        g = _mini_matmul_chain()
        plan = fuse_graph(g)
        assert plan.num_groups == 1
        group = plan.groups[0]
        assert group.anchor.name == "mm"
        assert [m.name for m in group.members] == ["mm", "bias", "relu"]
        assert group.task_name == "mm+bias_add+relu"

    def test_fuse_false_gives_singletons(self):
        g = _mini_matmul_chain()
        plan = fuse_graph(g, fuse=False)
        assert plan.num_groups == 3
        assert not any(grp.is_fused for grp in plan.groups)

    def test_prologue_claims_producer_chain(self):
        g = Graph("prologue")
        x = g.input("x", (8, 8), "float32")
        t = g.op("cast", ops.cast_to((8, 8), "float32", "float32", name="c32"), x)
        g.op("ln", ops.layer_norm(8, 8, "float32"), t)
        plan = fuse_graph(g)
        assert plan.num_groups == 1
        assert [m.name for m in plan.groups[0].members] == ["cast", "ln"]

    def test_multi_consumer_boundary_records_tir603(self):
        g = Graph("resid")
        x = g.input("x", (8, 8), "float32")
        t = g.op("mm", ops.matmul(8, 8, 8, dtype="float32"), x)
        u = g.op("relu", ops.elementwise((8, 8), "relu", "float32"), t)
        g.op("res", ops.add((8, 8), "float32"), u, t)  # t has 2 consumers
        plan = fuse_graph(g)
        assert "TIR603" in plan.rejection_codes()
        assert not plan.groups[0].is_fused

    def test_reducing_consumer_records_tir601(self):
        g = Graph("reduce")
        x = g.input("x", (8, 8), "float32")
        t = g.op("mm", ops.matmul(8, 8, 8, dtype="float32"), x)
        g.op("rowsum", _reducing_consumer(8, 8), t)
        plan = fuse_graph(g)
        assert plan.rejection_codes() == ["TIR601"]
        assert all(len(grp.members) == 1 for grp in plan.groups)

    def test_shape_mismatched_epilogue_records_tir602(self):
        g = Graph("shapes")
        x = g.input("x", (8, 8), "float32")
        t = g.op("mm", ops.matmul(8, 8, 8, dtype="float32"), x)
        g.op("halve", _shape_changing_elementwise(8, 8), t)
        plan = fuse_graph(g)
        assert plan.rejection_codes() == ["TIR602"]
        assert all(len(grp.members) == 1 for grp in plan.groups)

    def test_identical_groups_share_workload_key(self):
        from repro.meta.database import workload_key
        from repro.sim import SimGPU

        g = Graph("twice")
        x = g.input("x", (8, 8), "float16")
        for _ in range(2):
            t = g.op("mm", ops.matmul(8, 8, 8), x)
            x = g.op("bias", ops.bias_add((8, 8)), t)
        plan = fuse_graph(g)
        assert plan.num_groups == 2
        target = SimGPU()
        keys = {workload_key(lower_group(grp), target) for grp in plan.groups}
        assert len(keys) == 1


class TestLowering:
    def test_compose_canonical_names(self):
        g = _mini_matmul_chain()
        plan = fuse_graph(g)
        fused = compose_group(plan.groups[0])
        assert fused.name == "fused_matmul_bias_add_relu"
        params = [fused.buffer_map[p].name for p in fused.params]
        assert params == ["in0", "in1", "in2", "out0"]
        assert str(fused.attrs["ops"]) == "matmul+elementwise+elementwise"

    def test_lowered_group_is_single_nest_and_valid(self):
        g = _mini_matmul_chain()
        plan = fuse_graph(g)
        fused = lower_group(plan.groups[0])
        assert verify(fused) == []
        from repro.schedule import Schedule

        sch = Schedule(fused, record_trace=False)
        # bias and relu were inlined: matmul block + one epilogue block
        assert len(sch.get_blocks()) == 2

    def test_singleton_group_lowering_is_identity(self):
        g = Graph("single")
        x = g.input("x", (8, 8), "float32")
        g.op("mm", ops.matmul(8, 8, 8, dtype="float32"), x)
        plan = fuse_graph(g)
        assert lower_group(plan.groups[0]) is g.ops[0].func


def _assert_plan_matches_oracle(g, seed=0):
    """Compiled fused execution == interpreted unfused execution, for
    every tensor escaping a fusion group."""
    plan = fuse_graph(g)
    inputs = random_graph_inputs(g, seed=seed)
    oracle = run_graph(g, inputs, run_func=interpret)
    fused_env = run_plan(plan, inputs)
    checked = 0
    for group in plan.groups:
        for t in group.outputs:
            a, b = fused_env[t.name], oracle[t.name]
            if a.dtype.kind == "f":
                np.testing.assert_allclose(
                    a.astype(np.float64), b.astype(np.float64),
                    rtol=2e-2, atol=2e-2, err_msg=t.name,
                )
            else:
                np.testing.assert_array_equal(a, b, err_msg=t.name)
            checked += 1
    assert checked >= len(plan.groups)
    return plan


MINI_GRAPHS = {
    "resnet50": lambda dtype, acc: resnet50_graph(
        dtype=dtype, acc=acc, stages=((4, 4, 16, 2),), stem=(8, 4, 8)
    ),
    "mobilenet_v2": lambda dtype, acc: mobilenet_v2_graph(
        dtype=dtype, acc=acc, stages=((8, 4, 8, 4, 2, 1),), stem_c=4
    ),
    "bert_large": lambda dtype, acc: bert_large_graph(
        dtype=dtype, acc=acc, seq=8, hidden=8, heads=2, layers_n=1
    ),
    "vit": lambda dtype, acc: vit_graph(
        dtype=dtype, acc=acc, seq=8, hidden=8, heads=2, layers_n=1,
        patch_dim=8, classes=8
    ),
}


class TestNumericalIdentity:
    """Every fused group computes exactly what its constituents compute."""

    @pytest.mark.parametrize("name", sorted(MINI_GRAPHS))
    def test_gpu_flavor_fused_matches_unfused(self, name):
        g = MINI_GRAPHS[name]("float32", None)
        plan = _assert_plan_matches_oracle(g)
        assert any(grp.is_fused for grp in plan.groups)

    @pytest.mark.parametrize("name", ["resnet50", "bert_large"])
    def test_int8_flavor_fused_matches_unfused(self, name):
        g = MINI_GRAPHS[name]("int8", "int32")
        _assert_plan_matches_oracle(g)

    def test_attention_mini_bert_base(self):
        g = bert_base_graph(seq=8, hidden=8, heads=2, layers_n=1)
        _assert_plan_matches_oracle(g)


class TestGraphLatency:
    def test_fused_plan_pays_fewer_dispatches(self):
        g = _mini_matmul_chain()
        fused = fuse_graph(g)
        unfused = fuse_graph(g, fuse=False)
        lat = lambda grp: 1e-3  # noqa: E731
        t_fused = graph_latency(fused, lat, per_op_overhead=1e-3)
        t_unfused = graph_latency(unfused, lat, per_op_overhead=1e-3)
        assert t_fused == pytest.approx(2e-3)
        assert t_unfused == pytest.approx(6e-3)

    @pytest.mark.parametrize(
        "target, dtype, acc", [(SimGPU(), "float16", None), (SimCPU(), "int8", "int32")],
        ids=["gpu", "cpu"],
    )
    def test_tuned_fused_plan_no_slower_than_unfused(self, target, dtype, acc):
        graph = MINI_GRAPHS["bert_large"](dtype, acc)
        databases = {True: TuningDatabase(), False: TuningDatabase()}
        latency = tune_fused_and_unfused(graph, target, TuneConfig(trials=4, seed=0), databases)
        assert latency[True] <= latency[False]


class TestFullNetworkGraphs:
    """The seven fig. 12/14 network graphs build, fuse, and cut task
    counts (``bert_base`` is ``cpu_graph("BERT-base")``)."""

    @pytest.mark.parametrize(
        "builder",
        [resnet50_graph, mobilenet_v2_graph, bert_large_graph, vit_graph,
         bert_base_graph, lambda: cpu_graph("ResNet-50"),
         lambda: cpu_graph("MobileNet-V2")],
        ids=["resnet50", "mobilenet_v2", "bert_large", "vit", "bert_base",
             "cpu_resnet50", "cpu_mobilenet_v2"],
    )
    def test_task_count_reduction_at_least_20pct(self, builder):
        from repro.meta.database import workload_key
        from repro.sim import SimGPU

        g = builder()
        plan = fuse_graph(g)
        target = SimGPU()
        unfused = {workload_key(op.func, target) for op in g.ops}
        fused = {workload_key(compose_group(grp), target) for grp in plan.groups}
        assert len(fused) <= 0.8 * len(unfused), (len(fused), len(unfused))


class TestFusedTensorize:
    def test_sdot_sketch_applies_to_fused_int8_group(self):
        # Regression: composing an epilogue renames the accumulator to an
        # internal alloc (t0), whose name used to flip the reduction to
        # `a*b + t0` under simplification and break the purely structural
        # sdot intrinsic match.  The matcher is commutativity-aware now.
        from repro.meta.sketch import CpuSdotSketch
        from repro.schedule import Schedule

        g = Graph("qmm")
        x = g.input("x", (64, 64), "int8")
        t = g.op("mm", ops.matmul(64, 64, 64, dtype="int8", acc_dtype="int32"), x)
        g.op("requant", ops.requantize((64, 64), "int32", "int8"), t)
        plan = fuse_graph(g)
        assert plan.groups[0].is_fused
        fused = lower_group(plan.groups[0])

        sketch = CpuSdotSketch()
        sch = Schedule(fused, seed=0)
        assert sketch.applicable(sch)
        sketch.apply(sch, sketch.prefix(sch))
        assert "sdot_4x4x4_i8" in str(sch.func)
        assert verify(sch.func) == []
