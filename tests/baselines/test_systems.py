"""Tests for the comparison-system analogues."""

import pytest

from repro.baselines import (
    AmosBaseline,
    AnsorBaseline,
    ArmComputeLibrary,
    CutlassLibrary,
    TensorIRSystem,
    TensorRTLibrary,
    TorchLikeFramework,
    UnsupportedWorkload,
)
from repro.frontend import fuse_graph, ops
from repro.frontend.networks import bert_large_graph
from repro.meta import TuningSession, tune
from repro.sim import SimCPU, SimGPU


@pytest.fixture(scope="module")
def gemm():
    return ops.matmul(256, 256, 256)


@pytest.fixture(scope="module")
def qgemm():
    return ops.matmul(128, 128, 128, dtype="int8", acc_dtype="int32")


class TestGpuSystems:
    def test_tensorir_uses_tensor_core_on_gemm(self, gemm):
        r = TensorIRSystem(trials=8).compile_op(gemm, SimGPU(), seed=0)
        assert r.note == "tensor-core"
        assert r.tuning_seconds > 0

    def test_tvm_never_tensorizes(self, gemm):
        r = AnsorBaseline(trials=8).compile_op(gemm, SimGPU(), seed=0)
        assert r.note == "gpu-scalar"

    def test_compile_op_tunes_with_the_table1_config(self):
        """Both searching systems compile an op with ``tune_config(seed)``,
        the config Table 1's sessions use, and TVM's differs from
        TensorIR's only in forbidding tensorization."""
        func = ops.matmul(64, 64, 64)
        tir, tvm = TensorIRSystem(trials=4), AnsorBaseline(trials=4)
        assert tvm.tune_config(3) == tir.tune_config(3).with_(allow_tensorize=False)
        for system in (tir, tvm):
            op = system.compile_op(func, SimGPU(), seed=3)
            direct = tune(func, SimGPU(), system.tune_config(3))
            assert (op.cycles, op.tuning_seconds, op.trials, op.note) == (
                direct.best_cycles,
                direct.tuning_seconds,
                direct.stats.measured,
                direct.best_sketch,
            )

    def test_tensorir_beats_tvm(self):
        # Large enough that compute dominates launch overheads.
        big = ops.matmul(1024, 1024, 1024)
        tir = TensorIRSystem(trials=8).compile_op(big, SimGPU(), seed=0)
        tvm = AnsorBaseline(trials=8).compile_op(big, SimGPU(), seed=0)
        assert tvm.cycles > tir.cycles * 2

    def test_amos_between_tvm_and_tensorir(self, gemm):
        tir = TensorIRSystem(trials=16).compile_op(gemm, SimGPU(), seed=0)
        amos = AmosBaseline().compile_op(gemm, SimGPU(), seed=0)
        tvm = AnsorBaseline(trials=16).compile_op(gemm, SimGPU(), seed=0)
        assert tir.cycles <= amos.cycles <= tvm.cycles

    def test_cutlass_coverage(self, gemm):
        lib = CutlassLibrary()
        assert lib.compile_op(gemm, SimGPU(), seed=0).cycles > 0
        dep = ops.depthwise_conv2d(1, 18, 18, 32, 3, 3)
        with pytest.raises(UnsupportedWorkload):
            lib.compile_op(dep, SimGPU(), seed=0)

    def test_cutlass_rejects_cpu_target(self, gemm):
        with pytest.raises(UnsupportedWorkload):
            CutlassLibrary().compile_op(gemm, SimCPU(), seed=0)

    def test_tensorrt_has_generic_kernels(self):
        dep = ops.depthwise_conv2d(1, 18, 18, 32, 3, 3)
        r = TensorRTLibrary().compile_op(dep, SimGPU(), seed=0)
        assert r.note == "generic-kernel"

    def test_tensorrt_fuses_and_has_no_overhead(self):
        trt = TensorRTLibrary()
        assert trt.fuses_elementwise
        assert trt.op_overhead == 0.0
        assert "ViT" in trt.unsupported_networks

    def test_pytorch_has_overhead_no_fusion(self):
        torch = TorchLikeFramework()
        assert torch.op_overhead > 0
        assert not torch.fuses_elementwise


class TestCpuSystems:
    def test_tensorir_uses_sdot(self, qgemm):
        r = TensorIRSystem(trials=8).compile_op(qgemm, SimCPU(), seed=0)
        assert r.note == "cpu-sdot"

    def test_acl_supported_and_strong(self, qgemm):
        acl = ArmComputeLibrary().compile_op(qgemm, SimCPU(), seed=0)
        tvm = AnsorBaseline(trials=8).compile_op(qgemm, SimCPU(), seed=0)
        assert acl.cycles < tvm.cycles

    def test_acl_rejects_unsupported(self):
        dep = ops.depthwise_conv2d(1, 10, 10, 8, 3, 3, dtype="int8", acc_dtype="int32")
        with pytest.raises(UnsupportedWorkload):
            ArmComputeLibrary().compile_op(dep, SimCPU(), seed=0)

    def test_pytorch_cpu_lacks_sdot(self, qgemm):
        torch = TorchLikeFramework().compile_op(qgemm, SimCPU(), seed=0)
        tir = TensorIRSystem(trials=8).compile_op(qgemm, SimCPU(), seed=0)
        assert torch.note == "no-sdot"
        assert torch.cycles > tir.cycles


class TestTable1Path:
    """Table 1's call on a miniature fused BERT-large graph: each system
    tunes the graph's unique fused groups through a session of its own,
    with the 2:1 trial ratio of the bench."""

    def test_both_systems_tune_the_same_unique_fused_groups(self):
        plan = fuse_graph(bert_large_graph(seq=16, hidden=32, heads=2, layers_n=1))
        reports = {}
        for system in (AnsorBaseline(trials=4), TensorIRSystem(trials=2)):
            session = TuningSession(SimGPU(), system.tune_config())
            session.add_graph(plan)
            reports[system.name] = session.run()
        searched = {
            name: [(t.name, t.key) for t in report.tasks if t.status == "searched"]
            for name, report in reports.items()
        }
        assert searched["TVM"] == searched["TensorIR"]
        unique = {t.key for t in reports["TVM"].tasks}
        assert len(searched["TVM"]) == len(unique) < len(plan.groups)
        for report in reports.values():
            assert len(report.tasks) == len(plan.groups)
            assert report.totals["tasks_failed"] == 0
            assert report.tuning_seconds == pytest.approx(
                sum(t.tuning_seconds for t in report.tasks), rel=1e-9
            )
        assert {t.sketch for t in reports["TVM"].tasks} == {"gpu-scalar"}
        assert "tensor-core" in {t.sketch for t in reports["TensorIR"].tasks}
