"""Integration tests: the full §4 pipeline end to end.

The DESIGN.md integration criterion: tune a GEMM on the simulated GPU
and verify the best program (a) validates, (b) computes correctly
against NumPy, and (c) beats the untensorized configuration.
"""

import numpy as np
import pytest

from repro.frontend import ops
from repro.meta import TuneConfig, tune
from repro.meta.sketch import replay_sketch
from repro.runtime import random_args, run
from repro.schedule import verify
from repro.sim import SimCPU, SimGPU
from repro.tir import structural_hash


@pytest.fixture(scope="module")
def gpu_result():
    return tune(ops.matmul(512, 512, 512), SimGPU(), TuneConfig(trials=16, seed=0))


class TestGpuPipeline:
    def test_best_is_valid(self, gpu_result):
        assert verify(gpu_result.best_func, SimGPU()) == []

    def test_best_is_correct(self, gpu_result):
        args = random_args(gpu_result.best_func)
        run(gpu_result.best_func, args)
        ref = args["A"].astype(np.float32) @ args["B"].astype(np.float32)
        np.testing.assert_allclose(args["C"].astype(np.float32), ref, atol=0.3)

    def test_best_beats_untensorized(self, gpu_result):
        baseline = tune(
            ops.matmul(512, 512, 512),
            SimGPU(),
            TuneConfig(trials=16, seed=0, allow_tensorize=False),
        )
        assert gpu_result.best_cycles < baseline.best_cycles

    def test_best_uses_tensor_core(self, gpu_result):
        blocks = []
        from repro.schedule import Schedule

        sch = Schedule(gpu_result.best_func, record_trace=False)
        for rv in sch.get_blocks():
            intrin = sch.block_of(rv).annotations.get("tensorize")
            if intrin:
                blocks.append(intrin)
        assert "wmma_16x16x16_f16" in blocks

    def test_records_carry_decisions(self, gpu_result):
        """The best sketch and decisions are the program: replaying them
        rebuilds it with no search (§5.2)."""
        assert gpu_result.best_decisions is not None
        sch = replay_sketch(
            ops.matmul(512, 512, 512), gpu_result.best_sketch, gpu_result.best_decisions
        )
        assert structural_hash(sch.func) == structural_hash(gpu_result.best_func)


class TestCpuPipeline:
    def test_conv_int8_end_to_end(self):
        func = ops.conv2d(1, 18, 18, 16, 32, 3, 3, dtype="int8", acc_dtype="int32")
        result = tune(func, SimCPU(), TuneConfig(trials=10, seed=0))
        assert result.best_sketch == "cpu-sdot"
        assert verify(result.best_func, SimCPU()) == []
        args = random_args(result.best_func)
        run(result.best_func, args)
        A, W = args["A"].astype(np.int32), args["W"].astype(np.int32)
        ref = np.zeros((1, 16, 16, 32), dtype=np.int64)
        for r in range(3):
            for s in range(3):
                ref += np.einsum(
                    "nhwc,cf->nhwf", A[:, r : r + 16, s : s + 16, :], W[r, s]
                )
        np.testing.assert_array_equal(args["C"], ref.astype(np.int32))
