"""Tests for sketch generation, the cost model and evolutionary search."""

import numpy as np
import pytest

from repro.meta import (
    CostModel,
    CpuScalarSketch,
    CpuSdotSketch,
    GpuScalarSketch,
    TensorCoreSketch,
    TuneConfig,
    evolutionary_search,
    extract_features,
    generate_sketches,
    main_block_of,
    tune,
)
from repro.meta.feature import FEATURE_NAMES
from repro.meta.sketch import apply_sketch
from repro.runtime import random_args, run
from repro.schedule import Schedule, verify
from repro.sim import SimCPU, SimGPU, estimate
from repro.tir import Cast, IRBuilder

from ..common import build_matmul, build_matmul_relu


def qgemm_func(n=64):
    b = IRBuilder("qgemm")
    A = b.arg_buffer("A", (n, n), "int8")
    B = b.arg_buffer("B", (n, n), "int8")
    C = b.arg_buffer("C", (n, n), "int32")
    with b.grid(n, n, n) as (i, j, k):
        with b.block("C") as blk:
            vi = blk.spatial(n, i)
            vj = blk.spatial(n, j)
            vk = blk.reduce(n, k)
            with blk.init():
                b.store(C, (vi, vj), 0)
            b.store(
                C, (vi, vj), C[vi, vj] + Cast("int32", A[vi, vk]) * Cast("int32", B[vk, vj])
            )
    return b.finish()


class TestSketchGeneration:
    def test_gpu_fp16_gets_tensor_core_sketch(self):
        sch = Schedule(build_matmul(64, 64, 64, dtype="float16"))
        names = [s.name for s in generate_sketches(sch, SimGPU())]
        assert names == ["tensor-core", "gpu-scalar"]

    def test_gpu_fp32_scalar_only(self):
        sch = Schedule(build_matmul(64, 64, 64, dtype="float32"))
        names = [s.name for s in generate_sketches(sch, SimGPU())]
        assert names == ["gpu-scalar"]

    def test_baseline_mode_disables_tensorize(self):
        sch = Schedule(build_matmul(64, 64, 64, dtype="float16"))
        names = [s.name for s in generate_sketches(sch, SimGPU(), allow_tensorize=False)]
        assert names == ["gpu-scalar"]

    def test_cpu_int8_gets_sdot_sketch(self):
        sch = Schedule(qgemm_func())
        names = [s.name for s in generate_sketches(sch, SimCPU())]
        assert names == ["cpu-sdot", "cpu-scalar"]

    def test_main_block_prefers_reduction(self):
        sch = Schedule(build_matmul_relu(32))
        assert main_block_of(sch).name == "C"


class TestSketchApplication:
    def test_tensor_core_sketch_valid_and_correct(self):
        for seed in (3, 11):
            sch = apply_sketch(
                build_matmul(128, 128, 128, dtype="float16"), TensorCoreSketch(), seed=seed
            )
            # May exceed shared memory for some samples; skip those.
            problems = verify(sch.func, SimGPU())
            if problems:
                assert all("shared memory" in p for p in problems)
                continue
            args = random_args(sch.func)
            run(sch.func, args)
            ref = args["A"].astype(np.float32) @ args["B"].astype(np.float32)
            np.testing.assert_allclose(args["C"].astype(np.float32), ref, atol=0.2)

    def test_tensor_core_sketch_uses_all_memory_levels(self):
        sch = apply_sketch(
            build_matmul(128, 128, 128, dtype="float16"), TensorCoreSketch(), seed=3
        )
        scopes = set()
        for rv in sch.get_blocks():
            for region in sch.block_of(rv).writes:
                scopes.add(region.buffer.scope)
        assert "shared" in scopes
        assert "wmma.matrix_a" in scopes and "wmma.accumulator" in scopes

    def test_epilogue_fused_into_writeback(self):
        # The tensorized sketch routes the output through an accumulator
        # write-back; the elementwise epilogue must fold into that copy.
        f = build_matmul_relu(128, dtype="float16")
        sch = apply_sketch(f, TensorCoreSketch(), seed=3)
        names = [rv.name for rv in sch.get_blocks()]
        assert "D" not in names  # relu collapsed into the write-back
        args = random_args(sch.func)
        run(sch.func, args)
        ref = np.maximum(
            args["A"].astype(np.float32) @ args["B"].astype(np.float32), 0
        )
        np.testing.assert_allclose(args["D"].astype(np.float32), ref, atol=0.2)

    def test_scalar_sketch_fuses_epilogue_into_writeback(self):
        # With register accumulation the relu folds into the local
        # write-back copy; the result must still be correct.
        from repro.schedule import ScheduleError

        sch = None
        for seed in range(8):
            try:
                sch = apply_sketch(build_matmul_relu(64), GpuScalarSketch(), seed=seed)
                break
            except ScheduleError:
                continue
        assert sch is not None
        args = random_args(sch.func)
        run(sch.func, args)
        ref = np.maximum(args["A"].astype(np.float64) @ args["B"].astype(np.float64), 0)
        np.testing.assert_allclose(args["D"], ref, rtol=1e-3, atol=1e-4)

    def test_cpu_sdot_sketch_correct(self):
        sch = apply_sketch(qgemm_func(64), CpuSdotSketch(), seed=2)
        assert verify(sch.func, SimCPU()) == []
        args = random_args(sch.func)
        run(sch.func, args)
        ref = args["A"].astype(np.int32) @ args["B"].astype(np.int32)
        np.testing.assert_array_equal(args["C"], ref)

    def test_cpu_scalar_sketch_correct(self):
        sch = apply_sketch(build_matmul(64, 64, 64), CpuScalarSketch(), seed=4)
        assert verify(sch.func, SimCPU()) == []
        args = random_args(sch.func)
        run(sch.func, args)
        ref = args["A"].astype(np.float64) @ args["B"].astype(np.float64)
        np.testing.assert_allclose(args["C"], ref, rtol=1e-3, atol=1e-4)


class TestCostModelFeatures:
    def test_feature_vector_shape(self):
        sch = apply_sketch(build_matmul(64, 64, 64, dtype="float16"), TensorCoreSketch(), seed=3)
        vec = extract_features(sch.func, SimGPU())
        assert vec.shape == (len(FEATURE_NAMES),)
        assert np.isfinite(vec).all()

    def test_tensorized_feature_flag(self):
        sch = apply_sketch(build_matmul(64, 64, 64, dtype="float16"), TensorCoreSketch(), seed=3)
        vec = extract_features(sch.func, SimGPU())
        idx = FEATURE_NAMES.index("n_tensorized")
        assert vec[idx] >= 2  # mma + fill (+ load/store intrins)

    def test_cost_model_learns_ordering(self):
        target = SimGPU()
        model = CostModel(target, min_data=8)
        funcs, cycles = [], []
        for seed in range(14):
            sch = apply_sketch(
                build_matmul(128, 128, 128, dtype="float16"), TensorCoreSketch(), seed=seed
            )
            funcs.append(sch.func)
            cycles.append(estimate(sch.func, target).cycles)
        model.update(funcs[:10], cycles[:10])
        assert model.is_trained
        pred = model.predict(funcs[10:])
        # Predicted scores should correlate with true speed on held-out
        # candidates: best-predicted should not be the actual worst.
        best_pred = int(np.argmax(pred))
        true = np.array(cycles[10:])
        assert true[best_pred] <= true.max()


class TestSearch:
    def test_search_returns_valid_best(self):
        func = build_matmul(128, 128, 128, dtype="float16")
        result = evolutionary_search(
            func, TensorCoreSketch(), SimGPU(), TuneConfig(trials=8, population=6, seed=0)
        )
        assert result.best_func is not None
        assert verify(result.best_func, SimGPU()) == []
        assert result.stats.measured <= 8

    def test_validation_filter_rejects_invalid_sketch(self):
        # A sketch that violates launch limits never reaches measurement:
        # the §4.4 validation filter rejects every candidate.
        from repro.meta import Sketch

        class BadSketch(Sketch):
            name = "bad"

            def applicable(self, sch):
                return True

            def apply(self, sch, state):
                i, j, k = sch.get_loops(sch.get_block("C"))
                sch.bind(i, "threadIdx.x")  # 4096 threads: over the limit

        func = build_matmul(4096, 16, 16, dtype="float16")
        result = evolutionary_search(
            func, BadSketch(), SimGPU(), TuneConfig(trials=4, population=4, seed=1)
        )
        assert result.stats.invalid_rejected > 0
        assert result.stats.measured == 0
        assert result.best_func is None

    def test_tune_prefers_tensorized(self):
        func = build_matmul(256, 256, 256, dtype="float16")
        result = tune(func, SimGPU(), TuneConfig(trials=16, seed=0))
        assert result.best_sketch == "tensor-core"

    def test_tune_beats_baseline(self):
        func = build_matmul(256, 256, 256, dtype="float16")
        ours = tune(func, SimGPU(), TuneConfig(trials=16, seed=0))
        baseline = tune(
            func, SimGPU(), TuneConfig(trials=16, seed=0, allow_tensorize=False)
        )
        assert ours.best_cycles < baseline.best_cycles

    def test_tuning_time_accounting(self):
        func = build_matmul(128, 128, 128, dtype="float16")
        result = tune(func, SimGPU(), TuneConfig(trials=6, seed=0))
        assert result.tuning_seconds > 0
        assert result.stats.profiling_seconds >= 0
