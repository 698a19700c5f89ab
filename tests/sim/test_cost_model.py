"""Tests for the simulated targets and the analytical performance model.

The model's job is to order schedules the way real hardware would; these
tests pin the orderings the evaluation depends on.
"""

import pytest

from repro.meta.sketch import apply_sketch
from repro.schedule import Schedule
from repro.sim import CostModelError, PerfReport, SimCPU, SimGPU, estimate

from ..common import build_matmul


def _tensorized_gemm(n, seed=0):
    from repro.meta.sketch import TensorCoreSketch

    return apply_sketch(
        build_matmul(n, n, n, dtype="float16"), TensorCoreSketch(), seed=seed
    ).func


def _scalar_gemm(n, seed=0):
    from repro.meta.sketch import GpuScalarSketch
    from repro.schedule import ScheduleError

    for s in range(seed, seed + 10):
        try:
            return apply_sketch(
                build_matmul(n, n, n, dtype="float16"), GpuScalarSketch(), seed=s
            ).func
        except ScheduleError:
            continue
    raise AssertionError("no valid scalar schedule found")


class TestTargets:
    def test_gpu_limits(self):
        t = SimGPU()
        assert t.max_thread_extent("threadIdx.x") == 1024
        assert t.shared_memory_per_block == 48 * 1024
        assert t.cycles_to_seconds(t.clock_ghz * 1e9) == pytest.approx(1.0)

    def test_tensor_unit_ratio(self):
        # The modelled tensor-unit advantage over the scalar pipeline
        # must be substantial (the paper's premise).
        t = SimGPU()
        assert t.tensor_flops_per_cycle / t.scalar_flops_per_cycle >= 4

    def test_cpu_sdot_ratio(self):
        t = SimCPU()
        assert t.sdot_flops_per_cycle / t.scalar_ops_per_cycle >= 8


class TestEstimates:
    def test_unscheduled_is_slow(self):
        # A serial program has no parallelism: terrible occupancy.
        func = build_matmul(64, 64, 64, dtype="float16")
        report = estimate(func, SimGPU())
        assert isinstance(report, PerfReport)
        assert report.cycles > 2e3

    def test_binding_threads_helps(self):
        base = build_matmul(256, 256, 256, dtype="float16")
        plain = estimate(base, SimGPU()).cycles
        sch = Schedule(build_matmul(256, 256, 256, dtype="float16"))
        i, j, k = sch.get_loops(sch.get_block("C"))
        sch.bind(i, "blockIdx.x")
        sch.bind(j, "threadIdx.x")
        bound = estimate(sch.func, SimGPU()).cycles
        assert bound < plain / 5

    def test_tensorization_beats_scalar(self):
        tensor = estimate(_tensorized_gemm(256), SimGPU()).cycles
        scalar = estimate(_scalar_gemm(256), SimGPU()).cycles
        assert tensor < scalar

    def test_tensorized_gemm_is_memory_bound(self):
        # §4.3's motivation: with tensor units, data movement becomes
        # the bottleneck.
        report = estimate(_tensorized_gemm(256), SimGPU())
        assert report.bound in ("global", "shared")

    def test_bigger_problem_costs_more(self):
        small = estimate(_tensorized_gemm(128), SimGPU()).cycles
        big = estimate(_tensorized_gemm(512), SimGPU()).cycles
        assert big > small

    def test_caching_reduces_global_traffic(self):
        # compute_at a shared cache reduces the counted global bytes.
        def traffic(with_cache):
            sch = Schedule(build_matmul(128, 128, 128))
            c = sch.get_block("C")
            i, j, k = sch.get_loops(c)
            io, ii = sch.split(i, [8, None])
            if with_cache:
                pass
            sch.bind(io, "blockIdx.x")
            sch.bind(ii, "threadIdx.x")
            if with_cache:
                copy = sch.cache_read(c, 0, "shared")
                sch.compute_at(copy, io)
            report = estimate(sch.func, SimGPU())
            return report.counts["global_bytes"]

        assert traffic(True) < traffic(False)

    def test_vectorized_copy_is_cheaper(self):
        def cycles(vectorize):
            sch = Schedule(build_matmul(128, 128, 128))
            c = sch.get_block("C")
            copy = sch.cache_read(c, 0, "shared")
            loops = sch.get_loops(copy)
            fused = sch.fuse(*loops)
            parts = sch.split(fused, [None, 256, 4])
            sch.bind(parts[0], "blockIdx.x")
            sch.bind(parts[1], "threadIdx.x")
            if vectorize:
                sch.vectorize(parts[2])
            return estimate(sch.func, SimGPU()).cycles

        assert cycles(True) <= cycles(False)

    def test_cpu_parallel_helps(self):
        def cycles(par):
            sch = Schedule(build_matmul(128, 128, 128))
            i, j, k = sch.get_loops(sch.get_block("C"))
            if par:
                sch.parallel(i)
            return estimate(sch.func, SimCPU()).cycles

        assert cycles(True) < cycles(False)

    def test_cpu_sdot_beats_scalar(self):
        from repro.meta.sketch import CpuScalarSketch, CpuSdotSketch
        from repro.tir import Cast, IRBuilder

        def qgemm():
            b = IRBuilder("qgemm")
            A = b.arg_buffer("A", (256, 256), "int8")
            B = b.arg_buffer("B", (256, 256), "int8")
            C = b.arg_buffer("C", (256, 256), "int32")
            with b.grid(256, 256, 256) as (i, j, k):
                with b.block("C") as blk:
                    vi = blk.spatial(256, i)
                    vj = blk.spatial(256, j)
                    vk = blk.reduce(256, k)
                    with blk.init():
                        b.store(C, (vi, vj), 0)
                    b.store(
                        C,
                        (vi, vj),
                        C[vi, vj] + Cast("int32", A[vi, vk]) * Cast("int32", B[vk, vj]),
                    )
            return b.finish()

        sdot = apply_sketch(qgemm(), CpuSdotSketch(), seed=1)
        scalar = apply_sketch(qgemm(), CpuScalarSketch(), seed=1)
        t = SimCPU()
        assert estimate(sdot.func, t).cycles < estimate(scalar.func, t).cycles

    def test_symbolic_extent_rejected(self):
        from repro.tir import (
            Buffer,
            BufferStore,
            For,
            PrimFunc,
            Var,
        )

        n = Var("n")
        buf = Buffer("A", (1024,), "float32")
        i = Var("i")
        body = For(i, 0, n, "serial", BufferStore(buf, 1.0, [i]))
        handle = Var("A", "handle")
        func = PrimFunc([handle], {handle: buf}, body)
        with pytest.raises(CostModelError):
            estimate(func, SimGPU())
