"""Tests for schedule traces, sampling and validation."""

import numpy as np
import pytest

from repro.runtime import random_args, run
from repro.schedule import (
    Schedule,
    ScheduleError,
    all_factorizations,
    divisors_of,
    verify,
)
from repro.tir import structural_equal

from ..common import build_matmul, build_matmul_relu


class TestTrace:
    def _scheduled(self, seed=0):
        sch = Schedule(build_matmul(32, 32, 32), seed=seed)
        c = sch.get_block("C")
        i, j, k = sch.get_loops(c)
        io, ii = sch.split(i, [None, 8])
        sch.reorder(io, j, k, ii)
        sch.vectorize(ii)
        return sch

    def test_trace_records(self):
        sch = self._scheduled()
        names = [inst.name for inst in sch.trace.instructions]
        assert names == ["split", "reorder", "vectorize"]

    def test_replay_reproduces_program(self):
        sch = self._scheduled()
        fresh = Schedule(build_matmul(32, 32, 32))
        sch.trace.apply_to(fresh)
        assert structural_equal(sch.func, fresh.func)

    def test_sampling_recorded_and_forced(self):
        sch = Schedule(build_matmul(64, 64, 64), seed=7)
        c = sch.get_block("C")
        i, j, k = sch.get_loops(c)
        factors = sch.sample_perfect_tile(i, 3)
        assert np.prod(factors) == 64
        assert sch.decisions == [factors]
        # Forced decisions drive the sampler deterministically.
        sch2 = Schedule(build_matmul(64, 64, 64), seed=99)
        sch2.forced_decisions = [[4, 4, 4]]
        c2 = sch2.get_block("C")
        i2 = sch2.get_loops(c2)[0]
        assert sch2.sample_perfect_tile(i2, 3) == [4, 4, 4]

    def test_invalid_forced_decision_rejected(self):
        sch = Schedule(build_matmul(64, 64, 64))
        i = sch.get_loops(sch.get_block("C"))[0]
        with pytest.raises(ScheduleError):
            sch.sample_perfect_tile(i, 3, decision=[4, 4, 5])

    def test_sample_categorical(self):
        sch = Schedule(build_matmul(16, 16, 16), seed=3)
        value = sch.sample_categorical(["a", "b", "c"])
        assert value in ("a", "b", "c")
        forced = sch.sample_categorical(["a", "b", "c"], decision=2)
        assert forced == "c"

    def test_divisors_and_factorizations(self):
        assert divisors_of(12) == [1, 2, 3, 4, 6, 12]
        facts = all_factorizations(8, 2)
        assert [2, 4] in facts and [8, 1] in facts
        assert all(a * b == 8 for a, b in facts)
        capped = all_factorizations(8, 2, max_innermost=2)
        assert all(b <= 2 for _, b in capped)


class TestValidation:
    def test_valid_program_empty(self):
        assert verify(build_matmul(16, 16, 16)) == []

    def test_dependent_bindings_flagged(self):
        # Build v1 = i, v2 = i * 2 by hand (paper §3.3's bad example).
        from repro.tir import IRBuilder

        b = IRBuilder("bad")
        A = b.arg_buffer("A", (16, 32), "float32")
        with b.grid(16) as i:
            with b.block("bad") as blk:
                v1 = blk.spatial(16, i)
                v2 = blk.spatial(32, i * 2)
                b.store(A, (v1, v2), 1.0)
        problems = verify(b.finish())
        assert any("quasi-affine" in p for p in problems)

    def test_out_of_domain_binding_flagged(self):
        from repro.tir import IRBuilder

        b = IRBuilder("oob")
        A = b.arg_buffer("A", (40, 1), "float32")
        with b.grid(16) as i:
            with b.block("oob") as blk:
                v1 = blk.spatial(16, i + 8)  # range [8, 24) outside [0, 16)
                b.store(A, (v1, 0), 1.0)
        problems = verify(b.finish())
        assert any("domain" in p for p in problems)

    def test_split_predicate_accepted(self):
        sch = Schedule(build_matmul(30, 32, 32))
        i, j, k = sch.get_loops(sch.get_block("C"))
        sch.split(i, [None, 8])
        assert verify(sch.func) == []

    def test_consumer_coverage_flagged(self):
        # Producer covers only half the buffer the consumer reads.
        from repro.tir import IRBuilder, call

        b = IRBuilder("uncovered")
        A = b.arg_buffer("A", (16,), "float32")
        C = b.arg_buffer("C", (16,), "float32")
        B = b.alloc_buffer("B", (16,), "float32")
        with b.grid(8) as i:
            with b.block("B") as blk:
                vi = blk.spatial(8, i)
                b.store(B, (vi,), A[vi] + 1.0)
        with b.grid(16) as i:
            with b.block("C") as blk:
                vi = blk.spatial(16, i)
                b.store(C, (vi,), B[vi] * 2.0)
        problems = verify(b.finish())
        assert any("cover" in p for p in problems)

    def test_gpu_threading_limits(self):
        from repro.sim import SimGPU

        target = SimGPU()
        sch = Schedule(build_matmul(4096, 16, 16))
        i, j, k = sch.get_loops(sch.get_block("C"))
        sch.bind(i, "threadIdx.x")  # 4096 threads > limit
        problems = verify(sch.func, target)
        assert any("exceeds" in p for p in problems)

    def test_gpu_inconsistent_thread_extents(self):
        # Two threadIdx.x loops with non-divisor extents inside ONE
        # kernel (one top-level nest) are inconsistent; separate nests
        # are separate kernel launches and may differ freely.
        from repro.sim import SimGPU
        from repro.tir import IRBuilder

        b = IRBuilder("two_tx")
        A = b.arg_buffer("A", (2, 32), "float32")
        B = b.arg_buffer("B", (2, 24), "float32")
        with b.serial(2, "o") as o:
            with b.thread_binding(32, "threadIdx.x", "t1") as t1:
                with b.block("w1") as blk:
                    vo = blk.spatial(2, o)
                    v1 = blk.spatial(32, t1)
                    b.store(A, (vo, v1), 1.0)
            with b.thread_binding(24, "threadIdx.x", "t2") as t2:
                with b.block("w2") as blk:
                    vo = blk.spatial(2, o, name="vo2")
                    v2 = blk.spatial(24, t2)
                    b.store(B, (vo, v2), 1.0)
        problems = verify(b.finish(), SimGPU())
        assert any("inconsistent" in p for p in problems)

    def test_gpu_separate_kernels_may_differ(self):
        from repro.sim import SimGPU

        sch = Schedule(build_matmul_relu(32))
        ci, cj, ck = sch.get_loops(sch.get_block("C"))
        di, dj = sch.get_loops(sch.get_block("D"))
        sch.bind(ci, "threadIdx.x")
        io, ii = sch.split(di, [None, 24])
        sch.bind(ii, "threadIdx.x")
        problems = verify(sch.func, SimGPU())
        assert not any("inconsistent" in p for p in problems)

    def test_gpu_shared_memory_capacity(self):
        from repro.sim import SimGPU

        target = SimGPU()
        sch = Schedule(build_matmul(512, 512, 512, dtype="float32"))
        sch.cache_read(sch.get_block("C"), 0, "shared")  # 1MB > 48KB
        problems = verify(sch.func, target)
        assert any("shared memory" in p for p in problems)

    def test_warp_intrinsic_inside_thread_x_flagged(self):
        from repro.sim import SimGPU

        sch = Schedule(build_matmul(64, 64, 64, dtype="float16"))
        c = sch.get_block("C")
        sch.cache_read(c, 0, "wmma.matrix_a")
        sch.cache_read(c, 1, "wmma.matrix_b")
        sch.cache_write(c, 0, "wmma.accumulator")
        i, j, k = sch.get_loops(c)
        io, ii = sch.split(i, [None, 16])
        jo, ji = sch.split(j, [None, 16])
        ko, ki = sch.split(k, [None, 16])
        sch.reorder(io, jo, ko, ii, ji, ki)
        sch.decompose_reduction(c, ko)
        sch.tensorize(ii, "wmma_16x16x16_f16")
        sch.bind(io, "threadIdx.x")  # illegal: warp intrinsic inside lanes
        problems = verify(sch.func, SimGPU())
        assert any("warp-scope" in p for p in problems)
