"""One test per §3.3 check: each failure carries its stable error code
and a printer-rendered source span, and the legacy string/boolean views
(`str(diag)`, `is_valid`, `assert_valid`) are unchanged."""

import pytest

from repro.schedule import Schedule, VerificationError, assert_valid, is_valid, verify
from repro.schedule.sref import find_blocks
from repro.sim import SimGPU
from repro.tir import ForKind, IRBuilder, IntImm, Range, Var

from ..common import build_matmul


def _loops_of(func):
    """The serial loop spine under the root block, outermost first."""
    out, node = [], func.body.block.body
    while hasattr(node, "loop_var"):
        out.append(node)
        node = node.body
    return out


def _realize_of(func, name="C"):
    for realize in find_blocks(func.body):
        if realize is not func.body and realize.block.name_hint == name:
            return realize
    raise AssertionError(f"no block {name!r}")


def _codes(diags):
    return [d.code for d in diags]


class TestLoopNestCodes:
    def test_tir101_nonzero_loop_min(self):
        func = build_matmul(16, 16, 16)
        _loops_of(func)[0].min = IntImm(1)
        diags = verify(func)
        assert _codes(diags) == ["TIR101"]
        assert "min != 0" in str(diags[0])

    def test_tir102_symbolic_extent(self):
        func = build_matmul(16, 16, 16)
        _loops_of(func)[1].extent = Var("n", "int32")
        assert _codes(verify(func)) == ["TIR102"]

    def test_tir103_dependent_bindings(self):
        b = IRBuilder("bad")
        A = b.arg_buffer("A", (16, 32), "float32")
        with b.grid(16) as i:
            with b.block("bad") as blk:
                v1 = blk.spatial(16, i)
                v2 = blk.spatial(32, i * 2)
                b.store(A, (v1, v2), 1.0)
        diags = verify(b.finish())
        assert _codes(diags) == ["TIR103"]
        assert "quasi-affine" in str(diags[0])

    def test_tir104_symbolic_domain(self):
        func = build_matmul(16, 16, 16)
        _realize_of(func).block.iter_vars[0].dom = Range(0, Var("n", "int32"))
        assert "TIR104" in _codes(verify(func))

    def test_tir105_out_of_domain_binding(self):
        b = IRBuilder("oob")
        A = b.arg_buffer("A", (40, 1), "float32")
        with b.grid(16) as i:
            with b.block("oob") as blk:
                v1 = blk.spatial(16, i + 8)  # range [8, 24) outside [0, 16)
                b.store(A, (v1, 0), 1.0)
        diags = verify(b.finish())
        assert _codes(diags) == ["TIR105"]
        assert "domain" in str(diags[0])

    def test_tir106_parallel_reduction(self):
        func = build_matmul(16, 16, 16)
        _loops_of(func)[2].kind = ForKind.PARALLEL  # the k loop
        diags = verify(func)
        assert _codes(diags) == ["TIR106"]
        assert diags[0].block == "C"


class TestProducerConsumerCodes:
    def test_tir201_no_producer(self):
        b = IRBuilder("noprod")
        C = b.arg_buffer("C", (16,), "float32")
        B = b.alloc_buffer("B", (16,), "float32")
        with b.grid(16) as i:
            with b.block("C") as blk:
                vi = blk.spatial(16, i)
                b.store(C, (vi,), B[vi] * 2.0)
        assert _codes(verify(b.finish())) == ["TIR201"]

    def test_tir202_partial_coverage(self):
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
        diags = verify(b.finish())
        assert _codes(diags) == ["TIR202"]
        assert "cover" in str(diags[0])

    def test_tir203_read_before_write(self):
        b = IRBuilder("order")
        A = b.arg_buffer("A", (16,), "float32")
        C = b.arg_buffer("C", (16,), "float32")
        B = b.alloc_buffer("B", (16,), "float32")
        with b.grid(16) as i:
            with b.block("C") as blk:
                vi = blk.spatial(16, i)
                b.store(C, (vi,), B[vi] * 2.0)
        with b.grid(16) as i:
            with b.block("B") as blk:
                vi = blk.spatial(16, i)
                b.store(B, (vi,), A[vi] + 1.0)
        assert "TIR203" in _codes(verify(b.finish()))


class TestThreadingCodes:
    def test_tir301_symbolic_thread_extent(self):
        sch = Schedule(build_matmul(32, 16, 16))
        i, _, _ = sch.get_loops(sch.get_block("C"))
        sch.bind(i, "threadIdx.x")
        _loops_of(sch.func)[0].extent = Var("n", "int32")
        assert "TIR301" in _codes(verify(sch.func, SimGPU()))

    def test_tir302_inconsistent_extents(self):
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
        assert "TIR302" in _codes(verify(b.finish(), SimGPU()))

    def test_tir303_tir304_launch_limits(self):
        sch = Schedule(build_matmul(4096, 16, 16))
        i, _, _ = sch.get_loops(sch.get_block("C"))
        sch.bind(i, "threadIdx.x")
        codes = _codes(verify(sch.func, SimGPU()))
        assert "TIR303" in codes  # per-axis extent limit
        assert "TIR304" in codes  # threads-per-block limit

    def test_tir305_shared_memory_capacity(self):
        sch = Schedule(build_matmul(512, 512, 512, dtype="float32"))
        sch.cache_read(sch.get_block("C"), 0, "shared")  # 1MB > 48KB
        assert "TIR305" in _codes(verify(sch.func, SimGPU()))

    def test_tir306_warp_intrinsic_under_thread_x(self):
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
        sch.bind(io, "threadIdx.x")
        assert "TIR306" in _codes(verify(sch.func, SimGPU()))

    def test_tir307_missing_cooperative_fetch(self):
        b = IRBuilder("coop")
        C = b.arg_buffer("C", (32,), "float32")
        S = b.alloc_buffer("S", (32,), "float32", scope="shared")
        with b.thread_binding(32, "threadIdx.x") as t:
            with b.block("C") as blk:
                vi = blk.spatial(32, t)
                b.store(C, (vi,), S[vi])
        assert "TIR307" in _codes(verify(b.finish(), SimGPU()))


class TestIntrinsicScopeCodes:
    def test_tir351_operand_missing(self):
        func = build_matmul(16, 16, 16)
        _realize_of(func).block.annotations["tensorize"] = "wmma_16x16x16_f16"
        codes = _codes(verify(func))
        assert codes == ["TIR351"] * 3  # A, B and C operands all unmapped

    def test_tir352_operand_wrong_scope(self):
        func = build_matmul(16, 16, 16)
        block = _realize_of(func).block
        block.annotations["tensorize"] = "wmma_16x16x16_f16"
        block.annotations["tensorize_operands"] = {"A": "A", "B": "B", "C": "C"}
        codes = _codes(verify(func))
        assert codes == ["TIR352"] * 3  # all operands left in global scope


class TestLegacyViewsUnchanged:
    """`verify` grew types, but the seed API contracts still hold."""

    def test_valid_program_is_empty_list(self):
        assert verify(build_matmul(16, 16, 16)) == []

    def test_string_probing_still_works(self):
        func = build_matmul(16, 16, 16)
        _loops_of(func)[0].min = IntImm(1)
        problems = verify(func)
        # The pre-diagnostics idiom: substring checks over problem strings.
        assert any("min != 0" in p for p in problems)

    def test_is_valid(self):
        assert is_valid(build_matmul(8, 8, 8))
        func = build_matmul(16, 16, 16)
        _loops_of(func)[0].min = IntImm(1)
        assert not is_valid(func)

    def test_assert_valid_raises_with_diagnostics(self):
        func = build_matmul(16, 16, 16)
        _loops_of(func)[2].kind = ForKind.PARALLEL
        assert_valid(build_matmul(8, 8, 8))  # no raise on valid input
        with pytest.raises(VerificationError) as exc_info:
            assert_valid(func)
        err = exc_info.value
        assert [d.code for d in err.diagnostics] == ["TIR106"]
        assert "reduction iterator" in str(err)
