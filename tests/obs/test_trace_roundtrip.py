"""Trace replay: a trace recorded from a sketch candidate replays onto a
fresh schedule to a structurally identical program, for every default
sketch, by calling the ``Schedule`` method each instruction names.
"""

import inspect
import re

import pytest

from repro.meta import (
    CpuScalarSketch,
    CpuSdotSketch,
    GpuScalarSketch,
    TensorCoreSketch,
)
from repro.schedule import BlockRV, Schedule, ScheduleError
from repro.schedule.trace import INSTRUCTIONS, Instruction, Trace
from repro.tir import Cast, IRBuilder, structural_equal, structural_hash

from ..common import build_matmul


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


SKETCH_CASES = [
    pytest.param(
        TensorCoreSketch(), lambda: build_matmul(128, 128, 128, dtype="float16"),
        id="tensor-core",
    ),
    pytest.param(
        GpuScalarSketch(), lambda: build_matmul(64, 64, 64), id="gpu-scalar"
    ),
    pytest.param(CpuSdotSketch(), lambda: qgemm_func(64), id="cpu-sdot"),
    pytest.param(
        CpuScalarSketch(), lambda: build_matmul(64, 64, 64), id="cpu-scalar"
    ),
]


def _apply_recorded(sketch, make_func):
    """Apply the sketch with trace recording on, trying a few seeds (some
    samples violate primitive preconditions and raise)."""
    for seed in range(16):
        sch = Schedule(make_func(), seed=seed, record_trace=True)
        try:
            sketch.apply(sch, sketch.prefix(sch))
        except ScheduleError:
            continue
        return sch
    pytest.fail(f"no seed in 0..15 applies {sketch.name}")


def _steps(trace):
    """Each instruction as comparable values (RVs by name)."""
    def names(values):
        return [getattr(v, "name", v) for v in values]

    return [
        (i.name, names(i.inputs), i.attrs, names(i.outputs), i.decision)
        for i in trace.instructions
    ]


class TestRoundTrip:
    @pytest.mark.parametrize("sketch,make_func", SKETCH_CASES)
    def test_roundtrip_hash_identical(self, sketch, make_func):
        sch = _apply_recorded(sketch, make_func)
        assert sch.trace is not None and len(sch.trace) > 0

        fresh = Schedule(make_func(), seed=0)
        sch.trace.apply_to(fresh)
        assert structural_hash(fresh.func) == structural_hash(sch.func)
        # The replayed calls record themselves: the same steps again.
        assert _steps(fresh.trace) == _steps(sch.trace)

    @pytest.mark.parametrize("sketch,make_func", SKETCH_CASES)
    def test_attrs_are_keywords_of_the_method(self, sketch, make_func):
        sch = _apply_recorded(sketch, make_func)
        for inst in sch.trace.instructions:
            assert inst.name in INSTRUCTIONS
            extra = {"decision": inst.decision} if inst.is_sampling else {}
            signature = inspect.signature(getattr(Schedule, inst.name))
            signature.bind(sch, *inst.inputs, **inst.attrs, **extra)

    def test_instruction_set_is_what_schedule_records(self):
        recorded = set(
            re.findall(r'self\._record\(\s*"(\w+)"', inspect.getsource(Schedule))
        )
        assert recorded == INSTRUCTIONS
        assert all(callable(getattr(Schedule, name)) for name in INSTRUCTIONS)

    def test_failed_step_leaves_the_applied_prefix_recorded(self):
        # The third step cannot apply: the replay raises there, and the
        # schedule holds the two applied steps in its program and trace.
        sch = Schedule(build_matmul(64, 64, 64), seed=3)
        i = sch.get_loops(sch.get_block("C"))[0]
        sch.split(i, sch.sample_perfect_tile(i, 2))
        broken = Trace(
            sch.trace.copy().instructions
            + [Instruction("compute_inline", [BlockRV("C")])]
        )
        fresh = Schedule(build_matmul(64, 64, 64))
        with pytest.raises(ScheduleError, match="cannot inline"):
            broken.apply_to(fresh)
        assert structural_equal(fresh.func, sch.func)
        assert _steps(fresh.trace) == _steps(sch.trace)
        assert len(fresh.trace) == 2

    def test_unknown_instruction_rejected_on_replay(self):
        trace = Trace([Instruction("not_a_primitive", [])])
        sch = Schedule(build_matmul(16, 16, 16), record_trace=False)
        with pytest.raises(ScheduleError, match="cannot replay"):
            trace.apply_to(sch)
