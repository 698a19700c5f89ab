"""Miscellaneous Schedule API behaviours: resolution, atomicity, copies."""

import pytest

from repro.schedule import Schedule, ScheduleError

from ..common import build_matmul, build_matmul_relu


class TestResolution:
    def test_get_block_missing(self):
        sch = Schedule(build_matmul(8, 8, 8))
        with pytest.raises(ScheduleError):
            sch.get_block("nope")

    def test_get_blocks_order(self):
        sch = Schedule(build_matmul_relu(8))
        assert [rv.name for rv in sch.get_blocks()] == ["C", "D"]

    def test_duplicate_names_uniquified_on_entry(self):
        from repro.tir import IRBuilder

        b = IRBuilder("dups")
        A = b.arg_buffer("A", (4,), "float32")
        for _ in range(2):
            with b.grid(4) as i:
                with b.block("blk") as blk:
                    vi = blk.spatial(4, i)
                    b.store(A, (vi,), 1.0)
        sch = Schedule(b.finish())
        names = [rv.name for rv in sch.get_blocks()]
        assert len(names) == len(set(names)) == 2

    def test_get_child_blocks(self):
        sch = Schedule(build_matmul(64, 64, 64))
        c = sch.get_block("C")
        i, j, k = sch.get_loops(c)
        io, ii = sch.split(i, [None, 8])
        outer = sch.blockize(ii)
        assert [b.name for b in sch.get_child_blocks(outer)] == ["C"]


class TestAtomicity:
    def test_failed_primitive_leaves_state_unchanged(self):
        sch = Schedule(build_matmul(8, 8, 8))
        before = sch.show()
        i, j, k = sch.get_loops(sch.get_block("C"))
        with pytest.raises(ScheduleError):
            sch.split(i, [3, 2])  # 6 < 8: invalid coverage
        assert sch.show() == before

    def test_failed_compute_at_rolls_back(self):
        sch = Schedule(build_matmul_relu(8))
        before = sch.show()
        c = sch.get_block("C")
        with pytest.raises(ScheduleError):
            # A block cannot be computed at its own enclosing loop.
            sch.compute_at(c, sch.get_loops(c)[0])
        assert sch.show() == before

    def test_trace_not_polluted_by_failures(self):
        sch = Schedule(build_matmul(8, 8, 8))
        i, j, k = sch.get_loops(sch.get_block("C"))
        with pytest.raises(ScheduleError):
            sch.split(i, [None, None])
        assert len(sch.trace) == 0


class TestCopy:
    def test_copy_is_independent(self):
        sch = Schedule(build_matmul(16, 16, 16), seed=0)
        clone = sch.copy(seed=1)
        i = sch.get_loops(sch.get_block("C"))[0]
        sch.split(i, [None, 4])
        # The clone still sees the original three loops.
        assert len(clone.get_loops(clone.get_block("C"))) == 3
        assert len(sch.get_loops(sch.get_block("C"))) == 4

    def test_copy_keeps_the_name_counters(self):
        """A name the program no longer holds stays taken in a fork, so
        continuing the fork names what continuing the parent would."""
        sch = Schedule(build_matmul(16, 16, 16), seed=0)
        i = sch.get_loops(sch.get_block("C"))[0]
        sch.fuse(*sch.split(i, [None, 4]))
        clone = sch.copy()
        assert clone.fresh_var("i_0").name == sch.fresh_var("i_0").name == "i_0_1"
        assert clone.fresh_block_name("C") == sch.fresh_block_name("C") == "C_1"

    def test_copy_keeps_decisions_position_and_diagnostics(self):
        sch = Schedule(build_matmul(16, 16, 16), seed=0)
        sch.forced_decisions = [1, 2]
        sch.sample_categorical([1, 2, 4])
        i, _, _ = sch.get_loops(sch.get_block("C"))
        with pytest.raises(ScheduleError):
            sch.split(i, [None, None])
        clone = sch.copy()
        assert clone.decisions == sch.decisions == [1]
        assert [d.code for d in clone.diagnostics] == [d.code for d in sch.diagnostics]
        assert len(clone.diagnostics) == 1
        # The fork reads the next forced decision, and owns its state.
        assert clone.sample_categorical([1, 2, 4]) == 4
        assert sch.decisions == [1] and clone.decisions == [1, 2]
        with pytest.raises(ScheduleError):
            clone.split(i, [None, None])
        assert len(sch.diagnostics) == 1

    def test_copy_records_a_trace_only_when_the_parent_does(self):
        quiet = Schedule(build_matmul(16, 16, 16), record_trace=False)
        assert quiet.copy().trace is None
        loud = Schedule(build_matmul(16, 16, 16))
        loud.split(loud.get_loops(loud.get_block("C"))[0], [None, 4])
        clone = loud.copy()
        clone.split(clone.get_loops(clone.get_block("C"))[0], [None, 2])
        assert [inst.name for inst in loud.trace.instructions] == ["split"]
        assert len(clone.trace.instructions) == 2
