"""Property tests for ``structural_hash``.

The contract under test: ``structural_equal(a, b)`` implies
``structural_hash(a) == structural_hash(b)`` — across alpha-renamed
variables, reordered-but-equal trees, independently built functions and
schedule-mutated pairs — while structurally different programs should
(overwhelmingly) hash apart.
"""

import pytest

from repro.schedule import Schedule
from repro.tir import (
    Buffer,
    BufferStore,
    For,
    Var,
    structural_equal,
    structural_hash,
)

from ..common import build_elementwise_chain, build_matmul


def assert_consistent(a, b):
    """The hash law: equal values must hash equal."""
    assert structural_equal(a, b)
    assert structural_hash(a) == structural_hash(b)


class TestHashEqualityLaw:
    def test_independent_identical_builds(self):
        assert_consistent(build_matmul(16, 16, 16), build_matmul(16, 16, 16))
        assert_consistent(build_elementwise_chain(32), build_elementwise_chain(32))

    def test_alpha_renamed_loop_vars(self):
        buf = Buffer("A", (4,), "float32")
        i, j = Var("i"), Var("j")
        l1 = For(i, 0, 4, "serial", BufferStore(buf, 1.0, [i]))
        l2 = For(j, 0, 4, "serial", BufferStore(buf, 1.0, [j]))
        assert_consistent(l1, l2)

    def test_func_name_excluded(self):
        from repro.tir import PrimFunc

        f1 = build_matmul(16, 16, 16)
        f2 = build_matmul(16, 16, 16)
        renamed = PrimFunc(f2.params, f2.buffer_map, f2.body, name="renamed")
        assert_consistent(f1, renamed)

    def test_same_seed_schedules_hash_equal(self):
        func = build_matmul(32, 32, 32)
        results = []
        for _ in range(2):
            sch = Schedule(func, seed=7)
            block = sch.get_block("C")
            loops = sch.get_loops(block)
            sch.split(loops[0], sch.sample_perfect_tile(loops[0], 2, 8))
            results.append(sch.func)
        assert_consistent(*results)

    def test_mutated_decision_pairs_follow_the_law(self):
        # Draw several (a, b) schedule pairs with differing decisions;
        # whenever the results happen to be structurally equal, the
        # hashes must agree — and disagreeing structures should hash
        # apart.
        func = build_matmul(32, 32, 32)
        funcs = []
        for seed in range(6):
            sch = Schedule(func, seed=seed)
            block = sch.get_block("C")
            loops = sch.get_loops(block)
            sch.split(loops[0], sch.sample_perfect_tile(loops[0], 2, 8))
            funcs.append(sch.func)
        for a in funcs:
            for b in funcs:
                if structural_equal(a, b):
                    assert structural_hash(a) == structural_hash(b)
                else:
                    assert structural_hash(a) != structural_hash(b)

    def test_annotation_dict_order_irrelevant(self):
        buf = Buffer("A", (4,), "float32")
        i, j = Var("i"), Var("j")
        ann1 = {"pragma_x": 1, "pragma_y": 2}
        ann2 = {"pragma_y": 2, "pragma_x": 1}
        l1 = For(i, 0, 4, "serial", BufferStore(buf, 1.0, [i]), annotations=ann1)
        l2 = For(j, 0, 4, "serial", BufferStore(buf, 1.0, [j]), annotations=ann2)
        assert_consistent(l1, l2)


class TestHashDiscrimination:
    def test_different_extent(self):
        assert structural_hash(build_matmul(16, 16, 16)) != structural_hash(
            build_matmul(16, 16, 8)
        )

    def test_split_changes_hash(self):
        func = build_matmul(32, 32, 32)
        sch = Schedule(func)
        block = sch.get_block("C")
        loops = sch.get_loops(block)
        sch.split(loops[0], [4, 8])
        assert not structural_equal(func, sch.func)
        assert structural_hash(func) != structural_hash(sch.func)

    def test_reordered_loops_hash_apart(self):
        func = build_matmul(32, 32, 32)
        sch = Schedule(func)
        block = sch.get_block("C")
        i, j, k = sch.get_loops(block)
        sch.reorder(j, i)
        assert not structural_equal(func, sch.func)
        assert structural_hash(func) != structural_hash(sch.func)

    def test_annotation_value_matters(self):
        buf = Buffer("A", (4,), "float32")
        i = Var("i")
        l1 = For(i, 0, 4, "serial", BufferStore(buf, 1.0, [i]), annotations={"p": 1})
        l2 = For(i, 0, 4, "serial", BufferStore(buf, 1.0, [i]), annotations={"p": 2})
        assert structural_hash(l1) != structural_hash(l2)


class TestFreeVarModes:
    def test_free_vars_identity_by_default(self):
        x, y = Var("x"), Var("y")
        assert structural_hash(x + 1) != structural_hash(y + 1)
        assert structural_hash(x + 1, map_free_vars=True) == structural_hash(
            y + 1, map_free_vars=True
        )

    def test_same_var_object_hashes_equal_by_default(self):
        x = Var("x")
        assert structural_hash(x + 1) == structural_hash(x + 1)

    def test_map_free_vars_tracks_structural_equal(self):
        x, y = Var("x"), Var("y")
        assert structural_equal(x + x, y + y, map_free_vars=True)
        assert structural_hash(x + x, map_free_vars=True) == structural_hash(
            y + y, map_free_vars=True
        )
        # x+x vs x+y differ even with mapping: the occurrence pattern
        # (one var vs two) is part of the structure.
        assert not structural_equal(x + x, x + y, map_free_vars=True)
        assert structural_hash(x + x, map_free_vars=True) != structural_hash(
            x + y, map_free_vars=True
        )

    def test_dtype_matters_for_free_vars(self):
        x = Var("x", "int32")
        y = Var("y", "int64")
        assert structural_hash(x + 1, map_free_vars=True) != structural_hash(
            y + 1, map_free_vars=True
        )


class TestMemoisation:
    def test_repeated_hash_is_stable(self):
        func = build_matmul(16, 16, 16)
        first = structural_hash(func)
        assert structural_hash(func) == first
        assert structural_hash(func) == first

    def test_memo_not_shared_across_modes(self):
        x, y = Var("x"), Var("y")
        e1, e2 = x + 1, y + 1
        # Prime the default-mode memo, then check mapped mode still
        # reflects alpha equivalence (and vice versa).
        assert structural_hash(e1) != structural_hash(e2)
        assert structural_hash(e1, map_free_vars=True) == structural_hash(
            e2, map_free_vars=True
        )
        assert structural_hash(e1) != structural_hash(e2)

    def test_disabled_caches_still_hash_correctly(self):
        """A fresh build, hashed with no node memo yet, agrees with a
        memoized one."""
        memoized = build_matmul(16, 16, 16)
        first = structural_hash(memoized)
        assert structural_hash(memoized) == first
        assert structural_hash(build_matmul(16, 16, 16)) == first
