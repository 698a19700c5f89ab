"""Byte-identity of the presorted, feature-vectorized GBDT fit against
the per-feature loop it replaced (``gbdt_reference``).

The cost model ranks every generation of the search, so any rounding
difference in a tree can change which candidates get measured and with
that the best program.  These tests hold the fit to the old arithmetic
exactly: the same base, the same (feature, threshold, value) at every
node, and equal predictions.  The data is tie-heavy on purpose —
small integer grids, ``log1p`` of counts, constant and duplicated
columns, duplicated rows — because ties are where a sort order or a
tie-break rule shows.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.learn import GradientBoostedTrees, RegressionTree

from .gbdt_reference import GradientBoostedTrees as ReferenceGBDT
from .gbdt_reference import RegressionTree as ReferenceTree

GRID = [float(v) for v in range(-2, 4)]
LOG1P_COUNTS = [float(v) for v in np.log1p(np.arange(12))]


def _nodes(node):
    """Pre-order (feature, threshold, value) of every node."""
    if node.is_leaf:
        return [(None, None, node.value)]
    return [(node.feature, node.threshold, node.value)] + _nodes(node.left) + _nodes(node.right)


def _tie_heavy(values, shape):
    return hnp.arrays(np.float64, shape, elements=st.sampled_from(values))


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 64))
    d = draw(st.integers(1, 24))
    X = draw(_tie_heavy(draw(st.sampled_from([GRID, LOG1P_COUNTS])), (n, d)))
    # mix the two grids column-wise, then force constant columns,
    # duplicated and mirrored columns (equal gains on two features, at
    # the same or the opposite split position: the tie-break) and
    # duplicated rows
    other = draw(_tie_heavy(LOG1P_COUNTS, (n, d)))
    swap = draw(hnp.arrays(bool, d))
    X[:, swap] = other[:, swap]
    for col in draw(st.lists(st.integers(0, d - 1), max_size=3)):
        X[:, col] = X[0, col]
    for src, dst, sign in draw(st.lists(
        st.tuples(st.integers(0, d - 1), st.integers(0, d - 1), st.sampled_from([1.0, -1.0])),
        max_size=3,
    )):
        X[:, dst] = sign * X[:, src]
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=4)):
        X[dst] = X[src]
    y_values = draw(st.sampled_from([
        GRID,
        LOG1P_COUNTS,
        st.floats(-8.0, 8.0, allow_nan=False, allow_subnormal=False),
    ]))
    if isinstance(y_values, list):
        y = draw(_tie_heavy(y_values, n))
    else:
        y = draw(hnp.arrays(np.float64, n, elements=y_values))
    # held-out rows: the training grids plus values between grid points
    held_out = draw(_tie_heavy(GRID + LOG1P_COUNTS + [0.5, 1.25, 2.5], (8, d)))
    return X, y, held_out


@settings(max_examples=150, deadline=None)
@given(
    data=datasets(),
    max_depth=st.integers(0, 5),
    min_samples_leaf=st.integers(1, 3),
    n_trees=st.integers(1, 6),
    learning_rate=st.sampled_from([0.2, 0.5, 1.0]),
)
def test_fit_is_byte_identical_to_reference(data, max_depth, min_samples_leaf, n_trees,
                                            learning_rate):
    X, y, held_out = data
    params = dict(n_trees=n_trees, learning_rate=learning_rate, max_depth=max_depth,
                  min_samples_leaf=min_samples_leaf)
    ref = ReferenceGBDT(**params).fit(X, y)
    new = GradientBoostedTrees(**params).fit(X, y)
    assert new.base == ref.base
    assert len(new.trees) == len(ref.trees)
    for mine, theirs in zip(new.trees, ref.trees):
        assert _nodes(mine.root) == _nodes(theirs.root)
    assert np.array_equal(new.predict(held_out), ref.predict(held_out))
    assert np.array_equal(new.predict(X), ref.predict(X))


@settings(max_examples=60, deadline=None)
@given(data=datasets(), max_depth=st.integers(0, 5), min_samples_leaf=st.integers(1, 3))
def test_single_tree_is_byte_identical_to_reference(data, max_depth, min_samples_leaf):
    X, y, _ = data
    ref = ReferenceTree(max_depth, min_samples_leaf).fit(X, y)
    new = RegressionTree(max_depth, min_samples_leaf).fit(X, y)
    assert _nodes(new.root) == _nodes(ref.root)


def test_cost_model_shaped_fit_is_byte_identical():
    """The cost model's own settings (40 trees, depth 4) on data shaped
    like its input: 32 rows x 20 features with many repeated values."""
    rng = np.random.default_rng(0)
    X = np.log1p(rng.integers(0, 6, size=(32, 20)).astype(float))
    X[:, 3] = 1.0
    X[7] = X[2]
    y = -np.log(rng.uniform(1e3, 1e6, size=32))
    ref = ReferenceGBDT(n_trees=40, learning_rate=0.2, max_depth=4).fit(X, y)
    new = GradientBoostedTrees(n_trees=40, learning_rate=0.2, max_depth=4).fit(X, y)
    assert [_nodes(t.root) for t in new.trees] == [_nodes(t.root) for t in ref.trees]
    probe = np.log1p(rng.integers(0, 6, size=(64, 20)).astype(float))
    assert np.array_equal(new.predict(probe), ref.predict(probe))
