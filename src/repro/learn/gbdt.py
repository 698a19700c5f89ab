"""Gradient-boosted regression trees, from scratch on NumPy.

The paper's cost model is an XGBoost ensemble (§4.4); offline we build
the same model class ourselves: least-squares boosting over depth-limited
regression trees with exact greedy splits.

The search refits on every measurement so far: 20 features and 8-32
rows per fit at its trial counts.  On arrays that small numpy's per-call
overhead, not arithmetic, sets the cost, so the fit is laid out to make
its number of numpy calls follow the number of tree nodes:

* every column is argsorted once per fit (stable), and each node
  carries its (features x rows) block of sorted row ids, narrowed for
  the children by stable boolean filtering — no node sorts;
* a node scans all features in one pass: prefix sums along the sorted
  axis, one gain matrix with the invalid splits (between equal values)
  at ``-inf``, and one row-major ``argmax``;
* each training row's leaf value is recorded while a tree is built, so
  boosting needs no predict pass over the training set.

Trees are bit-identical to a per-feature loop that re-sorts at every
node (``tests/learn`` keeps that loop as the oracle), which rests on
three rules.  Node totals and means reduce the node's rows in their
original order: numpy's pairwise sum rounds differently from a prefix
sum.  Prefix sums are sequential ``cumsum`` along the sorted axis, and
the error of a split keeps its elementwise form.  Ties go to the first
feature whose best gain strictly beats every earlier feature's, then to
the first split position in it — exactly what the row-major ``argmax``
picks.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

__all__ = ["RegressionTree", "GradientBoostedTrees"]


def _as_xy(X, y) -> Tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be (n, d) with matching y")
    return X, y


def _presort(X: np.ndarray) -> np.ndarray:
    """Row ids of each column of ``X`` in stable ascending order, one
    row per feature."""
    return np.argsort(X.T, axis=1, kind="stable")


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value: float):
        self.feature: Optional[int] = None
        self.threshold = 0.0
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None
        self.value = value

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class RegressionTree:
    """A CART regression tree with exact greedy squared-error splits."""

    def __init__(self, max_depth: int = 4, min_samples_leaf: int = 2, min_gain: float = 1e-12):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain
        self.root: Optional[_Node] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        X, y = _as_xy(X, y)
        self._fit_sorted(X, y, _presort(X))
        return self

    def _fit_sorted(self, X: np.ndarray, y: np.ndarray, order: np.ndarray) -> np.ndarray:
        """Grow the tree given ``order = _presort(X)``; returns the leaf
        value of every training row."""
        leaf = np.empty(len(y))
        Xt = X.T
        features = np.arange(X.shape[1])[:, None]

        def build(rows: np.ndarray, sorted_rows: np.ndarray, depth: int) -> _Node:
            # rows: the node's row ids in original order; sorted_rows:
            # the same ids sorted per feature (features x rows).
            yn = y[rows]
            total_sum = yn.sum()
            node = _Node(float(total_sum / len(rows)))
            split = None
            if depth < self.max_depth and len(rows) >= 2 * self.min_samples_leaf:
                split = self._best_split(
                    Xt[features, sorted_rows], y[sorted_rows], yn, total_sum
                )
            if split is None:
                leaf[rows] = node.value
                return node
            node.feature, node.threshold = split
            goes_left = X[:, node.feature] <= node.threshold
            left, sorted_left = goes_left[rows], goes_left[sorted_rows]
            d = len(sorted_rows)
            node.left = build(
                rows[left], sorted_rows[sorted_left].reshape(d, -1), depth + 1
            )
            node.right = build(
                rows[~left], sorted_rows[~sorted_left].reshape(d, -1), depth + 1
            )
            return node

        self.root = build(np.arange(len(y)), order, 0)
        return leaf

    def _best_split(
        self, xs: np.ndarray, ys: np.ndarray, yn: np.ndarray, total_sum: float
    ) -> Optional[Tuple[int, float]]:
        """The best (feature, threshold) over every feature at once.

        ``xs``/``ys`` hold the node's feature values and targets sorted
        per feature (features x rows); ``yn`` its targets in original
        order.  A split after sorted position ``i`` must leave at least
        ``min_samples_leaf`` rows on each side.
        """
        n = len(yn)
        lo, hi = self.min_samples_leaf, min(n - self.min_samples_leaf, n - 1)
        if hi < lo or not len(xs):
            return None
        total_sq = (yn**2).sum()
        base_err = total_sq - total_sum**2 / n
        i = np.arange(lo, hi + 1)
        left_sum = ys.cumsum(axis=1)[:, lo - 1 : hi]
        left_sq = (ys**2).cumsum(axis=1)[:, lo - 1 : hi]
        right_sum = total_sum - left_sum
        right_sq = total_sq - left_sq
        err = left_sq - left_sum**2 / i + right_sq - right_sum**2 / (n - i)
        gain = base_err - err
        # thresholds between equal sorted values are not valid splits
        gain[xs[:, lo - 1 : hi] == xs[:, lo : hi + 1]] = -np.inf
        feature, j = divmod(int(gain.argmax()), gain.shape[1])
        if not gain[feature, j] > self.min_gain:
            return None
        split = lo + j
        return feature, float((xs[feature, split - 1] + xs[feature, split]) / 2.0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(len(X), dtype=np.float64)
        # Route whole index sets down the tree instead of one row at a
        # time — identical leaf values, one numpy comparison per node.
        frontier = [(self.root, np.arange(len(X)))]
        while frontier:
            node, idx = frontier.pop()
            if not len(idx):
                continue
            if node.is_leaf:
                out[idx] = node.value
            else:
                left = X[idx, node.feature] <= node.threshold
                frontier.append((node.left, idx[left]))
                frontier.append((node.right, idx[~left]))
        return out


class GradientBoostedTrees:
    """Least-squares gradient boosting: F_m = F_{m-1} + lr * tree(residuals)."""

    def __init__(
        self,
        n_trees: int = 50,
        learning_rate: float = 0.15,
        max_depth: int = 4,
        min_samples_leaf: int = 2,
    ):
        self.n_trees = n_trees
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.base: float = 0.0
        self.trees: List[RegressionTree] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        X, y = _as_xy(X, y)
        order = _presort(X)
        self.base = float(y.mean()) if len(y) else 0.0
        self.trees = []
        pred = np.full(len(y), self.base)
        for _ in range(self.n_trees):
            tree = RegressionTree(self.max_depth, self.min_samples_leaf)
            pred = pred + self.learning_rate * tree._fit_sorted(X, y - pred, order)
            self.trees.append(tree)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        pred = np.full(len(X), self.base)
        for tree in self.trees:
            pred = pred + self.learning_rate * tree.predict(X)
        return pred

    def training_error(self, X: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean((self.predict(X) - np.asarray(y, dtype=np.float64)) ** 2))
