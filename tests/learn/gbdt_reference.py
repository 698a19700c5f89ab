"""A frozen copy of the exact-greedy GBDT fit as it was before the
presorted, feature-vectorized rewrite of ``repro.learn.gbdt``.

Kept verbatim as the oracle the byte-identity tests compare against: a
per-feature split loop that re-sorts at every node, recursive ``_build``
over boolean-masked row subsets, the frontier ``predict``, and a
boosting loop that predicts the training set after every tree.  Do not
optimise this file; its worth is that it is the old arithmetic.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np


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
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be (n, d) with matching y")
        self.root = self._build(X, y, depth=0)
        return self

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(float(y.mean()))
        if depth >= self.max_depth or len(y) < 2 * self.min_samples_leaf:
            return node
        best = self._best_split(X, y)
        if best is None:
            return node
        feature, threshold, gain = best
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> Optional[Tuple[int, float, float]]:
        n, d = X.shape
        total_sum = y.sum()
        total_sq = (y**2).sum()
        base_err = total_sq - total_sum**2 / n
        best_gain = self.min_gain
        best: Optional[Tuple[int, float, float]] = None
        # Candidate split after position i (1-based prefix length).  The
        # whole i-scan is vectorized per feature; elementwise arithmetic
        # matches the scalar loop exactly and ``argmax`` picks the first
        # index attaining the max, which is the same winner a sequential
        # strict-improvement scan selects.
        candidates = np.arange(self.min_samples_leaf, n - self.min_samples_leaf + 1)
        candidates = candidates[candidates < n]
        if not len(candidates):
            return None
        for f in range(d):
            order = np.argsort(X[:, f], kind="stable")
            xs = X[order, f]
            ys = y[order]
            csum = np.cumsum(ys)
            csq = np.cumsum(ys**2)
            # thresholds between equal sorted values are not valid splits
            i = candidates[xs[candidates - 1] != xs[candidates]]
            if not len(i):
                continue
            left_sum, left_sq = csum[i - 1], csq[i - 1]
            right_sum = total_sum - left_sum
            right_sq = total_sq - left_sq
            err = left_sq - left_sum**2 / i + right_sq - right_sum**2 / (n - i)
            gain = base_err - err
            j = int(np.argmax(gain))
            if gain[j] > best_gain:
                best_gain = float(gain[j])
                split = int(i[j])
                best = (f, float((xs[split - 1] + xs[split]) / 2.0), best_gain)
        return best

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
        subsample: float = 1.0,
        seed: int = 0,
    ):
        self.n_trees = n_trees
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.seed = seed
        self.base: float = 0.0
        self.trees: List[RegressionTree] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        rng = np.random.default_rng(self.seed)
        self.base = float(y.mean()) if len(y) else 0.0
        self.trees = []
        pred = np.full(len(y), self.base)
        for _ in range(self.n_trees):
            residual = y - pred
            if self.subsample < 1.0 and len(y) > 8:
                idx = rng.choice(len(y), size=max(4, int(len(y) * self.subsample)), replace=False)
            else:
                idx = np.arange(len(y))
            tree = RegressionTree(self.max_depth, self.min_samples_leaf)
            tree.fit(X[idx], residual[idx])
            update = tree.predict(X)
            pred = pred + self.learning_rate * update
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
