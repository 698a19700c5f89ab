"""The learned cost model driving evolutionary search (§4.4).

Wraps the from-scratch GBDT over program features.  The model predicts a
*score* (negative log-cycles, so higher is better) and is updated online
with every batch of measured candidates, mirroring the paper's
measure-and-update loop.  The refit runs when the model is next read,
so the last batch of a search, which nothing ranks with, is never
fitted.  Before any data arrives the model falls back to ranking by the
analytical estimate's feature proxy (random, in effect) — the search
still works, just less guided.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from ..learn import GradientBoostedTrees
from ..sim.target import Target
from ..tir import PrimFunc
from .feature import extract_features

__all__ = ["CostModel"]


class CostModel:
    def __init__(self, target: Target, min_data: int = 8):
        self.target = target
        self.min_data = min_data
        self._X: List[np.ndarray] = []
        self._y: List[float] = []
        self._model: Optional[GradientBoostedTrees] = None
        #: samples the current model was fitted on
        self._fitted = 0

    @property
    def is_trained(self) -> bool:
        """Whether there are enough samples (``min_data``) to fit on."""
        return len(self._y) >= self.min_data

    def features(self, func: PrimFunc) -> np.ndarray:
        return extract_features(func, self.target)

    def update(self, funcs: Sequence[PrimFunc], cycles: Sequence[float]) -> None:
        """Record measured results; the model refits when next read."""
        for func, c in zip(funcs, cycles):
            self._X.append(self.features(func))
            self._y.append(-math.log(max(c, 1.0)))  # higher = faster

    def refit(self) -> None:
        """Fit on every sample so far, unless the model already has or
        there are too few.  :meth:`predict` calls it; the search calls it
        first to time the refit on its own."""
        if self.is_trained and self._fitted != len(self._y):
            self._model = GradientBoostedTrees(
                n_trees=40, learning_rate=0.2, max_depth=4
            ).fit(np.stack(self._X), np.array(self._y))
            self._fitted = len(self._y)

    def predict(self, funcs: Sequence[PrimFunc]) -> np.ndarray:
        """Predicted scores (higher = better)."""
        self.refit()
        feats = np.stack([self.features(f) for f in funcs])
        if self._model is None:
            return np.zeros(len(funcs))
        return self._model.predict(feats)
