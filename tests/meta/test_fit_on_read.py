"""The cost model fits when it is read, not when samples arrive.

A search ranks each generation with a model fitted on every measurement
so far.  Fitting at read time gives the same model at every read as
refitting after every update, so scores and programs must not change;
the saving is the last update of each tuning task, which nothing reads.
"""

import numpy as np

from repro import TuneConfig, tune
from repro.frontend import ops
from repro.learn import GradientBoostedTrees
from repro.meta import CostModel
from repro.sim import SimGPU
from repro.tir import structural_hash


def _spied_tune(monkeypatch, eager: bool):
    """Tune a small GEMM, logging every fit, update and predicted score."""
    events, scores = [], []
    fit, update, predict = GradientBoostedTrees.fit, CostModel.update, CostModel.predict

    def spy_fit(self, X, y):
        events.append(("fit", len(y)))
        return fit(self, X, y)

    def spy_update(self, funcs, cycles):
        events.append(("update", len(funcs)))
        update(self, funcs, cycles)
        if eager:
            self.refit()

    def spy_predict(self, funcs, *args, **kwargs):
        out = predict(self, funcs, *args, **kwargs)
        scores.append(out.copy())
        return out

    monkeypatch.setattr(GradientBoostedTrees, "fit", spy_fit)
    monkeypatch.setattr(CostModel, "update", spy_update)
    monkeypatch.setattr(CostModel, "predict", spy_predict)
    result = tune(ops.matmul(64, 64, 64), SimGPU(), TuneConfig(trials=24, seed=3))
    monkeypatch.undo()
    return result, events, scores


def test_no_fit_follows_the_last_measurement(monkeypatch):
    _, events, _ = _spied_tune(monkeypatch, eager=False)
    kinds = [kind for kind, _ in events]
    assert "fit" in kinds, "the search never read a trained model"
    last_update = len(kinds) - 1 - kinds[::-1].index("update")
    assert "fit" not in kinds[last_update:]
    # every fit sees samples no earlier fit saw
    sizes = [n for kind, n in events if kind == "fit"]
    assert sizes == sorted(set(sizes))


def test_scores_equal_an_eager_refit(monkeypatch):
    lazy, lazy_events, lazy_scores = _spied_tune(monkeypatch, eager=False)
    eager, eager_events, eager_scores = _spied_tune(monkeypatch, eager=True)
    assert len(lazy_scores) == len(eager_scores)
    for mine, theirs in zip(lazy_scores, eager_scores):
        assert np.array_equal(mine, theirs)
    assert lazy.best_cycles == eager.best_cycles
    assert structural_hash(lazy.best_func) == structural_hash(eager.best_func)
    fits = [sum(1 for kind, _ in ev if kind == "fit") for ev in (lazy_events, eager_events)]
    assert fits[0] < fits[1]


def test_predict_refits_only_on_new_samples(monkeypatch):
    model = CostModel(SimGPU(), min_data=2)
    fits = []
    fit = GradientBoostedTrees.fit
    monkeypatch.setattr(
        GradientBoostedTrees, "fit", lambda self, X, y: fits.append(len(y)) or fit(self, X, y)
    )
    funcs = [ops.matmul(n, n, n) for n in (16, 32, 64)]
    model.update(funcs[:1], [1e4])
    assert not model.is_trained
    assert np.array_equal(model.predict(funcs), np.zeros(3)) and fits == []
    model.update(funcs[1:], [2e4, 4e4])
    assert model.is_trained and fits == []
    first = model.predict(funcs)
    again = model.predict(funcs)
    assert fits == [3] and np.array_equal(first, again)
