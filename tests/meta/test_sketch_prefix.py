"""Tests for the sketch prefix and the forks a search builds from it.

A sketch's prefix takes no decision, so a search builds it once and
forks every candidate from it (``Schedule.copy``).  The contract: a
forked build is the from-scratch build — same program text, decisions
and rejection code — for every sketch kind, seed and forced prefix; a
prefix that samples is refused; a prefix that raises rejects each
candidate as a from-scratch build would; and a search builds its prefix
once, on its first candidate-cache miss.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cache as repro_cache
from repro.frontend import fuse_graph, lower_group, ops
from repro.frontend.graph import Graph
from repro.frontend.workloads import cpu_workload, gpu_workload
from repro.meta import (
    CpuScalarSketch,
    CpuSdotSketch,
    GpuScalarSketch,
    Recorder,
    Sketch,
    TensorCoreSketch,
    TuneConfig,
    evolutionary_search,
    tune,
)
from repro.meta import search as search_mod
from repro.meta.sketch import apply_sketch, sketch_prefix
from repro.schedule import ScheduleError
from repro.sim import SimCPU, SimGPU
from repro.tir import script


def _int8_conv_requant():
    """An int8 conv with its requantize epilogue fused into one group."""
    g = Graph("qconv")
    x = g.input("x", (1, 6, 6, 16), "int8")
    conv = g.op(
        "conv", ops.conv2d(1, 6, 6, 16, 16, 3, 3, dtype="int8", acc_dtype="int32"), x
    )
    g.op("requant", ops.requantize((1, 4, 4, 16), "int32", "int8"), conv)
    plan = fuse_graph(g)
    assert plan.groups[0].is_fused
    return lower_group(plan.groups[0])


_WORKLOADS = {
    "gmm": lambda: ops.matmul(64, 64, 64),
    "c2d": lambda: ops.conv2d(1, 6, 6, 16, 16, 3, 3),
    "padded-conv": lambda: ops.conv2d(1, 6, 6, 12, 12, 3, 3),
    "int8-gmm": lambda: ops.matmul(64, 64, 64, "int8", "int32"),
    "int8-conv-requant": _int8_conv_requant,
}
_GPU = (TensorCoreSketch, GpuScalarSketch)
_CPU = (CpuSdotSketch, CpuScalarSketch)
CASES = [
    (workload, sketch)
    for workload, sketches in (
        ("gmm", _GPU), ("c2d", _GPU), ("padded-conv", _GPU),
        ("int8-gmm", _CPU), ("int8-conv-requant", _CPU),
    )
    for sketch in sketches
]

#: one prefix per case, shared by every example, as one search shares it
_PREFIXES = {}


def _case(workload, sketch_cls):
    key = (workload, sketch_cls)
    if key not in _PREFIXES:
        func, sketch = _WORKLOADS[workload](), sketch_cls()
        _PREFIXES[key] = func, sketch, sketch_prefix(func, sketch)
    return _PREFIXES[key]


def _outcome(func, sketch, seed, forced, prefix=None):
    """What a build gives: its program and decisions, or its codes."""
    try:
        sch = apply_sketch(func, sketch, seed=seed, forced=forced, prefix=prefix)
    except ScheduleError as err:
        return "rejected", [d.code for d in err.diagnostics]
    return script(sch.func), sch.decisions


@pytest.mark.parametrize(
    "workload, sketch_cls", CASES, ids=[f"{w}-{s.name}" for w, s in CASES]
)
@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, (1 << 30) - 1),
    parent_seed=st.integers(0, (1 << 30) - 1),
    cut=st.integers(0, 8),
)
def test_fork_builds_what_a_fresh_build_builds(workload, sketch_cls, seed, parent_seed, cut):
    """A fork of the shared prefix and a from-scratch build agree, with
    decisions drawn from ``seed`` after a forced prefix cut from the
    decisions of another build, as a mutant's are."""
    func, sketch, prefix = _case(workload, sketch_cls)
    parent = _outcome(func, sketch, parent_seed, None)
    forced = None if parent[0] == "rejected" else parent[1][:cut]
    fresh = _outcome(func, sketch, seed, forced)
    assert _outcome(func, sketch, seed, forced, prefix) == fresh


def test_every_case_builds_a_program():
    """The property above compares programs, not two rejections: each
    case's prefix applies, and some seed builds a program from it."""
    for workload, sketch_cls in CASES:
        func, sketch, prefix = _case(workload, sketch_cls)
        assert any(
            _outcome(func, sketch, seed, None, prefix)[0] != "rejected"
            for seed in range(8)
        ), (workload, sketch.name)


class _Sampling(GpuScalarSketch):
    """gpu-scalar, with its first decision moved into the prefix."""

    def prefix(self, sch):
        sch.sample_categorical([0, 1, 1])


def test_a_prefix_that_samples_is_refused():
    func = ops.matmul(64, 64, 64, "float32")
    with pytest.raises(ValueError, match="prefix"):
        apply_sketch(func, _Sampling(), seed=1)
    with pytest.raises(ValueError, match="prefix"):
        evolutionary_search(func, _Sampling(), SimGPU(), TuneConfig(trials=2, seed=1))


class _RaisesInPrefix(Sketch):
    name = "raises-in-prefix"

    def applicable(self, sch):
        return True

    def prefix(self, sch):
        sch.cache_read(sch.get_block("C"), 9, "shared")  # no 10th read

    def apply(self, sch, state):  # pragma: no cover - never reached
        raise AssertionError("apply after a failed prefix")


class _RaisesInApply(_RaisesInPrefix):
    """The same failing step, taken by every candidate's own build."""

    name = "raises-in-apply"

    def prefix(self, sch):
        return None

    def apply(self, sch, state):
        _RaisesInPrefix.prefix(self, sch)


def test_a_prefix_that_raises_rejects_each_draw_as_a_fresh_build_does():
    func, config = ops.matmul(64, 64, 64), TuneConfig(trials=4, seed=3)
    outcomes = []
    for sketch in (_RaisesInPrefix(), _RaisesInApply()):
        recorder = Recorder()
        result = evolutionary_search(func, sketch, SimGPU(), config, recorder=recorder)
        outcomes.append((
            result.stats.search_signature(),
            [(r.generation, r.stage, r.code) for r in recorder.rejections],
        ))
    (signature, rows), reference = outcomes
    assert (signature, rows) == reference
    assert signature["apply_failed"] == signature["candidates_generated"] > 1
    assert len(rows) == signature["candidates_generated"]


def test_search_finds_what_fresh_builds_find(monkeypatch):
    """A search whose every candidate is built from scratch finds the
    same programs with the same statistics."""

    def run(func, sketch, target):
        repro_cache.clear_all()
        return evolutionary_search(func, sketch, target, TuneConfig(trials=6, seed=5))

    cases = [
        (_WORKLOADS["c2d"](), TensorCoreSketch(), SimGPU()),
        (_int8_conv_requant(), CpuSdotSketch(), SimCPU()),
    ]
    forked = [run(*case) for case in cases]
    # With no prefix, ``apply_sketch`` builds each candidate from scratch.
    monkeypatch.setattr(search_mod, "_prefix_of", lambda func, sketch: None)
    for result, case in zip(forked, cases):
        fresh = run(*case)
        assert result.best_func is not None
        assert script(result.best_func) == script(fresh.best_func)
        assert result.best_decisions == fresh.best_decisions
        assert result.stats.search_signature() == fresh.stats.search_signature()


def test_one_prefix_per_cold_search_and_none_when_warm(monkeypatch):
    """A cold ``tune()`` of the four section 5.1 tasks (GPU GMM, C2D and
    DEP, CPU int8 GMM) builds one prefix per sketch searched — seven —
    and a warm re-tune, whose every build hits ``search.candidates``,
    builds none."""
    built = []

    def counted(func, sketch, seed=0):
        built.append(sketch.name)
        return sketch_prefix(func, sketch, seed)

    monkeypatch.setattr(search_mod, "sketch_prefix", counted)
    tasks = [(gpu_workload(n), SimGPU()) for n in ("GMM", "C2D", "DEP")]
    tasks.append((cpu_workload("GMM"), SimCPU()))
    config = TuneConfig(trials=4, seed=7)
    repro_cache.clear_all()
    for func, target in tasks:
        tune(func, target, config)
    assert sorted(built) == sorted(
        ["tensor-core", "gpu-scalar"] * 2 + ["gpu-scalar", "cpu-sdot", "cpu-scalar"]
    )
    built.clear()
    for func, target in tasks:
        tune(func, target, config)
    assert built == []
