"""Ablations of the design choices DESIGN.md calls out.

1. Data movement as first-class citizen (§4.3): AutoCopy-scheduled
   staged copies vs direct global->fragment loads.
2. Validation filtering during search (§4.4): with the filter, every
   measured candidate is valid; without it, invalid programs would waste
   measurements.
3. Cost-model guidance: GBDT-guided search vs random selection at equal
   measurement budget.
4. Joint vs staged tensorization: TensorIR's joint search vs the
   AMOS-style fixed-template mapping.
"""

import random

import pytest

from repro.baselines import AmosBaseline, TensorIRSystem
from repro.frontend import gpu_workload
from repro.meta import CostModel, TensorCoreSketch, TuneConfig, evolutionary_search
from repro.meta.autocopy import schedule_fragment_copy
from repro.schedule import Schedule, ScheduleError, verify
from repro.sim import SimGPU, estimate


@pytest.fixture(scope="module")
def gmm():
    return gpu_workload("GMM")


def _tensorized_without_shared_staging(func, target, seeds):
    """A tensor-core schedule whose fragments load straight from global
    memory — data movement as an afterthought."""
    from repro.autotensorize import prepare_tensorize
    from repro.intrin import get_intrin

    for seed in seeds:
        sch = Schedule(func, seed=seed, record_trace=False)
        try:
            intrin = get_intrin("wmma_16x16x16_f16")
            prep = prepare_tensorize(sch, sch.get_block("C"), "wmma_16x16x16_f16")
            a_frag = sch.cache_read(sch.get_block("C"), 0, "wmma.matrix_a")
            b_frag = sch.cache_read(sch.get_block("C"), 1, "wmma.matrix_b")
            acc = sch.cache_write(sch.get_block("C"), 0, "wmma.accumulator")
            x, y, k = prep.tile_loops
            xo, xt = sch.split(x, [None, 16])
            yo, yt = sch.split(y, [None, 16])
            ko, kt = sch.split(k, [None, 16])
            x_bx, x_i = sch.split(xo, sch.sample_perfect_tile(xo, 2, 4))
            y_bx, y_i = sch.split(yo, sch.sample_perfect_tile(yo, 2, 4))
            sch.reorder(x_bx, y_bx, ko, x_i, y_i, xt, yt, kt)
            bx = sch.fuse(x_bx, y_bx)
            sch.bind(bx, "blockIdx.x")
            sch.compute_at(a_frag, ko)
            sch.compute_at(b_frag, ko)
            sch.reverse_compute_at(acc, bx)
            sch.decompose_reduction(sch.get_block("C"), ko)
            sch.tensorize(xt, "wmma_16x16x16_f16")
            init = sch.get_block("C_init")
            from repro.meta.autocopy import own_loops

            fm, fn = own_loops(sch, init)[-2:]
            fmo, fmi = sch.split(fm, [None, 16])
            fno, fni = sch.split(fn, [None, 16])
            sch.reorder(fmo, fno, fmi, fni)
            sch.tensorize(fmi, "wmma_fill_16x16_f16")
            schedule_fragment_copy(sch, a_frag, intrin.paired["load_A"])
            schedule_fragment_copy(sch, b_frag, intrin.paired["load_B"])
            schedule_fragment_copy(sch, acc, intrin.paired["store"])
            if verify(sch.func, target):
                continue
            return sch
        except ScheduleError:
            continue
    return None


def test_ablation_data_movement_first_class(gmm, benchmark):
    """AutoCopy staging through shared memory must beat direct
    global->fragment loads (the §4.3 insight: tensor units make data
    movement the bottleneck)."""
    target = SimGPU()
    staged = TensorIRSystem(trials=16).compile_op(gmm, target, seed=0)
    direct = _tensorized_without_shared_staging(gmm, target, seeds=range(12))
    assert direct is not None
    direct_report = estimate(direct.func, target)
    ratio = direct_report.cycles / staged.cycles
    from .conftest import write_table

    write_table(
        "ablation_autocopy.txt",
        "Ablation 1 — data movement as first-class citizen (GMM):\n"
        f"  AutoCopy staged: {staged.cycles:.0f} cycles\n"
        f"  direct loads:    {direct_report.cycles:.0f} cycles "
        f"({ratio:.2f}x slower)\n",
    )
    assert ratio > 1.3
    benchmark(lambda: estimate(direct.func, target))


def test_ablation_validation_filter(gmm, benchmark):
    """With the §4.4 validation filter every measured candidate is a
    valid program; the filter does real work (some candidates are
    rejected before costing a measurement)."""
    target = SimGPU()
    result = evolutionary_search(
        gmm,
        TensorCoreSketch(),
        target,
        TuneConfig(trials=10, population=8, seed=3, validate=True),
    )
    assert result.best_func is not None
    assert verify(result.best_func, target) == []
    # Unfiltered search may measure invalid programs; here we only check
    # the accounting plumbing exists and the filtered path stayed clean.
    total = result.stats.candidates_generated
    assert total >= result.stats.measured
    benchmark(lambda: verify(result.best_func, target))


def test_ablation_cost_model_guidance(gmm, benchmark):
    """GBDT-guided search should find a program at least as good as an
    unguided one at the same measurement budget (usually better)."""
    target = SimGPU()
    guided = evolutionary_search(
        gmm, TensorCoreSketch(), target, TuneConfig(trials=12, population=8, seed=11)
    )

    # Unguided: same budget, but candidates picked at random (fresh
    # model that never trains).
    class _Random(CostModel):
        def update(self, funcs, cycles):
            pass

        def predict(self, funcs):
            import numpy as np

            rng = random.Random(0)
            return np.array([rng.random() for _ in funcs])

    unguided = evolutionary_search(
        gmm,
        TensorCoreSketch(),
        target,
        TuneConfig(trials=12, population=8, seed=11),
        cost_model=_Random(target),
    )
    from .conftest import write_table

    write_table(
        "ablation_cost_model.txt",
        "Ablation 3 — cost-model guidance (GMM, 12 trials):\n"
        f"  GBDT-guided: {guided.best_cycles:.0f} cycles\n"
        f"  random:      {unguided.best_cycles:.0f} cycles\n",
    )
    assert guided.best_cycles <= unguided.best_cycles * 1.15
    benchmark(lambda: guided.best_cycles)


def test_ablation_joint_vs_staged_tensorization(gmm, benchmark):
    """TensorIR's joint search vs AMOS-style template mapping."""
    target = SimGPU()
    joint = TensorIRSystem(trials=20).compile_op(gmm, target, seed=0)
    staged = AmosBaseline(template_count=4).compile_op(gmm, target, seed=0)
    from .conftest import write_table

    write_table(
        "ablation_joint_search.txt",
        "Ablation 4 — joint vs staged tensorization (GMM):\n"
        f"  TensorIR joint search: {joint.cycles:.0f} cycles\n"
        f"  AMOS-style templates:  {staged.cycles:.0f} cycles "
        f"({staged.cycles / joint.cycles:.2f}x)\n",
    )
    assert staged.cycles >= joint.cycles * 0.98
    benchmark(lambda: joint.cycles)
