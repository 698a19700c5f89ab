"""Table 1: end-to-end tuning time, TensorIR vs TVM.

Paper result: TensorIR tunes up to 2x faster (ResNet-50: 308 -> 156 min)
because (a) hardware profiling dominates tuning time and tensorized
candidates run faster, and (b) the divide-and-conquer search space is
smaller, needing fewer trials to converge.
"""

import pytest

from repro.baselines import AnsorBaseline, TensorIRSystem
from repro.frontend import fuse_graph, gpu_graph
from repro.meta import TuningSession
from repro.sim import SimGPU

pytestmark = pytest.mark.slow

NETWORKS = ["ResNet-50", "MobileNet-V2", "BERT-large", "ViT"]

#: trials per unique fused group, mirroring the 2:1 convergence-budget ratio
#: observed in the paper's search spaces.
TIR_TRIALS = 10
TVM_TRIALS = 20


def _network_session(system, name):
    """One TuningSession, with a fresh database, per (system, network):
    both systems tune the unique fused groups of the network's dataflow
    graph — the programs whose latency Figure 12 reports — and the
    tuning-time numbers come straight from the session report."""
    session = TuningSession(SimGPU(), system.tune_config())
    session.add_graph(fuse_graph(gpu_graph(name)))
    return session.run()


@pytest.fixture(scope="module")
def table():
    tir = TensorIRSystem(trials=TIR_TRIALS)
    tvm = AnsorBaseline(trials=TVM_TRIALS)
    rows = {}
    for name in NETWORKS:
        tvm_report = _network_session(tvm, name)
        tir_report = _network_session(tir, name)
        rows[name] = (tvm_report, tir_report)
    return rows


def test_table1_accounting_is_instrumented(table):
    """The report's total is exactly the sum of per-task tuning seconds
    (within float tolerance, i.e. well inside the 1% criterion)."""
    for tvm_report, tir_report in table.values():
        for report in (tvm_report, tir_report):
            per_task = sum(t.tuning_seconds for t in report.tasks)
            assert report.tuning_seconds == pytest.approx(per_task, rel=1e-9)
            assert report.totals["tasks_failed"] == 0


def test_table1_regenerate(table, benchmark):
    from .conftest import format_table, write_table

    out = []
    for name in NETWORKS:
        tvm_t = table[name][0].tuning_seconds
        tir_t = table[name][1].tuning_seconds
        out.append(
            (name, f"{tvm_t / 60:.1f}", f"{tir_t / 60:.1f}", f"{tvm_t / tir_t:.2f}x")
        )
    text = format_table(
        "Table 1 — end-to-end tuning time (simulated profiling minutes).\n"
        "Tuning time = sum over measured candidates of (simulated run x\n"
        "repeats + compile/RPC overhead); TVM needs ~2x the trials and\n"
        "its candidates run slower.",
        ["model", "TVM (min)", "TensorIR (min)", "speedup"],
        out,
    )
    write_table("table1.txt", text)
    benchmark(lambda: sum(r.tuning_seconds for pair in table.values() for r in pair))


def test_table1_tensorir_tunes_faster(table):
    for name in NETWORKS:
        tvm_t = table[name][0].tuning_seconds
        tir_t = table[name][1].tuning_seconds
        ratio = tvm_t / tir_t
        assert 1.2 < ratio < 4.0, f"{name}: {ratio:.2f}"
