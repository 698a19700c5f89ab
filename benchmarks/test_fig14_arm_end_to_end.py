"""Figure 14: end-to-end quantised models on the simulated ARM CPU.

Paper result: TensorIR outperforms PyTorch and TVM by 1.2-2.5x.  The
PyTorch int8 path (QNNPACK) has not added ``sdot`` support — the
maintenance-cost observation of §5.3 — so it runs on the scalar
pipeline like TVM.
"""

import pytest

from repro.frontend import cpu_graph, fuse_graph, graph_latency

pytestmark = pytest.mark.slow

NETWORKS = ["ResNet-50", "MobileNet-V2", "BERT-base"]


def _graph_baseline_latency(graph, system, cache):
    """One kernel per graph op plus the system's dispatch overhead (no
    baseline on this figure fuses across ops)."""
    plan = fuse_graph(graph, fuse=system.fuses_elementwise)

    def per_group(grp):
        sec = cache.latency(system, grp.anchor.func)
        if sec is None:
            raise RuntimeError(f"{system.name} failed on {grp.anchor.name}")
        return sec

    return graph_latency(plan, per_group, per_op_overhead=system.op_overhead)


@pytest.fixture(scope="module")
def table(cpu_graph_op_cache, net_cpu_systems, cpu_graph_sessions):
    rows = {}
    for name in NETWORKS:
        graph = cpu_graph(name)
        rows[name] = {}
        for sys_name, system in net_cpu_systems.items():
            if sys_name == "TensorIR":
                plan, report = cpu_graph_sessions(name)
                rows[name][sys_name] = graph_latency(
                    plan, report, per_op_overhead=system.op_overhead
                )
            else:
                rows[name][sys_name] = _graph_baseline_latency(
                    graph, system, cpu_graph_op_cache
                )
    return rows


def test_fig14_regenerate(table, benchmark):
    from .conftest import format_table, write_table

    out = []
    for name in NETWORKS:
        tir = table[name]["TensorIR"]
        out.append(
            (
                name,
                f"{tir * 1e3:.2f}ms",
                f"{table[name]['PyTorch'] / tir:.2f}x",
                f"{table[name]['TVM'] / tir:.2f}x",
            )
        )
    text = format_table(
        "Figure 14 — end-to-end int8 models (SimCPU, sdot).\n"
        "Columns: TensorIR latency; baseline-over-TensorIR slowdown.",
        ["model", "TensorIR", "PyTorch", "TVM"],
        out,
    )
    write_table("figure14.txt", text)
    graph = cpu_graph("BERT-base")
    benchmark(lambda: len(graph))


def test_fig14_beats_frameworks(table):
    # Paper: 1.2x-2.5x over PyTorch and TVM.
    for name in NETWORKS:
        tir = table[name]["TensorIR"]
        for sys_name in ("PyTorch", "TVM"):
            ratio = table[name][sys_name] / tir
            assert ratio > 1.1, f"{name}/{sys_name}: {ratio:.2f}"
