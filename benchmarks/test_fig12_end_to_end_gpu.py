"""Figure 12: end-to-end model latency on the simulated GPU.

Paper result: TensorIR outperforms PyTorch, TVM and AMOS by 1.2-8.8x;
vs TensorRT it is ~30% faster on MobileNet-V2, within 88-100% on
ResNet-50 and BERT-large, and runs ViT which TensorRT does not support.
"""

import pytest

from repro.frontend import fuse_graph, gpu_graph, graph_latency

pytestmark = pytest.mark.slow

NETWORKS = ["ResNet-50", "MobileNet-V2", "BERT-large", "ViT"]


def _graph_baseline_latency(graph, system, cache):
    """A baseline system executing the same dataflow graph: one kernel
    per op (engines with graph fusion fold prologue/epilogue chains into
    their anchor kernel), plus the system's per-op dispatch overhead."""
    plan = fuse_graph(graph, fuse=system.fuses_elementwise)

    def per_group(grp):
        sec = cache.latency(system, grp.anchor.func)
        if sec is None:
            raise RuntimeError(f"{system.name} failed on {grp.anchor.name}")
        return sec

    return graph_latency(plan, per_group, per_op_overhead=system.op_overhead)


@pytest.fixture(scope="module")
def table(gpu_graph_op_cache, net_gpu_systems, gpu_graph_sessions):
    rows = {}
    for name in NETWORKS:
        graph = gpu_graph(name)
        rows[name] = {}
        for sys_name, system in net_gpu_systems.items():
            if name in getattr(system, "unsupported_networks", ()):
                rows[name][sys_name] = None
                continue
            if sys_name == "TensorIR":
                # The paper's system tunes the network's *fusion groups*
                # through the TuningSession: prologue/epilogue chains are
                # lowered into their anchors, each fused group is searched
                # (or database-replayed) and pays one dispatch.
                plan, report = gpu_graph_sessions(name)
                rows[name][sys_name] = graph_latency(
                    plan, report, per_op_overhead=system.op_overhead
                )
                continue
            rows[name][sys_name] = _graph_baseline_latency(
                graph, system, gpu_graph_op_cache
            )
    return rows


def test_fig12_regenerate(table, benchmark):
    from .conftest import format_table, write_table

    out = []
    for name in NETWORKS:
        tir = table[name]["TensorIR"]
        row = [name, f"{tir * 1e3:.2f}ms"]
        for sys_name in ("PyTorch", "TVM", "AMOS", "TensorRT"):
            v = table[name][sys_name]
            row.append(f"{v / tir:.2f}x" if v is not None else "n/a")
        out.append(tuple(row))
    text = format_table(
        "Figure 12 — end-to-end model latency (SimGPU, fp16, batch 1).\n"
        "Columns: TensorIR latency; baseline-over-TensorIR slowdown\n"
        "(n/a = the engine does not support the model).",
        ["model", "TensorIR", "PyTorch", "TVM", "AMOS", "TensorRT"],
        out,
    )
    write_table("figure12.txt", text)
    graph = gpu_graph("MobileNet-V2")
    benchmark(lambda: len(graph))


def test_fig12_beats_compilers_and_frameworks(table):
    for name in NETWORKS:
        tir = table[name]["TensorIR"]
        for sys_name in ("PyTorch", "TVM", "AMOS"):
            v = table[name][sys_name]
            assert v / tir > 1.0, f"{name}/{sys_name}: {v / tir:.2f}"


def test_fig12_tensorrt_relationship(table):
    # Competitive with the vendor engine on ResNet/BERT; faster on
    # MobileNet (TRT's generic kernels hurt on depthwise-heavy nets).
    for name in ("ResNet-50", "BERT-large"):
        tir = table[name]["TensorIR"]
        trt = table[name]["TensorRT"]
        assert trt / tir > 0.75, f"{name}: {trt / tir:.2f}"
    mb_tir = table["MobileNet-V2"]["TensorIR"]
    mb_trt = table["MobileNet-V2"]["TensorRT"]
    assert mb_trt / mb_tir > 1.05


def test_fig12_vit_unsupported_by_tensorrt(table):
    assert table["ViT"]["TensorRT"] is None
    assert table["ViT"]["TensorIR"] is not None
