"""Shared infrastructure for the evaluation benchmarks.

Each ``test_figNN_*`` module regenerates one table/figure of the paper's
§5 on the simulated hardware.  Results are cached per session (the same
TensorIR/TVM tuning results feed Figures 10 and 11, and the end-to-end
figures share per-graph-op and fused-group results), printed as the
paper's rows/series,
and written under ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

import pytest

from repro.baselines import (
    AmosBaseline,
    AnsorBaseline,
    ArmComputeLibrary,
    CutlassLibrary,
    OpResult,
    System,
    TensorIRSystem,
    TensorRTLibrary,
    TorchLikeFramework,
    UnsupportedWorkload,
)
from repro.frontend import CPU_WORKLOADS, GPU_WORKLOADS
from repro.meta import TuneConfig, TuningDatabase, TuningSession
from repro.sim import SimCPU, SimGPU

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: trial budgets (kept modest so the whole harness runs in minutes; the
#: orderings are stable well below these budgets)
TENSORIR_TRIALS = 32
TVM_TRIALS = 48
NETWORK_TRIALS = 14
NETWORK_TVM_TRIALS = 16


def write_table(name: str, text: str) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, name), "w") as f:
        f.write(text)
    print("\n" + text)


def format_table(title: str, columns: List[str], rows: List[Tuple]) -> str:
    widths = [max(len(str(r[i])) for r in rows + [tuple(columns)]) for i in range(len(columns))]
    lines = [title, ""]
    lines.append("  ".join(str(c).rjust(w) for c, w in zip(columns, widths)))
    for row in rows:
        lines.append("  ".join(str(v).rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


class OpMatrix:
    """Lazily-computed (system x workload) result matrix with caching."""

    def __init__(self, target, workloads):
        self.target = target
        self.workloads = workloads
        self._cache: Dict[Tuple[str, str], Optional[OpResult]] = {}
        self._funcs: Dict[str, object] = {}

    def func(self, workload: str):
        if workload not in self._funcs:
            self._funcs[workload] = self.workloads[workload]()
        return self._funcs[workload]

    def result(self, system: System, workload: str) -> Optional[OpResult]:
        key = (system.name, workload)
        if key not in self._cache:
            try:
                self._cache[key] = system.compile_op(self.func(workload), self.target, seed=0)
            except UnsupportedWorkload:
                self._cache[key] = None
        return self._cache[key]


@pytest.fixture(scope="session")
def gpu_matrix() -> OpMatrix:
    return OpMatrix(SimGPU(), GPU_WORKLOADS)


@pytest.fixture(scope="session")
def cpu_matrix() -> OpMatrix:
    return OpMatrix(SimCPU(), CPU_WORKLOADS)


@pytest.fixture(scope="session")
def gpu_systems() -> Dict[str, System]:
    return {
        "TensorIR": TensorIRSystem(trials=TENSORIR_TRIALS),
        "TVM": AnsorBaseline(trials=TVM_TRIALS),
        "AMOS": AmosBaseline(),
        "CUTLASS": CutlassLibrary(),
        "TensorRT": TensorRTLibrary(),
        "PyTorch": TorchLikeFramework(),
    }


@pytest.fixture(scope="session")
def cpu_systems() -> Dict[str, System]:
    return {
        "TensorIR": TensorIRSystem(trials=TENSORIR_TRIALS),
        "TVM": AnsorBaseline(trials=TVM_TRIALS),
        "ArmComputeLib": ArmComputeLibrary(),
        "PyTorch": TorchLikeFramework(),
    }


class GraphOpCache:
    """Per-op results for baseline systems over dataflow-graph ops,
    cached by workload identity so duplicates (within or across
    networks) are compiled once."""

    def __init__(self, target):
        self.target = target
        self._cache: Dict[Tuple, Optional[float]] = {}

    def latency(self, system: System, func) -> Optional[float]:
        from repro.meta import workload_key

        key = (system.name, workload_key(func, self.target))
        if key not in self._cache:
            try:
                result = system.compile_op(func, self.target, seed=0)
                self._cache[key] = result.seconds
            except UnsupportedWorkload:
                self._cache[key] = None
        return self._cache[key]


@pytest.fixture(scope="session")
def gpu_graph_op_cache() -> GraphOpCache:
    return GraphOpCache(SimGPU())


@pytest.fixture(scope="session")
def cpu_graph_op_cache() -> GraphOpCache:
    return GraphOpCache(SimCPU())


@pytest.fixture(scope="session")
def gpu_graph_sessions():
    """Fused TensorIR end-to-end results for the GPU figures.

    Each network's dataflow graph is partitioned into fusion groups;
    every group is a first-class tuning task, and a database shared
    across networks replays identical fused groups instead of
    re-searching them.  Returns ``(plan, report)`` per network.
    """
    from repro.frontend import fuse_graph, gpu_graph

    database = TuningDatabase()
    cache = {}

    def get(name):
        if name not in cache:
            plan = fuse_graph(gpu_graph(name))
            session = TuningSession(
                SimGPU(),
                TuneConfig(trials=NETWORK_TRIALS, seed=0),
                database=database,
            )
            session.add_graph(plan)
            cache[name] = (plan, session.run())
        return cache[name]

    return get


@pytest.fixture(scope="session")
def cpu_graph_sessions():
    """Fused TensorIR end-to-end results for the CPU figure."""
    from repro.frontend import cpu_graph, fuse_graph

    database = TuningDatabase()
    cache = {}

    def get(name):
        if name not in cache:
            plan = fuse_graph(cpu_graph(name))
            session = TuningSession(
                SimCPU(),
                TuneConfig(trials=NETWORK_TRIALS, seed=0),
                database=database,
            )
            session.add_graph(plan)
            cache[name] = (plan, session.run())
        return cache[name]

    return get


@pytest.fixture(scope="session")
def net_gpu_systems() -> Dict[str, System]:
    """Lighter trial budgets for the end-to-end graph sweeps."""
    return {
        "TensorIR": TensorIRSystem(trials=NETWORK_TRIALS),
        "TVM": AnsorBaseline(trials=NETWORK_TVM_TRIALS),
        "AMOS": AmosBaseline(),
        "TensorRT": TensorRTLibrary(),
        "PyTorch": TorchLikeFramework(),
    }


@pytest.fixture(scope="session")
def net_cpu_systems() -> Dict[str, System]:
    return {
        "TensorIR": TensorIRSystem(trials=NETWORK_TRIALS),
        "TVM": AnsorBaseline(trials=NETWORK_TVM_TRIALS),
        "PyTorch": TorchLikeFramework(),
    }
