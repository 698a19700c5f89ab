"""Graph fusion end to end on the seven fig. 12/14 networks.

Each network is tuned fused and unfused (8 trials, seed 0), with one
database per device and mode shared across its networks.  Fused
end-to-end latency must not exceed unfused, and every database replay
must report the cycles of the search that stored its key.  Takes
minutes; the reduced-size graphs and the task-count cut run in tier-1
(``tests/frontend/test_fusion.py``).
"""

import pytest

from repro.frontend import cpu_graph, gpu_graph
from repro.meta import TuneConfig, TuningDatabase
from repro.sim import SimCPU, SimGPU
from tests.common import tune_fused_and_unfused

pytestmark = pytest.mark.slow

DEVICES = {
    "gpu": (SimGPU(), gpu_graph, ["ResNet-50", "MobileNet-V2", "BERT-large", "ViT"]),
    "cpu": (SimCPU(), cpu_graph, ["ResNet-50", "MobileNet-V2", "BERT-base"]),
}


@pytest.mark.parametrize("device", sorted(DEVICES))
def test_fused_latency_and_replays(device):
    target, graph_of, networks = DEVICES[device]
    databases = {True: TuningDatabase(), False: TuningDatabase()}
    for name in networks:
        latency = tune_fused_and_unfused(
            graph_of(name), target, TuneConfig(trials=8, seed=0), databases
        )
        print(f"{device}/{name}: fused {latency[True] * 1e3:.4f} ms, "
              f"unfused {latency[False] * 1e3:.4f} ms")
        assert latency[True] <= latency[False], name
