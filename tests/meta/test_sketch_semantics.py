"""Sketch candidates on conv-family workloads keep the semantics (§3.3).

Every candidate the search can build from a tensorized (with AutoCopy
stages) or scalar sketch on a conv, padded conv, depthwise conv or int8
conv is either rejected with a typed ``TIRnnn`` code or computes what
the interpreter computes on the unscheduled workload — never a silently
wrong program.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import ops
from repro.meta import CpuScalarSketch, CpuSdotSketch, GpuScalarSketch, TensorCoreSketch
from repro.meta.search import _build_candidate, _prefix_of
from repro.sim import SimCPU, SimGPU

from .test_bucket_replay import _oracle_matches

CASES = [
    ("conv-tensor-core", lambda: ops.conv2d(1, 6, 6, 16, 16, 3, 3), TensorCoreSketch, SimGPU),
    ("conv-gpu-scalar", lambda: ops.conv2d(1, 6, 6, 16, 16, 3, 3), GpuScalarSketch, SimGPU),
    ("padded-conv-tensor-core", lambda: ops.conv2d(1, 6, 6, 12, 12, 3, 3), TensorCoreSketch, SimGPU),
    ("padded-conv-gpu-scalar", lambda: ops.conv2d(1, 6, 6, 12, 12, 3, 3), GpuScalarSketch, SimGPU),
    ("depthwise-gpu-scalar", lambda: ops.depthwise_conv2d(1, 8, 8, 16, 3, 3), GpuScalarSketch, SimGPU),
    (
        "int8-conv-cpu-sdot",
        lambda: ops.conv2d(1, 6, 6, 16, 16, 3, 3, dtype="int8", acc_dtype="int32"),
        CpuSdotSketch,
        SimCPU,
    ),
    (
        "int8-conv-cpu-scalar",
        lambda: ops.conv2d(1, 6, 6, 16, 16, 3, 3, dtype="int8", acc_dtype="int32"),
        CpuScalarSketch,
        SimCPU,
    ),
]


@pytest.mark.parametrize(
    "build, sketch, target", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, (1 << 30) - 1))
def test_candidate_is_oracle_equal_or_typed_rejection(build, sketch, target, seed):
    func, sk = build(), sketch()
    cand, rejection, _ = _build_candidate(
        func, sk, seed, None, target(), True, _prefix_of(func, sk)
    )
    if cand is None:
        assert re.fullmatch(r"TIR\d{3}", rejection[1]), rejection
    else:
        fp16 = any(b.dtype == "float16" for b in func.buffers)
        assert _oracle_matches(func, cand, fp16=fp16)
