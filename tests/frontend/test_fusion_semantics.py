"""Property-based test: schedule primitives preserve the semantics of
fused groups.

Random loop primitives on the anchor block of every lowered fusion
group of the mini network graphs (fp32, plus the int8 ResNet-50 and
BERT-large flavors) are never silently wrong (paper §3.2/§3.3): a
primitive either applies or is refused with a typed ``ScheduleError``,
and the scheduled program either equals the interpreter on the
unscheduled group or is rejected by the §3.3 validation with typed
``TIRnnn`` codes, the way the search rejects a candidate.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.diagnostics import all_codes
from repro.diagnostics.codes import GENERIC
from repro.frontend.fuse import fuse_graph, lower_group
from repro.meta.database import workload_key
from repro.meta.sketch import main_block_of
from repro.runtime import interpret, random_args, run
from repro.schedule import Schedule, verify
from repro.sim import SimCPU

from ..schedule.test_property_semantics import _OPS, _apply_random_primitives
from .test_fusion import MINI_GRAPHS

FLAVORS = [(name, "float32", None) for name in sorted(MINI_GRAPHS)] + [
    ("resnet50", "int8", "int32"),
    ("bert_large", "int8", "int32"),
]


def _distinct_groups():
    """Every lowered group of every flavor, once per distinct program."""
    seen = set()
    for name, dtype, acc in FLAVORS:
        for group in fuse_graph(MINI_GRAPHS[name](dtype, acc)).groups:
            func = lower_group(group)
            key = workload_key(func, SimCPU())
            if key in seen:
                continue
            seen.add(key)
            anchor = main_block_of(Schedule(group.anchor.func, record_trace=False))
            yield pytest.param(func, anchor.name, id=f"{name}-{dtype}-{group.task_name}")


GROUPS = list(_distinct_groups())
#: the registered codes that name a specific check
TYPED_CODES = {info.code for info in all_codes()} - {GENERIC}
_ORACLE = {}


def _interpreted(func):
    """The interpreter's outputs on the unscheduled group, once per group."""
    key = workload_key(func, SimCPU())
    if key not in _ORACLE:
        _ORACLE[key] = random_args(func, seed=0)
        interpret(func, _ORACLE[key])
    return _ORACLE[key]


@pytest.mark.parametrize("func,anchor", GROUPS)
@settings(max_examples=6, deadline=None)
@given(ops=_OPS)
def test_random_anchor_schedules_match_the_interpreter(func, anchor, ops):
    expected = _interpreted(func)
    sch = Schedule(func, seed=0)
    _apply_random_primitives(sch, ops, block_name=anchor)
    rejected = verify(sch.func)
    if rejected:
        assert {d.code for d in rejected} <= TYPED_CODES, rejected
        return
    got = random_args(func, seed=0)
    run(sch.func, got)
    for name, want in expected.items():
        if want.dtype.kind == "f":
            np.testing.assert_allclose(got[name], want, rtol=1e-4, atol=1e-5, err_msg=name)
        else:
            np.testing.assert_array_equal(got[name], want, err_msg=name)
