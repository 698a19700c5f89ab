"""Rejection accounting: the evolutionary search groups invalid
candidates by diagnostic code in its ``SearchStats``, and the
SessionReport sums those over the run's searches as ``invalid_by_code``."""

import json
import re

import pytest

from repro import TuneConfig, TuningSession, tune
from repro.frontend import ops
from repro.meta import SearchStats
from repro.sim import SimGPU

_CODE = re.compile(r"^TIR\d{3}$")


class TestSearchStats:
    def test_rejected_by_code_sums_to_rejections(self):
        result = tune(ops.matmul(128, 128, 128), SimGPU(), TuneConfig(trials=6, seed=0))
        stats = result.stats
        by_code = dict(stats.rejected_by_code)
        assert all(_CODE.match(code) for code in by_code)
        assert sum(by_code.values()) == stats.invalid_rejected + stats.apply_failed

    def test_merge_adds_counters(self):
        a, b = SearchStats(), SearchStats()
        a.rejected_by_code["TIR105"] = 2
        b.rejected_by_code["TIR105"] = 1
        b.rejected_by_code["TIR401"] = 4
        a.merge(b)
        assert dict(a.rejected_by_code) == {"TIR105": 3, "TIR401": 4}


class TestSessionReport:
    @pytest.fixture(scope="class")
    def run(self):
        session = TuningSession(SimGPU(), TuneConfig(trials=6, seed=0))
        session.add(ops.matmul(128, 128, 128), name="a")
        session.add(ops.matmul(64, 64, 256), name="b")
        return session, session.run()

    @pytest.fixture(scope="class")
    def report(self, run):
        return run[1]

    def test_invalid_by_code_present_and_typed(self, report):
        assert all(_CODE.match(code) for code in report.invalid_by_code)
        assert all(
            isinstance(count, int) and count > 0
            for count in report.invalid_by_code.values()
        )

    def test_counts_match_rejection_counters(self, run):
        session, report = run
        # Both tasks were searched: the report sums their searches' stats.
        summed = SearchStats()
        for name in ("a", "b"):
            summed.merge(session.results[name].stats)
        assert report.invalid_by_code == dict(summed.rejected_by_code)
        rejected = summed.invalid_rejected + summed.apply_failed
        assert sum(report.invalid_by_code.values()) == rejected
        # This config does reject candidates — the breakdown is not
        # vacuously empty.
        assert rejected > 0

    def test_json_round_trip(self, report):
        loaded = json.loads(report.dumps())
        assert loaded["invalid_by_code"] == report.invalid_by_code
