"""Tests for the telemetry layer: spans, counters, stats absorption."""

import dataclasses
import json

import pytest

from repro.meta import SearchStats, Telemetry


class TestSpans:
    def test_span_records_duration(self):
        t = Telemetry(clock=iter([0.0, 1.5]).__next__)
        with t.span("measure", task="gemm"):
            pass
        (span,) = t.spans
        assert span.stage == "measure"
        assert span.task == "gemm"
        assert span.duration == pytest.approx(1.5)

    def test_add_accumulated_duration(self):
        t = Telemetry()
        t.add("validate", 0.25, task="conv")
        assert t.stage_seconds()["validate"] == pytest.approx(0.25)
        assert t.task_seconds()["conv"] == pytest.approx(0.25)

    def test_stage_seconds_aggregates(self):
        t = Telemetry()
        t.add("evolve", 1.0, "a")
        t.add("evolve", 2.0, "b")
        t.add("measure", 0.5, "a")
        assert t.stage_seconds() == {"evolve": pytest.approx(3.0), "measure": pytest.approx(0.5)}
        assert t.task_seconds("evolve") == {"a": pytest.approx(1.0), "b": pytest.approx(2.0)}


class TestCounters:
    def test_count_accumulates(self):
        t = Telemetry()
        t.count("tasks_replayed")
        t.count("tasks_replayed")
        t.count("trials", 5)
        assert t.counters == {"tasks_replayed": 2, "trials": 5}

    def test_absorb_stats_covers_every_field(self):
        """Field-generic absorption: a counter added to SearchStats
        tomorrow lands in telemetry without touching the module."""
        t = Telemetry()
        stats = SearchStats()
        for i, f in enumerate(dataclasses.fields(stats), start=1):
            setattr(stats, f.name, i)
        t.absorb_stats(stats)
        for i, f in enumerate(dataclasses.fields(stats), start=1):
            assert t.counters[f.name] == i

    def test_absorb_stats_twice_sums(self):
        t = Telemetry()
        s = SearchStats(measured=3, profiling_seconds=1.5)
        t.absorb_stats(s)
        t.absorb_stats(s)
        assert t.counters["measured"] == 6
        assert t.counters["profiling_seconds"] == pytest.approx(3.0)


class TestReport:
    def test_report_is_json_serialisable(self):
        t = Telemetry()
        with t.span("measure", "gemm"):
            pass
        t.count("tasks_searched")
        loaded = json.loads(t.to_json())
        assert loaded["counters"]["tasks_searched"] == 1
        assert loaded["spans"][0]["stage"] == "measure"
        assert "measure" in loaded["stage_seconds"]
