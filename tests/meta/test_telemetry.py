"""Tests for the telemetry layer: spans and the spans-only report."""

import json

import pytest

from repro.meta import Telemetry


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


class TestReport:
    def test_report_is_json_serialisable(self):
        t = Telemetry()
        with t.span("measure", "gemm"):
            pass
        loaded = json.loads(t.to_json())
        assert set(loaded) == {"spans", "stage_seconds"}
        assert loaded["spans"][0]["stage"] == "measure"
        assert "measure" in loaded["stage_seconds"]
