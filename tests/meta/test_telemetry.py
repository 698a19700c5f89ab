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

    def test_stage_seconds_aggregates(self):
        t = Telemetry()
        t.add("evolve", 1.0, "a")
        t.add("evolve", 2.0, "b")
        t.add("measure", 0.5, "a")
        assert t.stage_seconds() == {"evolve": pytest.approx(3.0), "measure": pytest.approx(0.5)}


class TestReport:
    def test_report_is_json_serialisable(self):
        t = Telemetry()
        with t.span("measure", "gemm"):
            pass
        loaded = json.loads(t.to_json())
        assert set(loaded) == {"spans", "stage_seconds"}
        assert loaded["spans"][0]["stage"] == "measure"
        assert "measure" in loaded["stage_seconds"]


class TestAdopt:
    """A session takes each search's spans in from the collector the
    search recorded into — in a worker process at search width 2."""

    @staticmethod
    def _search_spans():
        """A task span holding a generation span holding a build span,
        and a lone ``add`` with no enclosing span."""
        search = Telemetry()
        with search.span("task", "gemm"):
            with search.span("generation", "gemm"):
                search.add("build", 0.5, "gemm")
        search.add("validate", 0.25, "gemm")
        return search.spans

    def test_adopted_spans_get_fresh_ids_under_the_given_parent(self):
        session = Telemetry()
        with session.span("session") as session_id:
            pass
        spans = self._search_spans()
        session.adopt(spans, session_id)
        session.adopt(spans, session_id)
        ids = [s.span_id for s in session.spans]
        assert len(set(ids)) == len(ids) == 1 + 2 * len(spans)
        by_id = {s.span_id: s for s in session.spans}
        for adopted in (session.spans[1:5], session.spans[5:]):
            build, generation, task, validate = adopted
            assert [s.stage for s in adopted] == ["build", "generation", "task", "validate"]
            assert build.parent_id == generation.span_id
            assert generation.parent_id == task.span_id
            assert task.parent_id == validate.parent_id == session_id
            assert by_id[session_id].stage == "session"
        assert session.stage_seconds()["build"] == pytest.approx(1.0)

    def test_adopt_relabels_the_lane_only_when_asked(self):
        spans = self._search_spans()
        session = Telemetry()
        session.adopt(spans, None)
        session.adopt(spans, None, thread="search-worker-7")
        kept, relabelled = session.spans[:4], session.spans[4:]
        assert [s.thread for s in kept] == [s.thread for s in spans]
        assert {s.thread for s in relabelled} == {"search-worker-7"}
        assert all(s.parent_id is None for s in kept if s.stage in ("task", "validate"))
        assert [(s.stage, s.start, s.duration) for s in relabelled] == [
            (s.stage, s.start, s.duration) for s in spans
        ]
