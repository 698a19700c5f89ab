"""Deterministic, atomic reporting: identical runs must produce
byte-identical report documents, and a crashed writer must never leave a
truncated file behind.
"""

import itertools
import json
import os

import pytest

from repro.meta import Telemetry
from repro.meta.session import SessionReport, TaskReport


def _fake_clock():
    counter = itertools.count()
    return lambda: float(next(counter))


def _populate(t: Telemetry):
    with t.span("session"):
        with t.span("task", task="gemm"):
            t.add("validate", 1.0, "gemm", start=2.0)
            t.add("measure", 1.0, "gemm", start=4.0)


class TestTelemetryDeterminism:
    def test_identical_runs_byte_identical_reports(self):
        reports = []
        for _ in range(2):
            t = Telemetry(clock=_fake_clock())
            _populate(t)
            reports.append(t.to_json(sort_keys=True))
        assert reports[0] == reports[1]

    def test_report_ordering(self):
        t = Telemetry(clock=_fake_clock())
        _populate(t)
        rep = t.report()
        starts = [s["start"] for s in rep["spans"]]
        assert starts == sorted(starts)
        assert list(rep["stage_seconds"]) == sorted(rep["stage_seconds"])

    def test_add_with_explicit_start_places_span(self):
        t = Telemetry(clock=_fake_clock())
        t.add("validate", 5.0, "gemm", start=100.0)
        (span,) = t.spans
        assert span.start == 100.0
        assert span.duration == 5.0

    def test_add_without_start_backdates_from_now(self):
        # clock() returns 0.0 on the single call add() makes.
        t = Telemetry(clock=iter([10.0]).__next__)
        t.add("validate", 4.0, "gemm")
        (span,) = t.spans
        assert span.start == pytest.approx(6.0)

    def test_hierarchy_exported_in_report(self):
        t = Telemetry(clock=_fake_clock())
        _populate(t)
        spans = {s["stage"]: s for s in t.report()["spans"]}
        assert spans["session"]["parent_id"] is None
        assert spans["task"]["parent_id"] == spans["session"]["span_id"]
        assert spans["validate"]["parent_id"] == spans["task"]["span_id"]
        # Flat view counts leaves only, so totals track wall time.
        assert t.stage_seconds() == {"measure": 1.0, "validate": 1.0}


def _report() -> SessionReport:
    return SessionReport(
        target="sim-gpu",
        tasks=[TaskReport(name="gemm", key="k", status="searched")],
        totals={"tasks_searched": 1},
        cache_stats={"b": {"hits": 1}, "a": {"hits": 2}},
    )


class TestSessionReportWrite:
    def test_atomic_write_and_sorted_keys(self, tmp_path):
        path = tmp_path / "report.json"
        _report().write(str(path))
        text = path.read_text()
        doc = json.loads(text)
        assert doc["target"] == "sim-gpu"
        # sort_keys=True: serialized key order is sorted at every level.
        assert text == json.dumps(doc, indent=1, sort_keys=True)
        assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp")] == []

    def test_identical_reports_write_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        _report().write(str(a))
        _report().write(str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        report = _report()
        path = tmp_path / "report.json"

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            report.write(str(path))
        assert not path.exists()
        assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp")] == []
