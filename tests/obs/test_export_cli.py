"""Exporters and the ``python -m repro.obs`` CLI, driven by a real tiny
tuning session — the tier-1 smoke test for the flight-recorder pipeline:
record → save → summarize/export/diff, with schema validation of the
Chrome trace.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import Recorder, TuneConfig, TuningSession
from repro.frontend import ops
from repro.obs import chrome_trace, diff_recordings, summarize
from repro.sim import SimGPU

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.fixture(scope="module")
def recording_path(tmp_path_factory):
    """Run a tiny recorded session and save the artifact."""
    tmp = tmp_path_factory.mktemp("obs")
    session = TuningSession(SimGPU(), TuneConfig(trials=4, seed=0), recorder=Recorder())
    session.add(ops.matmul(64, 64, 64), name="gemm64")
    session.run()
    assert session.recorder.trials
    path = str(tmp / "run.json")
    session.save_recording(path)
    return path


@pytest.fixture(scope="module")
def recording(recording_path):
    with open(recording_path) as f:
        return json.load(f)


def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.obs", *args],
        capture_output=True, text=True, env=env,
    )


class TestChromeTrace:
    def test_schema(self, recording):
        doc = chrome_trace(recording)
        events = doc["traceEvents"]
        assert events
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert spans and instants
        for e in spans:
            assert set(e) >= {"name", "ph", "ts", "dur", "pid", "tid"}
            assert e["ts"] >= 0 and e["dur"] >= 0
        for e in instants:
            assert set(e) >= {"name", "ph", "ts", "pid", "tid"}
        # Thread-name metadata present and session hierarchy exported.
        assert any(e["ph"] == "M" and e["name"] == "thread_name" for e in events)
        assert any(e["name"] == "session" for e in spans)
        assert any(e["args"].get("parent_id") is not None for e in spans)

    def test_stable_under_reexport(self, recording):
        a = json.dumps(chrome_trace(recording), sort_keys=True)
        b = json.dumps(chrome_trace(recording), sort_keys=True)
        assert a == b


class TestSummarize:
    def test_mentions_stages_tasks_and_trials(self, recording):
        text = summarize(recording)
        assert "flight recording (repro.obs/2)" in text
        assert "gemm64" in text
        assert "evolve" in text and "measure" in text
        assert "replayable traces" in text

    def test_task_seconds_track_wall_clock(self, recording):
        """The per-task table counts leaf spans only — summed seconds
        must stay in the same order of magnitude as the true wall time,
        not multiply per hierarchy level."""
        text = summarize(recording)
        spans = recording["telemetry"]["spans"]
        session = next(s for s in spans if s["stage"] == "session")
        line = next(l for l in text.splitlines() if l.startswith("gemm64"))
        task_seconds = float(line.split()[1])
        assert task_seconds <= session["duration"] * 1.05


class TestDiff:
    def test_self_diff_is_all_same(self, recording):
        text = diff_recordings(recording, recording, "a", "b")
        assert "same" in text
        assert "worse" not in text and "better" not in text


class TestCli:
    def test_summarize_command(self, recording_path):
        proc = _run_cli("summarize", recording_path)
        assert proc.returncode == 0, proc.stderr
        assert "flight recording" in proc.stdout
        assert "gemm64" in proc.stdout

    def test_export_chrome_command(self, recording_path, tmp_path):
        out = str(tmp_path / "timeline.json")
        proc = _run_cli("export", "--chrome", recording_path, "-o", out)
        assert proc.returncode == 0, proc.stderr
        doc = json.load(open(out))
        assert doc["traceEvents"]
        assert all(
            {"ts", "pid", "tid", "ph"} <= set(e)
            for e in doc["traceEvents"]
            if e["ph"] != "M"  # metadata records carry no timestamp
        )
        assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp")] == []

    def test_diff_command(self, recording_path):
        proc = _run_cli("diff", recording_path, recording_path)
        assert proc.returncode == 0, proc.stderr
        assert "diff:" in proc.stdout

    def test_missing_file_exits_2(self):
        proc = _run_cli("summarize", "/nonexistent/run.json")
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_malformed_recording_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = _run_cli("summarize", str(bad))
        assert proc.returncode == 2
        assert "malformed" in proc.stderr

    def test_serve_report_of_a_truncated_snapshot_exits_2(self, tmp_path):
        # What a save killed mid-write would leave: the CLI refuses it
        # with an error instead of a traceback.
        bad = tmp_path / "metrics.json"
        bad.write_text('{"metrics": {"serve_latency_seconds": {"series"')
        proc = _run_cli("serve-report", str(bad))
        assert proc.returncode == 2
        assert "malformed" in proc.stderr

    def test_serve_report_refuses_families_that_are_not_histograms(self, tmp_path):
        # Snapshots saved before the registry held only histograms also
        # carry counters and gauges: refused by name, in both modes.
        snapshot = {
            "namespace": "repro",
            "metrics": {
                "serve_failures_total": {"kind": "counter", "series": {"": 2.0}},
                "serve_pending_depth": {"kind": "gauge", "series": {"": 0.0}},
            },
        }
        path = tmp_path / "old.json"
        path.write_text(json.dumps(snapshot))
        for extra in ([], ["--prom"]):
            proc = _run_cli("serve-report", str(path), *extra)
            assert proc.returncode == 2
            assert "serve_failures_total, serve_pending_depth" in proc.stderr
