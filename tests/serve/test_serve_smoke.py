"""Tier-1 wiring for the schedule-server CI smoke.

Runs ``scripts/bench_hotpaths.py --serve --smoke`` exactly as CI would
and asserts the ``schedule_serve`` entry it merges into the bench
report carries the acceptance numbers (hit rate, p50 hit latency,
coalesce factor) with the correctness gates green.
"""

import json
import os
import subprocess
import sys

REPO = os.path.join(os.path.dirname(__file__), "..", "..")


def test_serve_smoke_writes_schedule_serve_entry(tmp_path):
    out = tmp_path / "bench.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(REPO, "scripts", "bench_hotpaths.py"),
            "--serve", "--smoke", "--out", str(out),
        ],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text())
    entry = report["schedule_serve"]
    agg = entry["aggregate"]
    assert agg["ok"] is True
    assert agg["warm_zero_trials"] is True
    assert agg["restart_identical"] is True
    assert agg["concurrent_tune_runs"] == 1
    assert agg["coalesce_factor"] >= 2.0
    assert agg["hit_rate"] > 0.5
    assert agg["p50_hit_latency_ms"] is not None
    assert agg["hits"] > 0
