"""Self-test of the benchmark: tiny variants of every workload, untraced
and traced, end to end.

    python3 -m pytest -q perfbench

Each case runs ``perfbench/run.py --tiny`` in a subprocess from the
checkout root and checks the last output line against the metric lists
in ``BENCHMARK.json``: every metric is printed, with its unit.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as harness  # noqa: E402

ROOT = harness.ROOT
WORKLOADS = list(harness.WORKLOADS)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace, seed=5, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def test_spec_matches_harness():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for metric in spec:
        assert any(
            line.startswith(workload) and line.split()[1] == metric["name"]
            and line.split()[3] == metric["unit"]
            for line in lines
        ), f"no row for {metric['name']}"


def test_same_seed_repeats_programs():
    programs = []
    for _ in range(2):
        proc = _run("tune-cold", 0, seed=11)
        assert proc.returncode == 0, proc.stderr
        programs.append([line for line in proc.stdout.splitlines() if line.startswith("# program")])
    assert programs[0] and programs[0] == programs[1]


def test_fails_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("tune-cold", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
