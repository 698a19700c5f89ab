"""Tests for where a session's searches run: in this process, one after
another (width 1), or one whole search per worker process (width 2).

The load-bearing property is the determinism contract: every width must
find the same programs, produce the same statistics, reports and flight
recording, and reject the same candidates for the same reasons.  The
rest covers what crosses the process boundary — recorder rows that
replay here, spans that nest under the session, cache counts — and the
single-search surface that stays in-process.
"""

import pickle
import re
from dataclasses import asdict

import pytest

from repro import cache as repro_cache
from repro.frontend import ops
from repro.meta import (
    TensorCoreSketch,
    Telemetry,
    TuneConfig,
    TuningSession,
    evolutionary_search,
    tune,
)
from repro.obs import Recorder, replay_trial
from repro.sim import SimCPU, SimGPU
from repro.tir import parse_script, script, structural_hash

from ..common import build_matmul, one_search_per_worker

#: three distinct workloads and a duplicate; the float32 matmul gets the
#: gpu-scalar sketch alone, so rejection rows exist.
_WORKLOADS = {
    "gemm": lambda: build_matmul(64, 64, 64, dtype="float16"),
    "gemm-wide": lambda: build_matmul(64, 64, 128, dtype="float16"),
    "gemm-fp32": lambda: build_matmul(64, 64, 64),
    "gemm-dup": lambda: build_matmul(64, 64, 64, dtype="float16"),
}


def _session_run(width, config=None):
    """One recorded session over ``_WORKLOADS`` at search ``width``;
    returns the session, its report, its recorder and the functions."""
    recorder = Recorder()
    session = TuningSession(
        SimGPU(), config or TuneConfig(trials=6, population=4, seed=2), recorder=recorder
    )
    funcs = {}
    for name, build in _WORKLOADS.items():
        func = build()
        funcs[session.add(func, name=name)] = func
    with one_search_per_worker(width):
        report = session.run()
    return session, report, recorder, funcs


@pytest.fixture(scope="module")
def widths():
    """A cold run at width 1, then one at width 2."""
    runs = {}
    for width in (1, 2):
        repro_cache.clear_all()
        runs[width] = _session_run(width)
    return runs


def _rows(recorder):
    doc = recorder.recording()
    return [
        [{k: v for k, v in row.items() if k != "ts"} for row in doc[kind]]
        for kind in ("trials", "rejections")
    ]


class TestBackendDeterminism:
    def test_matrix_identical_results(self, widths):
        """width 1 == width 2, search by search, byte for byte."""
        (one, _, _, _), (two, _, _, _) = widths[1], widths[2]
        assert set(one.results) == set(two.results) == set(_WORKLOADS)
        for name, base in one.results.items():
            result = two.results[name]
            assert base.best_func is not None, name
            assert result.best_cycles == base.best_cycles, name
            assert script(result.best_func) == script(base.best_func), name
            assert structural_hash(result.best_func) == structural_hash(base.best_func)
            assert result.best_decisions == base.best_decisions, name
            assert result.stats.rejected_by_code == base.stats.rejected_by_code, name
            assert (
                result.stats.search_signature() == base.stats.search_signature()
            ), name

    def test_worker_count_does_not_change_results(self, widths):
        (_, one, _, _), (_, two, _, _) = widths[1], widths[2]
        assert one.totals["tasks_searched"] == 3
        assert [asdict(t) for t in one.tasks] == [asdict(t) for t in two.tasks]
        assert one.totals == two.totals
        assert one.invalid_by_code and one.invalid_by_code == two.invalid_by_code

    def test_clear_all_reaches_process_workers(self):
        """Workers fork from this process's caches: after a warm
        in-process run they serve ``search.candidates`` hits, and after
        ``clear_all()`` none."""

        def worker_candidates():
            return repro_cache.worker_counts().get("search.candidates", (0, 0, 0))

        _session_run(1)
        before = worker_candidates()
        _session_run(2)
        warm = worker_candidates()
        assert warm[0] > before[0]
        repro_cache.clear_all()
        _session_run(2)
        cold = worker_candidates()
        assert cold[0] == warm[0]
        assert cold[1] > warm[1]


class TestSearchPool:
    def test_worker_rows_replay_in_the_parent(self, widths):
        """A forked worker keeps this process's hash seed, so every
        measured trial a worker recorded rebuilds here, from its sketch
        token and decisions, to the structural hash it recorded."""
        _, report, recorder, funcs = widths[2]
        threads = {s["task"]: s["thread"] for s in report.telemetry["spans"]
                   if s["stage"] == "task"}
        measured = [t for t in recorder.trials if t.cycles is not None]
        assert {t.task for t in measured} == {"gemm", "gemm-wide", "gemm-fp32"}
        for row in measured:
            assert threads[row.task].startswith("search-worker-")
            rebuilt = replay_trial(row, funcs[row.task])
            assert structural_hash(rebuilt) == row.structural_hash

    @pytest.mark.parametrize("width", [1, 2])
    def test_rows_of_every_sketch_kind_replay(self, width):
        """At either width, every measured trial of all four sketch kinds
        rebuilds from its row to the structural hash it recorded."""
        measured = []
        for target, workloads in (
            (SimGPU(), [ops.matmul(32, 32, 32), ops.matmul(32, 32, 32, "float32")]),
            (SimCPU(), [ops.matmul(32, 32, k, "int8", "int32") for k in (32, 64)]),
        ):
            recorder = Recorder()
            session = TuningSession(
                target, TuneConfig(trials=4, population=4, seed=5), recorder=recorder
            )
            funcs = {session.add(f, name=f"gemm-{i}"): f for i, f in enumerate(workloads)}
            with one_search_per_worker(width):
                report = session.run()
            lanes = {s["thread"] for s in report.telemetry["spans"] if s["stage"] == "task"}
            assert len(lanes) == width
            for row in recorder.trials:
                if row.cycles is not None:
                    measured.append(row)
                    rebuilt = replay_trial(row, funcs[row.task])
                    assert structural_hash(rebuilt) == row.structural_hash
        assert {t.sketch.split("@")[0] for t in measured} == {
            "tensor-core", "gpu-scalar", "cpu-sdot", "cpu-scalar",
        }

    def test_worker_spans_nest_under_the_session(self, widths):
        """Concurrent searches get a lane per worker, and every task span
        descends from the session span."""
        spans = widths[2][1].telemetry["spans"]
        by_id = {s["span_id"]: s for s in spans}
        assert len(by_id) == len(spans)
        lanes = {s["thread"] for s in spans if s["thread"].startswith("search-worker-")}
        assert len(lanes) == 2
        (session,) = [s for s in spans if s["stage"] == "session"]
        tasks = [s for s in spans if s["stage"] == "task"]
        assert len(tasks) == 3
        for span in tasks:
            while span["parent_id"] is not None:
                span = by_id[span["parent_id"]]
            assert span is session

    def test_report_counts_worker_cache_misses(self, widths):
        """The parent builds no candidate at width 2; its report still
        counts the workers' ``search.candidates`` misses."""
        one, two = widths[1][1].cache_stats, widths[2][1].cache_stats
        assert two["search.candidates"]["misses"] > 0
        assert two["search.candidates"]["misses"] == one["search.candidates"]["misses"]


    def test_worker_stages_reach_the_report(self, widths):
        """The stage view of the report sums the workers' leaf spans as
        it sums this process's: the same stages at every width, each
        search's measuring on its worker's lane."""
        one, two = widths[1][1].telemetry, widths[2][1].telemetry
        assert set(one["stage_seconds"]) == set(two["stage_seconds"])
        assert two["stage_seconds"]["measure"] > 0
        measured = {
            s["task"] for s in two["spans"]
            if s["stage"] == "measure" and s["thread"].startswith("search-worker-")
        }
        assert measured == {"gemm", "gemm-wide", "gemm-fp32"}


class TestPickleBoundary:
    def test_tune_config_round_trip(self):
        config = TuneConfig(trials=9, seed=5, population=6)
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.population == 6


    def test_search_outcome_round_trip(self):
        """What a worker sends back — one search's result, spans, rows and
        cache window — survives pickling whole."""
        from repro.meta import session as session_mod

        func = build_matmul(64, 64, 64)
        outcome = session_mod._search(
            func, SimGPU(), TuneConfig(trials=4, seed=0), "gemm", True
        )
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone.error is None and outcome.result.best_func is not None
        assert script(clone.result.best_func) == script(outcome.result.best_func)
        assert clone.result.best_decisions == outcome.result.best_decisions
        assert (
            clone.result.stats.search_signature() == outcome.result.stats.search_signature()
        )
        assert clone.trials == outcome.trials and clone.trials
        assert clone.rejections == outcome.rejections
        assert clone.spans == outcome.spans
        assert clone.cache_delta == outcome.cache_delta
        measured = [t for t in clone.trials if t.cycles is not None]
        assert measured
        for row in measured:
            assert structural_hash(replay_trial(row, func)) == row.structural_hash


class TestProtocolSurface:
    def test_search_folds_counters_into_telemetry(self):
        """Candidates are counted in the search's ``SearchStats``;
        Telemetry keeps only spans."""
        telemetry = Telemetry()
        func = build_matmul(64, 64, 64, dtype="float16")
        repro_cache.clear_all()
        result = evolutionary_search(
            func,
            TensorCoreSketch(),
            SimGPU(),
            TuneConfig(trials=4, population=4, seed=0),
            telemetry=telemetry,
        )
        assert result.stats.candidates_generated > 0
        assert set(telemetry.report()) == {"spans", "stage_seconds"}

    def test_recording_is_identical_across_backends(self, widths):
        """The recorded rows, timestamps aside, are identical at every
        width: a worker's rows are renumbered onto the session's trial
        sequence in task order."""
        one, two = _rows(widths[1][2]), _rows(widths[2][2])
        assert one[0] and one[1]
        assert one == two
        trial_ids = [row["trial_id"] for row in two[0]]
        assert trial_ids == list(range(1, len(trial_ids) + 1))
        assert {row["parent"] for row in two[0]} - {None} <= set(trial_ids)


class TestRenamedWorkload:
    def test_warm_tune_of_renamed_copy_matches_its_cold_tune(self):
        """``structural_hash`` ignores names, so caches keyed on it alone
        served a renamed copy the original's program.  Every tune must
        print its own names, and a warm tune of the copy what it prints
        cold."""
        original = ops.matmul(64, 64, 64)
        renamed = parse_script(
            re.sub(r"\b[ABC]\b", lambda m: "XYZ"["ABC".index(m[0])], script(original))
        )
        assert structural_hash(renamed) == structural_hash(original)
        config = TuneConfig(trials=8, seed=1)

        def best(func):
            return script(tune(func, SimGPU(), config).best_func)

        repro_cache.clear_all()
        cold = best(renamed)
        assert "X: Buffer" in cold
        repro_cache.clear_all()
        assert "A: Buffer" in best(original)
        assert best(renamed) == cold
