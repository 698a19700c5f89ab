"""Tests for the TuningSession orchestrator: dedup, replay, parallel
determinism, budget allocation and the JSON telemetry report."""

import gc
import json
import multiprocessing
import os
import pickle
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro import Telemetry, TuneConfig, TuningDatabase, TuningSession, tune
from repro.frontend import LayerSpec, NetworkSpec, network_latency, ops
from repro.meta import estimated_cost
from repro.meta.database import DatabaseEntry, PersistentDatabase, workload_key
from repro.meta.sketch import GpuScalarSketch
from repro.sim import SimGPU
from repro.tir import script

from ..common import one_search_per_worker, search_width


def _gemm_layer(name, n, m, k, count=1):
    from functools import partial

    return LayerSpec(name, partial(ops.matmul, n, m, k), count)


@pytest.fixture(scope="module")
def four_layer_net():
    """Four layers, two of which are the same workload (128^3 GEMM)."""
    return NetworkSpec(
        "tiny-net",
        [
            _gemm_layer("gemm_a", 128, 128, 128),
            _gemm_layer("gemm_a_dup", 128, 128, 128),
            _gemm_layer("gemm_b", 256, 256, 256),
            _gemm_layer("gemm_c", 64, 64, 512),
        ],
    )


@pytest.fixture(scope="module")
def session_report(four_layer_net):
    session = TuningSession(SimGPU(), TuneConfig(trials=6, seed=0))
    session.add_network(four_layer_net)
    return session, session.run()


class CountingDatabase(TuningDatabase):
    """Counts stored-record replays: every rebuild goes through
    ``replay_entry``."""

    def __init__(self):
        super().__init__()
        self.replays = 0

    def replay_entry(self, func, entry, **kwargs):
        self.replays += 1
        return super().replay_entry(func, entry, **kwargs)


def _rebuild(database, func):
    """The program ``database`` holds for ``func``, rebuilt."""
    return database.replay_entry(func, database.get(workload_key(func, SimGPU()))).func


def _run_duplicated_matmuls(database):
    """Two distinct matmuls, three copies each, through one session;
    returns the session, its report, each task's function and the
    replays the run made."""
    session = TuningSession(SimGPU(), TuneConfig(trials=4, seed=0), database=database)
    funcs = {}
    for _ in range(3):
        for name, shape in (("square", (64, 64, 64)), ("wide", (32, 64, 64))):
            func = ops.matmul(*shape)
            funcs[session.add(func, name=name)] = func
    before = database.replays
    report = session.run()
    return session, report, funcs, database.replays - before


@pytest.fixture(scope="module")
def duplicated_runs():
    """A cold run, then a second session on the database it filled."""
    database = CountingDatabase()
    cold = _run_duplicated_matmuls(database)
    warm = _run_duplicated_matmuls(database)
    return database, cold, warm


class TestDedupAndReplay:
    def test_each_distinct_workload_replays_once(self, duplicated_runs):
        database, (session, report, funcs, replays), _ = duplicated_runs
        assert report.totals["tasks_searched"] == 2
        assert report.totals["tasks_replayed"] == 4
        assert replays == 2
        # Accounting stays per task: one replay span per replayed task.
        replay_spans = [s["task"] for s in report.telemetry["spans"] if s["stage"] == "replay"]
        assert sorted(replay_spans) == sorted(
            t.name for t in report.tasks if t.status == "replayed"
        )
        for name, func in funcs.items():
            expected = _rebuild(database, func)
            assert script(session.results[name].best_func) == script(expected), name
        results = list(session.results.values())
        assert len({id(r.stats) for r in results}) == len(results)
        assert len({id(r.best_decisions) for r in results}) == len(results)

    def test_filled_database_replays_each_workload_once(self, duplicated_runs):
        database, _, (session, report, funcs, replays) = duplicated_runs
        assert report.totals["tasks_searched"] == 0
        assert report.totals["tasks_replayed"] == 6
        assert replays == 2
        for name, func in funcs.items():
            expected = _rebuild(database, func)
            assert script(session.results[name].best_func) == script(expected), name

    @pytest.mark.parametrize(
        "sketch, decisions", [("no-such-sketch", []), ("tensor-core", [999, 999, 999])]
    )
    def test_record_that_fails_to_replay_is_not_reported_missing(self, sketch, decisions):
        target = SimGPU()
        func = ops.matmul(32, 32, 32)
        key = workload_key(func, target)
        database = TuningDatabase()
        database.put(
            DatabaseEntry(key, func.name, target.name, sketch, decisions, cycles=1.0)
        )
        session = TuningSession(target, TuneConfig(trials=4, seed=0), database=database)
        session.add(func, name="a")
        session.add(ops.matmul(32, 32, 32), name="b")
        report = session.run()
        for task in report.tasks:
            assert task.status == "failed"
            assert key in task.error and repr(sketch) in task.error
            assert "did not replay" in task.error
        infeasible = session.diagnostics.counts_by_code().get("TIR701", 0)
        assert (infeasible > 0) == (sketch == "tensor-core")

    def test_record_with_a_wrong_type_decision_fails_its_task_alone(self):
        target = SimGPU()
        func = ops.matmul(64, 64, 64)
        database = TuningDatabase()
        tune(func, target, TuneConfig(trials=4), database=database)
        entry = database.get(workload_key(func, target))
        database.evict(entry.key)
        database.put(replace(entry, decisions=[[1, 2]] + entry.decisions[1:]))
        session = TuningSession(target, TuneConfig(trials=4, seed=0), database=database)
        session.add(func, name="stored")
        session.add(ops.matmul(32, 32, 32), name="fresh")
        report = session.run()
        assert report.task("stored").status == "failed"
        assert "did not replay" in report.task("stored").error
        assert report.task("fresh").status == "searched"
        assert session.diagnostics.counts_by_code() == {"TIR701": 1}

    def test_exactly_three_searches_one_replay(self, session_report):
        _, report = session_report
        assert report.totals["tasks_searched"] == 3
        assert report.totals["tasks_replayed"] == 1
        assert report.totals["tasks_failed"] == 0

    def test_replay_matches_search(self, session_report):
        _, report = session_report
        assert report.cycles_for("gemm_a_dup") == report.cycles_for("gemm_a")
        assert report.task("gemm_a_dup").status == "replayed"
        assert report.task("gemm_a_dup").tuning_seconds == 0.0
        assert report.task("gemm_a_dup").key == report.task("gemm_a").key

    def test_database_holds_unique_workloads(self, session_report):
        session, _ = session_report
        assert len(session.database) == 3

    def test_prepopulated_database_skips_search(self, session_report, four_layer_net):
        session, _ = session_report
        fresh = TuningSession(
            SimGPU(),
            TuneConfig(trials=6, seed=0),
            database=session.database,
        )
        fresh.add_network(four_layer_net)
        report = fresh.run()
        assert report.totals["tasks_searched"] == 0
        assert report.totals["tasks_replayed"] == 4
        assert report.tuning_seconds == 0.0


@contextmanager
def _deadline(seconds):
    """Raise ``TimeoutError`` in this thread if the body runs longer."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestTaskIsolation:
    @pytest.mark.parametrize("width", [1, 2])
    def test_failing_search_fails_only_its_task(self, monkeypatch, width):
        """A search that raises marks its own task ``failed``, in this
        process or in a worker; the other tasks still run and commit."""
        from repro.meta import session as session_mod

        real_tune = session_mod.tune

        def flaky_tune(func, target, config, **kwargs):
            if kwargs["task"] == "b":
                raise RuntimeError("search exploded")
            return real_tune(func, target, config, **kwargs)

        monkeypatch.setattr(session_mod, "tune", flaky_tune)
        session = TuningSession(SimGPU(), TuneConfig(trials=4, seed=0))
        for name, n in (("a", 32), ("b", 48), ("c", 64)):
            session.add(ops.matmul(n, n, n), name=name)
        with search_width(width):
            report = session.run()
        failed = report.task("b")
        assert failed.status == "failed"
        assert failed.error == "search exploded"
        assert report.task("a").status == report.task("c").status == "searched"
        assert set(session.database.keys()) == {
            report.task("a").key, report.task("c").key
        }

    def test_dead_worker_fails_only_unreturned_searches(self, monkeypatch, tmp_path):
        """A worker that dies mid-search fails every search not yet
        returned — its own and one still running in the other worker —
        with an error naming the death; the searches already returned
        are committed, and ``run()`` returns."""
        from repro.meta import session as session_mod

        real_tune = session_mod.tune
        started = tmp_path / "hang-started"

        def tune_or_die(func, target, config, **kwargs):
            task = kwargs["task"]
            if task == "hang":
                started.touch()
                time.sleep(120)
            if task == "victim":
                # "hang" runs after "a" and "c" on the other worker, which
                # has sent both their results by the time it starts.
                deadline = time.monotonic() + 60
                while not started.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                os.kill(os.getpid(), signal.SIGKILL)
            return real_tune(func, target, config, **kwargs)

        monkeypatch.setattr(session_mod, "tune", tune_or_die)
        session = TuningSession(SimGPU(), TuneConfig(trials=4, seed=0))
        for name, n in (("a", 32), ("victim", 48), ("c", 64), ("hang", 16)):
            session.add(ops.matmul(n, n, n), name=name)
        with search_width(2), _deadline(90):
            report = session.run()
        for name in ("victim", "hang"):
            task = report.task(name)
            assert task.status == "failed", name
            assert "terminated abruptly" in task.error, name
        assert report.task("a").status == report.task("c").status == "searched"
        assert set(session.database.keys()) == {
            report.task("a").key, report.task("c").key
        }


    @pytest.mark.parametrize("width", [1, 2])
    def test_interrupt_keeps_searches_already_returned(self, monkeypatch, tmp_path, width):
        """Each search is committed as it returns: an interrupt during a
        later search leaves the earlier one durable on disk."""
        from repro.meta import session as session_mod

        real_tune = session_mod.tune

        def interrupted_tune(func, target, config, **kwargs):
            if kwargs["task"] == "b":
                raise KeyboardInterrupt
            return real_tune(func, target, config, **kwargs)

        monkeypatch.setattr(session_mod, "tune", interrupted_tune)
        root = str(tmp_path / "db")
        session = TuningSession(
            SimGPU(), TuneConfig(trials=4, seed=0), database=PersistentDatabase(root)
        )
        first = ops.matmul(32, 32, 32)
        session.add(first, name="a")
        session.add(ops.matmul(48, 48, 48), name="b")
        with search_width(width), pytest.raises(KeyboardInterrupt):
            session.run()
        assert PersistentDatabase(root).keys() == [workload_key(first, SimGPU())]
        assert multiprocessing.active_children() == []


    def test_commit_that_raises_stops_every_worker(self):
        """An error while committing one search ends the run with the
        pool shut down, its other searches included — also while the
        caller still holds the error and with it the run's frames."""

        class FullDatabase(TuningDatabase):
            def record(self, *args, **kwargs):
                raise OSError("no space left on device")

        session = TuningSession(
            SimGPU(), TuneConfig(trials=4, seed=0), database=FullDatabase()
        )
        for name, n in (("a", 32), ("b", 48), ("c", 64)):
            session.add(ops.matmul(n, n, n), name=name)
        with search_width(2), pytest.raises(OSError, match="no space left") as raised:
            session.run()
        # ``raised`` holds the traceback, and with it the run's frames.
        assert multiprocessing.active_children() == []
        assert isinstance(raised.value, OSError)


class TestDeterminism:
    def test_parallel_equals_serial(self):
        def run_with(width):
            session = TuningSession(SimGPU(), TuneConfig(trials=5, seed=3))
            session.add(ops.matmul(128, 128, 128), name="a")
            session.add(ops.matmul(64, 64, 256), name="b")
            session.add(ops.matmul(256, 64, 64), name="c")
            with search_width(width):
                report = session.run()
            return {
                (t.name, t.cycles, t.sketch, t.status) for t in report.tasks
            }, {n: r.best_decisions for n, r in session.results.items()}

        serial_rows, serial_dec = run_with(1)
        parallel_rows, parallel_dec = run_with(2)
        assert serial_rows == parallel_rows
        assert serial_dec == parallel_dec


    def test_unpicklable_config_searches_at_every_width(self):
        """A config holding a sketch class defined in a function cannot
        be pickled; the workers take their jobs from the fork, so both
        widths search it and find the same programs."""

        class LocalScalar(GpuScalarSketch):
            pass

        config = TuneConfig(trials=4, seed=0, sketches=[LocalScalar()])
        with pytest.raises((AttributeError, pickle.PicklingError)):
            pickle.dumps(config)

        def run_with(width):
            session = TuningSession(SimGPU(), config)
            session.add(ops.matmul(32, 32, 32), name="a")
            session.add(ops.matmul(48, 48, 48), name="b")
            with one_search_per_worker(width):
                report = session.run()
            return report, [(t.name, t.status, t.sketch, t.cycles) for t in report.tasks]

        _, serial = run_with(1)
        report, parallel = run_with(2)
        assert len(_worker_lanes(report)) == 2
        assert [row[1] for row in parallel] == ["searched", "searched"]
        assert parallel == serial


def _two_task_session():
    session = TuningSession(SimGPU(), TuneConfig(trials=4, seed=0))
    session.add(ops.matmul(32, 32, 32), name="a")
    session.add(ops.matmul(48, 48, 48), name="b")
    return session


def _worker_lanes(report):
    return {
        s["thread"] for s in report.telemetry["spans"]
        if s["thread"].startswith("search-worker-")
    }


class TestSearchWidth:
    def test_one_search_at_a_time_while_another_thread_is_alive(self):
        from repro.meta import session as session_mod

        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert session_mod._search_width(4) == 1
        finally:
            release.set()
            other.join()

    def test_width_is_capped_by_cpus_and_pending_searches(self, monkeypatch):
        from repro.meta import session as session_mod

        monkeypatch.setattr(threading, "active_count", lambda: 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        assert [session_mod._search_width(n) for n in (0, 1, 2, 3, 8)] == [0, 1, 2, 3, 3]

    def test_live_thread_keeps_searches_in_process(self, monkeypatch):
        """With the width rule in force, a session run beside a live
        thread forks nothing and its spans stay on the calling lane."""
        forks = []

        def refuse_fork():
            forks.append(threading.current_thread().name)
            raise OSError("a session forked beside a live thread")

        session = _two_task_session()
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        monkeypatch.setattr(os, "fork", refuse_fork)
        try:
            report = session.run()
        finally:
            release.set()
            other.join()
        assert forks == []
        assert report.task("a").status == report.task("b").status == "searched"
        assert _worker_lanes(report) == set()

    def test_workers_fork_frozen_and_this_process_thaws(self, monkeypatch, tmp_path):
        """The workers start with this process's objects frozen, so
        their collections leave the shared pages alone; this process is
        unfrozen again once they are forked."""
        from repro.meta import session as session_mod

        real_tune = session_mod.tune

        def tune_noting_freeze(func, target, config, **kwargs):
            (tmp_path / kwargs["task"]).write_text(str(gc.get_freeze_count()))
            return real_tune(func, target, config, **kwargs)

        monkeypatch.setattr(session_mod, "tune", tune_noting_freeze)
        with search_width(2):
            _two_task_session().run()
        assert all(int((tmp_path / name).read_text()) > 0 for name in ("a", "b"))
        assert gc.get_freeze_count() == 0

    def test_no_worker_outlives_run(self):
        session = _two_task_session()
        with one_search_per_worker(2):
            report = session.run()
        lanes = _worker_lanes(report)
        assert len(lanes) == 2
        assert multiprocessing.active_children() == []
        for lane in lanes:
            with pytest.raises(ProcessLookupError):
                os.kill(int(lane.rsplit("-", 1)[1]), 0)


class TestTelemetryReport:
    def test_json_round_trip(self, session_report):
        _, report = session_report
        loaded = json.loads(report.dumps())
        assert loaded["totals"]["tasks_searched"] == 3
        assert len(loaded["tasks"]) == 4
        assert "stage_seconds" in loaded["telemetry"]

    def test_profiling_accounting_matches_table1_arithmetic(self, four_layer_net):
        """Per-task profiling seconds in the report sum to the same
        number the Table 1-style loop (tune each unique layer, add the
        tuning_seconds) produces — within 1%."""
        session = TuningSession(SimGPU(), TuneConfig(trials=6, seed=0))
        session.add_network(four_layer_net)
        report = session.run()
        by_hand = 0.0
        seen = set()
        for layer in four_layer_net.layers:
            func = layer.builder()
            from repro.meta.database import workload_key

            key = workload_key(func, SimGPU())
            if key in seen:
                continue
            seen.add(key)
            by_hand += tune(func, SimGPU(), TuneConfig(trials=6, seed=0)).tuning_seconds
        assert report.tuning_seconds == pytest.approx(by_hand, rel=0.01)
        assert report.tuning_seconds == pytest.approx(
            sum(t.tuning_seconds for t in report.tasks), rel=1e-9
        )

    def test_span_totals_track_wall_time(self):
        """A serial session's per-stage span totals account for (almost)
        all of the search wall-clock."""
        session = TuningSession(SimGPU(), TuneConfig(trials=5, seed=0))
        session.add(ops.matmul(128, 128, 128))
        t0 = time.perf_counter()
        report = session.run()
        wall = time.perf_counter() - t0
        stage_total = sum(
            secs
            for stage, secs in report.telemetry["stage_seconds"].items()
            if stage != "plan"
        )
        assert 0.5 * wall < stage_total <= wall * 1.05

    def test_search_stages_present(self, session_report):
        _, report = session_report
        stages = report.telemetry["stage_seconds"]
        for stage in ("sketch-gen", "evolve", "validate", "measure", "model-update", "replay"):
            assert stage in stages, stage

    def test_sessions_sharing_telemetry_report_only_their_run(self):
        """A collector that outlives its sessions (a server's) must not
        leak one session's spans or rejections into the next report."""
        telemetry = Telemetry()
        runs = []
        for n in (64, 128):
            session = TuningSession(SimGPU(), TuneConfig(trials=4, seed=0), telemetry=telemetry)
            name = session.add(ops.matmul(n, n, n))
            runs.append((session.run(), session.results[name].stats))
        reports = [r for r, _ in runs]
        span_ids = [{s["span_id"] for s in r.telemetry["spans"]} for r in reports]
        assert span_ids[0] and span_ids[1] and not span_ids[0] & span_ids[1]
        assert len(span_ids[0]) + len(span_ids[1]) == len(telemetry.spans)
        for r, stats in runs:
            assert [s["stage"] for s in r.telemetry["spans"]].count("session") == 1
            assert r.totals["tasks_searched"] == 1
            # Each report's rejections are its own search's, not a
            # running total over every session.
            assert r.invalid_by_code == dict(stats.rejected_by_code)


class TestBudgetAllocation:
    def test_proportional_to_cost_share(self):
        session = TuningSession(SimGPU(), TuneConfig(seed=0))
        session.add(ops.matmul(512, 512, 512), name="big")
        session.add(ops.matmul(64, 64, 64), name="small")
        report = session.run(total_trials=40)
        big = report.task("big").trials_allocated
        small = report.task("small").trials_allocated
        assert big > small
        assert big + small == pytest.approx(40, abs=4)

    def test_weight_scales_share(self):
        cost = estimated_cost(ops.matmul(128, 128, 128))
        assert cost == pytest.approx(128**3)

    def test_default_budget_is_config_trials(self, session_report):
        _, report = session_report
        assert all(
            t.trials_allocated == 6 for t in report.tasks if t.status == "searched"
        )


class TestNetworkLatencyFromSession:
    def test_latency_accepts_report(self, session_report, four_layer_net):
        _, report = session_report
        total = network_latency(four_layer_net, report)
        by_hand = sum(
            layer.count * report.seconds_for(layer.name)
            for layer in four_layer_net.layers
        )
        assert total == pytest.approx(by_hand)
        assert total > 0


class TestGraphTasks:
    def test_add_graph_dedups_identical_fused_groups(self):
        from repro.frontend import Graph, fuse_graph, graph_latency

        g = Graph("stack")
        x = g.input("x", (32, 32), "float16")
        for _ in range(2):
            t = g.op("mm", ops.matmul(32, 32, 32), x)
            x = g.op("bias", ops.bias_add((32, 32)), t)
        plan = fuse_graph(g)

        session = TuningSession(SimGPU(), TuneConfig(trials=4, seed=0))
        names = session.add_graph(plan)
        assert names == ["mm+bias_add", "mm#2+bias_add"]
        report = session.run()
        # Both groups lower to the same canonical PrimFunc: one search,
        # one database replay.
        assert report.totals["tasks_searched"] == 1
        assert report.totals["tasks_replayed"] == 1
        assert report.task("mm#2+bias_add").key == report.task("mm+bias_add").key

        total = graph_latency(plan, report)
        by_hand = sum(report.seconds_for(grp.task_name) for grp in plan.groups)
        assert total == pytest.approx(by_hand)
        assert total > 0

    def test_add_graph_accepts_raw_graph_and_fuse_flag(self):
        from repro.frontend import Graph

        g = Graph("pair")
        x = g.input("x", (32, 32), "float16")
        t = g.op("mm", ops.matmul(32, 32, 32), x)
        g.op("relu", ops.elementwise((32, 32), "relu", "float16"), t)

        fused = TuningSession(SimGPU(), TuneConfig(trials=4, seed=0))
        assert fused.add_graph(g) == ["mm+relu"]
        unfused = TuningSession(SimGPU(), TuneConfig(trials=4, seed=0))
        assert unfused.add_graph(g, fuse=False) == ["mm", "relu"]
