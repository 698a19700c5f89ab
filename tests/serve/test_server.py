"""Tests for the tuning-as-a-service surface (``repro.serve``).

The acceptance contract: warm requests are served from the database
with **zero** trials, a server restarted on the same persistent
directory serves **byte-identical** programs, and concurrent cache
misses for one workload coalesce into a **single** tuning run.
"""

import json
import os
import threading
from concurrent.futures import wait

import pytest

import repro
from repro.frontend import ops
from repro.meta import Telemetry, TuneConfig, TuningDatabase, tune
from repro.meta.database import DatabaseEntry, PersistentDatabase, workload_key
from repro.obs.metrics import quantile
from repro.serve import (
    CompileResponse,
    ScheduleServer,
    ServeConfig,
    default_server,
    shutdown_default_servers,
)
from repro.sim import SimGPU

CFG = ServeConfig(tune=TuneConfig(trials=4, seed=11))


def _matmul(n=128):
    return ops.matmul(n, n, n)


class TestServeBasics:
    def test_miss_then_hit_zero_trials(self):
        with ScheduleServer(SimGPU(), CFG) as server:
            first = server.compile(_matmul())
            assert first.source == "miss"
            assert first.trials > 0
            second = server.compile(_matmul())
            assert second.source == "hit"
            assert second.trials == 0
            assert second.script == first.script
            assert second.cycles == first.cycles

    def test_response_is_callable_program(self):
        import numpy as np

        with ScheduleServer(SimGPU(), CFG) as server:
            resp = server.compile(_matmul(64))
            assert isinstance(resp, CompileResponse)
            rng = np.random.default_rng(0)
            a = rng.random((64, 64)).astype("float16")
            b = rng.random((64, 64)).astype("float16")
            c = np.zeros((64, 64), dtype="float16")
            resp(a, b, c)
            np.testing.assert_allclose(
                c.astype("float32"),
                a.astype("float32") @ b.astype("float32"),
                rtol=5e-2, atol=5e-1,
            )

    def test_compile_programs_off(self):
        with ScheduleServer(SimGPU(), CFG.with_(compile_programs=False)) as server:
            resp = server.compile(_matmul(64))
            assert resp.compiled is None
            with pytest.raises(RuntimeError, match="no compiled function"):
                resp(None, None)

    def test_stats_accounting(self):
        with ScheduleServer(SimGPU(), CFG) as server:
            server.compile(_matmul())
            server.compile(_matmul())
            server.compile(_matmul())
            stats = server.stats()
        assert stats.requests == 3
        assert stats.misses == 1
        assert stats.hits == 2
        assert stats.tune_runs == 1
        assert 0 < stats.hit_rate < 1
        payload = stats.to_json()
        assert payload["hits"] == 2 and "coalesce_factor" in payload

    def test_telemetry_counters(self):
        # Each count has one store: requests in ServerStats, responses in
        # the latency histogram; Telemetry keeps the serve path's spans.
        telemetry = Telemetry()
        with ScheduleServer(SimGPU(), CFG, telemetry=telemetry) as server:
            server.compile(_matmul())
            server.compile(_matmul())
            stats = server.stats()
            latency = server.metrics.snapshot()["metrics"]["serve_latency_seconds"]
        assert (stats.misses, stats.hits, stats.tune_runs) == (1, 1, 1)
        assert latency["series"]["outcome=miss"]["count"] == 1
        assert latency["series"]["outcome=hit"]["count"] == 1
        assert sum(s.stage == "serve-request" for s in telemetry.spans) == 2

    def test_unreplayable_record_is_evicted_and_retuned(self):
        db = TuningDatabase()
        func = _matmul()
        key = workload_key(func, SimGPU())
        db.put(
            DatabaseEntry(
                key=key, workload=func.name, target="sim-gpu",
                sketch="no-such-sketch", decisions=[], cycles=1.0,
            )
        )
        with ScheduleServer(SimGPU(), CFG, database=db) as server:
            resp = server.compile(func)
        assert resp.source == "miss"
        assert db.get(key).sketch != "no-such-sketch"

    def test_decision_of_the_wrong_type_is_evicted_and_retuned(self, tmp_path):
        # A stored categorical decision rewritten into a list no longer
        # fits its sketch: the hit path drops the record (TIR701) and
        # re-tunes instead of raising.
        root = str(tmp_path / "db")
        func = ops.matmul(64, 64, 64)
        key = workload_key(func, SimGPU())
        tune(func, SimGPU(), TuneConfig(trials=4), database=PersistentDatabase(root))
        path = os.path.join(root, "entries", f"{key}.jsonl")
        with open(path) as f:
            record = json.loads(f.read())
        assert record["decisions"][0] == 1
        record["decisions"][0] = [1, 2]
        with open(path, "w") as f:
            f.write(json.dumps(record) + "\n")
        with ScheduleServer(SimGPU(), CFG.with_(db_path=root)) as server:
            resp = server.compile(func)
            stats = server.stats()
        assert resp.source == "miss"
        assert stats.requests == 1 and stats.failures == 0
        assert server.diagnostics.counts_by_code().get("TIR701", 0) == 1

    def test_submit_after_close_raises(self):
        server = ScheduleServer(SimGPU(), CFG)
        server.close()
        server.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            server.submit(_matmul())

    def test_submit_racing_close_never_hangs(self):
        # A miss whose lookup is still running when close() stops the
        # worker must not register a waiter nothing will ever resolve.
        looking_up, release = threading.Event(), threading.Event()

        class SlowLookupDatabase(TuningDatabase):
            def get(self, key):
                looking_up.set()
                release.wait(timeout=30)
                return super().get(key)

        server = ScheduleServer(SimGPU(), CFG, database=SlowLookupDatabase())
        outcome = {}

        def client():
            try:
                outcome["future"] = server.submit(_matmul())
            except RuntimeError as err:
                outcome["error"] = err

        thread = threading.Thread(target=client)
        thread.start()
        assert looking_up.wait(timeout=30)
        server.close()
        release.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
        if "future" in outcome:
            # A returned future must resolve; a pending one times out.
            outcome["future"].result(timeout=5)
        assert str(outcome["error"]) == "ScheduleServer is closed"


class TestTuningFailure:
    def test_failed_session_reaches_every_waiter_then_recovers(self, monkeypatch):
        """A tuning run that raises fails its owner and every coalesced
        waiter, counts each as a failure, and leaves the server able to
        serve the same workload afterwards."""
        from repro.meta.session import TuningSession

        started, release = threading.Event(), threading.Event()

        def failing_run(self, total_trials=None):
            started.set()
            release.wait(timeout=30)
            raise RuntimeError("tuning backend down")

        monkeypatch.setattr(TuningSession, "run", failing_run)
        with ScheduleServer(SimGPU(), CFG) as server:
            futures = [server.submit(_matmul(64))]
            assert started.wait(timeout=30)
            futures += [server.submit(_matmul(64)) for _ in range(2)]
            release.set()
            for future in futures:
                with pytest.raises(RuntimeError, match="tuning backend down"):
                    future.result(timeout=30)
            stats = server.stats()
            assert stats.coalesced == 2
            assert stats.failures == 3
            monkeypatch.undo()
            fresh = server.compile(_matmul(64), timeout=120)
        assert fresh.source == "miss"
        assert fresh.trials > 0

    def test_session_that_exits_fails_its_waiter_and_the_worker_lives(self, monkeypatch):
        """A tuning run that raises ``SystemExit`` — not an ``Exception``
        — must not kill the miss worker.  Its waiter gets a
        ``RuntimeError`` chained from the ``SystemExit`` instead of
        waiting until ``close()``, nothing stays pending, and a later
        miss is tuned."""
        from repro.meta.session import TuningSession

        def exiting_run(self, total_trials=None):
            raise SystemExit("tuning process told to exit")

        monkeypatch.setattr(TuningSession, "run", exiting_run)
        with ScheduleServer(SimGPU(), CFG) as server:
            with pytest.raises(RuntimeError, match="SystemExit") as failure:
                server.compile(_matmul(64), timeout=10)
            assert isinstance(failure.value.__cause__, SystemExit)
            health = server.health()
            assert health["status"] == "ok"
            assert health["pending_workloads"] == 0
            assert health["failures"] == 1
            monkeypatch.undo()
            fresh = server.compile(_matmul(64), timeout=120)
        assert fresh.source == "miss"
        assert fresh.trials > 0

    def test_waiter_that_fails_to_serve_fails_alone(self, monkeypatch):
        """Serving one waiter of a tuned batch can raise (in its replay,
        ``script`` or ``compile_func``).  That waiter fails and counts as
        a failure; every other waiter still resolves, and the server
        keeps serving."""
        with ScheduleServer(SimGPU(), CFG.with_(batch_window_seconds=0.3)) as server:
            respond = server._respond

            def respond_failing_coalesced(request, entry, source, trials):
                if source == "coalesced":
                    raise OSError("disk full")
                return respond(request, entry, source, trials=trials)

            monkeypatch.setattr(server, "_respond", respond_failing_coalesced)
            func = _matmul(64)
            futures = [server.submit(func) for _ in range(3)]
            done, _ = wait(futures, timeout=30)
            assert len(done) == 3
            assert futures[0].result().source == "miss"
            for future in futures[1:]:
                with pytest.raises(OSError, match="disk full"):
                    future.result()
            assert server.stats().failures == 2
            assert server.compile(func, timeout=30).source == "hit"
            assert server.compile(_matmul(32), timeout=120).source == "miss"


class TestPersistenceAcrossRestart:
    def test_restart_serves_byte_identical(self, tmp_path):
        cfg = CFG.with_(db_path=str(tmp_path / "db"))
        with ScheduleServer(SimGPU(), cfg) as server:
            first = server.compile(_matmul())
            assert first.source == "miss"
        with ScheduleServer(SimGPU(), cfg) as server:
            again = server.compile(_matmul())
        assert again.source == "hit"
        assert again.trials == 0
        assert again.script == first.script
        assert again.cycles == first.cycles


class TestCoalescing:
    def test_concurrent_misses_one_tuning_run(self):
        """N concurrent clients, same workload → one tuning run."""
        cfg = CFG.with_(batch_window_seconds=0.3)
        n = 4
        with ScheduleServer(SimGPU(), cfg) as server:
            barrier = threading.Barrier(n)
            responses = [None] * n

            def request(i):
                barrier.wait()
                responses[i] = server.compile(_matmul())

            threads = [threading.Thread(target=request, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = server.stats()
        sources = sorted(r.source for r in responses)
        assert sources.count("miss") == 1
        assert sources.count("coalesced") + sources.count("hit") == n - 1
        assert stats.tune_runs == 1
        assert stats.tuned_workloads == 1
        assert len({r.script for r in responses}) == 1
        assert all(r.trials == 0 for r in responses if r.source != "miss")
        assert stats.coalesce_factor >= 2.0

    def test_distinct_workloads_share_one_session(self, monkeypatch):
        """Two distinct misses share one session, searched in-process: a
        server has threads, and a forked child would inherit their locks."""
        forks = []

        def refuse_fork():
            forks.append(threading.current_thread().name)
            raise OSError("a server session forked")

        monkeypatch.setattr(os, "fork", refuse_fork)
        cfg = CFG.with_(batch_window_seconds=0.3)
        with ScheduleServer(SimGPU(), cfg) as server:
            futures = [
                server.submit(_matmul(128)),
                server.submit(ops.matmul(128, 128, 256)),
            ]
            responses = [f.result(timeout=120) for f in futures]
            stats = server.stats()
        assert forks == []
        assert {r.source for r in responses} == {"miss"}
        assert stats.tune_runs == 1
        assert stats.tuned_workloads == 2


class TestServingContract:
    def test_warm_restart_and_coalescing(self, tmp_path):
        """One pass over the three serving contracts at a 4-trial budget."""
        cfg = ServeConfig(db_path=str(tmp_path / "db"), tune=TuneConfig(trials=4, seed=0))
        func = ops.matmul(64, 64, 64)
        with ScheduleServer(SimGPU(), cfg) as server:
            miss = server.compile(func)
            assert miss.source == "miss"
            for _ in range(5):
                hit = server.compile(func)
                assert (hit.source, hit.trials, hit.script) == ("hit", 0, miss.script)
            stats = server.stats()
            latency = server.metrics.snapshot()["metrics"]["serve_latency_seconds"]
            assert quantile(latency["series"]["outcome=hit"]["window"], 0.5) is not None
        assert stats.hits > 0 and stats.hit_rate > 0.5
        with ScheduleServer(SimGPU(), cfg) as server:
            again = server.compile(func)
        assert (again.source, again.trials, again.script) == ("hit", 0, miss.script)

        co_cfg = cfg.with_(db_path=str(tmp_path / "db-coalesce"), batch_window_seconds=0.5)
        with ScheduleServer(SimGPU(), co_cfg) as server:
            barrier = threading.Barrier(3)
            responses = [None] * 3

            def request(i):
                barrier.wait(timeout=60)
                responses[i] = server.compile(func)

            threads = [threading.Thread(target=request, args=(i,)) for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            stats = server.stats()
        assert stats.tune_runs == 1
        assert stats.coalesce_factor >= 2.0
        assert len({r.script for r in responses}) == 1


class TestClientSurface:
    def test_repro_compile_routes_through_server(self):
        with ScheduleServer(SimGPU(), CFG) as server:
            first = repro.compile(_matmul(), SimGPU(), server=server)
            second = repro.compile(_matmul(), SimGPU(), server=server)
            assert server.stats().requests == 2
        assert first.source == "miss"
        assert second.source == "hit"
        assert second.script == first.script

    def test_default_server_is_shared_and_recreated(self):
        shutdown_default_servers()
        try:
            s1 = default_server(SimGPU(), CFG)
            s2 = default_server(SimGPU(), CFG)
            assert isinstance(s1, ScheduleServer)
            assert s1 is s2
            s1.close()
            s3 = default_server(SimGPU(), CFG)
            assert s3 is not s1
            # ``repro.compile`` without a server goes to the default one.
            resp = repro.compile(_matmul(64), SimGPU(), config=CFG)
            assert resp.source == "miss"
            assert s3.stats().requests == 1
        finally:
            shutdown_default_servers()

    def test_default_servers_are_keyed_by_db_path(self, tmp_path):
        shutdown_default_servers()
        try:
            a = default_server(SimGPU(), CFG.with_(db_path=str(tmp_path / "a")))
            b = default_server(SimGPU(), CFG.with_(db_path=str(tmp_path / "b")))
            assert a is not b
            assert isinstance(a.database, PersistentDatabase)
            assert a.database.root == str(tmp_path / "a")
            assert default_server(SimGPU(), CFG.with_(db_path=str(tmp_path / "a"))) is a
        finally:
            shutdown_default_servers()
        assert a._closed and b._closed

    def test_top_level_exports(self):
        assert repro.ScheduleServer is ScheduleServer
        assert repro.ServeConfig is ServeConfig
        assert repro.compile is repro.serve.compile
        assert not hasattr(repro, "Client")
        assert not hasattr(repro.serve, "Client")
