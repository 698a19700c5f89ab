"""Concurrency and consistency tests for the serving metrics layer.

The contracts: hammering ``submit()`` from many threads while other
threads read ``stats()``/``health()``/``metrics.snapshot()`` never
produces a torn read, the ``serve_latency_seconds`` counts sum to the
exact number of responses served, ``health()`` percentiles are exact
quantiles of the pooled latency windows, every response carries a
unique request-scoped trace id whose span tree survives the
Chrome-trace export.
"""

import threading

from repro.frontend import ops
from repro.meta import Telemetry, TuneConfig
from repro.obs import chrome_trace
from repro.obs.metrics import DEFAULT_WINDOW
from repro.serve import ScheduleServer, ServeConfig
from repro.sim import SimGPU

CFG = ServeConfig(tune=TuneConfig(trials=4, seed=11))


def _matmul(n=64):
    return ops.matmul(n, n, n)


def _latency_series(server):
    snap = server.metrics.snapshot()
    return snap["metrics"]["serve_latency_seconds"]["series"]


def _served_total(server):
    """Responses per outcome (the histogram counts) and their sum."""
    counts = {key: doc["count"] for key, doc in _latency_series(server).items()}
    return counts, sum(counts.values())


class TestThreadedSubmitWithReaders:
    def test_counters_sum_to_requests_under_threads(self):
        with ScheduleServer(SimGPU(), CFG) as server:
            func = _matmul()
            server.compile(func)  # the one miss
            threads, per_thread = 6, 200
            ids = [[] for _ in range(threads)]
            errors = []
            stop = threading.Event()

            def hammer(slot):
                for _ in range(per_thread):
                    resp = server.compile(func)
                    ids[slot].append(resp.request_id)
                    if resp.source != "hit":
                        errors.append(f"unexpected source {resp.source!r}")

            def reader():
                # Concurrent reads must always see internally
                # consistent documents, never a torn in-between state.
                while not stop.is_set():
                    stats = server.stats()
                    if stats.hits > stats.requests:
                        errors.append("stats torn: hits > requests")
                    health = server.health()
                    if not 0.0 <= health["error_rate"] <= 1.0:
                        errors.append("health torn: error_rate")
                    if not 0.0 <= health["hit_rate"] <= 1.0:
                        errors.append("health torn: hit_rate")
                    _, total = _served_total(server)
                    if total > stats.requests + threads * per_thread:
                        errors.append("counter exceeded possible requests")

            workers = [
                threading.Thread(target=hammer, args=(i,))
                for i in range(threads)
            ]
            readers = [threading.Thread(target=reader) for _ in range(2)]
            for r in readers:
                r.start()
            for w in workers:
                w.start()
            for w in workers:
                w.join()
            stop.set()
            for r in readers:
                r.join()

            assert not errors, errors[:5]
            expected = 1 + threads * per_thread
            stats = server.stats()
            assert stats.requests == expected
            series, total = _served_total(server)
            assert total == expected
            assert series["outcome=hit"] == threads * per_thread
            assert series["outcome=miss"] == 1
            flat = [rid for chunk in ids for rid in chunk]
            assert len(set(flat)) == len(flat), "request ids must be unique"

    def test_health_quantiles_match_snapshot_windows(self):
        with ScheduleServer(SimGPU(), CFG) as server:
            func = _matmul()
            for _ in range(40):
                server.compile(func)
            health = server.health()
            series = _latency_series(server)
            # One observation per response, every outcome pooled as is:
            # the miss and all 39 hits.
            window = sorted(v for doc in series.values() for v in doc["window"])
            assert len(window) == health["window_size"] == 40
            for field, q in (
                ("p50_seconds", 0.50),
                ("p95_seconds", 0.95),
                ("p99_seconds", 0.99),
            ):
                want = window[min(len(window) - 1, int(q * len(window)))]
                assert health[field] == want


class TestCoalescingTraceIds:
    def test_unique_request_ids_under_coalescing(self):
        with ScheduleServer(SimGPU(), CFG) as server:
            func = _matmul(96)
            futures = [None] * 8
            barrier = threading.Barrier(len(futures))

            def submit(slot):
                barrier.wait()
                futures[slot] = server.submit(func)

            workers = [
                threading.Thread(target=submit, args=(i,))
                for i in range(len(futures))
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
            responses = [f.result(timeout=120) for f in futures]
            rids = [r.request_id for r in responses]
            assert len(set(rids)) == len(rids)
            sources = {r.source for r in responses}
            assert sources <= {"miss", "coalesced", "hit"}
            scripts = {r.script for r in responses}
            assert len(scripts) == 1, "coalesced waiters share one program"
            stats = server.stats()
            series, total = _served_total(server)
            assert total == stats.requests == len(responses)
            assert series.get("outcome=coalesced", 0) == stats.coalesced


class TestRequestSpanTrees:
    def test_miss_and_hit_trees_round_trip_through_chrome_trace(self):
        telemetry = Telemetry()
        with ScheduleServer(SimGPU(), CFG, telemetry=telemetry) as server:
            miss = server.compile(_matmul(80))
            hit = server.compile(_matmul(80))
        assert (miss.source, hit.source) == ("miss", "hit")
        assert miss.request_id != hit.request_id
        report = {"telemetry": telemetry.report()}
        for resp in (miss, hit):
            spans = telemetry.span_tree(resp.request_id)
            assert spans, f"{resp.source}: empty span tree"
            trace = chrome_trace(report, request=resp.request_id)
            slices = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
            assert sorted(e["args"]["span_id"] for e in slices) == sorted(
                s.span_id for s in spans
            )
            assert any(e["args"].get("request") == resp.request_id for e in slices)


class TestBoundedWindows:
    def test_hit_seconds_window_is_bounded(self):
        with ScheduleServer(SimGPU(), CFG) as server:
            func = _matmul()
            requests = DEFAULT_WINDOW + 40
            for _ in range(requests):
                server.compile(func)
            assert server.stats().requests == requests
            series = _latency_series(server)
            assert series["outcome=hit"]["count"] == requests - 1
            assert len(series["outcome=hit"]["window"]) == DEFAULT_WINDOW
            for doc in series.values():
                assert len(doc["window"]) <= DEFAULT_WINDOW
            assert server.health()["window_size"] == DEFAULT_WINDOW + 1
