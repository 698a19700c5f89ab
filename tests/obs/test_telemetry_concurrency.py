"""Concurrency stress tests for the Telemetry span collector.

One Telemetry is shared by a schedule server's client threads and its
miss worker, so spans and the hierarchy links must survive
unsynchronized hammering from many threads without losing or corrupting
records.
"""

import threading

import pytest

from repro.meta import Telemetry


N_THREADS = 8
N_ITERS = 200


class TestConcurrentStress:
    def _hammer(self, t: Telemetry, barrier: threading.Barrier):
        barrier.wait()
        for i in range(N_ITERS):
            with t.span("outer", task="w"):
                with t.span("inner", task="w"):
                    pass
            t.add("accumulated", 0.001, task="w")

    def test_no_lost_spans_or_counts(self):
        t = Telemetry()
        barrier = threading.Barrier(N_THREADS)
        threads = [
            threading.Thread(target=self._hammer, args=(t, barrier))
            for _ in range(N_THREADS)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()

        total = N_THREADS * N_ITERS
        assert len(t.spans) == 3 * total
        assert len({s.thread for s in t.spans if s.stage == "inner"}) == N_THREADS

    def test_span_ids_unique_and_parents_resolve(self):
        t = Telemetry()
        barrier = threading.Barrier(N_THREADS)
        threads = [
            threading.Thread(target=self._hammer, args=(t, barrier))
            for _ in range(N_THREADS)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()

        ids = [s.span_id for s in t.spans]
        assert len(ids) == len(set(ids))
        known = set(ids)
        by_id = {s.span_id: s for s in t.spans}
        for s in t.spans:
            if s.parent_id is not None:
                assert s.parent_id in known
            # Nesting is per-thread: every inner span's parent is an
            # outer span recorded on the same thread.
            if s.stage == "inner":
                assert by_id[s.parent_id].stage == "outer"
                assert by_id[s.parent_id].thread == s.thread

    def test_leaf_only_aggregation_under_concurrency(self):
        """stage_seconds counts leaves only: 'outer' spans all have an
        'inner' child, so only inner/accumulated seconds appear."""
        t = Telemetry()
        barrier = threading.Barrier(4)
        threads = [
            threading.Thread(target=self._hammer, args=(t, barrier))
            for _ in range(4)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        stages = t.stage_seconds()
        assert "outer" not in stages  # container, never a leaf
        assert "inner" in stages and "accumulated" in stages
        assert stages["accumulated"] == pytest.approx(4 * N_ITERS * 0.001)

    def test_concurrent_report_while_writing(self):
        """report()/stage_seconds() snapshots must not crash or corrupt
        while writers are active."""
        t = Telemetry()
        stop = threading.Event()
        errors = []

        def writer():
            while not stop.is_set():
                with t.span("stage", task="x"):
                    pass

        def reader():
            try:
                while not stop.is_set():
                    rep = t.report()
                    assert isinstance(rep["spans"], list)
                    t.stage_seconds()
            except Exception as err:  # pragma: no cover - failure path
                errors.append(err)

        threads = [threading.Thread(target=writer) for _ in range(3)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for th in threads:
            th.start()
        stop_timer = threading.Timer(0.3, stop.set)
        stop_timer.start()
        for th in threads:
            th.join()
        stop_timer.cancel()
        assert errors == []
