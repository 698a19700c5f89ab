"""Bucket-aware serving (``ServeConfig.buckets``).

The contract: once a bucket representative is tuned, every other shape
in the bucket is served by adaptive replay with **zero** trials
(``source == "bucket-hit"``), two in-bucket shapes missing in one batch
window coalesce into **one** tuning run at the representative shape,
and an infeasible replay falls back to a fresh tune (``TIR702``) rather
than failing the request.
"""

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.frontend import ops
from repro.frontend.shapes import BucketSpec
from repro.meta import Telemetry, TuneConfig, TuningDatabase, tune
from repro.meta.database import workload_key
from repro.runtime import random_args, run
from repro.runtime.interp import interpret
from repro.serve import ScheduleServer, ServeConfig
from repro.sim import SimGPU, estimate

CFG = ServeConfig(
    tune=TuneConfig(trials=4, seed=0),
    buckets=BucketSpec.pow2("n"),
)


def _matmul(n):
    return ops.matmul(n, 32, 32)


def _conv(n):
    return ops.conv2d(n, 6, 6, 4, 4, 3, 3, dtype="float32")


class TestBucketHits:
    def test_unseen_in_bucket_shape_served_with_zero_trials(self):
        with ScheduleServer(SimGPU(), CFG) as server:
            first = server.compile(_matmul(64))
            assert first.source == "miss" and first.trials > 0
            probe = server.compile(_matmul(56))
            assert probe.source == "bucket-hit"
            assert probe.trials == 0
            stats = server.stats()
        assert stats.bucket_hits == 1
        assert stats.replay_fallbacks == 0
        assert stats.tune_runs == 1

    def test_warm_bucket_hits_are_memoized_per_shape(self):
        with ScheduleServer(SimGPU(), CFG) as server:
            server.compile(_matmul(64))
            cold = server.compile(_matmul(56))
            warm = server.compile(_matmul(56))
            assert warm.source == "bucket-hit" and warm.trials == 0
            assert warm.script == cold.script
            # A different in-bucket shape gets its own program.
            other = server.compile(_matmul(48))
            assert other.source == "bucket-hit"
            assert other.script != cold.script
            stats = server.stats()
        assert stats.bucket_hits == 3
        assert stats.tune_runs == 1

    def test_hit_rate_counts_bucket_hits(self):
        with ScheduleServer(SimGPU(), CFG) as server:
            server.compile(_matmul(64))
            server.compile(_matmul(56))
            server.compile(_matmul(48))
            stats = server.stats()
        assert stats.hit_rate == 2 / 3
        payload = stats.to_json()
        assert payload["bucket_hits"] == 2
        assert "replay_fallbacks" in payload

    def test_telemetry_counter(self):
        # Bucket hits are counted once, in ServerStats; on the serve path
        # Telemetry keeps spans only.
        telemetry = Telemetry()
        with ScheduleServer(SimGPU(), CFG, telemetry=telemetry) as server:
            server.compile(_matmul(64))
            server.compile(_matmul(56))
            assert server.stats().bucket_hits == 1
        assert sum(s.stage == "serve-request" for s in telemetry.spans) == 2

    def test_exact_serving_unchanged_without_buckets(self):
        with ScheduleServer(SimGPU(), CFG.with_(buckets=None)) as server:
            server.compile(_matmul(64))
            probe = server.compile(_matmul(56))
            assert probe.source == "miss" and probe.trials > 0
            stats = server.stats()
        assert stats.bucket_hits == 0
        assert stats.tune_runs == 2


def _matches_oracle(base, served):
    args = random_args(base, seed=0)
    oracle = {k: v.copy() for k, v in args.items()}
    interpret(base, oracle)
    run(served, args)
    tol = 2e-2 if any(b.dtype == "float16" for b in base.buffers) else 1e-4
    return all(np.allclose(oracle[k], args[k], rtol=tol, atol=tol) for k in oracle)


class TestShapeSweeps:
    @pytest.mark.parametrize(
        "build, sizes, unseen",
        [(_conv, [2, 4, 6], [5, 7]), (_matmul, [32, 48, 96], [80])],
        ids=["batch_conv2d", "seq_matmul"],
    )
    def test_sweep_served_from_buckets(self, build, sizes, unseen):
        """Non-pow2 sizes tune their representative, the unseen probes
        land in tuned buckets: 0 trials, within 1.25x of tuning the exact
        shape, equal to the interpreter oracle."""
        with ScheduleServer(SimGPU(), CFG) as server:
            for size in sizes + unseen:
                func = build(size)
                resp = server.compile(func)
                exact = tune(func, SimGPU(), CFG.tune).best_report.seconds
                assert estimate(resp.func, SimGPU()).seconds <= 1.25 * exact, size
                assert _matches_oracle(func, resp.func), size
                if size in unseen:
                    assert resp.trials == 0 and resp.source in ("hit", "bucket-hit")
            assert server.stats().bucket_hits >= 1


class TestInBucketCoalescing:
    def test_two_in_bucket_shapes_share_one_tuning_run(self):
        cfg = CFG.with_(batch_window_seconds=0.3)
        n = 2
        with ScheduleServer(SimGPU(), cfg) as server:
            barrier = threading.Barrier(n)
            responses = [None] * n

            def request(i, size):
                barrier.wait()
                responses[i] = server.compile(_matmul(size))

            threads = [
                threading.Thread(target=request, args=(i, size))
                for i, size in enumerate((100, 90))  # both bucket to 128
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = server.stats()
        assert stats.tune_runs == 1
        assert stats.tuned_workloads == 1  # one rep tuned, not two shapes
        sources = sorted(r.source for r in responses)
        assert sources.count("miss") == 1
        assert sources.count("coalesced") == 1
        # The coalesced waiter paid zero trials; both got a program for
        # their own concrete shape.
        by_source = {r.source: r for r in responses}
        assert by_source["coalesced"].trials == 0
        assert responses[0].script != responses[1].script


class TestReplayFallback:
    def test_unreadable_stored_decision_is_tuned_afresh(self):
        # The representative's record holds a decision the coercer cannot
        # interpret: an in-bucket request is served by the TIR702 fresh
        # tune at its own shape, not by a program redrawn at replay.
        db = TuningDatabase()
        key = workload_key(_matmul(64), SimGPU())
        tune(_matmul(64), SimGPU(), CFG.tune, database=db)
        entry = db.get(key)
        db.evict(key)
        db.put(replace(entry, decisions=[[1, 2]] + list(entry.decisions[1:])))
        with ScheduleServer(SimGPU(), CFG, database=db) as server:
            resp = server.compile(_matmul(56))
            stats = server.stats()
        assert resp.source == "miss" and resp.trials > 0
        assert stats.bucket_hits == 0 and stats.replay_fallbacks == 1
        assert server.diagnostics.counts_by_code().get("TIR702", 0) == 1
        assert _matches_oracle(_matmul(56), resp.func)

    def test_infeasible_replay_falls_back_to_a_new_tune(self):
        with ScheduleServer(SimGPU(), CFG) as server:
            rep = server.compile(_conv(4))
            assert rep.source == "miss"
            probe = server.compile(_conv(3))
            stats = server.stats()
            if stats.replay_fallbacks == 0:
                # The decision vector happened to adapt at this budget —
                # then the probe is a plain bucket-hit.
                assert probe.source == "bucket-hit"
                return
            # Replay was infeasible: the request still got a tuned
            # program, with honest miss accounting and a TIR702 trail.
            assert probe.source == "miss" and probe.trials > 0
            assert stats.replay_fallbacks >= 1
            assert server.diagnostics.counts_by_code().get("TIR702", 0) >= 1
            # The fresh tune recorded the exact shape: next request hits.
            again = server.compile(_conv(3))
            assert again.source == "hit" and again.trials == 0
