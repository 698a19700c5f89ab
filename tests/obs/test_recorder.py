"""Tests for the flight recorder: event stream, provenance ledger,
lineage, replay, the live event feed, bounding, and the off switch.
"""

import json
import os
import threading

import pytest

from repro.meta import ObsConfig, Recorder, TuneConfig, evolutionary_search, tune
from repro.meta.sketch import TensorCoreSketch
from repro.obs import (
    EventStream,
    JsonlSink,
    Rejection,
    TrialEvent,
    load_recording,
    replay_trial,
)
from repro.sim import SimGPU

from ..common import build_matmul


def _rejection(n: int) -> Rejection:
    return Rejection(ts=float(n), task="t", sketch="s", generation=1,
                     stage="invalid", code="TIR105")


def _trial(n: int) -> TrialEvent:
    return TrialEvent(ts=float(n), task="t", sketch="s", generation=1,
                      trial_id=n, predicted=None, cycles=100.0, seconds=0.1,
                      bound="compute")


class TestEventStream:
    def test_bounded_ring_drops_oldest(self):
        stream = EventStream(max_events=4)
        for n in range(10):
            stream.emit(_trial(n))
        assert len(stream) == 4
        stats = stream.stats()
        assert stats == {"emitted": 10, "kept": 4, "dropped": 6}
        assert [e["trial_id"] for e in stream.events()] == [6, 7, 8, 9]

    def test_concurrent_emit_loses_nothing(self):
        stream = EventStream(max_events=100000)
        barrier = threading.Barrier(6)

        def worker():
            barrier.wait()
            for n in range(300):
                stream.emit(_trial(n))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert stream.stats()["emitted"] == 1800
        assert len(stream) == 1800


class TestJsonlSink:
    def test_lines_parse_and_reopen_after_close(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        sink = JsonlSink(path)
        sink.write({"kind": "a"})
        sink.close()
        sink.write({"kind": "b"})  # reopens in append mode
        sink.close()
        lines = [json.loads(l) for l in open(path)]
        assert [l["kind"] for l in lines] == ["a", "b"]
        assert sink.lines_written == 2


class TestRecorderOffSwitch:
    def test_disabled_recorder_is_a_noop(self):
        rec = Recorder(ObsConfig(enabled=False))
        assert not rec.enabled
        assert rec.trial(task="t", workload="w", sketch="s", generation=1,
                         parent=None, decisions=[]) is None
        rec.rejection("t", "s", 1, "invalid", "TIR105")
        rec.best_improved("t", 1, 100.0, None)
        rec.generation_end("t", "s", 1, 4, 2, 100.0)
        rec.model_update(8, True)
        rec.record_cache_delta({"x": {"hits": 1, "misses": 1}})
        assert rec.trials == []
        assert rec.stream.stats()["emitted"] == 0

    def test_recording_does_not_change_search_results(self):
        """The recorder consumes no search RNG: recorded and unrecorded
        runs must find the identical best program."""
        func = build_matmul(128, 128, 128, dtype="float16")
        cfg = TuneConfig(trials=6, population=4, seed=3)
        plain = evolutionary_search(func, TensorCoreSketch(), SimGPU(), cfg)
        recorded = evolutionary_search(
            func, TensorCoreSketch(), SimGPU(),
            cfg.with_(obs=ObsConfig(enabled=True)),
        )
        assert recorded.best_cycles == plain.best_cycles
        assert recorded.best_decisions == plain.best_decisions
        assert recorded.stats.measured == plain.stats.measured


@pytest.fixture(scope="module")
def recorded_search():
    """One recorded evolutionary search, shared by the ledger tests."""
    func = build_matmul(128, 128, 128, dtype="float16")
    rec = Recorder(ObsConfig(enabled=True))
    result = evolutionary_search(
        func, TensorCoreSketch(), SimGPU(),
        TuneConfig(trials=8, population=6, seed=0), recorder=rec,
    )
    return func, rec, result


class TestProvenanceLedger:
    def test_every_measured_trial_is_replayable(self, recorded_search):
        func, rec, result = recorded_search
        measured = [t for t in rec.trials if t.cycles is not None]
        assert len(measured) == result.stats.measured
        for record in measured:
            assert record.trace is not None
            assert record.structural_hash is not None
            rebuilt = replay_trial(record, func)
            # replay_trial itself asserts the hash; double-check anyway.
            from repro.tir import structural_hash
            assert structural_hash(rebuilt) == record.structural_hash

    def test_ledger_matches_best_result(self, recorded_search):
        func, rec, result = recorded_search
        measured = [t for t in rec.trials if t.cycles is not None]
        best = min(measured, key=lambda t: t.cycles)
        assert best.cycles == result.best_cycles
        rebuilt = replay_trial(best, func)
        from repro.tir import structural_hash
        assert structural_hash(rebuilt) == structural_hash(result.best_func)

    def test_lineage_references_existing_trials(self, recorded_search):
        _, rec, _ = recorded_search
        ids = {t.trial_id for t in rec.trials}
        for t in rec.trials:
            if t.parent is not None:
                assert t.parent in ids
                assert t.parent < t.trial_id
        # With mutation probability 0.7 and several generations, at
        # least one measured candidate descends from an elite.
        assert any(t.parent is not None for t in rec.trials)

    def test_trial_metadata(self, recorded_search):
        _, rec, _ = recorded_search
        for t in rec.trials:
            assert t.task == "matmul"
            assert t.sketch.startswith("tensor-core")
            assert t.workload  # database-compatible workload key
            assert t.generation >= 1
            assert t.decisions

    def test_hash_mismatch_rejected(self, recorded_search):
        func, rec, _ = recorded_search
        record = next(t for t in rec.trials if t.trace is not None)
        doc = record.to_json()
        doc["structural_hash"] = 12345
        with pytest.raises(ValueError, match="hash"):
            replay_trial(doc, func)

    def test_trial_without_trace_rejected(self, recorded_search):
        func, rec, _ = recorded_search
        doc = rec.trials[0].to_json()
        doc["trace"] = None
        with pytest.raises(ValueError, match="no serialized trace"):
            replay_trial(doc, func)


class TestCallbacksAndArtifact:
    def test_live_callbacks_fire(self, tmp_path):
        """The live progress feed is the recording itself: generation and
        best-improved events, streamed to the JSONL sink as they occur."""
        sink = tmp_path / "run.jsonl"
        cfg = TuneConfig(
            trials=4, population=4, seed=0,
            obs=ObsConfig(enabled=True, sink_path=str(sink)),
        )
        rec = Recorder(cfg.obs)
        func = build_matmul(64, 64, 64, dtype="float16")
        result = tune(func, SimGPU(), cfg, recorder=rec)
        rec.close()
        assert result.best_func is not None
        assert rec.stream.events("generation")
        # tune() searches each sketch separately; the curve is strictly
        # decreasing within a search and restarts (previous=None) when
        # the next sketch's search begins.
        bests = rec.stream.events("best-improved")
        assert bests
        assert bests[0]["previous"] is None
        for prev, cur in zip(bests, bests[1:]):
            if cur["previous"] is None:
                continue  # new search started
            assert cur["cycles"] < prev["cycles"]
            assert cur["previous"] == pytest.approx(prev["cycles"])
        # The sink holds one parseable line per event, in emit order.
        lines = [json.loads(l) for l in open(sink)]
        assert lines == rec.stream.events()

    def test_save_and_load_roundtrip(self, tmp_path, recorded_search):
        _, rec, _ = recorded_search
        path = str(tmp_path / "run.json")
        doc = rec.save(path)
        loaded = load_recording(path)
        assert loaded["schema"] == "repro.obs/1"
        assert loaded["trials"] == json.loads(json.dumps(doc["trials"]))
        assert loaded["event_stats"]["emitted"] == doc["event_stats"]["emitted"]
        # Atomic write leaves no temp files behind.
        leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        assert leftovers == []
