"""Tests for the flight recorder: one row per candidate (the trial
ledger and the rejection rows), lineage, replay from sketch and
decisions, the derived best-cost curve, and that recording never
changes what a search finds or how many candidates it builds.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro import cache as repro_cache
from repro.frontend import ops
from repro.meta import Recorder, TuneConfig, evolutionary_search, tune
from repro.meta.sketch import (
    SKETCHES,
    CpuScalarSketch,
    CpuSdotSketch,
    GpuScalarSketch,
    TensorCoreSketch,
)
from repro.obs import diff_recordings, load_recording, replay_trial
from repro.obs.export import _best_curve, _rejection_mix
from repro.sim import SimCPU, SimGPU, Target
from repro.tir import structural_hash

from ..common import build_matmul
from ..meta.test_hotpath_caches import IdentitySketch


class TestRecordingIsPassive:
    def test_recording_does_not_change_search_results(self):
        """The recorder consumes no search RNG: recorded and unrecorded
        runs must find the identical best program."""
        func = build_matmul(128, 128, 128, dtype="float16")
        cfg = TuneConfig(trials=6, population=4, seed=3)
        plain = evolutionary_search(func, TensorCoreSketch(), SimGPU(), cfg)
        rec = Recorder()
        recorded = evolutionary_search(
            func, TensorCoreSketch(), SimGPU(), cfg, recorder=rec
        )
        assert rec.trials
        assert recorded.best_cycles == plain.best_cycles
        assert recorded.best_decisions == plain.best_decisions
        assert recorded.stats.measured == plain.stats.measured

    def test_recorded_tune_builds_each_candidate_once(self, monkeypatch):
        """A trial row keeps the sketch and decisions the search built
        from, so recording rebuilds nothing: a recorded ``tune()`` makes
        exactly the ``Sketch.apply`` calls of an unrecorded one."""
        calls = []
        for cls in SKETCHES.values():
            def counted(self, sch, state, _apply=cls.apply):
                calls.append(type(self).__name__)
                return _apply(self, sch, state)
            monkeypatch.setattr(cls, "apply", counted)

        def applies(recorder):
            repro_cache.clear_all()
            calls.clear()
            result = tune(
                ops.matmul(64, 64, 64), SimGPU(), TuneConfig(trials=6, seed=4),
                recorder=recorder,
            )
            return len(calls), result

        plain, plain_result = applies(None)
        rec = Recorder()
        recorded, recorded_result = applies(rec)
        assert plain_result.stats.measured > 0
        assert sum(t.cycles is not None for t in rec.trials) == plain_result.stats.measured
        assert recorded == plain
        assert recorded_result.best_decisions == plain_result.best_decisions


@pytest.fixture(scope="module")
def recorded_search():
    """One recorded evolutionary search, shared by the ledger tests."""
    func = build_matmul(128, 128, 128, dtype="float16")
    rec = Recorder()
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
            assert record.structural_hash is not None
            rebuilt = replay_trial(record, func)
            # replay_trial itself asserts the hash; double-check anyway.
            assert structural_hash(rebuilt) == record.structural_hash

    def test_ledger_matches_best_result(self, recorded_search):
        func, rec, result = recorded_search
        measured = [t for t in rec.trials if t.cycles is not None]
        best = min(measured, key=lambda t: t.cycles)
        assert best.cycles == result.best_cycles
        rebuilt = replay_trial(best, func)
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
        record = next(t for t in rec.trials if t.cycles is not None)
        doc = record.to_json()
        doc["structural_hash"] = 12345
        with pytest.raises(ValueError, match="hash"):
            replay_trial(doc, func)

    @pytest.mark.parametrize(
        "token",
        [
            "warp-specialized",
            "tensor-core@no_such_intrin",
            "tensor-core@wmma_fill_16x16_f16",
            "gpu-scalar@wmma_16x16x16_f16",
        ],
    )
    def test_unknown_sketch_token_rejected(self, recorded_search, token):
        func, rec, _ = recorded_search
        doc = next(t for t in rec.trials if t.cycles is not None).to_json()
        doc["sketch"] = token
        with pytest.raises(ValueError, match="unknown sketch token"):
            replay_trial(doc, func)

    def test_decisions_that_no_longer_fit_rejected(self, recorded_search):
        func, rec, _ = recorded_search
        doc = next(t for t in rec.trials if t.cycles is not None).to_json()
        doc["decisions"][0] = 99  # no sketch choice has 99 candidates
        with pytest.raises(ValueError, match="do not fit"):
            replay_trial(doc, func)


#: one search per sketch kind: (sketch, workload, target)
_KINDS = {
    "tensor-core": (TensorCoreSketch, lambda: build_matmul(64, 64, 64, "float16"), SimGPU),
    "gpu-scalar": (GpuScalarSketch, lambda: build_matmul(64, 64, 64), SimGPU),
    "cpu-sdot": (
        CpuSdotSketch, lambda: ops.matmul(64, 64, 64, "int8", "int32"), SimCPU,
    ),
    "cpu-scalar": (
        CpuScalarSketch, lambda: ops.matmul(64, 64, 64, "int8", "int32"), SimCPU,
    ),
}


class TestReplayEverySketch:
    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_every_measured_trial_verifies(self, kind):
        """Each sketch's trial rows rebuild, from token and decisions,
        to the program the search measured."""
        sketch_cls, build, target_cls = _KINDS[kind]
        func = build()
        rec = Recorder()
        result = evolutionary_search(
            func, sketch_cls(), target_cls(),
            TuneConfig(trials=4, population=4, seed=1), recorder=rec,
        )
        measured = [t for t in rec.trials if t.cycles is not None]
        assert len(measured) == result.stats.measured > 0
        assert {t.sketch for t in measured} == {sketch_cls().token()}
        for row in measured:
            rebuilt = replay_trial(row, func)
            assert structural_hash(rebuilt) == row.structural_hash


_SAVE = """
import sys
from repro.frontend import ops
from repro.meta import Recorder, TuneConfig, tune
from repro.sim import SimGPU
rec = Recorder()
tune(ops.matmul(32, 32, 32), SimGPU(), TuneConfig(trials=4, seed=0), recorder=rec)
rec.save(sys.argv[1])
"""

_VERIFY = """
import sys
from repro.frontend import ops
from repro.obs import load_recording, replay_trial
rows = [t for t in load_recording(sys.argv[1])["trials"] if t["cycles"] is not None]
for row in rows:
    replay_trial(row, ops.matmul(32, 32, 32))
print(len(rows))
"""


class TestCrossProcessReplay:
    def test_recording_verifies_in_another_process_with_the_same_hash_seed(
        self, tmp_path
    ):
        """``structural_hash`` folds in nothing that follows an object's
        address, so a recording saved by one process verifies in another
        that shares its ``PYTHONHASHSEED``."""
        path = str(tmp_path / "run.json")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
        for script in (_SAVE, _VERIFY):
            done = subprocess.run(
                [sys.executable, "-c", script, path], env=env,
                capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
        assert int(done.stdout) > 0


@pytest.fixture(scope="module")
def recorded_tune():
    """One recorded ``tune()`` over every applicable sketch."""
    rec = Recorder()
    result = tune(
        ops.matmul(128, 128, 128), SimGPU(), TuneConfig(trials=8, seed=3),
        recorder=rec,
    )
    return rec, result


class TestOneRowPerCandidate:
    def test_rejection_mix_equals_search_stats(self, recorded_tune):
        rec, result = recorded_tune
        mix = _rejection_mix(rec.recording())
        assert mix == dict(result.stats.rejected_by_code)
        assert sum(mix.values()) == len(rec.rejections) + sum(
            1 for t in rec.trials if t.rejection is not None
        )
        assert {r.stage for r in rec.rejections} <= {"apply", "invalid"}

    def test_measured_trials_are_the_trial_rows_with_cycles(self, recorded_tune):
        rec, result = recorded_tune
        measured = [t for t in rec.trials if t.cycles is not None]
        assert len(measured) == result.stats.measured
        assert [t.trial_id for t in rec.trials] == list(range(1, len(rec.trials) + 1))

    def test_measurer_refusal_is_only_a_trial_row(self):
        # An abstract target has no performance model: every candidate
        # that reaches the measurer is refused (TIR501) and recorded
        # once, as a trial row carrying the code.
        rec = Recorder()
        result = evolutionary_search(
            ops.matmul(16, 16, 16), IdentitySketch(), Target(),
            TuneConfig(trials=4, seed=0, validate=False, generations=1),
            recorder=rec,
        )
        refused = result.stats.rejected_by_code["TIR501"]
        assert refused > 0 and result.stats.measured == 0
        assert [t.rejection for t in rec.trials] == ["TIR501"] * refused
        assert all(t.cycles is None for t in rec.trials)
        assert rec.rejections == []
        assert _rejection_mix(rec.recording()) == {"TIR501": refused}

    def test_best_cost_curve_is_derived_from_trials(self, recorded_tune):
        """The curve is the running minimum of trial cycles per task, in
        trial-id order: strictly decreasing, ending at the best found."""
        rec, result = recorded_tune
        doc = rec.recording()
        curve = _best_curve(doc, "matmul")
        assert curve
        assert all(b < a for a, b in zip(curve, curve[1:]))
        assert curve[-1] == result.best_cycles
        text = diff_recordings(doc, doc)
        assert f"{len(curve)}/{len(curve)}" in text

    def test_save_and_load_roundtrip(self, tmp_path, recorded_search):
        _, rec, _ = recorded_search
        path = str(tmp_path / "run.json")
        doc = rec.save(path)
        loaded = load_recording(path)
        assert loaded["schema"] == "repro.obs/3"
        assert loaded["trials"] == json.loads(json.dumps(doc["trials"]))
        assert loaded["rejections"] == json.loads(json.dumps(doc["rejections"]))
        assert len(loaded["trials"]) == len(rec.trials)
        assert len(loaded["rejections"]) == len(rec.rejections)
        assert "telemetry" not in loaded  # no spans were handed to save
        # Atomic write leaves no temp files behind.
        leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        assert leftovers == []


def _search_recorder(task, parents):
    """A recorder as one search leaves it: a trial per entry of
    ``parents`` (the index of its mutation parent, or ``None``) and one
    rejection."""
    rec = Recorder()
    rows = []
    for generation, parent in enumerate(parents):
        rows.append(rec.trial(
            task=task, workload=f"key-{task}", sketch="gpu-scalar",
            generation=generation,
            parent=None if parent is None else rows[parent].trial_id,
            decisions=[generation], cycles=100.0 - generation,
        ))
    rec.rejection(task, "gpu-scalar", 0, "invalid", "TIR401")
    return rec


class TestAdopt:
    """A session's recorder takes each search's rows in task order, from
    a recorder of the search's own — in a worker process at width 2."""

    def test_adopted_trials_continue_the_id_sequence(self):
        session = Recorder()
        session.trial(task="own", workload="k", sketch="s", generation=0,
                      parent=None, decisions=[])
        first = _search_recorder("a", [None, 0, 1])
        second = _search_recorder("b", [None, 0, 0])
        session.adopt(first.trials, first.rejections)
        session.adopt(second.trials, second.rejections)
        assert [t.trial_id for t in session.trials] == list(range(1, 8))
        assert [(t.task, t.parent) for t in session.trials[1:]] == [
            ("a", None), ("a", 2), ("a", 3), ("b", None), ("b", 5), ("b", 5),
        ]
        # The search's own recorder is left as it was.
        assert [t.trial_id for t in second.trials] == [1, 2, 3]
        # A trial recorded after adopting takes the next id.
        after = session.trial(task="own", workload="k", sketch="s", generation=1,
                              parent=None, decisions=[])
        assert after.trial_id == 8

    def test_adopted_rows_keep_their_content(self):
        search = _search_recorder("a", [None, 0])
        session = Recorder()
        session.adopt(search.trials, search.rejections)
        skip = {"trial_id", "parent"}
        assert [
            {k: v for k, v in t.to_json().items() if k not in skip} for t in session.trials
        ] == [
            {k: v for k, v in t.to_json().items() if k not in skip} for t in search.trials
        ]
        assert session.rejections == search.rejections
        assert _rejection_mix(session.recording()) == {"TIR401": 1}
