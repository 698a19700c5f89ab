"""Tests for the pluggable candidate-evaluation backends (§4.4 seam).

The load-bearing property is the determinism contract: both backends —
serial and processes, at any worker count — must find the same
programs, produce the same statistics (modulo worker-slot accounting)
and reject the same candidates for the same reasons.  The matrix test
asserts exactly that; the rest covers the protocol surface, the pickle
boundary, and the graceful-degradation paths.
"""

import pickle
import re

import pytest

from repro import cache as repro_cache
from repro.frontend import ops
from repro.meta import (
    CandidateSpec,
    GpuScalarSketch,
    ProcessEvaluator,
    SerialEvaluator,
    TensorCoreSketch,
    Telemetry,
    TuneConfig,
    evolutionary_search,
    get_evaluator,
    tune,
)
from repro.meta.evaluator import EvalContext, EvalOutcome, resolve_evaluator
from repro.obs import Recorder
from repro.sim import SimGPU
from repro.tir import parse_script, script, structural_hash

from ..common import build_matmul


def _search(evaluator, seed=3, trials=6):
    func = build_matmul(64, 64, 64, dtype="float16")
    config = TuneConfig(trials=trials, population=4, seed=seed)
    repro_cache.clear_all()
    return evolutionary_search(
        func, TensorCoreSketch(), SimGPU(), config, evaluator=evaluator
    )


@pytest.fixture(scope="module")
def process_pool():
    # Process workers are expensive to start on a small box — every test
    # in this module shares the registry instance (as real searches do).
    return get_evaluator(2)


@pytest.fixture(scope="module")
def one_process_pool():
    with ProcessEvaluator(1) as pool:
        yield pool


class TestBackendDeterminism:
    def test_matrix_identical_results(self, process_pool):
        """serial == processes(2), byte for byte."""
        results = {
            "serial": _search(SerialEvaluator()),
            "processes": _search(process_pool),
        }
        base = results["serial"]
        assert base.best_func is not None
        base_hash = structural_hash(base.best_func)
        for name, result in results.items():
            assert result.best_cycles == base.best_cycles, name
            assert structural_hash(result.best_func) == base_hash, name
            assert (
                result.stats.rejected_by_code == base.stats.rejected_by_code
            ), name
            assert (
                result.stats.search_signature() == base.stats.search_signature()
            ), name

    def test_worker_count_does_not_change_results(
        self, one_process_pool, process_pool
    ):
        one = _search(one_process_pool)
        two = _search(process_pool)
        assert one.best_cycles == two.best_cycles
        assert structural_hash(one.best_func) == structural_hash(two.best_func)
        assert one.stats.search_signature() == two.stats.search_signature()

    def test_slots_scale_with_workers_but_signature_excludes_them(
        self, one_process_pool, process_pool
    ):
        one = _search(one_process_pool)
        two = _search(process_pool)
        assert two.stats.eval_batch_slots == 2 * one.stats.eval_batch_slots
        assert "eval_batch_slots" not in one.stats.search_signature()
        assert one.stats.eval_batches > 0

    def test_clear_all_reaches_process_workers(self, process_pool):
        """A pass after ``clear_all()`` is cold in the workers too: the
        shared pool's workers serve no hit from an earlier pass."""
        for _ in range(2):
            before = repro_cache.worker_counts().get("search.candidates", (0, 0, 0))
            _search(process_pool)
            after = repro_cache.worker_counts()["search.candidates"]
            assert after[0] == before[0]
            assert after[1] > before[1]


class TestPickleBoundary:
    def test_candidate_spec_round_trip(self):
        spec = CandidateSpec(seed=17, forced=(4, (2, 8), "vectorize"), parent_trial=3)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.forced_list() == [4, (2, 8), "vectorize"]

    def test_tune_config_round_trip(self):
        config = TuneConfig(trials=9, seed=5, search_workers=3)
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.search_workers == 3

    def test_unpicklable_context_falls_back_to_serial(self, process_pool):
        # A distinct workload size: context blobs are cached by content
        # key, and a cached blob would mask the pickling failure.
        func = build_matmul(32, 32, 32, dtype="float16")
        sketch = TensorCoreSketch()
        sketch._poison = lambda: None  # lambdas cannot cross the pickle boundary
        ctx = EvalContext(func, sketch, SimGPU())
        specs = [CandidateSpec(seed=s) for s in (1, 2, 3)]
        before = process_pool.counters()["fallbacks"]
        outcomes = process_pool.evaluate(ctx, specs)
        assert process_pool.counters()["fallbacks"] == before + 1
        # The fallback is the serial build: submission order, one
        # outcome per spec, exactly one of (func, rejection) set.
        serial = SerialEvaluator().evaluate(ctx, specs)
        assert [o.spec for o in outcomes] == specs
        for outcome, expected in zip(outcomes, serial):
            assert isinstance(outcome, EvalOutcome)
            assert (outcome.func is None) != (outcome.rejection is None)
            assert outcome.rejection == expected.rejection
            assert outcome.decisions == expected.decisions


class TestProtocolSurface:
    def test_resolve_auto_serial_for_one_worker(self):
        ev = resolve_evaluator(TuneConfig(search_workers=1))
        assert isinstance(ev, SerialEvaluator)

    def test_resolve_processes_for_many_workers(self):
        ev = resolve_evaluator(TuneConfig(search_workers=3))
        assert isinstance(ev, ProcessEvaluator)
        assert ev.workers == 3

    def test_shared_registry_reuses_instances(self, process_pool):
        assert get_evaluator(2) is process_pool
        assert get_evaluator(1) is get_evaluator(1)

    def test_occupancy_counters_accumulate(self):
        ev = SerialEvaluator()
        _search(ev)
        assert ev.counters()["busy_seconds"] > 0

    def test_search_folds_counters_into_telemetry(self):
        """Batches and candidates are counted once, in the search's
        ``SearchStats``: the backend keeps only its own busy time and
        Telemetry only spans."""
        telemetry = Telemetry()
        evaluator = SerialEvaluator()
        func = build_matmul(64, 64, 64, dtype="float16")
        repro_cache.clear_all()
        result = evolutionary_search(
            func,
            TensorCoreSketch(),
            SimGPU(),
            TuneConfig(trials=4, population=4, seed=0),
            telemetry=telemetry,
            evaluator=evaluator,
        )
        stats = result.stats
        assert 0 < stats.eval_batches <= stats.eval_batch_candidates
        assert stats.eval_batch_candidates == stats.candidates_generated
        assert set(evaluator.counters()) == {"busy_seconds"}
        assert set(telemetry.report()) == {"spans", "stage_seconds"}

    def test_recording_is_identical_across_backends(self, process_pool):
        """Batch and candidate counts are a function of the search stream,
        not the backend; only worker slots scale with the pool.  The
        recorded rows, timestamps aside, are identical across backends."""
        config = TuneConfig(trials=4, population=4, seed=2)
        func = build_matmul(64, 64, 64, dtype="float16")

        def run(workers):
            recorder = Recorder()
            repro_cache.clear_all()
            result = evolutionary_search(
                func, GpuScalarSketch(), SimGPU(),
                config.with_(search_workers=workers), recorder=recorder,
            )
            doc = recorder.recording()
            rows = [
                [{k: v for k, v in row.items() if k != "ts"} for row in doc[kind]]
                for kind in ("trials", "rejections")
            ]
            return result.stats, rows

        (serial, serial_rows), (processes, process_rows) = run(1), run(2)
        assert serial.eval_batch_candidates > 0
        assert (serial.eval_batches, serial.eval_batch_candidates) == (
            processes.eval_batches, processes.eval_batch_candidates
        )
        assert processes.eval_batch_slots == 2 * serial.eval_batch_slots
        assert serial_rows[0] and serial_rows[1]
        assert serial_rows == process_rows


class TestRenamedWorkload:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_warm_tune_of_renamed_copy_matches_its_cold_tune(
        self, workers, process_pool
    ):
        """``structural_hash`` ignores names, so caches keyed on it alone
        served a renamed copy the original's program, and a process
        worker served one the other's context.  Every tune must print
        its own names, and a warm tune of the copy what it prints cold."""
        original = ops.matmul(64, 64, 64)
        renamed = parse_script(
            re.sub(r"\b[ABC]\b", lambda m: "XYZ"["ABC".index(m[0])], script(original))
        )
        assert structural_hash(renamed) == structural_hash(original)
        config = TuneConfig(trials=8, seed=1, search_workers=workers)

        def best(func):
            return script(tune(func, SimGPU(), config).best_func)

        repro_cache.clear_all()
        cold = best(renamed)
        assert "X: Buffer" in cold
        repro_cache.clear_all()
        assert "A: Buffer" in best(original)
        assert best(renamed) == cold


class TestIpcBatching:
    """Specs ship to process workers in chunks — one IPC round-trip per
    worker per batch — and chunking must be invisible to the search."""

    def test_chunking_is_contiguous_and_order_preserving(self):
        specs = [CandidateSpec(seed=s) for s in range(7)]
        chunks = ProcessEvaluator._chunk(specs, 3)
        assert len(chunks) == 3
        assert [len(c) for c in chunks] == [3, 2, 2]
        assert [s for chunk in chunks for s in chunk] == specs

    def test_chunk_count_never_exceeds_specs(self):
        specs = [CandidateSpec(seed=s) for s in range(2)]
        chunks = ProcessEvaluator._chunk(specs, 8)
        assert len(chunks) == 2
        assert all(len(c) == 1 for c in chunks)
        assert ProcessEvaluator._chunk(specs, 1) == [specs]

    def test_batched_evaluate_matches_serial(self, process_pool):
        func = build_matmul(64, 64, 64, dtype="float16")
        ctx = EvalContext(func, TensorCoreSketch(), SimGPU())
        specs = [CandidateSpec(seed=s) for s in range(9)]
        repro_cache.clear_all()
        serial = SerialEvaluator().evaluate(ctx, specs)
        batched = process_pool.evaluate(ctx, specs)
        assert [o.spec for o in batched] == specs
        for a, b in zip(serial, batched):
            assert a.rejection == b.rejection
            assert a.decisions == b.decisions
            if a.func is not None:
                assert structural_hash(a.func) == structural_hash(b.func)

    def test_ipc_batches_counter_counts_chunks_not_specs(self, process_pool):
        func = build_matmul(48, 48, 48, dtype="float16")
        ctx = EvalContext(func, TensorCoreSketch(), SimGPU())
        specs = [CandidateSpec(seed=s) for s in range(10)]
        before = process_pool.counters()["ipc_batches"]
        process_pool.evaluate(ctx, specs)
        grown = process_pool.counters()["ipc_batches"] - before
        assert 0 < grown <= process_pool.workers

    def test_empty_batch_is_a_noop(self, process_pool):
        func = build_matmul(32, 32, 32, dtype="float16")
        ctx = EvalContext(func, TensorCoreSketch(), SimGPU())
        assert process_pool.evaluate(ctx, []) == []
