"""Cross-shape (§5.2 forced-decision) replay through the database.

A record tuned at a bucket representative must replay at any other
shape in the bucket.  The record picks the replay mode: at a shape
whose key is not its own, each stored decision is coerced to the
nearest feasible choice at the new extents; at its own key every
decision must hold as stored.  A sketch constraint that cannot hold at
the concrete shape surfaces as ``None`` plus a ``TIR701`` diagnostic —
never as a crash or a silently wrong program.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diagnostics import DiagnosticContext
from repro.frontend import ops
from repro.frontend.shapes import BucketSpec, canonicalize
import repro.meta.session as session_module
from repro.meta import TuneConfig, TuningDatabase, TuningSession, tune
from repro.meta.database import workload_key
from repro.runtime import run as run_program
from repro.runtime.executor import random_args
from repro.runtime.interp import interpret
from repro.schedule.sampling import coerce_categorical, coerce_perfect_tile
from repro.sim import SimGPU
from repro.tir import script

from .test_session import CountingDatabase

CONFIG = TuneConfig(trials=4, seed=0)


def _conv(n):
    return ops.conv2d(n, 6, 6, 4, 4, 3, 3, dtype="float32")


def _oracle_matches(func, sch, *, fp16):
    args = random_args(func, seed=0)
    oracle = {k: v.copy() for k, v in args.items()}
    interpret(func, oracle)
    got = {k: v.copy() for k, v in args.items()}
    run_program(sch.func, got)
    tol = dict(rtol=2e-2, atol=2e-2) if fp16 else dict(rtol=1e-4, atol=1e-4)
    return all(np.allclose(oracle[k], got[k], **tol) for k in oracle)


def _replay_at_concrete_shape(db, bucketed, target, ctx=None):
    """The bucket representative's stored record replayed at the concrete
    shape — adaptively, as the record picks, unless the bucket is
    degenerate."""
    entry = db.get(workload_key(bucketed.representative, target))
    return db.replay_entry(bucketed.concrete, entry, ctx=ctx)


class TestCoercion:
    def test_perfect_tile_feasible_decision_reproduced(self):
        # Every factor divides: strict replays are unaffected by the
        # coercion path.
        assert coerce_perfect_tile([4, 2, 4], 32, 3) == [4, 2, 4]

    def test_perfect_tile_non_dividing_factor_shrinks(self):
        # Stored innermost 16 does not divide 24: largest divisor <= 16
        # is 12; the outer factor absorbs the quotient.
        assert coerce_perfect_tile([2, 16], 24, 2) == [2, 12]

    def test_perfect_tile_product_always_matches_extent(self):
        for extent in (7, 12, 24, 56, 100):
            tiles = coerce_perfect_tile([4, 8], extent, 2)
            assert tiles is not None
            assert tiles[0] * tiles[1] == extent

    def test_perfect_tile_respects_max_innermost(self):
        tiles = coerce_perfect_tile([1, 128], 256, 2, max_innermost_factor=64)
        assert tiles[1] <= 64 and tiles[0] * tiles[1] == 256

    def test_perfect_tile_uninterpretable_decision(self):
        assert coerce_perfect_tile("nope", 32, 2) is None
        assert coerce_perfect_tile([4, 8], None, 2) is None
        assert coerce_perfect_tile([4], 32, 2) is None  # wrong arity
        assert coerce_perfect_tile([4, True], 32, 2) is None

    def test_categorical_clamps_into_range(self):
        assert coerce_categorical(5, 3) == 2
        assert coerce_categorical(-1, 3) == 0
        assert coerce_categorical(1, 3) == 1  # in-range is identity

    def test_categorical_uninterpretable(self):
        assert coerce_categorical(1, 0) is None
        assert coerce_categorical("x", 3) is None
        assert coerce_categorical(True, 3) is None


class TestAdaptiveReplay:
    def test_replay_at_smaller_in_bucket_shape(self):
        # Tensor-core matmul: the rep-64 record replays at n=56 (the
        # sketch's pad_einsum re-pads to the intrinsic tile at the new
        # shape) and stays numerically equal to the interpreter.
        target = SimGPU()
        db = TuningDatabase()
        tune(ops.matmul(64, 32, 32), target, CONFIG, database=db)
        ctx = DiagnosticContext()
        bucketed = canonicalize(ops.matmul(56, 32, 32), BucketSpec.pow2("n"))
        sch = _replay_at_concrete_shape(db, bucketed, target, ctx=ctx)
        assert sch is not None
        assert _oracle_matches(ops.matmul(56, 32, 32), sch, fp16=True)

    def test_degenerate_bucket_replays_strict(self):
        target = SimGPU()
        db = TuningDatabase()
        tune(ops.matmul(64, 32, 32), target, CONFIG, database=db)
        bucketed = canonicalize(ops.matmul(64, 32, 32), BucketSpec.pow2("n"))
        assert not bucketed.bucketed
        sch = _replay_at_concrete_shape(db, bucketed, target)
        assert sch is not None and sch.adapted_decisions == 0

    def test_adapted_decisions_counted(self):
        # Replaying a gpu-scalar conv record at a different batch forces
        # at least one tile/categorical coercion.
        target = SimGPU()
        db = TuningDatabase()
        tune(_conv(8), target, CONFIG, database=db)
        bucketed = canonicalize(_conv(5), BucketSpec.pow2("n"))
        sch = _replay_at_concrete_shape(db, bucketed, target)
        assert sch is not None
        assert sch.adapted_decisions > 0
        assert _oracle_matches(_conv(5), sch, fp16=False)

    def test_missing_representative_record_returns_none(self):
        db = TuningDatabase()
        bucketed = canonicalize(_conv(5), BucketSpec.pow2("n"))
        assert db.get(workload_key(bucketed.representative, SimGPU())) is None

    def test_same_key_record_replays_strictly(self):
        # An out-of-range categorical decision: at the record's own key
        # it is replayed as stored and rejected (TIR701), never clamped;
        # the same record at an in-bucket shape is coerced.
        target = SimGPU()
        db = TuningDatabase()
        tune(ops.matmul(64, 32, 32), target, CONFIG, database=db)
        entry = db.get(workload_key(ops.matmul(64, 32, 32), target))
        assert entry.sketch == "tensor-core" and entry.decisions[0] == 1
        broken = replace(entry, decisions=[7] + list(entry.decisions[1:]))
        ctx = DiagnosticContext()
        assert db.replay_entry(ops.matmul(64, 32, 32), broken, ctx=ctx) is None
        assert ctx.counts_by_code() == {"TIR701": 1}
        ctx = DiagnosticContext()
        sch = db.replay_entry(ops.matmul(56, 32, 32), broken, ctx=ctx)
        assert sch is not None and sch.adapted_decisions >= 1
        assert ctx.counts_by_code() == {}
        assert _oracle_matches(ops.matmul(56, 32, 32), sch, fp16=True)

    def test_unreadable_stored_decision_is_rejected_not_redrawn(self):
        # A stored decision the coercer cannot interpret is rejected in
        # adapt mode as in strict mode (TIR701): redrawing it from the
        # replay's RNG would serve a program that is not the record's.
        target = SimGPU()
        db = TuningDatabase()
        tune(ops.matmul(64, 32, 32), target, CONFIG, database=db)
        entry = db.get(workload_key(ops.matmul(64, 32, 32), target))
        assert entry.sketch == "tensor-core" and entry.decisions[0] == 1
        broken = replace(entry, decisions=[[1, 2]] + list(entry.decisions[1:]))
        for n in (64, 56):  # the record's own key (strict), an in-bucket shape
            ctx = DiagnosticContext()
            func = ops.matmul(n, 32, 32)
            assert db.replay_entry(func, broken, ctx=ctx) is None
            assert ctx.counts_by_code() == {"TIR701": 1}, n

    def test_infeasible_adapt_replay_emits_tir701(self):
        # n=3 from the rep-4 conv record is infeasible even under adapt
        # at this budget (the gpu-scalar sketch's thread-count floor):
        # replay must degrade to None + TIR701, never crash.
        target = SimGPU()
        db = TuningDatabase()
        tune(_conv(4), target, CONFIG, database=db)
        ctx = DiagnosticContext()
        bucketed = canonicalize(_conv(3), BucketSpec.pow2("n"))
        sch = _replay_at_concrete_shape(db, bucketed, target, ctx=ctx)
        if sch is not None:
            pytest.skip("decision vector happens to adapt at this budget")
        assert ctx.counts_by_code().get("TIR701", 0) >= 1


@pytest.fixture(scope="module")
def representatives():
    """One database holding a tensor-core fp16 matmul tuned at n=64 and a
    gpu-scalar conv tuned at n=8 — the representatives of the pow2
    buckets the property test draws from."""
    target = SimGPU()
    db = TuningDatabase()
    matmul = tune(ops.matmul(64, 32, 32), target, CONFIG, database=db)
    conv = tune(_conv(8), target, CONFIG, database=db)
    assert (matmul.best_sketch, conv.best_sketch) == ("tensor-core", "gpu-scalar")
    return db, target


class TestAdaptiveReplayProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        case=st.one_of(
            st.tuples(st.just("matmul"), st.integers(33, 64)),
            st.tuples(st.just("conv"), st.integers(5, 8)),
        )
    )
    def test_in_bucket_replay_is_oracle_equal_or_tir701(self, representatives, case):
        db, target = representatives
        kind, n = case
        if kind == "matmul":
            func, rep = ops.matmul(n, 32, 32), ops.matmul(64, 32, 32)
        else:
            func, rep = _conv(n), _conv(8)
        ctx = DiagnosticContext()
        sch = db.replay_entry(func, db.get(workload_key(rep, target)), ctx=ctx)
        if sch is None:
            assert ctx.counts_by_code() == {"TIR701": 1}
        else:
            assert _oracle_matches(func, sch, fp16=kind == "matmul")


class TestSessionBuckets:
    def test_in_bucket_tasks_collapse_to_one_search(self):
        target = SimGPU()
        session = TuningSession(
            target, CONFIG, buckets=BucketSpec.pow2("n")
        )
        session.add(ops.matmul(64, 32, 32), name="rep")
        session.add(ops.matmul(56, 32, 32), name="in-bucket")
        session.add(ops.matmul(48, 32, 32), name="in-bucket-2")
        report = session.run()
        statuses = sorted(t.status for t in report.tasks)
        assert statuses.count("searched") == 1
        assert report.totals["tasks_bucket_replayed"] >= 2.0
        assert report.totals["tasks_bucket_fallback"] == 0.0
        by_name = {t.name: t for t in report.tasks}
        assert by_name["in-bucket"].measured == 0

    def test_same_concrete_shape_shares_one_adaptive_replay(self):
        target = SimGPU()
        database = CountingDatabase()
        session = TuningSession(
            target, CONFIG, database=database, buckets=BucketSpec.pow2("n")
        )
        session.add(ops.matmul(64, 32, 32), name="rep")
        session.add(ops.matmul(56, 32, 32), name="in-bucket")
        session.add(ops.matmul(56, 32, 32), name="in-bucket-dup")
        session.add(ops.matmul(48, 32, 32), name="other")
        report = session.run()
        # One adaptive replay at 56 (shared by its duplicate), one at 48.
        assert database.replays == 2
        assert report.totals["tasks_bucket_replayed"] == 3.0
        assert report.totals["tasks_replayed"] == 3.0
        results = session.results
        assert results["in-bucket-dup"].best_func is results["in-bucket"].best_func
        assert results["in-bucket-dup"].stats is not results["in-bucket"].stats
        assert script(results["other"].best_func) != script(results["in-bucket"].best_func)

    def test_infeasible_replay_falls_back_with_tir702(self):
        target = SimGPU()
        session = TuningSession(
            target, CONFIG, buckets=BucketSpec.pow2("n")
        )
        session.add(_conv(4), name="rep")
        session.add(_conv(3), name="fallback")
        report = session.run()
        if report.totals["tasks_bucket_fallback"] == 0.0:
            pytest.skip("decision vector happens to adapt at this budget")
        assert report.totals["tasks_bucket_fallback"] == 1.0
        assert session.diagnostics.counts_by_code().get("TIR702", 0) >= 1
        # The fallback task still produced a working program.
        by_name = {t.name: t for t in report.tasks}
        assert by_name["fallback"].cycles > 0

    def test_invalid_by_code_sums_representative_and_fallback_searches(
        self, monkeypatch
    ):
        # An in-bucket task whose adaptive replay is infeasible runs two
        # searches: the representative's, then a fresh tune at its own
        # shape, whose result replaces the first in ``session.results``.
        # The report's rejections cover both.
        searches = []

        def recording_tune(*args, **kwargs):
            searches.append(tune(*args, **kwargs))
            return searches[-1]

        monkeypatch.setattr(session_module, "tune", recording_tune)
        database = TuningDatabase()
        monkeypatch.setattr(database, "replay_entry", lambda *a, **k: None)
        session = TuningSession(
            SimGPU(), CONFIG, database=database, buckets=BucketSpec.pow2("n")
        )
        session.add(_conv(3), name="fallback")
        report = session.run()
        assert report.totals["tasks_bucket_fallback"] == 1.0
        assert len(searches) == 2
        assert session.results["fallback"] is searches[1]
        summed = Counter()
        for result in searches:
            summed.update(result.stats.rejected_by_code)
        assert report.invalid_by_code == dict(summed)
        assert sum(searches[0].stats.rejected_by_code.values()) > 0

    def test_no_buckets_keeps_exact_semantics(self):
        target = SimGPU()
        session = TuningSession(target, CONFIG)
        session.add(ops.matmul(64, 32, 32), name="a")
        session.add(ops.matmul(56, 32, 32), name="b")
        report = session.run()
        assert sorted(t.status for t in report.tasks).count("searched") == 2
        assert "tasks_bucket_replayed" not in report.totals
