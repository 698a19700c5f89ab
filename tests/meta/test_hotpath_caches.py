"""Behavioural tests for the search hot-path caches.

Three properties matter:

1. **Transparency** — caching must never change what the search
   computes: cached and uncached runs (and warm re-runs) produce
   identical best programs, cycles and stats for a fixed seed.
2. **Invalidation** — a schedule transformation produces a new tree
   with a new structural hash, so stale results can never be served;
   and values returned from a cache must not alias mutable cache state.
3. **Accounting** — ``SearchStats.rejected_by_code`` sums to
   ``invalid_rejected + apply_failed`` (TIR501 included), and session
   reports surface per-cache hit/miss counters.
"""

import numpy as np
import pytest

from repro import cache as repro_cache
from repro import tir
from repro.frontend import ops
from repro.meta import TuneConfig, TuningSession, evolutionary_search, tune
from repro.meta.feature import extract_features
from repro.meta.search import SearchStats
from repro.meta.sketch import Sketch
from repro.schedule import Schedule, verify
from repro.sim import SimGPU, Target, estimate


class IdentitySketch(Sketch):
    """Leaves the program untouched (no decisions, always applicable)."""

    name = "identity"

    def applicable(self, sch):
        return True

    def apply(self, sch):
        pass


class TestRejectionAccounting:
    def test_rejected_by_code_sums_on_a_real_search(self):
        result = tune(
            ops.matmul(128, 128, 128), SimGPU(), TuneConfig(trials=8, seed=3)
        )
        stats = result.stats
        assert sum(stats.rejected_by_code.values()) == (
            stats.invalid_rejected + stats.apply_failed
        )

    def test_uncostable_candidates_count_tir501(self):
        # An abstract target has no performance model, so every measured
        # candidate raises CostModelError; with validation off, those
        # rejections must land in the TIR501 bucket and keep the sum
        # invariant intact.
        result = evolutionary_search(
            ops.matmul(16, 16, 16),
            IdentitySketch(),
            Target(),
            TuneConfig(trials=4, seed=0, validate=False, generations=1),
        )
        stats = result.stats
        assert stats.measured == 0
        assert stats.rejected_by_code["TIR501"] > 0
        assert sum(stats.rejected_by_code.values()) == (
            stats.invalid_rejected + stats.apply_failed
        )

    def test_merge_preserves_per_code_counts(self):
        a, b = SearchStats(), SearchStats()
        a.invalid_rejected, a.rejected_by_code["TIR501"] = 1, 1
        b.apply_failed, b.rejected_by_code["TIR401"] = 2, 2
        a.merge(b)
        assert sum(a.rejected_by_code.values()) == a.invalid_rejected + a.apply_failed


class TestCachingTransparency:
    def _tune(self, caches: bool, workers: int = 1):
        func = ops.matmul(128, 128, 128)
        config = TuneConfig(trials=6, seed=11, search_workers=workers)
        previous = repro_cache.set_enabled(caches)
        try:
            repro_cache.clear_all()
            return tune(func, SimGPU(), config)
        finally:
            repro_cache.set_enabled(previous)

    def test_cached_equals_uncached(self):
        base = self._tune(caches=False)
        cached = self._tune(caches=True)
        assert base.best_cycles == cached.best_cycles
        assert tir.structural_equal(base.best_func, cached.best_func)
        assert base.best_decisions == cached.best_decisions
        assert base.stats.candidates_generated == cached.stats.candidates_generated
        assert base.stats.measured == cached.stats.measured

    def test_warm_retune_is_identical(self):
        func = ops.matmul(128, 128, 128)
        config = TuneConfig(trials=6, seed=11)
        previous = repro_cache.set_enabled(True)
        try:
            repro_cache.clear_all()
            cold = tune(func, SimGPU(), config)
            before = repro_cache.snapshot_counts()
            warm = tune(func, SimGPU(), config)
            delta = repro_cache.delta_since(before)
        finally:
            repro_cache.set_enabled(previous)
        assert warm.best_cycles == cold.best_cycles
        assert tir.structural_equal(warm.best_func, cold.best_func)
        # The warm pass must replay candidate construction from cache.
        assert delta["search.candidates"]["hits"] > 0
        assert delta["search.candidates"]["misses"] == 0

    def test_batched_workers_deterministic(self):
        first = self._tune(caches=True, workers=2)
        second = self._tune(caches=True, workers=2)
        assert first.best_cycles == second.best_cycles
        assert tir.structural_equal(first.best_func, second.best_func)
        assert first.stats.eval_batches == second.stats.eval_batches > 0
        assert first.stats.eval_batch_candidates > 0
        assert first.stats.eval_batch_slots > 0

    def test_features_identical_enabled_vs_disabled(self):
        func = ops.matmul(64, 64, 64)
        target = SimGPU()
        previous = repro_cache.set_enabled(False)
        try:
            uncached = extract_features(func, target)
        finally:
            repro_cache.set_enabled(previous)
        cached = extract_features(func, target)
        again = extract_features(func, target)
        assert np.array_equal(uncached, cached)
        assert np.array_equal(cached, again)


class TestInvalidation:
    def test_schedule_transform_refreshes_verify(self):
        func = ops.matmul(64, 64, 64)
        target = SimGPU()
        assert verify(func, target) == []
        sch = Schedule(func)
        block = sch.get_block("C")
        loops = sch.get_loops(block)
        sch.split(loops[0], [4, 16])
        # The transformed func is a new tree with a new hash: verify
        # must analyse it fresh, not replay the pre-split diagnostics.
        assert verify(sch.func, target) == []
        assert tir.structural_hash(func) != tir.structural_hash(sch.func)

    def test_estimate_copies_are_isolated(self):
        func = ops.matmul(64, 64, 64)
        target = SimGPU()
        first = estimate(func, target)
        # Mutating a returned report must not poison the cache.
        first.breakdown["poison"] = 1.0
        first.counts["poison"] = 1.0
        second = estimate(func, target)
        assert "poison" not in second.breakdown
        assert "poison" not in second.counts
        assert second.cycles == first.cycles

    def test_estimate_idempotent(self):
        func = ops.matmul(64, 64, 64)
        target = SimGPU()
        assert estimate(func, target).cycles == estimate(func, target).cycles

    def test_feature_vector_is_read_only(self):
        vec = extract_features(ops.matmul(64, 64, 64), SimGPU())
        with pytest.raises(ValueError):
            vec[0] = 99.0


class TestScheduleCopyDeterminism:
    def test_copy_streams_reproducible_from_parent_seed(self):
        func = ops.matmul(64, 64, 64)
        draws = []
        for _ in range(2):
            parent = Schedule(func, seed=5)
            clones = [parent.copy(), parent.copy()]
            draws.append(
                [c.sample_categorical([1, 2, 4, 8, 16]) for c in clones]
            )
        assert draws[0] == draws[1]

    def test_successive_copies_get_distinct_seeds(self):
        parent = Schedule(ops.matmul(64, 64, 64), seed=5)
        a, b = parent.copy(), parent.copy()
        assert a.rng.getstate() != b.rng.getstate()

    def test_explicit_seed_does_not_consume_parent_entropy(self):
        func = ops.matmul(64, 64, 64)
        p1 = Schedule(func, seed=5)
        p2 = Schedule(func, seed=5)
        p1.copy(seed=123)
        assert p1.rng.getstate() == p2.rng.getstate()


class TestSessionObservability:
    def test_session_report_carries_cache_stats(self):
        session = TuningSession(SimGPU(), TuneConfig(trials=4, seed=0), workers=1)
        session.add(ops.matmul(64, 64, 64))
        report = session.run()
        assert report.cache_stats, "expected per-cache hit/miss counters"
        for name, counts in report.cache_stats.items():
            assert set(counts) >= {"hits", "misses"}, name
        assert any(counts["hits"] for counts in report.cache_stats.values())
        assert any(counts["misses"] for counts in report.cache_stats.values())
        # cache_stats is the report's one spelling of the cache window.
        assert not [k for k in report.telemetry["counters"] if k.startswith("cache.")]
        assert "cache_stats" in report.to_json()
