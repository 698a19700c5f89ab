"""Behavioural tests for the search hot-path caches.

Three properties matter:

1. **Transparency** — caching must never change what the search
   computes: cold runs (after ``clear_all()``) and warm re-runs produce
   identical best programs, cycles and stats for a fixed seed, and each
   memo front returns what the uncached function behind it computes.
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
from repro.frontend import BucketSpec, canonicalize, ops
from repro.meta import TuneConfig, TuningSession, evolutionary_search, tune
from repro.meta import search as search_mod
from repro.meta.database import _workload_key_impl, names_fingerprint, workload_key
from repro.meta.feature import _extract_features_impl, extract_features
from repro.meta.search import SearchStats, _build_candidate, _build_candidate_cached
from repro.meta.sketch import Sketch
from repro.schedule import Schedule, verify
from repro.schedule.validation import _shared_footprint_impl, shared_footprint_bytes
from repro.sim import SimGPU, Target, estimate
from repro.sim.cost import _estimate_impl


class IdentitySketch(Sketch):
    """Leaves the program untouched (no decisions, always applicable)."""

    name = "identity"

    def applicable(self, sch):
        return True

    def apply(self, sch, state):
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
    def _tune(self):
        repro_cache.clear_all()
        config = TuneConfig(trials=6, seed=11)
        return tune(ops.matmul(128, 128, 128), SimGPU(), config)

    def test_cached_equals_uncached(self):
        """A cold run (after ``clear_all()``, nothing cached) and a warm
        re-run served from its caches find the same program."""
        cold = self._tune()
        warm = tune(ops.matmul(128, 128, 128), SimGPU(), TuneConfig(trials=6, seed=11))
        assert cold.best_cycles == warm.best_cycles
        assert tir.structural_equal(cold.best_func, warm.best_func)
        assert cold.best_decisions == warm.best_decisions
        assert cold.stats.search_signature() == warm.stats.search_signature()

    def test_warm_retune_is_identical(self):
        func = ops.matmul(128, 128, 128)
        config = TuneConfig(trials=6, seed=11)
        repro_cache.clear_all()
        cold = tune(func, SimGPU(), config)
        before = repro_cache.snapshot_counts()
        warm = tune(func, SimGPU(), config)
        delta = repro_cache.delta_since(before)
        assert warm.best_cycles == cold.best_cycles
        assert tir.structural_equal(warm.best_func, cold.best_func)
        # The warm pass must replay candidate construction from cache.
        assert delta["search.candidates"]["hits"] > 0
        assert delta["search.candidates"]["misses"] == 0

    def test_batched_workers_deterministic(self):
        first = self._tune()
        second = self._tune()
        assert first.best_cycles == second.best_cycles
        assert tir.structural_equal(first.best_func, second.best_func)
        assert first.stats.search_signature() == second.stats.search_signature()

    def test_features_identical_enabled_vs_disabled(self):
        """The memo front (cache enabled) and the function behind it
        (cache bypassed) return the same vector, cold and warm."""
        func, target = ops.matmul(64, 64, 64), SimGPU()
        repro_cache.clear_all()
        uncached = _extract_features_impl(func, target)
        assert np.array_equal(uncached, extract_features(func, target))
        assert np.array_equal(uncached, extract_features(func, target))

    def test_cold_and_warm_tunes_hit_their_caches(self):
        """The cache-hit contract of a small tune, cold then warm."""
        func, target = ops.matmul(64, 64, 64), SimGPU()
        config = TuneConfig(trials=4, seed=0)
        repro_cache.clear_all()
        before = repro_cache.snapshot_counts()
        result = tune(func, target, config)
        cold = repro_cache.delta_since(before)
        assert cold.get("meta.features", {}).get("hits", 0) > 0
        before = repro_cache.snapshot_counts()
        again = tune(func, target, config)
        warm = repro_cache.delta_since(before)
        for name in ("search.candidates", "sim.estimate"):
            assert warm.get(name, {}).get("hits", 0) > 0, name
        assert again.best_cycles == result.best_cycles
        assert tir.structural_equal(again.best_func, result.best_func)
        assert estimate(result.best_func, target).cycles == result.best_cycles


def _report(report):
    return (report.cycles, report.seconds, report.bound, report.breakdown, report.counts)


class TestMemoOracle:
    def test_memo_fronts_match_their_impl(self, monkeypatch):
        """Each memo front returns what the uncached function behind it
        computes, on the miss and on the hit, over the candidates of a
        real search."""
        built = []

        def recording_build(*args):
            out = _build_candidate(*args)
            built.append((args, out))
            return out

        func, target = ops.matmul(64, 64, 64), SimGPU()
        monkeypatch.setattr(search_mod, "_build_candidate", recording_build)
        repro_cache.clear_all()
        tune(func, target, TuneConfig(trials=4, seed=0))
        monkeypatch.undo()
        funcs = [cand.func for _, (cand, _, _) in built if cand is not None]
        assert funcs and len(funcs) < len(built)  # valid and rejected ones

        repro_cache.clear_all()
        for _ in range(2):  # the miss, then the hit
            for args, (cand, rejection, _) in built:
                *key_args, prefix = args
                got, got_rejection, _ = _build_candidate_cached(
                    *key_args, names_fingerprint(args[0]), lambda: prefix
                )
                assert got_rejection == rejection
                if cand is not None:
                    assert tir.script(got.func) == tir.script(cand.func)
                    assert got.decisions == cand.decisions
            for f in funcs:
                assert shared_footprint_bytes(f) == _shared_footprint_impl(f)
                assert _report(estimate(f, target)) == _report(_estimate_impl(f, target))
                assert np.array_equal(
                    extract_features(f, target), _extract_features_impl(f, target)
                )
                assert workload_key(f, target) == _workload_key_impl(f, target.name)
                # The node memo: a fresh build of the same program hashes
                # like the memoized one.
                fresh = tir.parse_script(tir.script(f))
                assert tir.structural_hash(fresh) == tir.structural_hash(f)
            bw = canonicalize(ops.matmul(56, 64, 64), BucketSpec.pow2("n"))
            assert tir.script(bw.representative) == tir.script(func)


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
        session = TuningSession(SimGPU(), TuneConfig(trials=4, seed=0))
        session.add(ops.matmul(64, 64, 64))
        report = session.run()
        assert report.cache_stats, "expected per-cache hit/miss counters"
        for name, counts in report.cache_stats.items():
            assert set(counts) >= {"hits", "misses"}, name
        assert any(counts["hits"] for counts in report.cache_stats.values())
        assert any(counts["misses"] for counts in report.cache_stats.values())
        # cache_stats is the report's one spelling of the cache window;
        # the telemetry part holds spans only.
        assert set(report.telemetry) == {"spans", "stage_seconds"}
        assert "cache_stats" in report.to_json()

    def test_absorbed_worker_window_joins_the_snapshot(self, monkeypatch):
        """A worker's ``delta_since`` window, absorbed here, shows in the
        next window exactly, for a cache this process also has and for
        one only the worker touched; absorbing again accumulates."""
        monkeypatch.setattr(repro_cache, "_WORKER_COUNTS", {})
        worker = {
            "search.candidates": {"hits": 2, "misses": 3, "evictions": 1, "hit_rate": 0.4},
            "worker.only": {"hits": 0, "misses": 5, "evictions": 0, "hit_rate": 0.0},
        }
        before = repro_cache.snapshot_counts()
        repro_cache.absorb_worker_counts(worker)
        assert repro_cache.delta_since(before) == worker
        repro_cache.absorb_worker_counts(worker)
        assert repro_cache.worker_counts() == {
            "search.candidates": (4, 6, 2), "worker.only": (0, 10, 0),
        }
        assert repro_cache.delta_since(before)["worker.only"]["misses"] == 10
