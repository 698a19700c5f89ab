"""Tests for the shape-bucketing layer (``repro.frontend.shapes``).

The contract: a :class:`BucketSpec` collapses every shape in a bucket
onto one representative workload, so ``workload_key`` produces one task
per bucket; shapes outside every declared bucket degrade gracefully to
their own degenerate bucket (diagnostic ``TIR703``).
"""

import pytest

from repro.diagnostics import DiagnosticContext
from repro.frontend import ops
from repro.frontend.shapes import (
    BucketedWorkload,
    BucketSpec,
    ShapeBucket,
    canonicalize,
    next_pow2,
    rebuild,
    shape_args_of,
)
from repro.meta import workload_key
from repro.sim import SimGPU


class TestShapeBucket:
    def test_pow2_representative(self):
        bucket = ShapeBucket("n")
        assert bucket.representative(1) == 1
        assert bucket.representative(5) == 8
        assert bucket.representative(8) == 8
        assert bucket.representative(33) == 64

    def test_next_pow2(self):
        assert next_pow2(0) == 1
        assert next_pow2(1) == 1
        assert next_pow2(7) == 8
        assert next_pow2(64) == 64
        assert next_pow2(65) == 128

    def test_pow2_max_size_caps_coverage(self):
        bucket = ShapeBucket("n", max_size=64)
        assert bucket.covers(64)
        assert not bucket.covers(65)
        # Outside the cap, a size is its own degenerate bucket.
        assert bucket.representative(100) == 100

    def test_declared_boundaries(self):
        bucket = ShapeBucket("seq", boundaries=(8, 64, 512))
        assert bucket.representative(3) == 8
        assert bucket.representative(8) == 8
        assert bucket.representative(9) == 64
        assert bucket.representative(512) == 512
        assert not bucket.covers(513)
        assert bucket.representative(513) == 513

    def test_invalid_boundaries_rejected(self):
        with pytest.raises(ValueError):
            ShapeBucket("n", boundaries=())
        with pytest.raises(ValueError):
            ShapeBucket("n", boundaries=(8, 8))
        with pytest.raises(ValueError):
            ShapeBucket("n", boundaries=(64, 8))
        with pytest.raises(ValueError):
            ShapeBucket("n", boundaries=(0, 8))

    def test_token_is_stable(self):
        assert ShapeBucket("n").token() == "n:pow2"
        assert ShapeBucket("n", max_size=64).token() == "n:pow2<=64"
        assert ShapeBucket("n", boundaries=(8, 64)).token() == "n:8,64"


class TestBucketSpec:
    def test_pow2_constructor(self):
        spec = BucketSpec.pow2("n", "m")
        assert {b.dim for b in spec.buckets} == {"n", "m"}
        assert spec.bucket_for("n") is not None
        assert spec.bucket_for("k") is None

    def test_of_constructor(self):
        spec = BucketSpec.of(n=(8, 64, 512))
        assert spec.bucket_for("n").boundaries == (8, 64, 512)

    def test_token_joins_buckets(self):
        assert BucketSpec.pow2("n", "m").token() == "n:pow2;m:pow2"


class TestCanonicalize:
    def test_collapses_workload_keys_within_bucket(self):
        spec = BucketSpec.pow2("n")
        target = SimGPU()
        keys = {
            workload_key(
                canonicalize(ops.matmul(n, 32, 32), spec).representative, target
            )
            for n in (33, 40, 56, 64)
        }
        assert len(keys) == 1  # all of (32, 64] shares rep 64

    def test_dims_records_size_and_representative(self):
        bw = canonicalize(ops.matmul(56, 32, 32), BucketSpec.pow2("n"))
        assert bw.dims["n"] == (56, 64)
        assert bw.bucketed
        assert bw.representative.attrs["shape_args"]["n"] == 64
        # Non-bucketed dims are untouched.
        assert bw.representative.attrs["shape_args"]["m"] == 32

    def test_representative_at_boundary_is_identity(self):
        bw = canonicalize(ops.matmul(64, 32, 32), BucketSpec.pow2("n"))
        assert not bw.bucketed
        assert bw.representative is bw.concrete

    def test_none_spec_is_identity(self):
        func = ops.matmul(56, 32, 32)
        bw = canonicalize(func, None)
        assert isinstance(bw, BucketedWorkload)
        assert bw.representative is func and not bw.bucketed

    def test_non_parametric_func_is_identity(self):
        func = ops.matmul(56, 32, 32).with_attrs(builder=None, shape_args=None)
        bw = canonicalize(func, BucketSpec.pow2("n"))
        assert bw.representative is func and not bw.bucketed

    def test_out_of_bucket_emits_tir703(self):
        ctx = DiagnosticContext()
        spec = BucketSpec.of(n=(8,))
        bw = canonicalize(ops.matmul(56, 32, 32), spec, ctx=ctx)
        assert not bw.bucketed
        assert bw.dims["n"] == (56, 56)
        assert ctx.counts_by_code().get("TIR703") == 1

    def test_derived_extents_recomputed_by_builder(self):
        # conv2d output height is (h - kh) // stride + 1: the rebuilt
        # representative must carry the recomputed value, not a patched
        # one.
        bw = canonicalize(
            ops.conv2d(3, 6, 6, 4, 4, 3, 3, dtype="float32"),
            BucketSpec.pow2("n"),
        )
        assert bw.dims["n"] == (3, 4)
        rep_args = bw.representative.attrs["shape_args"]
        assert rep_args["n"] == 4 and rep_args["h"] == 6

    def test_rebuild_is_memoized(self):
        spec = BucketSpec.pow2("n")
        first = canonicalize(ops.matmul(56, 32, 32), spec)
        second = canonicalize(ops.matmul(56, 32, 32), spec)
        assert second.representative is first.representative


class TestParametricBuilders:
    def test_shape_args_recorded(self):
        args = shape_args_of(ops.matmul(56, 32, 48))
        assert args["n"] == 56 and args["m"] == 32 and args["k"] == 48

    def test_shape_args_none_for_hand_built(self):
        func = ops.matmul(8, 8, 8).with_attrs(builder=None, shape_args=None)
        assert shape_args_of(func) is None

    def test_rebuild_overrides_one_dim(self):
        rebuilt = rebuild(ops.matmul(56, 32, 32), n=64)
        args = shape_args_of(rebuilt)
        assert args["n"] == 64 and args["m"] == 32

    def test_rebuild_rejects_non_parametric(self):
        func = ops.matmul(8, 8, 8).with_attrs(builder=None, shape_args=None)
        with pytest.raises(ValueError, match="shape-parametric"):
            rebuild(func, n=16)

    def test_attrs_do_not_perturb_workload_key(self):
        target = SimGPU()
        plain = ops.matmul(32, 32, 32).with_attrs(builder=None, shape_args=None)
        assert workload_key(ops.matmul(32, 32, 32), target) == workload_key(
            plain, target
        )
