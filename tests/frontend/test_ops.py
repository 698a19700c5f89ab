"""Correctness tests for the operator library against NumPy references."""

import numpy as np

from repro.frontend import ops
from repro.runtime import alloc_args, random_args, run
from repro.schedule import verify


def _check(func, ref_fn, out="C", atol=0.05, rtol=1e-3):
    assert verify(func) == []
    args = random_args(func)
    run(func, args)
    np.testing.assert_allclose(
        args[out].astype(np.float64), ref_fn(args), atol=atol, rtol=rtol
    )
    return args


class TestMatmuls:
    def test_matmul(self):
        func = ops.matmul(16, 24, 32, dtype="float32")
        _check(func, lambda a: a["A"].astype(np.float64) @ a["B"].astype(np.float64))

    def test_matmul_int8_acc_int32(self):
        func = ops.matmul(16, 16, 64, dtype="int8", acc_dtype="int32")
        args = random_args(func)
        run(func, args)
        ref = args["A"].astype(np.int32) @ args["B"].astype(np.int32)
        np.testing.assert_array_equal(args["C"], ref)

    def test_batch_matmul(self):
        func = ops.batch_matmul(3, 8, 8, 8, dtype="float32")
        _check(
            func,
            lambda a: np.einsum(
                "bnk,bkm->bnm", a["A"].astype(np.float64), a["B"].astype(np.float64)
            ),
        )


class TestConvs:
    def test_conv1d(self):
        func = ops.conv1d(1, 18, 4, 8, 3, dtype="float32")

        def ref(a):
            A, W = a["A"].astype(np.float64), a["W"].astype(np.float64)
            out = np.zeros((1, 16, 8))
            for r in range(3):
                out += np.einsum("nlc,cf->nlf", A[:, r : r + 16], W[r])
            return out

        _check(func, ref)

    def test_conv1d_strided(self):
        func = ops.conv1d(1, 17, 4, 8, 3, stride=2, dtype="float32")

        def ref(a):
            A, W = a["A"].astype(np.float64), a["W"].astype(np.float64)
            out_l = (17 - 3) // 2 + 1
            out = np.zeros((1, out_l, 8))
            for i in range(out_l):
                out[:, i] = np.einsum("nkc,kcf->nf", A[:, 2 * i : 2 * i + 3], W)
            return out

        _check(func, ref)

    def test_conv2d_stride2(self):
        func = ops.conv2d(1, 15, 15, 4, 8, 3, 3, stride=2, dtype="float32")

        def ref(a):
            A, W = a["A"].astype(np.float64), a["W"].astype(np.float64)
            oh = (15 - 3) // 2 + 1
            out = np.zeros((1, oh, oh, 8))
            for i in range(oh):
                for j in range(oh):
                    patch = A[:, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3, :]
                    out[:, i, j] = np.tensordot(patch, W, axes=([1, 2, 3], [0, 1, 2]))
            return out

        _check(func, ref)

    def test_conv2d_dilated(self):
        func = ops.conv2d(1, 14, 14, 4, 8, 3, 3, dilation=2, dtype="float32")

        def ref(a):
            A, W = a["A"].astype(np.float64), a["W"].astype(np.float64)
            oh = 14 - 2 * 2
            out = np.zeros((1, oh, oh, 8))
            for i in range(oh):
                for j in range(oh):
                    patch = A[:, i : i + 5 : 2, j : j + 5 : 2, :]
                    out[:, i, j] = np.tensordot(patch, W, axes=([1, 2, 3], [0, 1, 2]))
            return out

        _check(func, ref)

    def test_conv3d(self):
        func = ops.conv3d(1, 6, 6, 6, 2, 4, 3, 3, 3, dtype="float32")

        def ref(a):
            A, W = a["A"].astype(np.float64), a["W"].astype(np.float64)
            out = np.zeros((1, 4, 4, 4, 4))
            for q in range(3):
                for r in range(3):
                    for s in range(3):
                        out += np.einsum(
                            "ndhwc,cf->ndhwf",
                            A[:, q : q + 4, r : r + 4, s : s + 4, :],
                            W[q, r, s],
                        )
            return out

        _check(func, ref)

    def test_depthwise(self):
        func = ops.depthwise_conv2d(1, 10, 10, 6, 3, 3, dtype="float32")

        def ref(a):
            A, W = a["A"].astype(np.float64), a["W"].astype(np.float64)
            out = np.zeros((1, 8, 8, 6))
            for r in range(3):
                for s in range(3):
                    out += A[:, r : r + 8, s : s + 8, :] * W[r, s]
            return out

        _check(func, ref)

    def test_group_conv(self):
        func = ops.group_conv2d(1, 10, 10, 8, 8, 3, 3, groups=2, dtype="float32")

        def ref(a):
            A, W = a["A"].astype(np.float64), a["W"].astype(np.float64)
            out = np.zeros((1, 8, 8, 2, 4))
            for g in range(2):
                for r in range(3):
                    for s in range(3):
                        out[:, :, :, g, :] += np.einsum(
                            "nhwc,cf->nhwf", A[:, r : r + 8, s : s + 8, g], W[r, s, g]
                        )
            return out

        _check(func, ref)

    def test_transposed_conv_matches_scatter(self):
        func = ops.conv2d_transposed(1, 5, 5, 3, 4, 4, 4, stride=2, dtype="float32")

        def ref(a):
            A, W = a["A"].astype(np.float64), a["W"].astype(np.float64)
            h = w = 5
            kh = kw = 4
            s = 2
            oh = (h - 1) * s + kh
            out = np.zeros((1, oh, oh, 4))
            for i in range(h):
                for j in range(w):
                    for r in range(kh):
                        for t in range(kw):
                            out[:, i * s + r, j * s + t, :] += np.einsum(
                                "nc,cf->nf", A[:, i, j, :], W[r, t]
                            )
            return out

        _check(func, ref)


class TestElementwiseAndNorms:
    def test_relu(self):
        func = ops.elementwise((64,), "relu", "float32")
        _check(func, lambda a: np.maximum(a["A"].astype(np.float64), 0))

    def test_gelu_close_to_reference(self):
        func = ops.elementwise((64,), "gelu", "float32")
        args = random_args(func)
        run(func, args)
        x = args["A"].astype(np.float64)
        import math
        exact = x * 0.5 * (1 + np.vectorize(math.erf)(x / np.sqrt(2)))
        # sigmoid-approximated GELU: loose tolerance.
        np.testing.assert_allclose(args["C"], exact, atol=0.02)

    def test_softmax(self):
        func = ops.softmax(8, 16)

        def ref(a):
            A = a["A"].astype(np.float64)
            e = np.exp(A - A.max(1, keepdims=True))
            return e / e.sum(1, keepdims=True)

        _check(func, ref, atol=1e-5)

    def test_layer_norm(self):
        func = ops.layer_norm(8, 16)

        def ref(a):
            A = a["A"].astype(np.float64)
            mu = A.mean(1, keepdims=True)
            var = A.var(1, keepdims=True)
            return (A - mu) / np.sqrt(var + 1e-5) * a["gamma"] + a["beta"]

        _check(func, ref, atol=1e-4)

    def test_bias_add_relu(self):
        func = ops.bias_add_relu(8, 16, dtype="float32")
        _check(
            func,
            lambda a: np.maximum(a["A"].astype(np.float64) + a["bias"], 0),
        )


class TestWorkloadsAndNetworks:
    def test_all_gpu_workloads_build_and_validate(self):
        from repro.frontend import GPU_WORKLOADS

        for name, fn in GPU_WORKLOADS.items():
            func = fn()
            assert verify(func) == [], name

    def test_all_cpu_workloads_build_and_validate(self):
        from repro.frontend import CPU_WORKLOADS

        for name, fn in CPU_WORKLOADS.items():
            assert verify(fn()) == [], name
