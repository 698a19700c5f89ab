"""Operator library: TensorIR builders for the paper's workload set.

Each function returns a :class:`~repro.tir.PrimFunc` in the canonical
block form (one einsum block + optional elementwise stages).  Inputs are
assumed pre-padded (padding is folded into the input shape, the usual
convention for single-operator benchmarking); strides and dilations
appear in the access expressions exactly as in §4.2's Conv2D example.

The operator set matches §5.1: C1D, C2D, C3D, DEP, DIL, GMM, GRP, T2D,
plus the elementwise/normalisation ops the end-to-end networks need.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..tir import Cast, IRBuilder, PrimFunc, Select, call, const, logical_and, max_expr, min_expr
from .shapes import shape_parametric

__all__ = [
    "matmul",
    "batch_matmul",
    "conv1d",
    "conv2d",
    "conv3d",
    "depthwise_conv2d",
    "group_conv2d",
    "conv2d_transposed",
    "elementwise",
    "bias_add",
    "requantize",
    "add",
    "cast_to",
    "pad2d",
    "batch_softmax",
    "split_heads",
    "merge_heads",
    "bias_add_relu",
    "softmax",
    "layer_norm",
]


def _acc_mul(dtype: str, acc_dtype: str, a, b):
    """a*b promoted into the accumulator dtype (int8 -> int32 etc.)."""
    if dtype == acc_dtype:
        return a * b
    return Cast(acc_dtype, a) * Cast(acc_dtype, b)


@shape_parametric(dims=("n", "m", "k"))
def matmul(
    n: int, m: int, k: int, dtype: str = "float16", acc_dtype: Optional[str] = None
) -> PrimFunc:
    """GMM: C[n, m] = sum_k A[n, k] * B[k, m]."""
    acc_dtype = acc_dtype or dtype
    b = IRBuilder("matmul")
    A = b.arg_buffer("A", (n, k), dtype)
    B = b.arg_buffer("B", (k, m), dtype)
    C = b.arg_buffer("C", (n, m), acc_dtype)
    with b.grid(n, m, k) as (i, j, kk):
        with b.block("C") as blk:
            vi = blk.spatial(n, i)
            vj = blk.spatial(m, j)
            vk = blk.reduce(k, kk)
            with blk.init():
                b.store(C, (vi, vj), const(0, acc_dtype))
            b.store(C, (vi, vj), C[vi, vj] + _acc_mul(dtype, acc_dtype, A[vi, vk], B[vk, vj]))
    return b.finish().with_attrs(op="matmul")


@shape_parametric(dims=("batch", "n", "m", "k"))
def batch_matmul(
    batch: int, n: int, m: int, k: int, dtype: str = "float16", acc_dtype: Optional[str] = None
) -> PrimFunc:
    acc_dtype = acc_dtype or dtype
    b = IRBuilder("batch_matmul")
    A = b.arg_buffer("A", (batch, n, k), dtype)
    B = b.arg_buffer("B", (batch, k, m), dtype)
    C = b.arg_buffer("C", (batch, n, m), acc_dtype)
    with b.grid(batch, n, m, k, names=["b", "i", "j", "r"]) as (vb_, i, j, kk):
        with b.block("C") as blk:
            vb = blk.spatial(batch, vb_)
            vi = blk.spatial(n, i)
            vj = blk.spatial(m, j)
            vk = blk.reduce(k, kk)
            with blk.init():
                b.store(C, (vb, vi, vj), const(0, acc_dtype))
            b.store(
                C,
                (vb, vi, vj),
                C[vb, vi, vj] + _acc_mul(dtype, acc_dtype, A[vb, vi, vk], B[vb, vk, vj]),
            )
    return b.finish().with_attrs(op="batch_matmul")


@shape_parametric(dims=("n", "length"))
def conv1d(
    n: int,
    length: int,
    ci: int,
    co: int,
    kernel: int,
    stride: int = 1,
    dtype: str = "float16",
    acc_dtype: Optional[str] = None,
) -> PrimFunc:
    """C1D over pre-padded NWC input."""
    acc_dtype = acc_dtype or dtype
    out_l = (length - kernel) // stride + 1
    b = IRBuilder("conv1d")
    A = b.arg_buffer("A", (n, length, ci), dtype)
    W = b.arg_buffer("W", (kernel, ci, co), dtype)
    C = b.arg_buffer("C", (n, out_l, co), acc_dtype)
    with b.grid(n, out_l, co, kernel, ci, names=["n", "l", "f", "r", "c"]) as (
        vn_,
        vl_,
        vf_,
        vr_,
        vc_,
    ):
        with b.block("C") as blk:
            vn = blk.spatial(n, vn_)
            vl = blk.spatial(out_l, vl_)
            vco = blk.spatial(co, vf_)
            vr = blk.reduce(kernel, vr_)
            vci = blk.reduce(ci, vc_)
            with blk.init():
                b.store(C, (vn, vl, vco), const(0, acc_dtype))
            b.store(
                C,
                (vn, vl, vco),
                C[vn, vl, vco]
                + _acc_mul(dtype, acc_dtype, A[vn, vl * stride + vr, vci], W[vr, vci, vco]),
            )
    return b.finish().with_attrs(op="conv1d")


@shape_parametric(dims=("n", "h", "w"))
def conv2d(
    n: int,
    h: int,
    w: int,
    ci: int,
    co: int,
    kh: int,
    kw: int,
    stride: int = 1,
    dilation: int = 1,
    dtype: str = "float16",
    acc_dtype: Optional[str] = None,
    name: str = "conv2d",
) -> PrimFunc:
    """C2D / DIL over pre-padded NHWC input (h, w are *input* sizes)."""
    acc_dtype = acc_dtype or dtype
    out_h = (h - (kh - 1) * dilation - 1) // stride + 1
    out_w = (w - (kw - 1) * dilation - 1) // stride + 1
    b = IRBuilder(name)
    A = b.arg_buffer("A", (n, h, w, ci), dtype)
    W = b.arg_buffer("W", (kh, kw, ci, co), dtype)
    C = b.arg_buffer("C", (n, out_h, out_w, co), acc_dtype)
    with b.grid(
        n, out_h, out_w, co, kh, kw, ci, names=["n", "i", "j", "f", "r", "s", "c"]
    ) as (vn_, vi_, vj_, vf_, vr_, vs_, vc_):
        with b.block("C") as blk:
            vn = blk.spatial(n, vn_)
            vh = blk.spatial(out_h, vi_)
            vw = blk.spatial(out_w, vj_)
            vco = blk.spatial(co, vf_)
            vrh = blk.reduce(kh, vr_)
            vrw = blk.reduce(kw, vs_)
            vci = blk.reduce(ci, vc_)
            with blk.init():
                b.store(C, (vn, vh, vw, vco), const(0, acc_dtype))
            b.store(
                C,
                (vn, vh, vw, vco),
                C[vn, vh, vw, vco]
                + _acc_mul(
                    dtype,
                    acc_dtype,
                    A[vn, vh * stride + vrh * dilation, vw * stride + vrw * dilation, vci],
                    W[vrh, vrw, vci, vco],
                ),
            )
    return b.finish().with_attrs(op="conv2d")


@shape_parametric(dims=("n", "d", "h", "w"))
def conv3d(
    n: int,
    d: int,
    h: int,
    w: int,
    ci: int,
    co: int,
    kd: int,
    kh: int,
    kw: int,
    stride: int = 1,
    dtype: str = "float16",
    acc_dtype: Optional[str] = None,
) -> PrimFunc:
    """C3D over pre-padded NDHWC input."""
    acc_dtype = acc_dtype or dtype
    out_d = (d - kd) // stride + 1
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    b = IRBuilder("conv3d")
    A = b.arg_buffer("A", (n, d, h, w, ci), dtype)
    W = b.arg_buffer("W", (kd, kh, kw, ci, co), dtype)
    C = b.arg_buffer("C", (n, out_d, out_h, out_w, co), acc_dtype)
    with b.grid(
        n,
        out_d,
        out_h,
        out_w,
        co,
        kd,
        kh,
        kw,
        ci,
        names=["n", "z", "i", "j", "f", "q", "r", "s", "c"],
    ) as (vn_, vz_, vi_, vj_, vf_, vq_, vr_, vs_, vc_):
        with b.block("C") as blk:
            vn = blk.spatial(n, vn_)
            vd = blk.spatial(out_d, vz_)
            vh = blk.spatial(out_h, vi_)
            vw = blk.spatial(out_w, vj_)
            vco = blk.spatial(co, vf_)
            vrd = blk.reduce(kd, vq_)
            vrh = blk.reduce(kh, vr_)
            vrw = blk.reduce(kw, vs_)
            vci = blk.reduce(ci, vc_)
            with blk.init():
                b.store(C, (vn, vd, vh, vw, vco), const(0, acc_dtype))
            b.store(
                C,
                (vn, vd, vh, vw, vco),
                C[vn, vd, vh, vw, vco]
                + _acc_mul(
                    dtype,
                    acc_dtype,
                    A[vn, vd * stride + vrd, vh * stride + vrh, vw * stride + vrw, vci],
                    W[vrd, vrh, vrw, vci, vco],
                ),
            )
    return b.finish().with_attrs(op="conv3d")


@shape_parametric(dims=("n", "h", "w"))
def depthwise_conv2d(
    n: int,
    h: int,
    w: int,
    c: int,
    kh: int,
    kw: int,
    stride: int = 1,
    dtype: str = "float16",
    acc_dtype: Optional[str] = None,
) -> PrimFunc:
    """DEP: each channel convolved with its own filter (χ(c)=(1,1,1):
    no matmul-intrinsic mapping exists — stays on the scalar pipeline)."""
    acc_dtype = acc_dtype or dtype
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    b = IRBuilder("depthwise_conv2d")
    A = b.arg_buffer("A", (n, h, w, c), dtype)
    W = b.arg_buffer("W", (kh, kw, c), dtype)
    C = b.arg_buffer("C", (n, out_h, out_w, c), acc_dtype)
    with b.grid(n, out_h, out_w, c, kh, kw, names=["n", "i", "j", "f", "r", "s"]) as (
        vn_,
        vi_,
        vj_,
        vf_,
        vr_,
        vs_,
    ):
        with b.block("C") as blk:
            vn = blk.spatial(n, vn_)
            vh = blk.spatial(out_h, vi_)
            vw = blk.spatial(out_w, vj_)
            vc = blk.spatial(c, vf_)
            vrh = blk.reduce(kh, vr_)
            vrw = blk.reduce(kw, vs_)
            with blk.init():
                b.store(C, (vn, vh, vw, vc), const(0, acc_dtype))
            b.store(
                C,
                (vn, vh, vw, vc),
                C[vn, vh, vw, vc]
                + _acc_mul(
                    dtype,
                    acc_dtype,
                    A[vn, vh * stride + vrh, vw * stride + vrw, vc],
                    W[vrh, vrw, vc],
                ),
            )
    return b.finish().with_attrs(op="depthwise_conv2d")


@shape_parametric(dims=("n", "h", "w"))
def group_conv2d(
    n: int,
    h: int,
    w: int,
    ci: int,
    co: int,
    kh: int,
    kw: int,
    groups: int,
    stride: int = 1,
    dtype: str = "float16",
    acc_dtype: Optional[str] = None,
) -> PrimFunc:
    """GRP: grouped convolution — the group axis appears in every
    operand and stays outside the tensorized tile."""
    acc_dtype = acc_dtype or dtype
    assert ci % groups == 0 and co % groups == 0
    cig, cog = ci // groups, co // groups
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    b = IRBuilder("group_conv2d")
    A = b.arg_buffer("A", (n, h, w, groups, cig), dtype)
    W = b.arg_buffer("W", (kh, kw, groups, cig, cog), dtype)
    C = b.arg_buffer("C", (n, out_h, out_w, groups, cog), acc_dtype)
    with b.grid(
        n,
        out_h,
        out_w,
        groups,
        cog,
        kh,
        kw,
        cig,
        names=["n", "i", "j", "g", "f", "r", "s", "c"],
    ) as (vn_, vi_, vj_, vg_, vf_, vr_, vs_, vc_):
        with b.block("C") as blk:
            vn = blk.spatial(n, vn_)
            vh = blk.spatial(out_h, vi_)
            vw = blk.spatial(out_w, vj_)
            vg = blk.spatial(groups, vg_)
            vco = blk.spatial(cog, vf_)
            vrh = blk.reduce(kh, vr_)
            vrw = blk.reduce(kw, vs_)
            vci = blk.reduce(cig, vc_)
            with blk.init():
                b.store(C, (vn, vh, vw, vg, vco), const(0, acc_dtype))
            b.store(
                C,
                (vn, vh, vw, vg, vco),
                C[vn, vh, vw, vg, vco]
                + _acc_mul(
                    dtype,
                    acc_dtype,
                    A[vn, vh * stride + vrh, vw * stride + vrw, vg, vci],
                    W[vrh, vrw, vg, vci, vco],
                ),
            )
    return b.finish().with_attrs(op="group_conv2d")


@shape_parametric(dims=("n", "h", "w"))
def conv2d_transposed(
    n: int,
    h: int,
    w: int,
    ci: int,
    co: int,
    kh: int,
    kw: int,
    stride: int = 2,
    dtype: str = "float16",
    acc_dtype: Optional[str] = None,
) -> PrimFunc:
    """T2D as a two-stage program: zero-stuff (dilate) the input, then a
    stride-1 convolution — the standard equivalent formulation, and the
    second stage is a tensorizable C2D."""
    acc_dtype = acc_dtype or dtype
    dh = (h - 1) * stride + 1
    dw = (w - 1) * stride + 1
    # "Full" convolution of the zero-stuffed input: pad (k-1) per side.
    off = kh - 1
    ph, pw = dh + 2 * (kh - 1), dw + 2 * (kw - 1)
    out_h, out_w = ph - kh + 1, pw - kw + 1  # == (h-1)*stride + k
    b = IRBuilder("conv2d_transposed")
    A = b.arg_buffer("A", (n, h, w, ci), dtype)
    W = b.arg_buffer("W", (kh, kw, ci, co), dtype)
    C = b.arg_buffer("C", (n, out_h, out_w, co), acc_dtype)
    D = b.alloc_buffer("A_dilated", (n, ph, pw, ci), dtype)
    with b.grid(n, ph, pw, ci, names=["n", "p", "q", "c"]) as (vn_, vp_, vq_, vc_):
        with b.block("dilate") as blk:
            vn = blk.spatial(n, vn_)
            vp = blk.spatial(ph, vp_)
            vq = blk.spatial(pw, vq_)
            vc = blk.spatial(ci, vc_)
            from ..tir import logical_and

            # A[(vp-off)/stride, (vq-off)/stride] where the grid aligns.
            cond = logical_and(
                logical_and(vp >= off, ((vp - off) % stride).equal(0)),
                logical_and(vq >= off, ((vq - off) % stride).equal(0)),
            )
            cond = logical_and(cond, (vp - off) // stride < h)
            cond = logical_and(cond, (vq - off) // stride < w)
            safe_p = min_guard((vp - off) // stride, h - 1)
            safe_q = min_guard((vq - off) // stride, w - 1)
            b.store(
                D,
                (vn, vp, vq, vc),
                Select(cond, A[vn, safe_p, safe_q, vc], const(0, dtype)),
            )
    with b.grid(
        n, out_h, out_w, co, kh, kw, ci, names=["n", "i", "j", "f", "r", "s", "c"]
    ) as (vn_, vi_, vj_, vf_, vr_, vs_, vc_):
        with b.block("C") as blk:
            vn = blk.spatial(n, vn_)
            vh = blk.spatial(out_h, vi_)
            vw = blk.spatial(out_w, vj_)
            vco = blk.spatial(co, vf_)
            vrh = blk.reduce(kh, vr_)
            vrw = blk.reduce(kw, vs_)
            vci = blk.reduce(ci, vc_)
            with blk.init():
                b.store(C, (vn, vh, vw, vco), const(0, acc_dtype))
            b.store(
                C,
                (vn, vh, vw, vco),
                C[vn, vh, vw, vco]
                + _acc_mul(
                    dtype,
                    acc_dtype,
                    D[vn, vh + vrh, vw + vrw, vci],
                    # transposed conv uses the flipped kernel
                    W[kh - 1 - vrh, kw - 1 - vrw, vci, vco],
                ),
            )
    return b.finish().with_attrs(op="conv2d_transposed")


def min_guard(expr, maximum: int):
    """Clamp an index expression (used under a Select guard)."""
    return max_expr(min_expr_(expr, maximum), 0)


def min_expr_(a, b):
    from ..tir import min_expr

    return min_expr(a, b)


def _ew_value(op: str, a, dtype: str):
    """The scalar expression for one elementwise ``op`` applied to ``a``."""
    if op == "identity":
        return a
    if op == "relu":
        return max_expr(a, const(0, dtype))
    if op == "relu6":
        return min_expr(max_expr(a, const(0, dtype)), const(6, dtype))
    if op == "gelu":
        return a * call("sigmoid", a * 1.702, dtype=dtype)
    return call(op, a, dtype=dtype)


def _spatial_idx(blk, shape, ivs):
    if len(shape) == 1:
        ivs = (ivs,)
    return tuple(blk.spatial(s, iv) for s, iv in zip(shape, ivs))


def elementwise(
    shape: Sequence[int], op: str = "relu", dtype: str = "float16", name: Optional[str] = None
) -> PrimFunc:
    """Unary elementwise op preserving ``shape``, so fusible as an epilogue."""
    shape = tuple(shape)
    b = IRBuilder(name or op)
    A = b.arg_buffer("A", shape, dtype)
    C = b.arg_buffer("C", shape, dtype)
    with b.grid(*shape) as ivs:
        with b.block(op) as blk:
            idx = _spatial_idx(blk, shape, ivs)
            b.store(C, idx, _ew_value(op, A[idx], dtype))
    return b.finish().with_attrs(op="elementwise")


def bias_add(
    shape: Sequence[int],
    dtype: str = "float16",
    activation: Optional[str] = None,
    name: Optional[str] = None,
) -> PrimFunc:
    """Bias broadcast over the innermost axis, plus optional activation."""
    shape = tuple(shape)
    b = IRBuilder(name or ("bias_" + activation if activation else "bias_add"))
    A = b.arg_buffer("A", shape, dtype)
    Bi = b.arg_buffer("bias", (shape[-1],), dtype)
    C = b.arg_buffer("C", shape, dtype)
    with b.grid(*shape) as ivs:
        with b.block("bias") as blk:
            idx = _spatial_idx(blk, shape, ivs)
            value = A[idx] + Bi[idx[-1]]
            if activation is not None:
                value = _ew_value(activation, value, dtype)
            b.store(C, idx, value)
    return b.finish().with_attrs(op="elementwise")


def add(
    shape: Sequence[int],
    dtype: str = "float16",
    activation: Optional[str] = None,
    name: Optional[str] = None,
) -> PrimFunc:
    """Binary elementwise add (residual connections), optional activation."""
    shape = tuple(shape)
    b = IRBuilder(name or "add")
    A = b.arg_buffer("A", shape, dtype)
    B2 = b.arg_buffer("B", shape, dtype)
    C = b.arg_buffer("C", shape, dtype)
    with b.grid(*shape) as ivs:
        with b.block("add") as blk:
            idx = _spatial_idx(blk, shape, ivs)
            value = A[idx] + B2[idx]
            if activation is not None:
                value = _ew_value(activation, value, dtype)
            b.store(C, idx, value)
    return b.finish().with_attrs(op="elementwise")


def cast_to(
    shape: Sequence[int], src_dtype: str, dst_dtype: str, name: Optional[str] = None
) -> PrimFunc:
    """Elementwise dtype conversion (e.g. int32 accumulators -> int8)."""
    shape = tuple(shape)
    b = IRBuilder(name or "cast")
    A = b.arg_buffer("A", shape, src_dtype)
    C = b.arg_buffer("C", shape, dst_dtype)
    with b.grid(*shape) as ivs:
        with b.block("cast") as blk:
            idx = _spatial_idx(blk, shape, ivs)
            b.store(C, idx, Cast(dst_dtype, A[idx]))
    return b.finish().with_attrs(op="elementwise")


def requantize(
    shape: Sequence[int],
    src_dtype: str = "int32",
    dst_dtype: str = "int8",
    shift: int = 4,
    name: Optional[str] = None,
) -> PrimFunc:
    """Narrow integer accumulators: scale down by ``2**shift``, clamp to
    the destination range, cast.  The elementwise tail of every
    quantised compute layer."""
    shape = tuple(shape)
    lo, hi = -(2 ** 7), 2 ** 7 - 1  # int8 range; dst_dtype is int8-like
    b = IRBuilder(name or "requantize")
    A = b.arg_buffer("A", shape, src_dtype)
    C = b.arg_buffer("C", shape, dst_dtype)
    with b.grid(*shape) as ivs:
        with b.block("requantize") as blk:
            idx = _spatial_idx(blk, shape, ivs)
            v = A[idx] // const(1 << shift, src_dtype)
            v = max_expr(min_expr(v, const(hi, src_dtype)), const(lo, src_dtype))
            b.store(C, idx, Cast(dst_dtype, v))
    return b.finish().with_attrs(op="elementwise")


@shape_parametric(dims=("n", "h", "w"))
def pad2d(n: int, h: int, w: int, c: int, pad: int, dtype: str = "float16") -> PrimFunc:
    """Zero-pad NHWC spatially by ``pad`` per side (a layout op: it
    changes shape, so it is *not* fusible as an epilogue)."""
    ph, pw = h + 2 * pad, w + 2 * pad
    b = IRBuilder("pad2d")
    A = b.arg_buffer("A", (n, h, w, c), dtype)
    C = b.arg_buffer("C", (n, ph, pw, c), dtype)
    with b.grid(n, ph, pw, c, names=["n", "p", "q", "c"]) as (vn_, vp_, vq_, vc_):
        with b.block("pad") as blk:
            vn = blk.spatial(n, vn_)
            vp = blk.spatial(ph, vp_)
            vq = blk.spatial(pw, vq_)
            vc = blk.spatial(c, vc_)
            cond = logical_and(
                logical_and(vp >= pad, vp < h + pad),
                logical_and(vq >= pad, vq < w + pad),
            )
            safe_p = min_guard(vp - pad, h - 1)
            safe_q = min_guard(vq - pad, w - 1)
            b.store(
                C,
                (vn, vp, vq, vc),
                Select(cond, A[vn, safe_p, safe_q, vc], const(0, dtype)),
            )
    return b.finish().with_attrs(op="pad")


@shape_parametric(dims=("batch", "n", "m"))
def batch_softmax(batch: int, n: int, m: int, dtype: str = "float32") -> PrimFunc:
    """Row softmax over the last axis of a 3-D tensor (attention scores)."""
    b = IRBuilder("batch_softmax")
    A = b.arg_buffer("A", (batch, n, m), dtype)
    C = b.arg_buffer("C", (batch, n, m), dtype)
    mx = b.alloc_buffer("row_max", (batch, n), dtype)
    sm = b.alloc_buffer("row_sum", (batch, n), dtype)
    with b.grid(batch, n, m) as (bb, i, j):
        with b.block("row_max") as blk:
            vb = blk.spatial(batch, bb)
            vi = blk.spatial(n, i)
            vj = blk.reduce(m, j)
            with blk.init():
                b.store(mx, (vb, vi), call("min_value", dtype, dtype=dtype))
            b.store(mx, (vb, vi), max_expr(mx[vb, vi], A[vb, vi, vj]))
    with b.grid(batch, n, m) as (bb, i, j):
        with b.block("row_sum") as blk:
            vb = blk.spatial(batch, bb)
            vi = blk.spatial(n, i)
            vj = blk.reduce(m, j)
            with blk.init():
                b.store(sm, (vb, vi), const(0, dtype))
            b.store(
                sm, (vb, vi), sm[vb, vi] + call("exp", A[vb, vi, vj] - mx[vb, vi], dtype=dtype)
            )
    with b.grid(batch, n, m) as (bb, i, j):
        with b.block("normalize") as blk:
            vb = blk.spatial(batch, bb)
            vi = blk.spatial(n, i)
            vj = blk.spatial(m, j)
            b.store(
                C,
                (vb, vi, vj),
                call("exp", A[vb, vi, vj] - mx[vb, vi], dtype=dtype) / sm[vb, vi],
            )
    return b.finish().with_attrs(op="softmax")


@shape_parametric(dims=("seq",))
def split_heads(
    seq: int, heads: int, dhead: int, dtype: str = "float16", transpose: bool = False
) -> PrimFunc:
    """(seq, heads*dhead) -> (heads, seq, dhead) layout move for attention.

    ``transpose=True`` yields (heads, dhead, seq) instead — the K^T
    layout expected as the second operand of the QK batch matmul.
    """
    b = IRBuilder("split_heads_t" if transpose else "split_heads")
    A = b.arg_buffer("A", (seq, heads * dhead), dtype)
    out_shape = (heads, dhead, seq) if transpose else (heads, seq, dhead)
    C = b.arg_buffer("C", out_shape, dtype)
    with b.grid(heads, seq, dhead, names=["h", "s", "d"]) as (hh, ss, dd):
        with b.block("split_heads") as blk:
            vh = blk.spatial(heads, hh)
            vs = blk.spatial(seq, ss)
            vd = blk.spatial(dhead, dd)
            idx = (vh, vd, vs) if transpose else (vh, vs, vd)
            b.store(C, idx, A[vs, vh * dhead + vd])
    return b.finish().with_attrs(op="reshape")


@shape_parametric(dims=("seq",))
def merge_heads(heads: int, seq: int, dhead: int, dtype: str = "float16") -> PrimFunc:
    """(heads, seq, dhead) -> (seq, heads*dhead), inverse of split_heads."""
    b = IRBuilder("merge_heads")
    A = b.arg_buffer("A", (heads, seq, dhead), dtype)
    C = b.arg_buffer("C", (seq, heads * dhead), dtype)
    with b.grid(seq, heads * dhead, names=["s", "j"]) as (ss, jj):
        with b.block("merge_heads") as blk:
            vs = blk.spatial(seq, ss)
            vj = blk.spatial(heads * dhead, jj)
            b.store(C, (vs, vj), A[vj // dhead, vs, vj % dhead])
    return b.finish().with_attrs(op="reshape")


@shape_parametric(dims=("n", "m"))
def bias_add_relu(n: int, m: int, dtype: str = "float16") -> PrimFunc:
    b = IRBuilder("bias_add_relu")
    A = b.arg_buffer("A", (n, m), dtype)
    Bi = b.arg_buffer("bias", (m,), dtype)
    C = b.arg_buffer("C", (n, m), dtype)
    with b.grid(n, m) as (i, j):
        with b.block("bias_relu") as blk:
            vi = blk.spatial(n, i)
            vj = blk.spatial(m, j)
            b.store(C, (vi, vj), max_expr(A[vi, vj] + Bi[vj], const(0, dtype)))
    return b.finish().with_attrs(op="elementwise")


@shape_parametric(dims=("n", "m"))
def softmax(n: int, m: int, dtype: str = "float32") -> PrimFunc:
    """Row softmax (max-subtracted, numerically stable)."""
    b = IRBuilder("softmax")
    A = b.arg_buffer("A", (n, m), dtype)
    C = b.arg_buffer("C", (n, m), dtype)
    mx = b.alloc_buffer("row_max", (n,), dtype)
    sm = b.alloc_buffer("row_sum", (n,), dtype)
    with b.grid(n, m) as (i, j):
        with b.block("row_max") as blk:
            vi = blk.spatial(n, i)
            vj = blk.reduce(m, j)
            with blk.init():
                b.store(mx, (vi,), call("min_value", dtype, dtype=dtype))
            b.store(mx, (vi,), max_expr(mx[vi], A[vi, vj]))
    with b.grid(n, m) as (i, j):
        with b.block("row_sum") as blk:
            vi = blk.spatial(n, i)
            vj = blk.reduce(m, j)
            with blk.init():
                b.store(sm, (vi,), const(0, dtype))
            b.store(sm, (vi,), sm[vi] + call("exp", A[vi, vj] - mx[vi], dtype=dtype))
    with b.grid(n, m) as (i, j):
        with b.block("normalize") as blk:
            vi = blk.spatial(n, i)
            vj = blk.spatial(m, j)
            b.store(C, (vi, vj), call("exp", A[vi, vj] - mx[vi], dtype=dtype) / sm[vi])
    return b.finish().with_attrs(op="softmax")


@shape_parametric(dims=("n", "m"))
def layer_norm(n: int, m: int, dtype: str = "float32", eps: float = 1e-5) -> PrimFunc:
    b = IRBuilder("layer_norm")
    A = b.arg_buffer("A", (n, m), dtype)
    G = b.arg_buffer("gamma", (m,), dtype)
    Be = b.arg_buffer("beta", (m,), dtype)
    C = b.arg_buffer("C", (n, m), dtype)
    mean = b.alloc_buffer("mean", (n,), dtype)
    var = b.alloc_buffer("var", (n,), dtype)
    with b.grid(n, m) as (i, j):
        with b.block("mean") as blk:
            vi = blk.spatial(n, i)
            vj = blk.reduce(m, j)
            with blk.init():
                b.store(mean, (vi,), const(0, dtype))
            b.store(mean, (vi,), mean[vi] + A[vi, vj] / float(m))
    with b.grid(n, m) as (i, j):
        with b.block("var") as blk:
            vi = blk.spatial(n, i)
            vj = blk.reduce(m, j)
            with blk.init():
                b.store(var, (vi,), const(0, dtype))
            b.store(
                var, (vi,), var[vi] + (A[vi, vj] - mean[vi]) * (A[vi, vj] - mean[vi]) / float(m)
            )
    with b.grid(n, m) as (i, j):
        with b.block("normalize") as blk:
            vi = blk.spatial(n, i)
            vj = blk.spatial(m, j)
            b.store(
                C,
                (vi, vj),
                (A[vi, vj] - mean[vi]) * call("rsqrt", var[vi] + eps, dtype=dtype) * G[vj]
                + Be[vj],
            )
    return b.finish().with_attrs(op="layer_norm")
