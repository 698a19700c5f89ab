"""The §5 networks as dataflow graphs (§5.2 / §5.3).

ResNet-50, MobileNet-V2, BERT-large and ViT (float16, Figure 12 and
Table 1) and the int8 ResNet-50, MobileNet-V2 and BERT-base (Figure 14),
batch 1.  The paper imports these models from frameworks; here each is
built from the ``frontend.ops`` builders as a real producer→consumer
:class:`~repro.frontend.graph.Graph`.  Compute layers
(conv/matmul/softmax/layer_norm) are wired through the elementwise glue
— bias adds, activations, residual adds, requantisation casts — that
:func:`repro.frontend.fuse.fuse_graph` folds into its anchors.  Shape
parameters are overridable so tests can build miniature instances with
the identical topology.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from . import ops
from .graph import Graph, TensorNode

__all__ = [
    "resnet50_graph",
    "mobilenet_v2_graph",
    "bert_large_graph",
    "bert_base_graph",
    "vit_graph",
    "gpu_graph",
    "cpu_graph",
    "GPU_GRAPHS",
    "CPU_GRAPHS",
]


def _requant(g: Graph, t: TensorNode, dtype: str, acc: Optional[str]) -> TensorNode:
    """Scale/clamp/narrow an integer accumulator back to the network
    dtype (a cast for float accumulators)."""
    if acc is None or acc == dtype:
        return t
    if acc.startswith("int") and dtype.startswith("int"):
        return g.op("requant", ops.requantize(t.shape, acc, dtype), t)
    return g.op("requant", ops.cast_to(t.shape, acc, dtype), t)


def _act(g: Graph, t: TensorNode, op: str) -> TensorNode:
    return g.op(op, ops.elementwise(t.shape, op, t.dtype), t)


def _bottleneck(g, x, h, c_out, c_mid, dtype, acc):
    """ResNet bottleneck: 1x1 down → 3x3 → 1x1 up, residual, relus."""
    t = g.op("reduce1x1", ops.conv2d(1, h, h, c_out, c_mid, 1, 1, dtype=dtype, acc_dtype=acc), x)
    t = _act(g, _requant(g, t, dtype, acc), "relu")
    t = g.op("pad", ops.pad2d(1, h, h, c_mid, 1, dtype=dtype), t)
    t = g.op("conv3x3", ops.conv2d(1, h + 2, h + 2, c_mid, c_mid, 3, 3, dtype=dtype, acc_dtype=acc), t)
    t = _act(g, _requant(g, t, dtype, acc), "relu")
    t = g.op("expand1x1", ops.conv2d(1, h, h, c_mid, c_out, 1, 1, dtype=dtype, acc_dtype=acc), t)
    t = _requant(g, t, dtype, acc)
    t = g.op("residual", ops.add(t.shape, dtype), t, x)
    return _act(g, t, "relu")


def resnet50_graph(
    dtype: str = "float16",
    acc: Optional[str] = None,
    stages: Sequence[Tuple[int, int, int, int]] = (
        (56, 64, 256, 3),
        (28, 128, 512, 4),
        (14, 256, 1024, 6),
        (7, 512, 2048, 3),
    ),
    stem: Tuple[int, int, int] = (112, 16, 64),
) -> Graph:
    """ResNet-50 as a dataflow graph: stem + bottleneck stages.

    ``stages`` rows are ``(h, c_mid, c_out, blocks)``; each stage opens
    with a stride-2 1x1 projection from the previous resolution.
    """
    g = Graph("ResNet-50")
    sh, sc, sco = stem
    x = g.input("x", (1, sh + 6, sh + 6, sc), dtype)
    t = g.op("stem7x7", ops.conv2d(1, sh + 6, sh + 6, sc, sco, 7, 7, dtype=dtype, acc_dtype=acc), x)
    t = _act(g, _requant(g, t, dtype, acc), "relu")
    prev_h, prev_c = sh, sco
    for h, c_mid, c_out, blocks in stages:
        stride = max(1, prev_h // h)
        t = g.op(
            "proj",
            ops.conv2d(1, prev_h, prev_h, prev_c, c_out, 1, 1, stride=stride, dtype=dtype, acc_dtype=acc),
            t,
        )
        t = _requant(g, t, dtype, acc)
        for _ in range(blocks):
            t = _bottleneck(g, t, h, c_out, c_mid, dtype, acc)
        prev_h, prev_c = h, c_out
    return g


def _inverted_residual(g, x, h, c_in, c_exp, c_out, stride, dtype, acc):
    """MobileNet-V2 block: 1x1 expand → 3x3 depthwise → 1x1 project."""
    t = g.op("expand", ops.conv2d(1, h, h, c_in, c_exp, 1, 1, dtype=dtype, acc_dtype=acc), x)
    t = _act(g, _requant(g, t, dtype, acc), "relu6")
    t = g.op("pad", ops.pad2d(1, h, h, c_exp, 1, dtype=dtype), t)
    t = g.op(
        "depthwise",
        ops.depthwise_conv2d(1, h + 2, h + 2, c_exp, 3, 3, stride=stride, dtype=dtype, acc_dtype=acc),
        t,
    )
    t = _act(g, _requant(g, t, dtype, acc), "relu6")
    out_h = (h + 2 - 3) // stride + 1
    t = g.op("project", ops.conv2d(1, out_h, out_h, c_exp, c_out, 1, 1, dtype=dtype, acc_dtype=acc), t)
    t = _requant(g, t, dtype, acc)
    if stride == 1 and c_in == c_out:
        t = g.op("residual", ops.add(t.shape, dtype), t, x)
    return t


def mobilenet_v2_graph(
    dtype: str = "float16",
    acc: Optional[str] = None,
    stages: Sequence[Tuple[int, int, int, int, int, int]] = (
        # (h_in, c_in, c_exp, c_out, blocks, first-block stride)
        (112, 32, 96, 24, 2, 2),
        (56, 24, 144, 32, 3, 2),
        (28, 32, 192, 64, 4, 2),
        (14, 64, 384, 96, 3, 1),
        (14, 96, 576, 160, 3, 2),
        (7, 160, 960, 320, 1, 1),
    ),
    stem_c: int = 32,
) -> Graph:
    """MobileNet-V2 as a dataflow graph of inverted-residual blocks."""
    g = Graph("MobileNet-V2")
    h0 = stages[0][0]
    x = g.input("x", (1, h0 + 2, h0 + 2, 16), dtype)
    t = g.op("stem", ops.conv2d(1, h0 + 2, h0 + 2, 16, stem_c, 3, 3, dtype=dtype, acc_dtype=acc), x)
    t = _act(g, _requant(g, t, dtype, acc), "relu6")
    for h, c_in, c_exp, c_out, blocks, stride in stages:
        t = _inverted_residual(g, t, h, c_in, c_exp, c_out, stride, dtype, acc)
        out_h = (h + 2 - 3) // stride + 1
        for _ in range(blocks - 1):
            t = _inverted_residual(g, t, out_h, c_out, c_exp, c_out, 1, dtype, acc)
    return g


def _layer_norm_op(g, x, n, m, dtype):
    """layer_norm, bracketed by casts for integer dtypes (quantised
    networks normalise in float; the casts fuse as prologue/epilogue)."""
    if dtype.startswith("int"):
        t = g.op("ln_in", ops.cast_to((n, m), dtype, "float32"), x)
        t = g.op("layer_norm", ops.layer_norm(n, m, "float32"), t)
        return g.op("ln_out", ops.cast_to((n, m), "float32", dtype), t)
    return g.op("layer_norm", ops.layer_norm(n, m, dtype), x)


def _proj(g, x, name, n, m, k, dtype, acc, activation=None):
    """Linear layer: matmul anchor + requant/bias(+activation) epilogue."""
    t = g.op(name, ops.matmul(n, m, k, dtype=dtype, acc_dtype=acc), x)
    t = _requant(g, t, dtype, acc)
    return g.op(f"{name}_bias", ops.bias_add((n, m), dtype, activation=activation), t)


def _transformer_layer(g, x, seq, hidden, heads, dtype, acc, mlp_ratio=4):
    dhead = hidden // heads
    sm_dtype = "float32"
    acc_eff = acc or dtype
    q = _proj(g, x, "q_proj", seq, hidden, hidden, dtype, acc)
    k = _proj(g, x, "k_proj", seq, hidden, hidden, dtype, acc)
    v = _proj(g, x, "v_proj", seq, hidden, hidden, dtype, acc)
    qh = g.op("split_q", ops.split_heads(seq, heads, dhead, dtype), q)
    kt = g.op("split_k", ops.split_heads(seq, heads, dhead, dtype, transpose=True), k)
    vh = g.op("split_v", ops.split_heads(seq, heads, dhead, dtype), v)
    s = g.op("attn_qk", ops.batch_matmul(heads, seq, seq, dhead, dtype=dtype, acc_dtype=acc), qh, kt)
    if acc_eff != sm_dtype:
        s = g.op("scores", ops.cast_to((heads, seq, seq), acc_eff, sm_dtype), s)
    p = g.op("attn_softmax", ops.batch_softmax(heads, seq, seq, sm_dtype), s)
    if dtype != sm_dtype:
        p = g.op("probs", ops.cast_to((heads, seq, seq), sm_dtype, dtype), p)
    a = g.op("attn_v", ops.batch_matmul(heads, seq, dhead, seq, dtype=dtype, acc_dtype=acc), p, vh)
    a = _requant(g, a, dtype, acc)
    m = g.op("merge", ops.merge_heads(heads, seq, dhead, dtype), a)
    o = _proj(g, m, "out_proj", seq, hidden, hidden, dtype, acc)
    o = g.op("resid_attn", ops.add((seq, hidden), dtype), o, x)
    ln1 = _layer_norm_op(g, o, seq, hidden, dtype)
    # Quantised FFNs activate with relu; float ones with gelu.
    act = "relu" if dtype.startswith("int") else "gelu"
    u = _proj(g, ln1, "ffn_up", seq, mlp_ratio * hidden, hidden, dtype, acc, activation=act)
    d = _proj(g, u, "ffn_down", seq, hidden, mlp_ratio * hidden, dtype, acc)
    d = g.op("resid_ffn", ops.add((seq, hidden), dtype), d, ln1)
    return _layer_norm_op(g, d, seq, hidden, dtype)


def bert_large_graph(
    dtype: str = "float16",
    acc: Optional[str] = None,
    seq: int = 384,
    hidden: int = 1024,
    heads: int = 16,
    layers_n: int = 24,
) -> Graph:
    g = Graph("BERT-large")
    t = g.input("x", (seq, hidden), dtype)
    for _ in range(layers_n):
        t = _transformer_layer(g, t, seq, hidden, heads, dtype, acc)
    return g


def bert_base_graph(
    dtype: str = "int8",
    acc: Optional[str] = "int32",
    seq: int = 128,
    hidden: int = 768,
    heads: int = 12,
    layers_n: int = 12,
) -> Graph:
    g = Graph("BERT-base")
    t = g.input("x", (seq, hidden), dtype)
    for _ in range(layers_n):
        t = _transformer_layer(g, t, seq, hidden, heads, dtype, acc)
    return g


def vit_graph(
    dtype: str = "float16",
    acc: Optional[str] = None,
    seq: int = 196,
    hidden: int = 768,
    heads: int = 12,
    layers_n: int = 12,
    patch_dim: int = 768,
    classes: int = 1000,
) -> Graph:
    g = Graph("ViT")
    x = g.input("patches", (seq, patch_dim), dtype)
    t = _proj(g, x, "patch_embed", seq, hidden, patch_dim, dtype, acc)
    for _ in range(layers_n):
        t = _transformer_layer(g, t, seq, hidden, heads, dtype, acc)
    t = _proj(g, t, "head", seq, classes, hidden, dtype, acc)
    return g


GPU_GRAPHS: Dict[str, Graph] = {}
CPU_GRAPHS: Dict[str, Graph] = {}


def gpu_graph(name: str) -> Graph:
    """The fig. 12 and Table 1 networks as dataflow graphs (float16),
    cached."""
    builders = {
        "ResNet-50": resnet50_graph,
        "MobileNet-V2": mobilenet_v2_graph,
        "BERT-large": bert_large_graph,
        "ViT": vit_graph,
    }
    if name not in GPU_GRAPHS:
        GPU_GRAPHS[name] = builders[name]()
    return GPU_GRAPHS[name]


def cpu_graph(name: str) -> Graph:
    """The fig. 14 networks as dataflow graphs (int8/int32), cached."""
    builders = {
        "ResNet-50": lambda: resnet50_graph(dtype="int8", acc="int32"),
        "MobileNet-V2": lambda: mobilenet_v2_graph(dtype="int8", acc="int32"),
        "BERT-base": bert_base_graph,
    }
    if name not in CPU_GRAPHS:
        CPU_GRAPHS[name] = builders[name]()
    return CPU_GRAPHS[name]
