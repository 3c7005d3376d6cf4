"""Graph attention layer over an explicit undirected edge list.

Per head: project features, score each ordered (node, neighbor) pair with a
learned attention vector through a LeakyReLU, softmax the scores over each
node's neighborhood (self-loop included, max-subtracted for stability), and
aggregate the projected neighbor rows. Heads merge by concatenation; hidden
layers apply ELU, output layers are linear.

Message pairs are sorted by (receiver, sender), and scatter reductions follow
that order, so outputs are bit-reproducible.

Each head is a single tape node, `gat_head`, with a hand-written backward.
It is bit-identical to the same head composed from generic autodiff ops
(`tape_gat_head` in tests/oracles.py), forward and backward. That fixes
the order in which its gradient contributions are added:

    grad z = (receiver-score term + sender-score term) + aggregation term
    grad W += (x.T @ grad z).T
    grad x += grad z @ W

Any other order drifts by an ulp per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class GATLayerParams:
    """Per-head projection weights [d_out, d_in] and attention vectors [2*d_out]."""

    weights: list[Tensor]
    attn: list[Tensor]
    leaky_slope: float = 0.2
    activation: str = "elu"

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.attn) or not self.weights:
            raise ValueError("need one attention vector per head, at least one head")
        if self.activation not in ("elu", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")
        for w, a in zip(self.weights, self.attn):
            if a.data.shape != (2 * w.data.shape[0],):
                raise ValueError("attention vector must have 2 * d_out entries")

    @property
    def num_heads(self) -> int:
        return len(self.weights)

    @property
    def d_in(self) -> int:
        return self.weights[0].data.shape[1]

    @property
    def d_out(self) -> int:
        return self.weights[0].data.shape[0] * len(self.weights)


def init_gat_layer(
    rng: np.random.Generator,
    d_in: int,
    d_out_head: int,
    num_heads: int = 1,
    activation: str = "elu",
    leaky_slope: float = 0.2,
) -> GATLayerParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init; heads drawn in order, W then a."""
    weights, attn = [], []
    for _ in range(num_heads):
        bw = 1.0 / np.sqrt(d_in)
        weights.append(Tensor(rng.uniform(-bw, bw, size=(d_out_head, d_in))))
        ba = 1.0 / np.sqrt(2 * d_out_head)
        attn.append(Tensor(rng.uniform(-ba, ba, size=2 * d_out_head)))
    return GATLayerParams(
        weights=weights, attn=attn, leaky_slope=leaky_slope, activation=activation
    )


@dataclass(frozen=True)
class MessagePairs:
    """Both directions of every edge plus one self-loop per node, as
    (receiver dst, sender src) arrays lexsorted by (dst, src). starts[i] is
    the index of receiver i's first pair; self-loops make every run nonempty."""

    dst: np.ndarray
    src: np.ndarray
    starts: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.starts.shape[0]


def build_message_pairs(edges: np.ndarray, num_nodes: int) -> MessagePairs:
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    loops = np.arange(num_nodes, dtype=np.int64)
    dst = np.concatenate([edges[:, 0], edges[:, 1], loops])
    src = np.concatenate([edges[:, 1], edges[:, 0], loops])
    order = np.lexsort((src, dst))
    dst, src = dst[order], src[order]
    return MessagePairs(dst=dst, src=src, starts=np.searchsorted(dst, loops))


def gat_head(
    x: Tensor, w: Tensor, a: Tensor, pairs: MessagePairs, slope: float
) -> tuple[Tensor, np.ndarray]:
    """One attention head as one tape node: (output [n, d_head], alpha per pair).

    alpha grouped by receiver sums to 1. The backward recomputes the gathered
    rows z[src] instead of keeping them, so the tape holds O(n*d + pairs)
    floats per head.
    """
    dst, src, n = pairs.dst, pairs.src, pairs.num_nodes
    d = w.data.shape[0]
    a_recv, a_send = a.data[:d].copy(), a.data[d:].copy()
    z = x.data @ w.data.T
    s = (z @ a_recv)[dst] + (z @ a_send)[src]
    positive = s > 0
    e = np.where(positive, s, slope * s)
    # max subtraction: the per-neighborhood shift is constant w.r.t. the grad
    ez = np.exp(e + (-np.maximum.reduceat(e, pairs.starts))[dst])
    denom = ad._segment_sum(ez, dst, n)
    alpha = ez / denom[dst]
    out = ad._segment_sum(alpha[:, None] * z[src], dst, n)

    def bwd(g):
        g_pairs = g[dst]
        g_alpha = (g_pairs * z[src]).sum(axis=1)
        d_pairs = denom[dst]
        g_denom = ad._segment_sum(-g_alpha * alpha / d_pairs, dst, n)
        g_e = (g_alpha / d_pairs + g_denom[dst]) * ez * np.where(positive, 1.0, slope)
        g_recv = ad._segment_sum(g_e, dst, n)
        g_send = ad._segment_sum(g_e, src, n)
        g_z = (
            g_recv[:, None] * a_recv[None, :]
            + g_send[:, None] * a_send[None, :]
            + ad._segment_sum(alpha[:, None] * g_pairs, src, n)
        )
        ad._acc(a, np.concatenate([z.T @ g_recv, z.T @ g_send]))
        ad._acc(w, (x.data.T @ g_z).T)
        ad._acc(x, g_z @ w.data)

    return Tensor(out, (x, w, a), bwd, "gat_head"), alpha


def gat_layer_forward(
    params: GATLayerParams,
    x: Tensor,
    edges: np.ndarray | MessagePairs,
    return_attention: bool = False,
):
    """One attention layer on features x [n, d_in] and an undirected edge list.

    `edges` may also be prebuilt MessagePairs, so stacked layers and repeated
    steps share one construction. With return_attention, also returns
    (receiver, sender, [alpha per head]); alpha rows grouped by receiver sum
    to 1.
    """
    n = x.data.shape[0]
    pairs = edges if isinstance(edges, MessagePairs) else build_message_pairs(edges, n)
    if pairs.num_nodes != n:
        raise ValueError(f"message pairs cover {pairs.num_nodes} nodes, features have {n}")
    heads = [
        gat_head(x, w, a, pairs, params.leaky_slope) for w, a in zip(params.weights, params.attn)
    ]
    merged = heads[0][0] if len(heads) == 1 else ad.concat_cols([h for h, _ in heads])
    out = ad.elu(merged) if params.activation == "elu" else merged
    if return_attention:
        return out, (pairs.dst, pairs.src, [alpha.copy() for _, alpha in heads])
    return out


def gat_stack_forward(
    layers: list[GATLayerParams], x: Tensor, edges: np.ndarray | MessagePairs
) -> Tensor:
    if not isinstance(edges, MessagePairs):
        edges = build_message_pairs(edges, x.data.shape[0])
    for layer in layers:
        x = gat_layer_forward(layer, x, edges)
    return x
