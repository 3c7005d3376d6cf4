"""Graph attention layer over an explicit undirected edge list.

Per head: project features, score each ordered (node, neighbor) pair with a
learned attention vector through a LeakyReLU, softmax the scores over each
node's neighborhood (self-loop included, max-subtracted for stability), and
aggregate the projected neighbor rows. Heads merge by concatenation; hidden
layers apply ELU, output layers are linear.

Message pairs are the pairs (receiver, sender) of every edge in both
directions plus one self-loop per node. MessagePairs holds them only in the
jagged-diagonal (JDS) layout (Saad, Iterative Methods for Sparse Linear
Systems, 2nd ed., 2003): receivers are ordered by descending degree, and
slot j holds the j-th sender (ascending) of every receiver with more than j
pairs. Because the order puts larger degrees first, the receivers of each
slot are a contiguous prefix of that order, so a d-wide step updates
acc[:count_j] of a degree-permuted [n, d] array once per slot and never
builds a [pairs, d] array. The work that does not depend on slot order runs
once per block of consecutive slots, at most max(2**14, n*d) floats: one
row gather, one multiply by the pair weights and, in the backward, one row
sum for the per-pair dots. Only the add into the prefix runs per slot.
Blocks live only inside one call.

A head's backward closure holds its input x, its weights, two n-vectors
(each receiver's max score and its softmax denominator), z = x @ W.T, the
scores' signs, exp and the attention weights. A layer's closure adds only
the ELU layer's output and the mask of its positive entries.

The layout does not change any float sum. numpy's bincount starts every bin
at +0.0 and adds its entries in input order; a receiver's entries in slot
order come in sender-ascending order, the order of the (receiver,
sender)-sorted pairs. The slot loop starts each row at +0.0 too and adds
the receiver's j-th term at slot j, the same rounded products in the same
order; a block only decides how many of those products one numpy call
forms. Sender-keyed sums read each entry's mirror, the slot of the
reversed pair (s, r), so they also run in ascending order of the other end.
The per-pair row dots of the backward multiply the same two factors and sum
each d-wide row with numpy's row sum, which gives a row the same bits
however many rows share the call. Outputs are bit-reproducible.

Each head computes its forward pass and its gradient by hand: gat_head
returns the output with a backward closure, and gat_layer_forward and
gat_stack_forward chain those closures through the concatenation and the
ELU. The gradients are bit-identical to the same layers composed from
generic autodiff ops (`tape_gat_head` in tests/tape.py). That fixes the
order in which contributions are added:

    grad z = (receiver-score term + sender-score term) + aggregation term
    grad W = (x.T @ grad z).T
    grad x = grad z @ W, summed over the heads of a layer from head 0 up

Any other order drifts by an ulp per step.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .autodiff import NumericFault
from .graph import sorted_unique

# the negative-side slope of the LeakyReLU on attention scores
LEAKY_SLOPE = 0.2


@dataclass
class GATLayerParams:
    """Per-head projection weights [d_out, d_in] and attention vectors [2*d_out]."""

    weights: list[np.ndarray]
    attn: list[np.ndarray]
    activation: str = "elu"

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.attn) or not self.weights:
            raise ValueError("need one attention vector per head, at least one head")
        if self.activation not in ("elu", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")
        for w, a in zip(self.weights, self.attn):
            if a.shape != (2 * w.shape[0],):
                raise ValueError("attention vector must have 2 * d_out entries")

    @property
    def num_heads(self) -> int:
        return len(self.weights)


def init_gat_layer(
    rng: np.random.Generator,
    d_in: int,
    d_out_head: int,
    num_heads: int = 1,
    activation: str = "elu",
) -> GATLayerParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init; heads drawn in order, W then a."""
    weights, attn = [], []
    for _ in range(num_heads):
        bw = 1.0 / np.sqrt(d_in)
        weights.append(rng.uniform(-bw, bw, size=(d_out_head, d_in)))
        ba = 1.0 / np.sqrt(2 * d_out_head)
        attn.append(rng.uniform(-ba, ba, size=2 * d_out_head))
    return GATLayerParams(weights=weights, attn=attn, activation=activation)


@dataclass(frozen=True)
class MessagePairs:
    """Both directions of every edge plus one self-loop per node, in the
    jagged-diagonal layout the attention head reads.

    order lists the receivers by descending pair count (stable, so ties keep
    ascending node id). Slot j holds the j-th pair, by ascending sender, of
    the receivers order[:counts[j]], so counts never increases and
    counts[0] = n. Slot entries are concatenated slot after slot; for entry
    k, recv[k] and nbr[k] are its receiver and sender, and mirror[k] is the
    entry holding the reversed pair (nbr[k], recv[k]). mirror is an
    involution, because the pair set is symmetric and free of duplicates.
    slot_bounds[j] is the index of slot j's first entry, and slot_bounds[-1]
    the number of entries.
    """

    order: np.ndarray
    counts: np.ndarray
    recv: np.ndarray
    nbr: np.ndarray
    mirror: np.ndarray
    slot_bounds: tuple[int, ...]

    @property
    def num_nodes(self) -> int:
        return self.order.shape[0]


def _check_edges(edges: np.ndarray, num_nodes: int) -> None:
    bad = (edges < 0) | (edges >= num_nodes)
    if bad.any():
        row = int(np.flatnonzero(bad.any(axis=1))[0])
        raise ValueError(
            f"edge row {row} {edges[row].tolist()}: node id outside [0, {num_nodes})"
        )
    loops = edges[:, 0] == edges[:, 1]
    if loops.any():
        row = int(np.flatnonzero(loops)[0])
        raise ValueError(
            f"edge row {row} {edges[row].tolist()}: self-loop; every node already has one"
        )


def build_message_pairs(edges: np.ndarray, num_nodes: int) -> MessagePairs:
    """Message pairs of an undirected edge list over nodes 0..num_nodes-1.

    An edge listed more than once, in either direction, gives one pair each
    way. Self-loop edges and node ids outside [0, num_nodes) raise
    ValueError naming the first such row.
    """
    n = num_nodes
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    _check_edges(edges, n)
    u, v = edges[:, 0], edges[:, 1]
    loops = np.arange(n, dtype=np.int64)
    keys = sorted_unique(np.concatenate([u * n + v, v * n + u, loops * (n + 1)]))
    dst, src = keys // n, keys % n
    deg = np.bincount(dst, minlength=n)
    order = np.argsort(-deg, kind="stable")
    counts = n - np.cumsum(np.bincount(deg))[:-1]
    slot = np.repeat(np.arange(counts.shape[0]), counts)
    position = np.arange(keys.shape[0]) - (np.cumsum(counts) - counts)[slot]
    recv = order[position]
    # entry k is the slot[k]-th of its receiver's run in the sorted keys
    pair = (np.cumsum(deg) - deg)[recv] + slot
    entry_of_pair = np.empty_like(pair)
    entry_of_pair[pair] = np.arange(pair.shape[0])
    # keys are unique and reversal permutes them, so sorting the reversed
    # keys finds each pair's reverse
    reverse = np.argsort(src * n + dst)
    return MessagePairs(
        order=order,
        counts=counts,
        recv=recv,
        nbr=src[pair],
        mirror=entry_of_pair[reverse[pair]],
        slot_bounds=(0, *np.cumsum(counts).tolist()),
    )


# A gathered block holds at most max(_BLOCK_FLOATS, n * d) floats: enough
# slots per gather to amortise numpy's per-call overhead, few enough to keep
# the transient small. A block never splits a slot.
_BLOCK_FLOATS = 1 << 14


def _jagged_matmul(
    pairs: MessagePairs, weights: np.ndarray, rows: np.ndarray, dot_with: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """(out, dots): out[r] is the sum over r's slot entries k, in slot
    order, of weights[k] * rows[nbr[k]], for [n, d] rows, in node order.

    With dot_with [n, d], dots[k] is the row dot rows[nbr[k]] .
    dot_with[recv[k]], summed the way numpy's row sum adds a [pairs, d]
    array of those products; otherwise dots is None.

    A block of consecutive slots, at most max(_BLOCK_FLOATS // d, n)
    entries, shares one np.take of its rows, one multiply by its weights
    and one row sum of its dot products. Per slot remain the add
    acc[:c] += block[slot] and the products against dot_with's contiguous
    degree-ordered prefix. The bits match a slot-by-slot loop: every
    product is the same two factors, every receiver adds its products in
    slot order, and numpy's row sum does not depend on the row count.
    """
    n, d = pairs.num_nodes, rows.shape[1]
    bounds = pairs.slot_bounds
    cap = max(_BLOCK_FLOATS // d, n)
    acc = np.zeros((n, d))
    dots = None
    if dot_with is not None:
        dot_sorted = dot_with[pairs.order]
        dots = np.empty(pairs.nbr.shape[0])
    j = 0
    while j < len(bounds) - 1:
        lo = bounds[j]
        # the last slot end within the cap; a slot has at most n <= cap entries
        k = bisect_right(bounds, lo + cap, j + 1) - 1
        hi = bounds[k]
        block = rows.take(pairs.nbr[lo:hi], axis=0)
        slots = [(a - lo, b - lo) for a, b in zip(bounds[j:k], bounds[j + 1 : k + 1])]
        if dot_with is not None:
            products = np.empty_like(block)
            for a, b in slots:
                np.multiply(block[a:b], dot_sorted[: b - a], out=products[a:b])
            products.sum(axis=1, out=dots[lo:hi])
            del products
        block *= weights[lo:hi, None]
        for a, b in slots:
            acc[: b - a] += block[a:b]
        del block  # free it before the next gather: one block alive at a time
        j = k
    out = np.empty_like(acc)
    out[pairs.order] = acc
    return out, dots


def _receiver_max(pairs: MessagePairs, values: np.ndarray) -> np.ndarray:
    """Per receiver, the max of its entries' values, in node order."""
    n = pairs.num_nodes
    top = values[:n].copy()  # slot 0 holds every receiver's first pair
    lo = n
    for c in pairs.counts[1:].tolist():
        np.maximum(top[:c], values[lo : lo + c], out=top[:c])
        lo += c
    out = np.empty_like(top)
    out[pairs.order] = top
    return out


def _scores(
    x: np.ndarray, w: np.ndarray, a_recv: np.ndarray, a_send: np.ndarray, pairs: MessagePairs
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z, e, positive): the projection z = x @ w.T and, per slot entry, the
    LeakyReLU score e of z[recv] . a_recv + z[nbr] . a_send and whether its
    argument was positive."""
    z = x @ w.T
    s = (z @ a_recv)[pairs.recv] + (z @ a_send)[pairs.nbr]
    positive = s > 0
    return z, np.where(positive, s, LEAKY_SLOPE * s), positive


def gat_head(x: np.ndarray, w: np.ndarray, a: np.ndarray, pairs: MessagePairs):
    """One attention head: (output [n, d_head], alpha per slot entry,
    backward).

    backward(g) takes the gradient of the output and returns the gradients
    of x, w and a. alpha grouped by receiver sums to 1. The closure keeps x,
    w, a, z, the scores' signs, exp, alpha and two n-vectors, each
    receiver's max score and its softmax denominator.
    """
    recv, n = pairs.recv, pairs.num_nodes
    d = w.shape[0]
    a_recv, a_send = a[:d].copy(), a[d:].copy()
    z, e, positive = _scores(x, w, a_recv, a_send, pairs)
    # max subtraction: the per-neighborhood shift is constant w.r.t. the grad
    shift = -_receiver_max(pairs, e)
    e += shift[recv]
    ez = np.exp(e, out=e)
    denom = np.bincount(recv, weights=ez, minlength=n)
    alpha = ez / denom[recv]
    out, _ = _jagged_matmul(pairs, alpha, z)
    NumericFault.check(out, "gat_head")

    def backward(g):
        d_pairs = denom[recv]
        # one pass over g[nbr] gives the transposed aggregation and, at each
        # entry's mirror, the row dot g[recv] . z[nbr] with its factors in
        # the same order
        g_agg, mirrored_dots = _jagged_matmul(pairs, alpha[pairs.mirror], g, dot_with=z)
        g_alpha = mirrored_dots[pairs.mirror]
        del mirrored_dots
        # in place, each step is the same rounded operation on the same operands
        weights = np.negative(g_alpha)
        weights *= alpha
        weights /= d_pairs
        g_denom = np.bincount(recv, weights=weights, minlength=n)
        del weights
        g_e = np.divide(g_alpha, d_pairs, out=g_alpha)
        g_e += g_denom[recv]
        g_e *= ez
        np.multiply(g_e, LEAKY_SLOPE, out=g_e, where=~positive)
        del d_pairs
        g_recv = np.bincount(recv, weights=g_e, minlength=n)
        # sender-keyed: bin s reads its entries' mirrors, i.e. the pairs (r, s)
        g_send = np.bincount(recv, weights=g_e[pairs.mirror], minlength=n)
        del g_e
        # (receiver-score term + sender-score term) + aggregation term; an
        # IEEE sum does not depend on the order of its two operands
        g_z = g_recv[:, None] * a_recv[None, :]
        g_z += g_send[:, None] * a_send[None, :]
        g_z = np.add(g_agg, g_z, out=g_agg)
        return g_z @ w, (x.T @ g_z).T, np.concatenate([z.T @ g_recv, z.T @ g_send])

    return out, alpha, backward


def gat_layer_forward(params: GATLayerParams, x: np.ndarray, pairs: MessagePairs):
    """One attention layer on features x [n, d_in]: (output, backward).

    backward(g) takes the gradient of the output and returns (gradient of x,
    [W gradient, a gradient] of each head in order, flattened). The closure
    keeps the heads' closures and, for an ELU layer, the output and the mask
    of its positive entries.
    """
    n = x.shape[0]
    if pairs.num_nodes != n:
        raise ValueError(f"message pairs cover {pairs.num_nodes} nodes, features have {n}")
    outs, head_backwards = [], []
    for w, a in zip(params.weights, params.attn):
        head_out, _, head_backward = gat_head(x, w, a, pairs)
        outs.append(head_out)
        head_backwards.append(head_backward)
    out = outs[0] if len(outs) == 1 else np.concatenate(outs, axis=1)
    width = out.shape[1] // len(outs)
    del outs
    positive = None
    if params.activation == "elu":
        # in place: the positive entries keep their value, the rest take expm1
        positive = out > 0
        np.copyto(out, np.expm1(out), where=~positive)
        NumericFault.check(out, "elu")

    def backward(g):
        g_x, grads = None, []
        for h, head_backward in enumerate(head_backwards):
            cols = slice(h * width, (h + 1) * width)
            # the head gathers rows of its slice, faster from a contiguous copy
            if positive is None:
                g_head = np.ascontiguousarray(g[:, cols])
            else:
                # times the ELU derivative: 1 at positive entries, out + 1 elsewhere
                g_head = out[:, cols] + 1.0
                np.copyto(g_head, 1.0, where=positive[:, cols])
                np.multiply(g[:, cols], g_head, out=g_head)
            g_x_head, g_w, g_a = head_backward(g_head)
            grads += [g_w, g_a]
            if g_x is None:
                g_x = g_x_head
            else:
                g_x += g_x_head
        return g_x, grads

    return out, backward


def gat_stack_forward(layers: list[GATLayerParams], x: np.ndarray, pairs: MessagePairs):
    """Layers in order: (output, backward). backward(g) returns (gradient of
    x, every layer's head gradients in layer order, flattened as
    gat_layer_forward lists them)."""
    backwards = []
    for layer in layers:
        x, layer_backward = gat_layer_forward(layer, x, pairs)
        backwards.append(layer_backward)

    def backward(g):
        grads = []
        for layer_backward in reversed(backwards):
            g, layer_grads = layer_backward(g)
            grads = layer_grads + grads
        return g, grads

    return x, backward
