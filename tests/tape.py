"""The generic reverse-mode autodiff tape: the oracle for stage 1's
hand-written gradients.

The package computes every gradient by hand (gat.gat_head and the
reconstruction terms in hgmae). This module composes the same model from
generic ops over dense float64 numpy arrays: linear maps, row
gather/scatter, per-segment softmax pieces, activations and scalar
reductions, each a tape node with its own backward. The hand-written
gradients must equal the tape's bit for bit, not within a tolerance.

Every op checks its output for NaN/Inf and raises NumericFault naming the
op. Reductions use numpy's deterministic accumulation order, so repeated
runs on equal inputs are bit-identical. A node's gradient is the sum of
its consumers' contributions in the order backward() visits them: a
hand-written backward must add its contributions in that order to stay
bit-identical. grad_check compares any analytic gradient with central
finite differences.

This is a test fixture, not product code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from riskprop.autodiff import NumericFault
from riskprop.gat import LEAKY_SLOPE

from oracles import sorted_pairs


class Tensor:
    """Array node in the tape. grad is allocated lazily on first accumulation."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, _parents=(), _backward=None, _op="tensor"):
        self.data = NumericFault.check(np.asarray(data, dtype=np.float64), _op)
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def constant(data) -> Tensor:
    return Tensor(data)


def _acc(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)  # own buffer; g may be a broadcast view
        if t.grad.shape != t.data.shape:
            t.grad = np.broadcast_to(t.grad, t.data.shape).copy()
    else:
        t.grad += g


def backward(root: Tensor) -> None:
    """Accumulate gradients of the scalar `root` into every reachable tensor."""
    if root.data.shape != ():
        raise ValueError("backward root must be a scalar tensor")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    _acc(root, np.array(1.0))
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data @ b.data

    def bwd(g):
        _acc(a, g @ b.data.T)
        _acc(b, a.data.T @ g)

    return Tensor(out_data, (a, b), bwd, "matmul")


def transpose(a: Tensor) -> Tensor:
    return Tensor(a.data.T, (a,), lambda g: _acc(a, g.T), "transpose")


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        _acc(a, g)
        _acc(b, g)

    return Tensor(a.data + b.data, (a, b), bwd, "add")


def scale_shift(a: Tensor, scale: float = 1.0, shift: float = 0.0) -> Tensor:
    """scale * a + shift with constant scalars."""
    return Tensor(scale * a.data + shift, (a,), lambda g: _acc(a, scale * g), "scale_shift")


def add_const(a: Tensor, c: np.ndarray) -> Tensor:
    """a + c where c is a plain array treated as a constant (no gradient)."""
    return Tensor(a.data + c, (a,), lambda g: _acc(a, g), "add_const")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        _acc(a, g * b.data)
        _acc(b, g * a.data)

    return Tensor(a.data * b.data, (a, b), bwd, "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"div shape mismatch {a.data.shape} vs {b.data.shape}")
    out_data = a.data / b.data

    def bwd(g):
        _acc(a, g / b.data)
        _acc(b, -g * out_data / b.data)

    return Tensor(out_data, (a, b), bwd, "div")


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    return Tensor(out_data, (a,), lambda g: _acc(a, g * out_data), "exp")


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)
    return Tensor(out_data, (a,), lambda g: _acc(a, g * 0.5 / out_data), "sqrt")


def power(a: Tensor, p: float) -> Tensor:
    """a ** p elementwise; caller guarantees p >= 1 (p == 1 is free)."""
    if p == 1.0:
        return a
    out_data = a.data**p
    return Tensor(out_data, (a,), lambda g: _acc(a, g * p * a.data ** (p - 1.0)), "power")


def total_sum(a: Tensor) -> Tensor:
    return Tensor(a.data.sum(), (a,), lambda g: _acc(a, np.broadcast_to(g, a.data.shape)), "sum")


def rowsum(a: Tensor) -> Tensor:
    """[n, d] -> [n]."""
    return Tensor(
        a.data.sum(axis=1),
        (a,),
        lambda g: _acc(a, np.broadcast_to(g[:, None], a.data.shape)),
        "rowsum",
    )


def matvec(a: Tensor, v: Tensor) -> Tensor:
    """[n, d] @ [d] -> [n]."""
    out_data = a.data @ v.data

    def bwd(g):
        _acc(a, g[:, None] * v.data[None, :])
        _acc(v, a.data.T @ g)

    return Tensor(out_data, (a, v), bwd, "matvec")


def colmul(v: Tensor, a: Tensor) -> Tensor:
    """v[:, None] * a for a vector v [n] and matrix a [n, d]."""

    def bwd(g):
        _acc(v, (g * a.data).sum(axis=1))
        _acc(a, v.data[:, None] * g)

    return Tensor(v.data[:, None] * a.data, (v, a), bwd, "colmul")


def _segment_sum(values: np.ndarray, idx: np.ndarray, num_rows: int) -> np.ndarray:
    """Sum rows of `values` into num_rows bins given by idx.

    bincount adds each bin's entries in input order, like np.add.at but much
    faster. Rows of a 2-D input go through one bincount over the flattened
    index idx*d + column, which adds in the same order as one bincount per
    column, so the result is bit-identical to it. np.add.reduceat is not:
    it re-associates the sums.
    """
    if values.ndim == 1:
        return np.bincount(idx, weights=values, minlength=num_rows)
    d = values.shape[1]
    flat = (idx[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=num_rows * d).reshape(num_rows, d)


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)

    def bwd(g):
        _acc(a, _segment_sum(g, idx, a.data.shape[0]))

    return Tensor(a.data[idx], (a,), bwd, "gather_rows")


def scatter_sum(a: Tensor, idx: np.ndarray, num_rows: int) -> Tensor:
    """out[i] = sum of a rows with idx == i; out has num_rows rows."""
    idx = np.asarray(idx, dtype=np.int64)
    out_data = _segment_sum(a.data, idx, num_rows)
    return Tensor(out_data, (a,), lambda g: _acc(a, g[idx]), "scatter_sum")


def set_rows(base: Tensor, idx: np.ndarray, rows: Tensor) -> Tensor:
    """Copy of base with rows at idx replaced; idx entries must be unique."""
    idx = np.asarray(idx, dtype=np.int64)
    out_data = base.data.copy()
    out_data[idx] = rows.data

    def bwd(g):
        gb = g.copy()
        gb[idx] = 0.0
        _acc(base, gb)
        _acc(rows, g[idx])

    return Tensor(out_data, (base, rows), bwd, "set_rows")


def repeat_row(v: Tensor, count: int) -> Tensor:
    """Tile vector v into [count, len(v)]."""
    out_data = np.broadcast_to(v.data, (count, v.data.shape[0])).copy()
    return Tensor(out_data, (v,), lambda g: _acc(v, g.sum(axis=0)), "repeat_row")


def concat_cols(parts: list[Tensor]) -> Tensor:
    widths = [p.data.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def bwd(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _acc(p, g[:, lo:hi])

    return Tensor(np.concatenate([p.data for p in parts], axis=1), tuple(parts), bwd, "concat_cols")


def slice1d(a: Tensor, start: int, stop: int) -> Tensor:
    def bwd(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        _acc(a, full)

    return Tensor(a.data[start:stop].copy(), (a,), bwd, "slice1d")


def leaky_relu(a: Tensor, slope: float) -> Tensor:
    out_data = np.where(a.data > 0, a.data, slope * a.data)
    return Tensor(
        out_data, (a,), lambda g: _acc(a, g * np.where(a.data > 0, 1.0, slope)), "leaky_relu"
    )


def elu(a: Tensor) -> Tensor:
    out_data = np.where(a.data > 0, a.data, np.expm1(a.data))
    return Tensor(
        out_data, (a,), lambda g: _acc(a, g * np.where(a.data > 0, 1.0, out_data + 1.0)), "elu"
    )


# ---------------------------------------------------------------------------
# finite-difference gradient checking


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    worst_index: int
    checked: int
    tol: float
    h: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def grad_check(
    loss_fn,
    params: dict[str, np.ndarray],
    analytic: dict[str, np.ndarray],
    h: float = 1e-5,
    tol: float = 1e-4,
    sample: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Central-difference check of `analytic` against `loss_fn`.

    loss_fn() re-evaluates the scalar loss at the current contents of the
    arrays in `params` (perturbed in place and restored), so it must be a
    deterministic closure over them. `sample` limits the check to that many
    uniformly chosen coordinates. The relative error denominator is floored
    at 1e-6 so finite-difference roundoff on near-zero gradients does not
    dominate the report.
    """
    coords = [(name, i) for name, arr in params.items() for i in range(arr.size)]
    if sample is not None and sample < len(coords):
        if rng is None:
            raise ValueError("sampled grad_check needs an rng")
        pick = rng.choice(len(coords), size=sample, replace=False)
        coords = [coords[int(j)] for j in np.sort(pick)]

    max_err, worst = -1.0, ("", -1)
    for name, i in coords:
        arr = params[name]
        orig = arr.flat[i]
        arr.flat[i] = orig + h
        f_plus = float(loss_fn())
        arr.flat[i] = orig - h
        f_minus = float(loss_fn())
        arr.flat[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
        exact = float(analytic[name].flat[i])
        err = abs(exact - numeric) / max(abs(exact), abs(numeric), 1e-6)
        if err > max_err:
            max_err, worst = err, (name, i)

    return GradCheckReport(
        max_rel_err=max_err,
        worst_param=worst[0],
        worst_index=worst[1],
        checked=len(coords),
        tol=tol,
        h=h,
    )


# ---------------------------------------------------------------------------
# stage 1 composed from the ops above


def tape_gat_head(x, w, a, dst: np.ndarray, src: np.ndarray, slope: float):
    """One attention head composed from generic tape ops, one node per step
    (projection, score halves, gathers, LeakyReLU, shifted exp, segment
    softmax, weighted aggregation). This is the reference the hand-written
    gat.gat_head must match bit for bit, forward and backward.
    Returns (output tensor, alpha tensor)."""
    n = x.data.shape[0]
    d_head = w.data.shape[0]
    z = matmul(x, transpose(w))
    score_recv = matvec(z, slice1d(a, 0, d_head))
    score_send = matvec(z, slice1d(a, d_head, 2 * d_head))
    e = leaky_relu(add(gather_rows(score_recv, dst), gather_rows(score_send, src)), slope)
    # max subtraction: the per-neighborhood shift is constant w.r.t. the grad
    shift = -np.maximum.reduceat(e.data, np.searchsorted(dst, np.arange(n)))
    ez = exp(add_const(e, shift[dst]))
    denom = scatter_sum(ez, dst, n)
    alpha = div(ez, gather_rows(denom, dst))
    out = scatter_sum(colmul(alpha, gather_rows(z, src)), dst, n)
    return out, alpha


def tape_gat_layer(layer, x, dst: np.ndarray, src: np.ndarray, weights, attn):
    """A whole layer on the tape_gat_head reference, with the layer's
    weights and attention vectors given as tensors: heads concatenated, then
    the layer's activation. Returns (output tensor, [alpha array per head])."""
    heads = [tape_gat_head(x, w, a, dst, src, LEAKY_SLOPE) for w, a in zip(weights, attn)]
    merged = heads[0][0] if len(heads) == 1 else concat_cols([out for out, _ in heads])
    out = elu(merged) if layer.activation == "elu" else merged
    return out, [alpha.data for _, alpha in heads]


def tape_sce_loss(x: np.ndarray, z: Tensor, masked_ids: np.ndarray, gamma: float) -> Tensor:
    """Scaled cosine error averaged over the masked rows; rows with a zero
    norm contribute the constant 1."""
    m = masked_ids.size
    x_rows = x[masked_ids]
    x_norm = np.linalg.norm(x_rows, axis=1)
    good = (x_norm > 0.0) & (np.linalg.norm(z.data[masked_ids], axis=1) > 0.0)
    n_bad = int(m - good.sum())
    if not good.any():
        return constant(1.0)
    zg = gather_rows(z, masked_ids[good])
    xg = constant(x_rows[good])
    dots = rowsum(mul(xg, zg))
    norms = mul(constant(x_norm[good]), sqrt(rowsum(mul(zg, zg))))
    terms = power(scale_shift(div(dots, norms), -1.0, 1.0), gamma)
    return scale_shift(total_sum(terms), 1.0 / m, n_bad / m)


def tape_term(x: np.ndarray, pairs, plan, params, tensors: dict[str, Tensor], gamma: float):
    """One masked reconstruction term on the tape. tensors maps each name of
    params.named_arrays() to its leaf tensor."""
    dst, src, _ = sorted_pairs(pairs)

    def stack(name, layers, h):
        for li, layer in enumerate(layers):
            prefix = [f"{name}.{li}.head{hi}" for hi in range(layer.num_heads)]
            weights = [tensors[p + ".W"] for p in prefix]
            attn = [tensors[p + ".a"] for p in prefix]
            h, _ = tape_gat_layer(layer, h, dst, src, weights, attn)
        return h

    out = constant(x)
    if plan.token_ids.size:
        out = set_rows(out, plan.token_ids, repeat_row(tensors["mask_token"], plan.token_ids.size))
    if plan.random_ids.size:
        out = set_rows(out, plan.random_ids, constant(x[plan.random_src_ids]))
    latent = stack("encoder", params.encoder, out)
    if plan.masked_ids.size:
        token_rows = repeat_row(tensors["remask_token"], plan.masked_ids.size)
        latent = set_rows(latent, plan.masked_ids, token_rows)
    return tape_sce_loss(x, stack("decoder", params.decoder, latent), plan.masked_ids, gamma)


def tape_hgmae_loss(terms, params, cfg, plans):
    """hgmae.hgmae_loss on the tape: (total, full term, {type id: subgraph
    term}, {name: gradient}), the losses as floats. Each plan runs the term
    at its position. Missing gradients are zeros."""
    tensors = {name: Tensor(arr.copy()) for name, arr in params.named_arrays().items()}
    subs = {
        term.edge_type: tape_term(term.features, term.pairs, plan, params, tensors, cfg.gamma)
        for term, plan in zip(terms, plans)
    }
    full = subs.pop(None)
    total = full
    if cfg.eta != 0.0 and subs:
        values = list(subs.values())
        acc = values[0]
        for t in values[1:]:
            acc = add(acc, t)
        total = add(full, scale_shift(acc, cfg.eta / len(values)))
    backward(total)
    grads = {
        name: t.grad if t.grad is not None else np.zeros_like(t.data) for name, t in tensors.items()
    }
    return total.item(), full.item(), {k: t.item() for k, t in subs.items()}, grads
