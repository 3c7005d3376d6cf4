"""Masked-autoencoder pre-training for heterogeneous graphs.

One training step corrupts half the nodes' feature rows (a learnable mask
token, with a small share substituted by another node's features), encodes
with a GAT stack, re-masks the corrupted latent rows with a second learnable
token, decodes with a GAT layer, and scores reconstruction with a scaled
cosine error averaged over the masked rows. The step repeats this on the
full graph and on every single-relation-type subgraph with independent mask
draws, and combines the terms as

    total = full_term + (eta / K_eff) * sum of subgraph terms

where K_eff counts edge types that actually have edges. With eta = 0 only
the full-graph term is computed, which is the plain homogeneous masked
autoencoder this model extends.

Each term computes its forward pass and then its gradient by hand: the
encoder stack and remask_and_decode return their outputs with backward
closures (the heads' closures from gat.py, chained), sce_loss returns the
loss with its own and its count of zero-norm rows, and the mask token's
gradient sums the gradients of the rows it fills. A term runs its backward
as soon as its forward pass ends, and drops each closure once it has run.
A head's closure keeps its input, its weights, two n-vectors and its
per-pair arrays; when two terms are in flight it recomputes the per-pair
arrays in its backward instead (the recompute flag of gat.gat_head), so
each term holds O(n*d) floats between its passes.

A step's terms wait in one queue, largest first by message pairs, and
each thread that runs them takes the next one from it. On a small graph
the calling thread runs them all. When the full graph has at least
THREADED_MIN_PAIRS message pairs, pretrain runs two at a time, on the
calling thread and one helper thread that the step starts and joins, if it
may use two threads: by default it may use every usable CPU, and
run_pretrain gives each worker process its share. Two terms in flight,
their heads recomputing, take about the memory of one term whose heads
keep their arrays. Either way hgmae_loss adds the terms' gradients on the
calling thread in term order, full graph first, then the subgraphs by
ascending type id, which makes them bit-identical to the same model
composed from generic autodiff ops (tests/tape.py) and independent of the
thread count. No count, thread or other state outlives a call: each step
returns its own in its LossParts.

Inference re-runs the encoder on uncorrupted features over the full graph;
no masking, no subgraphs.

The graph never changes during training, so pretrain plans its terms
once: a list of Terms, the full graph's first, then one per nonempty edge
type by ascending type id. A Term holds a feature array, its message pairs
in the jagged-diagonal layout the attention heads run on (see gat.py), and
its edge type (None for the full graph). The full graph's term reads the
union of all edge types; each type's term reads the rows of the nodes that
type's edges touch, renumbered in ascending node id. Mask draws and loss
terms read only those terms.
"""

from __future__ import annotations

import os
import threading
import warnings
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import NumericFault
from .gat import (
    GATLayerParams,
    MessagePairs,
    build_message_pairs,
    gat_stack_forward,
    init_gat_layer,
)
from .graph import HeteroGraph, sorted_unique
from .optim import AdamState, adam_step
from .table import Block, Check, read_table, write_table


class MaskingError(ValueError):
    pass


@dataclass
class TrainConfig:
    """Pre-training hyperparameters.

    gamma sharpens the per-row cosine penalty; eta weights the mean of the
    per-edge-type subgraph reconstruction terms (0 disables them). Encoder is
    hidden_heads concatenated attention heads of hidden_head_dim each, then a
    single head down to d_emb; decoder is one head back to the input width.
    """

    mask_ratio: float = 0.5
    random_sub_rate: float = 0.15
    gamma: float = 1.0
    eta: float = 1.0
    d_emb: int = 32
    epochs: int = 300
    lr: float = 5e-3
    hidden_heads: int = 4
    hidden_head_dim: int = 16
    rng_seed: int = 0

    def __post_init__(self) -> None:
        problems = []
        if not 0.0 < self.mask_ratio < 1.0:
            problems.append("mask_ratio must be in (0, 1)")
        if not 0.0 <= self.random_sub_rate <= 1.0:
            problems.append("random_sub_rate must be in [0, 1]")
        if self.gamma < 1.0:
            problems.append("gamma must be >= 1")
        if self.eta < 0.0:
            problems.append("eta must be >= 0")
        if self.d_emb < 1 or self.hidden_heads < 1 or self.hidden_head_dim < 1:
            problems.append("d_emb, hidden_heads, hidden_head_dim must be >= 1")
        if self.epochs < 0:
            problems.append("epochs must be >= 0")
        if self.lr <= 0:
            problems.append("lr must be > 0")
        if problems:
            raise ValueError("invalid TrainConfig: " + "; ".join(problems))


@dataclass
class MaskPlan:
    """A sampled corruption: which rows are masked and how each is replaced.

    token_ids rows get the learnable mask token; random_ids rows get the
    feature row of the aligned donor in random_src_ids (donors are drawn
    uniformly, with replacement, from outside the masked set). rng_seed is
    the child seed the draw used, so a plan is reproducible on its own.
    """

    num_nodes: int
    masked_ids: np.ndarray
    token_ids: np.ndarray
    random_ids: np.ndarray
    random_src_ids: np.ndarray
    rng_seed: int


def sample_mask(n: int, cfg: TrainConfig, rng: np.random.Generator) -> MaskPlan:
    """Uniform mask draw: round(mask_ratio*n) rows, round(random_sub_rate*count)
    of them substituted instead of tokenized."""
    if n < 2:
        raise MaskingError(f"graph too small to mask: {n} node(s)")
    count = int(round(cfg.mask_ratio * n))
    if count == 0:
        raise MaskingError(f"graph too small to mask: ratio {cfg.mask_ratio} of {n} rounds to 0")
    if count >= n:
        raise MaskingError(f"mask of {count} rows would cover all {n} nodes")
    plan_seed = int(rng.integers(0, 2**63))
    prng = np.random.default_rng(plan_seed)
    masked = np.sort(prng.choice(n, size=count, replace=False))
    n_random = int(round(cfg.random_sub_rate * count))
    positions = np.sort(prng.choice(count, size=n_random, replace=False))
    random_ids = masked[positions]
    token_ids = np.delete(masked, positions)
    unmasked = np.ones(n, dtype=bool)
    unmasked[masked] = False
    pool = np.flatnonzero(unmasked)
    random_src = pool[prng.integers(0, pool.size, size=n_random)]
    return MaskPlan(
        num_nodes=n,
        masked_ids=masked,
        token_ids=token_ids,
        random_ids=random_ids,
        random_src_ids=random_src,
        rng_seed=plan_seed,
    )


@dataclass
class ModelParams:
    """All trainable arrays: encoder/decoder attention layers plus the two
    learnable corruption tokens."""

    encoder: list[GATLayerParams]
    decoder: list[GATLayerParams]
    mask_token: np.ndarray
    remask_token: np.ndarray

    @property
    def d_in(self) -> int:
        return self.mask_token.shape[0]

    def named_arrays(self) -> dict[str, np.ndarray]:
        """Every parameter by name: each layer's heads (W, then a), encoder
        then decoder, then the two tokens. The values are the live arrays, so
        an in-place update changes the model."""
        out: dict[str, np.ndarray] = {}
        for stack_name, stack in (("encoder", self.encoder), ("decoder", self.decoder)):
            for li, layer in enumerate(stack):
                for hi, (w, a) in enumerate(zip(layer.weights, layer.attn)):
                    out[f"{stack_name}.{li}.head{hi}.W"] = w
                    out[f"{stack_name}.{li}.head{hi}.a"] = a
        out["mask_token"] = self.mask_token
        out["remask_token"] = self.remask_token
        return out


def init_params(d_in: int, cfg: TrainConfig, rng: np.random.Generator) -> ModelParams:
    """Two-layer encoder (multi-head hidden, single-head output), one-layer
    decoder; tokens start at zero. Layers draw in order, W before a."""
    encoder = [
        init_gat_layer(rng, d_in, cfg.hidden_head_dim, cfg.hidden_heads, "elu"),
        init_gat_layer(rng, cfg.hidden_heads * cfg.hidden_head_dim, cfg.d_emb, 1, "identity"),
    ]
    decoder = [init_gat_layer(rng, cfg.d_emb, d_in, 1, "identity")]
    return ModelParams(
        encoder=encoder,
        decoder=decoder,
        mask_token=np.zeros(d_in),
        remask_token=np.zeros(cfg.d_emb),
    )


def param_shapes(d_in: int, cfg: TrainConfig) -> dict[str, tuple[int, ...]]:
    """The names and shapes of init_params(d_in, cfg).named_arrays(), in
    the same order, worked out without allocating an array."""
    hidden = cfg.hidden_heads * cfg.hidden_head_dim
    layers = (
        ("encoder.0", cfg.hidden_heads, cfg.hidden_head_dim, d_in),
        ("encoder.1", 1, cfg.d_emb, hidden),
        ("decoder.0", 1, d_in, cfg.d_emb),
    )
    shapes: dict[str, tuple[int, ...]] = {}
    for prefix, heads, d_out, fan_in in layers:
        for h in range(heads):
            shapes[f"{prefix}.head{h}.W"] = (d_out, fan_in)
            shapes[f"{prefix}.head{h}.a"] = (2 * d_out,)
    shapes["mask_token"] = (d_in,)
    shapes["remask_token"] = (cfg.d_emb,)
    return shapes


def apply_mask(x: np.ndarray, plan: MaskPlan, params: ModelParams) -> np.ndarray:
    """Corrupt feature rows per the plan; unmasked rows are copied bit-for-bit."""
    if x.shape[0] != plan.num_nodes:
        raise ValueError(f"plan built for {plan.num_nodes} nodes, features have {x.shape[0]}")
    out = x.copy()
    out[plan.token_ids] = params.mask_token
    out[plan.random_ids] = x[plan.random_src_ids]
    return NumericFault.check(out, "mask")


@dataclass(frozen=True)
class Term:
    """What one reconstruction term reads: node features, their message
    pairs, and the edge type they come from (None for the full graph)."""

    features: np.ndarray
    pairs: MessagePairs
    edge_type: int | None


def plan_graph(g: HeteroGraph) -> list[Term]:
    """The full graph's term, then one term per nonempty edge type by ascending type id."""
    terms = [Term(g.node_features, build_message_pairs(g.union_edges(), g.num_nodes), None)]
    for k in range(g.num_edge_types):
        edges = g.edge_lists[k]
        if edges.shape[0]:
            ids = sorted_unique(edges)
            pairs = build_message_pairs(np.searchsorted(ids, edges), ids.shape[0])
            terms.append(Term(g.node_features[ids], pairs, k))
    return terms


def remask_and_decode(
    latent: np.ndarray,
    plan: MaskPlan,
    params: ModelParams,
    pairs: MessagePairs,
    recompute: bool = False,
):
    """Replace masked latent rows with the re-mask token, then run the
    decoder, its heads built with recompute as gat.gat_head takes it:
    (reconstruction, backward). backward(g) returns (gradient of latent,
    gradient of the re-mask token, decoder head gradients)."""
    masked = plan.masked_ids
    remasked = latent.copy()
    remasked[masked] = params.remask_token
    NumericFault.check(remasked, "remask")
    recon, decoder_backward = gat_stack_forward(params.decoder, remasked, pairs, recompute)

    def backward(g):
        g_latent, grads = decoder_backward(g)
        g_token = g_latent[masked].sum(axis=0)
        g_latent[masked] = 0.0
        return g_latent, g_token, grads

    return recon, backward


def sce_loss(x: np.ndarray, z: np.ndarray, masked_ids: np.ndarray, gamma: float = 1.0):
    """Scaled cosine error (1 - cos(x_i, z_i))**gamma averaged over masked
    rows: (loss, backward, zero_rows). backward(upstream) returns the
    gradient of upstream * loss with respect to z. A masked row whose
    original or reconstructed vector has exactly zero norm takes the maximum
    penalty instead of poisoning the loss with NaN; zero_rows counts them.
    They are expected early in training, while the tokens sit at zero. When
    every masked row has zero norm the loss is the constant 1 and backward
    is None."""
    masked_ids = np.asarray(masked_ids, dtype=np.int64)
    m = masked_ids.size
    if m == 0:
        raise ValueError("sce_loss needs at least one masked row")
    x_rows = x[masked_ids]
    x_norm = np.linalg.norm(x_rows, axis=1)
    z_norm = np.linalg.norm(z[masked_ids], axis=1)
    good = (x_norm > 0.0) & (z_norm > 0.0)
    n_bad = int(m - good.sum())
    if not good.any():
        return 1.0, None, n_bad

    rows = masked_ids[good]
    zg, xg, xn = z[rows], x_rows[good], x_norm[good]
    dots = (xg * zg).sum(axis=1)
    root = np.sqrt((zg * zg).sum(axis=1))
    norms = NumericFault.check(xn * root, "sce")
    cos = dots / norms
    slack = 1.0 - cos
    terms = slack if gamma == 1.0 else slack**gamma
    # mean over all masked rows; zero-norm rows contribute the constant 1
    loss = float(NumericFault.check(1.0 / m * terms.sum() + n_bad / m, "sce"))
    shape = z.shape

    def backward(upstream):
        g_slack = 1.0 / m * upstream
        if gamma != 1.0:
            g_slack = g_slack * gamma * slack ** (gamma - 1.0)
        # through cos = dots / (|x| * root) and root = sqrt(rowsum(zg * zg)),
        # each product associated as the tape's op chain does
        g_dots = -g_slack / norms
        g_sq = (g_slack * cos / norms * xn * 0.5 / root)[:, None]
        # zg's gradient adds the dot path first, then the norm path once per
        # factor of zg * zg
        g_zg = g_dots[:, None] * xg
        norm_path = g_sq * zg
        g_zg += norm_path
        g_zg += norm_path
        # added into zeros, not assigned: a -0.0 turns into +0.0 as in a
        # bincount scatter
        g_z = np.zeros(shape)
        g_z[rows] += g_zg
        return g_z

    return loss, backward, n_bad


def make_step_plans(
    terms: list[Term], cfg: TrainConfig, rng: np.random.Generator
) -> list[MaskPlan]:
    """One independent draw per term, in term order. With eta == 0 only the
    full graph's is drawn."""
    drawn = terms if cfg.eta != 0.0 else terms[:1]
    return [sample_mask(term.pairs.num_nodes, cfg, rng) for term in drawn]


@dataclass
class LossParts:
    total: float
    full: float
    subs: dict[int, float]
    zero_norm_rows: int

    @property
    def sub_mean(self) -> float:
        if not self.subs:
            return float("nan")
        return float(np.mean(list(self.subs.values())))


def _reconstruction_term(
    term: Term,
    plan: MaskPlan,
    params: ModelParams,
    cfg: TrainConfig,
    upstream: float,
    recompute: bool = False,
) -> tuple[float, dict[str, np.ndarray], int]:
    """One masked reconstruction term, forward and then backward: (loss, the
    gradient of upstream * loss per parameter name, the number of zero-norm
    rows). A parameter the term does not reach has no entry: the mask token
    when no row gets it, and every parameter when the loss is the constant 1.
    Each backward closure is dropped once it has run, which frees the
    forward state it kept; with recompute, the heads keep no per-pair
    arrays between the passes (gat.gat_head)."""
    x, pairs = term.features, term.pairs
    corrupted = apply_mask(x, plan, params)
    latent, encoder_backward = gat_stack_forward(params.encoder, corrupted, pairs, recompute)
    recon, decoder_backward = remask_and_decode(latent, plan, params, pairs, recompute)
    del latent
    loss, sce_backward, zero_rows = sce_loss(x, recon, plan.masked_ids, cfg.gamma)
    del recon
    if sce_backward is None:
        return loss, {}, zero_rows
    g_latent, g_remask_token, decoder_grads = decoder_backward(sce_backward(upstream))
    del decoder_backward, sce_backward
    g_corrupted, encoder_grads = encoder_backward(g_latent)
    # the head gradients come in named_arrays order, which lists the tokens last
    grads = dict(zip(params.named_arrays(), encoder_grads + decoder_grads))
    if plan.token_ids.size:
        grads["mask_token"] = g_corrupted[plan.token_ids].sum(axis=0)
    grads["remask_token"] = g_remask_token
    return loss, grads, zero_rows


def hgmae_loss(
    terms: list[Term],
    params: ModelParams,
    cfg: TrainConfig,
    plans: list[MaskPlan],
    threads: int = 1,
) -> tuple[LossParts, dict[str, np.ndarray]]:
    """Combined reconstruction loss for given (replayable) mask plans, and
    its gradient per parameter name.

    Each plan runs the term at its position: the full graph's with upstream
    gradient 1, then the K_eff single-type terms with eta / K_eff.
    _run_terms runs them on `threads` threads, and with more than one the
    heads recompute their per-pair arrays in the backward. The calling
    thread then combines the results in term order: the first term to
    reach a parameter gives a copy of its gradient, and later terms add
    theirs in place; a parameter no term reaches gets zeros.
    LossParts.zero_norm_rows adds up the terms' counts.
    """
    if cfg.eta != 0.0 and len(terms) == 1:
        warnings.warn("no nonempty edge types; training on the full graph only")
    runs = [
        (term, plan, params, cfg, cfg.eta / (len(plans) - 1) if i else 1.0, threads > 1)
        for i, (term, plan) in enumerate(zip(terms, plans))
    ]
    results = _run_terms(runs, threads)
    grads: dict[str, np.ndarray] = {}
    losses: dict[int | None, float] = {}
    for (term, *_), (loss, term_grads, _) in zip(runs, results):
        losses[term.edge_type] = loss
        for name, g in term_grads.items():
            if name in grads:
                grads[name] += g
            else:
                grads[name] = g.copy()
    full = losses.pop(None)
    total = full + cfg.eta / len(losses) * sum(losses.values()) if losses else full
    grads = {
        name: grads[name] if name in grads else np.zeros_like(arr)
        for name, arr in params.named_arrays().items()
    }
    return LossParts(total, full, losses, sum(result[2] for result in results)), grads


def _run_terms(runs: list[tuple], threads: int) -> list[tuple]:
    """_reconstruction_term of every run, in run order, on the calling
    thread and threads - 1 helper threads joined before it returns.

    The runs wait in one queue, largest first by message pairs, and each
    thread takes the next from it until it is empty. A NumericFault is
    kept and the other runs go on; any other error, an interrupt of the
    calling thread included, empties the queue, so no run starts after it.
    Once every started run has finished, the first failing run's error, in
    run order, is raised.
    """
    queue = deque(sorted(range(len(runs)), key=lambda i: -runs[i][0].pairs.nbr.shape[0]))
    outcomes: dict[int, tuple | BaseException] = {}

    def drain() -> None:
        while True:
            try:
                i = queue.popleft()
            except IndexError:
                return
            try:
                outcomes[i] = _reconstruction_term(*runs[i])
            except NumericFault as fault:
                outcomes[i] = fault
            except BaseException as exc:
                queue.clear()
                outcomes[i] = exc

    helpers = [threading.Thread(target=drain, name="hgmae-term") for _ in range(threads - 1)]
    try:
        for helper in helpers:
            helper.start()
        drain()
        for helper in helpers:
            helper.join()
    except BaseException:
        # an interrupt outside a run, during the join among others
        queue.clear()
        for helper in helpers:
            if helper.is_alive():
                helper.join()
        raise
    for i in range(len(runs)):
        if isinstance(outcomes.get(i), BaseException):
            raise outcomes[i]
    return [outcomes[i] for i in range(len(runs))]


def hgmae_step(
    terms: list[Term],
    params: ModelParams,
    cfg: TrainConfig,
    rng: np.random.Generator,
    threads: int = 1,
) -> tuple[LossParts, dict[str, np.ndarray]]:
    """Sample fresh masks, then evaluate the combined loss and its gradient."""
    return hgmae_loss(terms, params, cfg, make_step_plans(terms, cfg, rng), threads)


@dataclass
class EpochStats:
    epoch: int
    loss_total: float
    loss_full: float
    loss_sub_mean: float
    zero_norm_rows: int


# A step's terms run two at a time when the full graph has at least this
# many message pairs, and one at a time below it. Measured on a 2-core VM
# with one BLAS thread, eta = 1, against one at a time: 0.83-0.94x at
# n = 200 (3,736 pairs), 1.2-1.5x at 1k (19,368 pairs) and 1.6-2.2x at 4k
# (78,684 pairs).
THREADED_MIN_PAIRS = 10_000
# at most this many terms in flight: two terms' working sets together stay
# within the peak one term had before its backward recomputed its forward
# arrays, and on the benchmark's 2-core VM a third thread has no core
MAX_TERMS_IN_FLIGHT = 2


def pretrain(
    g: HeteroGraph, cfg: TrainConfig, threads: int | None = None
) -> tuple[ModelParams, list[EpochStats]]:
    """Adam over hgmae_step for cfg.epochs. Each epoch's EpochStats holds
    its step's loss parts, taken before the update, and zero-norm rows.

    threads caps the terms in flight, MAX_TERMS_IN_FLIGHT at most; the
    default is the number of usable CPUs. A graph whose full term has fewer
    than THREADED_MIN_PAIRS message pairs runs its terms one at a time.
    Every step starts its helper threads and joins them before it returns,
    so a forked worker inherits none. The bits do not depend on the thread
    count: every gradient is added in term order on the calling thread.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    params = init_params(g.d_in, cfg, rng)
    state = AdamState.for_params(params.named_arrays(), lr=cfg.lr)
    terms = plan_graph(g)
    if threads is None:
        threads = len(os.sched_getaffinity(0))
    terms_per_step = len(terms) if cfg.eta != 0.0 else 1
    in_flight = min(threads, MAX_TERMS_IN_FLIGHT, terms_per_step)
    if terms[0].pairs.nbr.shape[0] < THREADED_MIN_PAIRS:
        in_flight = 1
    history: list[EpochStats] = []
    for epoch in range(1, cfg.epochs + 1):
        try:
            parts, grads = hgmae_step(terms, params, cfg, rng, in_flight)
        except NumericFault as fault:
            raise NumericFault(f"epoch {epoch}: {fault}") from fault
        adam_step(state, params.named_arrays(), grads)
        history.append(
            EpochStats(epoch, parts.total, parts.full, parts.sub_mean, parts.zero_norm_rows)
        )
    return params, history


def infer_embeddings(g: HeteroGraph, params: ModelParams) -> np.ndarray:
    """Encoder output on uncorrupted features over the full graph."""
    if g.d_in != params.d_in:
        raise ValueError(f"model takes {params.d_in} features per node, graph has {g.d_in}")
    pairs = build_message_pairs(g.union_edges(), g.num_nodes)
    latent, _ = gat_stack_forward(params.encoder, g.node_features, pairs)
    return latent


# ---------------------------------------------------------------------------
# Artifact I/O


EMBEDDINGS = (("node_id", int), Block("e", "embedding value"))
PRETRAIN_LOG = (("epoch", int), ("loss_total", float), ("loss_o", float), ("loss_sub_mean", float))


def save_embeddings(emb: np.ndarray, path: Path | str) -> None:
    write_table(path, EMBEDDINGS, [np.arange(emb.shape[0]), emb])


_EMBEDDING_CHECKS = (
    Check("node_id", lambda c: c["node_id"] != np.arange(len(c["node_id"])), "malformed row"),
    Check("e", lambda c: ~np.isfinite(c["e"]).all(axis=1),
          "non-finite embedding value for node {node_id}"),
)


def load_embeddings(path: Path | str) -> np.ndarray:
    return read_table(path, EMBEDDINGS, _EMBEDDING_CHECKS)[1]


def save_pretrain_log(history: list[EpochStats], path: Path | str) -> None:
    names = ("epoch", "loss_total", "loss_full", "loss_sub_mean")
    write_table(path, PRETRAIN_LOG, [[getattr(st, f) for st in history] for f in names])
