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
as soon as its forward pass ends, and drops each closure once it has run,
so a process holds one term's forward state at a time.

A run alone runs a step's terms in term order: the full graph first, then
the subgraphs by ascending type id. A run that gets a second CPU forks a
replica at an epoch boundary (pretrain). The replica inherits the
parameters, the Adam state, the rng and the terms bit for bit, and from then
on both processes draw the same mask plans at every step. Each runs a fixed
share of the terms, dealt by message pairs, largest first: caller, replica,
replica, caller, and so on. The replica sends its terms' results to the
caller over one pipe and reads the caller's from another; then both add
every term's gradient in term order and take the same Adam step. Either way
hgmae_loss adds the gradients in term order, which makes them bit-identical
to the same model composed from generic autodiff ops (tests/tape.py) and
independent of whether and when a replica started. No count, process or
other state outlives a call: each step returns its own in its LossParts,
and pretrain reaps its replica before it returns or raises.

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
import pickle
import sys
import warnings
from collections.abc import Callable
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
):
    """Replace masked latent rows with the re-mask token, then run the
    decoder: (reconstruction, backward). backward(g) returns (gradient of
    latent, gradient of the re-mask token, decoder head gradients)."""
    masked = plan.masked_ids
    remasked = latent.copy()
    remasked[masked] = params.remask_token
    NumericFault.check(remasked, "remask")
    recon, decoder_backward = gat_stack_forward(params.decoder, remasked, pairs)

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
) -> tuple[float, dict[str, np.ndarray], int]:
    """One masked reconstruction term, forward and then backward: (loss, the
    gradient of upstream * loss per parameter name, the number of zero-norm
    rows). A parameter the term does not reach has no entry: the mask token
    when no row gets it, and every parameter when the loss is the constant 1.
    Each backward closure is dropped once it has run, which frees the
    forward state it kept."""
    x, pairs = term.features, term.pairs
    corrupted = apply_mask(x, plan, params)
    latent, encoder_backward = gat_stack_forward(params.encoder, corrupted, pairs)
    recon, decoder_backward = remask_and_decode(latent, plan, params, pairs)
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
    link: _Link | None = None,
) -> tuple[LossParts, dict[str, np.ndarray]]:
    """Combined reconstruction loss for given (replayable) mask plans, and
    its gradient per parameter name.

    Each plan runs the term at its position: the full graph's with upstream
    gradient 1, then the K_eff single-type terms with eta / K_eff. Without
    a link every term runs here, in term order; with one, only the link's
    share does, and the link trades their outcomes for the other
    process's. A process stops its terms at its first NumericFault, and the
    first fault in term order among all outcomes is raised. Otherwise the
    results are combined in term order: the first term to reach a parameter
    gives a copy of its gradient, and later terms add theirs in place; a
    parameter no term reaches gets zeros. LossParts.zero_norm_rows adds up
    the terms' counts.
    """
    if cfg.eta != 0.0 and len(terms) == 1:
        warnings.warn("no nonempty edge types; training on the full graph only")
    outcomes: dict[int, tuple | NumericFault] = {}
    for i in range(len(plans)) if link is None else link.share:
        upstream = cfg.eta / (len(plans) - 1) if i else 1.0
        try:
            outcomes[i] = _reconstruction_term(terms[i], plans[i], params, cfg, upstream)
        except NumericFault as fault:
            # this process's later terms come later in term order too
            outcomes[i] = fault
            break
    if link is not None:
        outcomes = link.exchange(outcomes)
    grads: dict[str, np.ndarray] = {}
    losses: dict[int | None, float] = {}
    zero_rows = 0
    for i in sorted(outcomes):
        if isinstance(outcomes[i], NumericFault):
            raise outcomes[i]
        loss, term_grads, rows = outcomes[i]
        losses[terms[i].edge_type] = loss
        zero_rows += rows
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
    return LossParts(total, full, losses, zero_rows), grads


def hgmae_step(
    terms: list[Term],
    params: ModelParams,
    cfg: TrainConfig,
    rng: np.random.Generator,
    link: _Link | None = None,
) -> tuple[LossParts, dict[str, np.ndarray]]:
    """Sample fresh masks, then evaluate the combined loss and its gradient."""
    return hgmae_loss(terms, params, cfg, make_step_plans(terms, cfg, rng), link)


class _Link:
    """One end of the pipes between a run and its replica: the term indices
    this process runs, in term order, and the files it reads the other
    process's outcomes from and writes its own to. pid is the replica's on
    the caller's end and None on the replica's."""

    def __init__(self, share: list[int], reader, writer, pid: int | None):
        self.share = share
        self.reader = reader
        self.writer = writer
        self.pid = pid

    def exchange(self, outcomes: dict) -> dict:
        """outcomes together with the other process's. The replica sends
        first and the caller reads first, so neither blocks writing more
        than a pipe holds while the other writes too. ChildProcessError if
        the other process has gone."""
        try:
            if self.pid is None:
                self._send(outcomes)
            theirs = pickle.load(self.reader)
            if self.pid is not None:
                self._send(outcomes)
        except (EOFError, OSError, pickle.UnpicklingError) as exc:
            raise ChildProcessError(self._gone()) from exc
        return {**outcomes, **theirs}

    def _send(self, outcomes: dict) -> None:
        self.writer.write(pickle.dumps(outcomes, pickle.HIGHEST_PROTOCOL))
        self.writer.flush()

    def _gone(self) -> str:
        """Why the other process stopped answering; on the caller's end,
        the replica's exit, once reaped."""
        if self.pid is None:
            return "the pretrain caller has gone"
        pid, self.pid = self.pid, None
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        return f"pretrain replica (pid {pid}) {how}"

    def close(self, kill: bool) -> None:
        """Close both pipes and reap the replica, first killing it if kill
        is set; a no-op for the pipes already closed or a replica reaped."""
        for f in (self.writer, self.reader):
            try:
                f.close()
            except OSError:  # the unsent rest of a message the replica will not read
                pass
        if self.pid is not None:
            if kill:
                import signal

                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _shares(terms: list[Term]) -> tuple[list[int], list[int]]:
    """(the caller's term indices, the replica's), each in term order: by
    message pairs, largest first, the terms are dealt caller, replica,
    replica, caller, and so on, so each side gets a large and a small term
    of every four."""
    by_size = sorted(range(len(terms)), key=lambda i: -terms[i].pairs.nbr.shape[0])
    caller = sorted(i for rank, i in enumerate(by_size) if rank % 4 in (0, 3))
    return caller, sorted(set(range(len(terms))) - set(caller))


def _fork_replica(
    terms: list[Term],
    params: ModelParams,
    state: AdamState,
    cfg: TrainConfig,
    rng: np.random.Generator,
    steps: int,
) -> _Link:
    """Fork a replica that runs its share of the next `steps` steps and
    their Adam updates, and return the caller's end of its link. The replica
    exits at the end, at a NumericFault (the caller raises it) and when the
    caller has gone; any other error it prints, and exits with status 1."""
    caller, replica = _shares(terms)
    down, up = os.pipe(), os.pipe()  # caller to replica, replica to caller
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            os.close(down[1])
            os.close(up[0])
            link = _Link(replica, open(down[0], "rb"), open(up[1], "wb"), None)
            for _ in range(steps):
                _, grads = hgmae_step(terms, params, cfg, rng, link)
                adam_step(state, params.named_arrays(), grads)
        except (NumericFault, ChildProcessError, KeyboardInterrupt):
            pass  # the caller raises the same fault, has gone or is interrupted too
        except Exception:
            import traceback

            status = 1
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)  # never return into the caller's code
    os.close(down[0])
    os.close(up[1])
    return _Link(caller, open(up[0], "rb"), open(down[1], "wb"), pid)


@dataclass
class EpochStats:
    epoch: int
    loss_total: float
    loss_full: float
    loss_sub_mean: float
    zero_norm_rows: int


# A direct call on a graph whose full term has at least this many message
# pairs forks a replica when it may use two CPUs. Measured on a 2-core VM
# with one BLAS thread, eta = 1, ms per epoch alone and with a replica from
# epoch 1, 3 rounds: 14.8-17.5 and 10.9-15.8 at n = 200 (3,736 pairs),
# 56-79 and 35-46 at 1k (19,368 pairs), 252-326 and 168-186 at 4k (78,594
# pairs). The replica pays off below the cut too; the cut keeps short direct
# calls on small graphs, such as a benchmark's 2-epoch warm-up, in one
# process. run_pretrain hands its spare CPUs to runs of any size.
REPLICA_MIN_PAIRS = 10_000


def pretrain(
    g: HeteroGraph, cfg: TrainConfig, spare_cpu: Callable[[], bool] | None = None
) -> tuple[ModelParams, list[EpochStats]]:
    """Adam over hgmae_step for cfg.epochs. Each epoch's EpochStats holds
    its step's loss parts, taken before the update, and zero-norm rows.

    A run with at least two terms per step calls spare_cpu() at each epoch
    boundary until it returns True: the run may then use one more CPU, and
    forks a replica that runs its share of every step left. The CPU is the
    caller's again once pretrain returns. By default a graph whose full
    term has at least REPLICA_MIN_PAIRS message pairs gets one at the first
    epoch if this process may use two CPUs, and any other graph never. The
    bits do not depend on whether or when the replica starts. The replica
    has been reaped when pretrain returns or raises.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    params = init_params(g.d_in, cfg, rng)
    state = AdamState.for_params(params.named_arrays(), lr=cfg.lr)
    terms = plan_graph(g)
    if spare_cpu is None:
        spare = (
            terms[0].pairs.nbr.shape[0] >= REPLICA_MIN_PAIRS
            and len(os.sched_getaffinity(0)) > 1
        )
        spare_cpu = lambda: spare  # noqa: E731
    splits = cfg.eta != 0.0 and len(terms) > 1
    history: list[EpochStats] = []
    link = None
    try:
        for epoch in range(1, cfg.epochs + 1):
            if link is None and splits and spare_cpu():
                link = _fork_replica(terms, params, state, cfg, rng, cfg.epochs - epoch + 1)
            try:
                parts, grads = hgmae_step(terms, params, cfg, rng, link)
            except (NumericFault, ChildProcessError) as exc:
                raise type(exc)(f"epoch {epoch}: {exc}") from exc
            adam_step(state, params.named_arrays(), grads)
            history.append(
                EpochStats(epoch, parts.total, parts.full, parts.sub_mean, parts.zero_norm_rows)
            )
    except BaseException:
        if link is not None:
            link.close(kill=True)
        raise
    if link is not None:
        link.close(kill=False)
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
