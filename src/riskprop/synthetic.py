"""Synthetic enterprise-graph worlds with a planted default cascade.

Structure is blockmodel-style: nodes get balanced random communities, and
each relation type draws edges independently with its own intra/inter
community probability. Node features are a community signature (one-hot in
the leading dims) plus Gaussian noise. A fraction of nodes are designated
bond issuers; a cascade seeded at random issuers then spreads across edges
with type-dependent transmission probabilities, producing the default events
that label stage-2 propagation pairs.

Randomness contract: every output is a pure function of the config. Three
streams derive from cfg.rng_seed so the stages stay independently
reproducible:

    np.random.default_rng([rng_seed, 0])  graph structure and features
    np.random.default_rng([rng_seed, 1])  cascade
    np.random.default_rng([rng_seed, 2])  task features

Each function documents its draw order so a second implementation can replay
it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import DefaultEvent, HeteroGraph, _repeats
from .table import Block, Check, read_record, read_table, write_record, write_table
from .table import ConfigError as ConfigValidationError

DEFAULT_EDGE_TYPE_NAMES = (
    "parent-subsidiary",
    "share-investor",
    "share-manager",
    "share-legal-person",
    "invest-by",
)


# unordered node pairs per uniform draw in generate_graph
_PAIR_CHUNK = 1 << 16


def edge_type_names(k: int) -> list[str]:
    names = list(DEFAULT_EDGE_TYPE_NAMES[:k])
    names += [f"relation-{i}" for i in range(len(names), k)]
    return names


@dataclass
class GenConfig:
    """Knobs for one synthetic world; see module docstring for the mechanism.

    susceptibility_weight scales the defaulted-node indicator mixed into the
    first task-feature dimension; noise_std is shared by node features and
    task features. The defaults make the first relation type sparse, purely
    intra-community, and the dominant contagion carrier, while the last is
    dense community-agnostic noise that never transmits, so embeddings that
    keep per-type structure have something real to gain.
    """

    num_nodes: int = 200
    num_communities: int = 3
    num_edge_types: int = 3
    d_in: int = 16
    d_task: int = 4
    issuer_fraction: float = 0.45
    intra_edge_prob: tuple[float, ...] = (0.05, 0.05, 0.04)
    inter_edge_prob: tuple[float, ...] = (0.0, 0.01, 0.06)
    transmission_prob: tuple[float, ...] = (0.45, 0.06, 0.0)
    num_seed_defaults: int = 8
    max_cascade_hops: int = 5
    noise_std: float = 0.25
    susceptibility_weight: float = 0.25
    rng_seed: int = 0

    def __post_init__(self) -> None:
        self.intra_edge_prob = tuple(float(p) for p in self.intra_edge_prob)
        self.inter_edge_prob = tuple(float(p) for p in self.inter_edge_prob)
        self.transmission_prob = tuple(float(p) for p in self.transmission_prob)
        problems = []
        if self.num_nodes < 2:
            problems.append("num_nodes must be >= 2")
        if self.num_communities < 1:
            problems.append("num_communities must be >= 1")
        if self.num_edge_types < 1:
            problems.append("num_edge_types must be >= 1")
        if self.d_in < self.num_communities:
            problems.append("d_in must be >= num_communities")
        if self.d_task < 1:
            problems.append("d_task must be >= 1")
        if not 0.0 < self.issuer_fraction <= 1.0:
            problems.append("issuer_fraction must be in (0, 1]")
        for name in ("intra_edge_prob", "inter_edge_prob", "transmission_prob"):
            vec = getattr(self, name)
            if len(vec) != self.num_edge_types:
                problems.append(f"{name} must have num_edge_types entries")
            if any(not 0.0 <= p <= 1.0 for p in vec):
                problems.append(f"{name} entries must be in [0, 1]")
        if self.num_seed_defaults < 1:
            problems.append("num_seed_defaults must be >= 1")
        if self.max_cascade_hops < 0:
            problems.append("max_cascade_hops must be >= 0")
        if self.noise_std < 0:
            problems.append("noise_std must be >= 0")
        if problems:
            raise ConfigValidationError("invalid GenConfig: " + "; ".join(problems))


def community_assignment(cfg: GenConfig) -> np.ndarray:
    """Balanced random community per node; first draw of the structure stream."""
    rng = np.random.default_rng([cfg.rng_seed, 0])
    return rng.permutation(np.arange(cfg.num_nodes) % cfg.num_communities)


def num_issuers(cfg: GenConfig) -> int:
    return max(1, int(round(cfg.issuer_fraction * cfg.num_nodes)))


def generate_graph(cfg: GenConfig) -> HeteroGraph:
    """Draw one world from the structure stream.

    Draw order: community permutation; one uniform per unordered node pair
    for each edge type (pairs in np.triu_indices order, types ascending);
    issuer choice (num_issuers ids without replacement); feature noise as a
    single standard-normal block [num_nodes, d_in].

    The pair uniforms are drawn _PAIR_CHUNK at a time, which replays the same
    stream as one draw per type, so memory stays O(chunk + edges) rather
    than O(num_nodes^2).
    """
    rng = np.random.default_rng([cfg.rng_seed, 0])
    n = cfg.num_nodes
    comm = rng.permutation(np.arange(n) % cfg.num_communities)

    # flat triu index f of pair (u, v), u < v, is row_start[u] + v - u - 1
    row_start = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 0, -1), out=row_start[1:])
    num_pairs = n * (n - 1) // 2
    edge_lists: dict[int, np.ndarray] = {}
    for k in range(cfg.num_edge_types):
        p_intra, p_inter = cfg.intra_edge_prob[k], cfg.inter_edge_prob[k]
        # a pair is kept iff its uniform < its probability <= the larger one,
        # so only uniforms below the larger probability need their pair
        p_max = max(p_intra, p_inter)
        hits, draws = [], []
        for lo in range(0, num_pairs, _PAIR_CHUNK):
            r = rng.random(min(_PAIR_CHUNK, num_pairs - lo))
            idx = np.flatnonzero(r < p_max)
            hits.append(idx + lo)
            draws.append(r[idx])
        flat = np.concatenate(hits)
        u = np.searchsorted(row_start, flat, side="right") - 1
        v = flat - row_start[u] + u + 1
        keep = np.concatenate(draws) < np.where(comm[u] == comm[v], p_intra, p_inter)
        edge_lists[k] = np.stack([u[keep], v[keep]], axis=1)

    issuer_ids = rng.choice(n, size=num_issuers(cfg), replace=False)
    flags = np.zeros(n, dtype=bool)
    flags[issuer_ids] = True

    signature = np.zeros((cfg.num_communities, cfg.d_in))
    signature[np.arange(cfg.num_communities), np.arange(cfg.num_communities)] = 1.0
    features = signature[comm] + cfg.noise_std * rng.standard_normal((n, cfg.d_in))

    return HeteroGraph(
        node_features=features,
        edge_lists=edge_lists,
        edge_type_names=edge_type_names(cfg.num_edge_types),
        issuer_flags=flags,
    )


def simulate_cascade(g: HeteroGraph, cfg: GenConfig) -> list[DefaultEvent]:
    """Independent-cascade defaults: seeds at tick 0, spreading one hop per tick.

    Draw order (cascade stream): seed issuers (num_seed_defaults ids chosen
    from ascending issuer ids without replacement), then one uniform pair per
    canonical edge, types ascending, rows in stored order: column 0 for the
    src->dst attempt and column 1 for dst->src. A transmission attempt along
    a type-k edge succeeds iff its uniform is < transmission_prob[k], so the
    defaulted set is coupled monotonically across transmission settings.
    """
    rng = np.random.default_rng([cfg.rng_seed, 1])
    issuer_ids = np.flatnonzero(g.issuer_flags)
    if cfg.num_seed_defaults > issuer_ids.size:
        raise ConfigValidationError(
            f"num_seed_defaults={cfg.num_seed_defaults} exceeds issuer count {issuer_ids.size}"
        )
    seeds = rng.choice(issuer_ids, size=cfg.num_seed_defaults, replace=False)

    # coins pre-drawn per directed edge; the attempts that succeed are the
    # live edges, and a node defaults at its BFS distance from the seeds
    live_src, live_dst = [], []
    for k in range(g.num_edge_types):
        edges = g.edge_lists[k]
        coins = rng.random((edges.shape[0], 2))
        live = coins < cfg.transmission_prob[k]
        live_src += [edges[live[:, 0], 0], edges[live[:, 1], 1]]
        live_dst += [edges[live[:, 0], 1], edges[live[:, 1], 0]]
    src = np.concatenate(live_src)
    dst = np.concatenate(live_dst)

    default_time = np.full(g.num_nodes, -1, dtype=np.int64)
    default_time[seeds] = 0
    frontier = np.zeros(g.num_nodes, dtype=bool)
    frontier[seeds] = True
    for tick in range(1, cfg.max_cascade_hops + 1):
        infected = dst[frontier[src]]
        infected = infected[default_time[infected] < 0]
        if not infected.size:
            break
        default_time[infected] = tick
        frontier[:] = False
        frontier[infected] = True

    defaulted = np.flatnonzero(default_time >= 0)
    defaulted = defaulted[np.argsort(default_time[defaulted], kind="stable")]
    return [
        DefaultEvent(node_id=nid, default_time=t)
        for nid, t in zip(defaulted.tolist(), default_time[defaulted].tolist())
    ]


def attach_task_features(
    g: HeteroGraph, events: list[DefaultEvent], cfg: GenConfig
) -> np.ndarray:
    """Issuer task features: noisy defaulted indicator plus pure-noise dims.

    Returns a [num_issuers, d_task] matrix with rows aligned to ascending
    issuer node id. Column 0 mixes susceptibility_weight * defaulted(node)
    into the noise; remaining columns are noise only. Draw order (task
    stream): one standard-normal block [num_issuers, d_task].
    """
    issuer_ids = np.flatnonzero(g.issuer_flags)
    defaulted = set()
    for ev in events:
        if not 0 <= ev.node_id < g.num_nodes:
            raise ValueError(f"event references unknown node id {ev.node_id}")
        defaulted.add(ev.node_id)
    rng = np.random.default_rng([cfg.rng_seed, 2])
    values = cfg.noise_std * rng.standard_normal((issuer_ids.size, cfg.d_task))
    indicator = np.array([1.0 if nid in defaulted else 0.0 for nid in issuer_ids])
    values[:, 0] += cfg.susceptibility_weight * indicator
    return values


def task_feature_table(g: HeteroGraph, values: np.ndarray) -> dict[int, np.ndarray]:
    """Map issuer node id -> task feature row (attach_task_features alignment)."""
    issuer_ids = np.flatnonzero(g.issuer_flags)
    if values.shape[0] != issuer_ids.size:
        raise ValueError(
            f"task feature rows ({values.shape[0]}) != issuer count ({issuer_ids.size})"
        )
    return {int(nid): values[i] for i, nid in enumerate(issuer_ids)}


# ---------------------------------------------------------------------------
# Artifact I/O


TASK_FEATURES = (("node_id", int), Block("t", "task feature value"))
_TASK_CHECKS = (
    Check("node_id", lambda c: c["node_id"] < 0, "negative node_id {node_id}"),
    Check("node_id", lambda c: _repeats(c["node_id"]),
          "duplicate task features for node {node_id}"),
    Check("t", lambda c: ~np.isfinite(c["t"]).all(axis=1),
          "non-finite task feature value for node {node_id}"),
)


def save_task_features(table: dict[int, np.ndarray], path: Path | str) -> None:
    ids = sorted(table)
    d_task = len(table[ids[0]]) if ids else 0
    values = np.array([table[nid] for nid in ids], dtype=np.float64).reshape(len(ids), d_task)
    write_table(path, TASK_FEATURES, [ids, values])


def load_task_features(path: Path | str) -> dict[int, np.ndarray]:
    ids, values = read_table(path, TASK_FEATURES, _TASK_CHECKS)
    return dict(zip(ids.tolist(), values))


def save_gen_config(cfg: GenConfig, path: Path | str) -> None:
    """The config as a `key=value` record (see table.py)."""
    write_record(path, cfg)


def load_gen_config(path: Path | str) -> GenConfig:
    """Read a save_gen_config file, collecting every problem before raising."""
    return read_record(path, GenConfig)
