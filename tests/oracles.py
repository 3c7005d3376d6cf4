"""Independent reference implementations used to check the library.

Most of these recompute results from scratch in a deliberately different
style (dense matrices, per-node loops, level-set BFS) so agreement with the
library is meaningful. The exceptions are the bit-exact references for the
library's fused kernels: the slot-by-slot jagged-diagonal kernel
(slot_loop_jagged_matmul), the one-bincount-per-column segment sum and the
sign-masked sigmoid. Those must agree with the library bit for bit, not
within a tolerance, as must the model composed from generic tape ops in
tape.py (the reference for every hand-written gradient). The per-source
dict/deque BFS (bfs_distances over neighbor_lists) is the loop that the
library's multi-source array BFS replaced; the two must give the same
distances. These functions are test fixtures, not product code.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from riskprop.gat import LEAKY_SLOPE
from riskprop.graph import DefaultEvent, HeteroGraph
from riskprop.pairs import CandidatePairs
from riskprop.synthetic import GenConfig


def dense_adjacency(edges: np.ndarray, n: int) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    for u, v in np.asarray(edges).reshape(-1, 2):
        adj[u, v] = adj[v, u] = True
    return adj


def dense_gat_layer(
    weights: list[np.ndarray],
    attns: list[np.ndarray],
    x: np.ndarray,
    adj: np.ndarray,
    slope: float = 0.2,
    activation: str = "elu",
) -> np.ndarray:
    """Per-node-loop attention layer over a dense adjacency matrix; heads concatenate."""
    n = x.shape[0]
    head_outs = []
    for W, a in zip(weights, attns):
        d = W.shape[0]
        z = x @ W.T
        out = np.zeros((n, d))
        for i in range(n):
            nbrs = sorted(set(np.flatnonzero(adj[i]).tolist()) | {i})
            pre = np.array([a[:d] @ z[i] + a[d:] @ z[j] for j in nbrs])
            act = np.where(pre > 0, pre, slope * pre)
            ex = np.exp(act - act.max())
            alpha = ex / ex.sum()
            for weight, j in zip(alpha, nbrs):
                out[i] += weight * z[j]
        head_outs.append(out)
    merged = np.concatenate(head_outs, axis=1)
    if activation == "elu":
        merged = np.where(merged > 0, merged, np.expm1(merged))
    return merged


def dense_stack(layers: list[tuple], x: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """layers: (weights, attns, slope, activation) tuples."""
    for weights, attns, slope, activation in layers:
        x = dense_gat_layer(weights, attns, x, adj, slope, activation)
    return x


def layers_as_arrays(stack) -> list[tuple]:
    return [
        (
            [w.copy() for w in layer.weights],
            [a.copy() for a in layer.attn],
            LEAKY_SLOPE,
            layer.activation,
        )
        for layer in stack
    ]


def column_loop_segment_sum(values: np.ndarray, idx: np.ndarray, num_rows: int) -> np.ndarray:
    """Segment sum with one bincount per column."""
    out = np.empty((num_rows, values.shape[1]))
    for j in range(values.shape[1]):
        out[:, j] = np.bincount(idx, weights=values[:, j], minlength=num_rows)
    return out


def slot_loop_jagged_matmul(pairs, weights: np.ndarray, rows: np.ndarray, dot_with=None):
    """gat._jagged_matmul one slot at a time: a gather, a weight multiply, a
    row sum and an accumulation per slot, reused [n, d] buffers."""
    n, d = pairs.num_nodes, rows.shape[1]
    acc = np.zeros((n, d))
    gathered = np.empty((n, d))
    dots = None
    if dot_with is not None:
        dot_sorted = dot_with[pairs.order]
        products = np.empty((n, d))
        dots = np.empty(pairs.nbr.shape[0])
    lo = 0
    for c in pairs.counts.tolist():
        hi = lo + c
        np.take(rows, pairs.nbr[lo:hi], axis=0, out=gathered[:c])
        if dot_with is not None:
            np.multiply(gathered[:c], dot_sorted[:c], out=products[:c])
            np.sum(products[:c], axis=1, out=dots[lo:hi])
        gathered[:c] *= weights[lo:hi, None]
        acc[:c] += gathered[:c]
        lo = hi
    out = np.empty_like(acc)
    out[pairs.order] = acc
    return out, dots


def sorted_pairs(pairs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dst, src, order): the message pairs as (receiver, sender) arrays
    sorted by (receiver, sender), the order the generic-op head in tape.py
    reads, and the permutation that takes per-entry values from slot order
    to that order."""
    order = np.lexsort((pairs.nbr, pairs.recv))
    return pairs.recv[order], pairs.nbr[order], order


def dense_sce(x: np.ndarray, z: np.ndarray, masked_ids: np.ndarray, gamma: float) -> float:
    total = 0.0
    for i in masked_ids:
        nx = np.linalg.norm(x[i])
        nz = np.linalg.norm(z[i])
        cos = 0.0 if nx == 0.0 or nz == 0.0 else float(x[i] @ z[i]) / (nx * nz)
        total += (1.0 - cos) ** gamma
    return total / len(masked_ids)


def dense_reconstruction_term(params, cfg, x: np.ndarray, adj: np.ndarray, plan) -> float:
    """Replays one masked-reconstruction term through the dense reference."""
    corrupted = x.copy()
    if plan.token_ids.size:
        corrupted[plan.token_ids] = params.mask_token
    if plan.random_ids.size:
        corrupted[plan.random_ids] = x[plan.random_src_ids]
    latent = dense_stack(layers_as_arrays(params.encoder), corrupted, adj)
    latent[plan.masked_ids] = params.remask_token
    recon = dense_stack(layers_as_arrays(params.decoder), latent, adj)
    return dense_sce(x, recon, plan.masked_ids, cfg.gamma)


def dense_hgmae_loss(g: HeteroGraph, params, cfg, plans) -> tuple[float, float, dict[int, float]]:
    """(total, full_term, per-type terms) via the dense path and explicit
    merge. plans holds the full graph's mask, then one per nonempty type by
    ascending type id (none with eta = 0). Each type's term runs on the nodes
    its edges touch, renumbered in ascending id."""
    full_plan, *sub_plans = plans
    full = dense_reconstruction_term(
        params, cfg, g.node_features, dense_adjacency(g.union_edges(), g.num_nodes), full_plan
    )
    types = [k for k in range(g.num_edge_types) if g.edge_lists[k].size]
    subs: dict[int, float] = {}
    for k, plan in zip(types, sub_plans):
        edges = g.edge_lists[k]
        ids = np.unique(edges)
        local = np.full(g.num_nodes, -1)
        local[ids] = np.arange(ids.size)
        adj = dense_adjacency(local[edges], ids.size)
        subs[k] = dense_reconstruction_term(params, cfg, g.node_features[ids], adj, plan)
    total = full
    if cfg.eta != 0.0 and subs:
        total = full + cfg.eta / len(subs) * sum(subs.values())
    return total, full, subs


def cascade_by_live_edges(g: HeteroGraph, cfg: GenConfig) -> list[DefaultEvent]:
    """Second cascade implementation: pre-drawn coins define a live directed
    graph, default time is multi-source BFS distance from the seeds."""
    rng = np.random.default_rng([cfg.rng_seed, 1])
    issuer_ids = np.flatnonzero(g.issuer_flags)
    seeds = rng.choice(issuer_ids, size=cfg.num_seed_defaults, replace=False)
    live: dict[int, list[int]] = {}
    for k in range(g.num_edge_types):
        edges = g.edge_lists[k]
        coins = rng.random((edges.shape[0], 2))
        for j, (u, v) in enumerate(edges):
            if coins[j, 0] < cfg.transmission_prob[k]:
                live.setdefault(int(u), []).append(int(v))
            if coins[j, 1] < cfg.transmission_prob[k]:
                live.setdefault(int(v), []).append(int(u))
    dist = {int(s): 0 for s in seeds}
    frontier = sorted(dist)
    hops = 0
    while frontier and hops < cfg.max_cascade_hops:
        hops += 1
        nxt = []
        for u in frontier:
            for v in live.get(u, []):
                if v not in dist:
                    dist[v] = hops
                    nxt.append(v)
        frontier = sorted(set(nxt))
    return sorted(
        (DefaultEvent(node_id=nid, default_time=t) for nid, t in dist.items()),
        key=lambda e: (e.default_time, e.node_id),
    )


def neighbor_lists(g: HeteroGraph) -> list[np.ndarray]:
    """Sorted undirected neighbour array per node over the union of types."""
    nbrs: list[list[int]] = [[] for _ in range(g.num_nodes)]
    for u, v in g.union_edges():
        nbrs[u].append(int(v))
        nbrs[v].append(int(u))
    return [np.array(sorted(a), dtype=np.int64) for a in nbrs]


def bfs_distances(neighbors: list[np.ndarray], start: int, max_hops: int) -> dict[int, int]:
    """Hop distance to every node within max_hops of start (start included),
    by a per-source dict/deque BFS."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        if dist[u] == max_hops:
            continue
        for v in neighbors[u]:
            v = int(v)
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def level_set_distances(adj: np.ndarray, start: int, max_hops: int) -> dict[int, int]:
    """BFS by boolean level sets on a dense adjacency matrix."""
    n = adj.shape[0]
    dist = {start: 0}
    current = np.zeros(n, dtype=bool)
    current[start] = True
    visited = current.copy()
    for d in range(1, max_hops + 1):
        nxt = adj[current].any(axis=0) & ~visited
        if not nxt.any():
            break
        for v in np.flatnonzero(nxt):
            dist[int(v)] = d
        visited |= nxt
        current = nxt
    return dist


def brute_force_candidate_pairs(
    g: HeteroGraph, events: list[DefaultEvent], n_hops: int
) -> list[tuple[int, int, int, int]]:
    """(source, target, label, hop) tuples by exhaustive issuer join."""
    times = {e.node_id: e.default_time for e in events}
    adj = dense_adjacency(g.union_edges(), g.num_nodes)
    issuers = np.flatnonzero(g.issuer_flags)
    out = []
    for s in sorted(int(i) for i in issuers if int(i) in times):
        dist = level_set_distances(adj, s, n_hops)
        for t in sorted(int(i) for i in issuers):
            if t == s or t not in dist:
                continue
            label = int(t in times and times[t] > times[s])
            out.append((s, t, label, dist[t]))
    return out


def pairs_from_rows(rows) -> CandidatePairs:
    """PropagationPair rows as the columns stage 2 reads."""
    cols = [(p.source_id, p.target_id, p.label, p.hop_distance) for p in rows]
    return CandidatePairs(*np.array(cols, dtype=np.int64).reshape(-1, 4).T.copy())


def exhaustive_auc(y_true, scores) -> float:
    """Rank every (positive, negative) pair explicitly; ties score half."""
    pos = [s for s, y in zip(scores, y_true) if y == 1]
    neg = [s for s, y in zip(scores, y_true) if y == 0]
    wins = sum(1 for p in pos for q in neg if p > q)
    ties = sum(1 for p in pos for q in neg if p == q)
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def masked_sigmoid(t: np.ndarray) -> np.ndarray:
    """Logistic function evaluated separately on each sign, so exp never
    overflows: 1/(1+exp(-t)) where t >= 0, exp(t)/(1+exp(t)) elsewhere."""
    out = np.empty_like(t, dtype=np.float64)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out
