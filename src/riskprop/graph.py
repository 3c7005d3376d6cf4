"""Heterogeneous enterprise graph data model and its artifact tables.

A graph couples a dense node-feature matrix with one undirected edge list per
relation type ("parent-subsidiary", "share-investor", ...) and a per-node flag
marking bond issuers. Edges are stored canonically (src < dst, deduplicated
within a type). Message passing and BFS treat them as undirected; self-loops
are never stored, they are added inside the attention layer.

Tables (the format is table.py's):

    nodes.tsv   node_id  is_issuer  f0 .. f{d_in-1}     ids dense 0..n-1
    edges.tsv   edge_type  src  dst                     type names, ids by first appearance
    events.tsv  node_id  default_time                   non-negative integer ticks
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .table import Block, Check, GraphFormatError, read_table, write_table


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique(values): the distinct values, flattened and ascending, by a
    sort plus a neighbour-difference mask; np.unique is several times slower
    (8.9 ms against 1.0 ms on the union edge keys of a 4000-node world)."""
    values = np.sort(values, axis=None)
    keep = np.ones(values.shape[0], dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _canonical_edges(edges: np.ndarray, type_name: str) -> np.ndarray:
    """Sort each pair ascending, drop duplicates, order rows lexicographically.
    The result never aliases the input."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size == 0:
        return edges.reshape(0, 2)
    if np.any(edges[:, 0] == edges[:, 1]):
        raise ValueError(f"self-loop edge in type '{type_name}'; self-loops are implicit")
    # already canonical (as save_graph writes them): u < v on every row and
    # rows strictly increasing in (u, v)
    u, v = edges[:, 0], edges[:, 1]
    du = u[1:] - u[:-1]
    if np.all(u < v) and np.all((du > 0) | ((du == 0) & (v[1:] > v[:-1]))):
        return edges.copy()
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo))
    rows = np.stack([lo[order], hi[order]], axis=1)
    keep = np.ones(rows.shape[0], dtype=bool)
    keep[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return rows[keep]


@dataclass
class HeteroGraph:
    """Typed-edge undirected graph with dense node features and issuer flags.

    edge_lists maps a dense type id (0..K-1, matching edge_type_names) to an
    [m, 2] int64 array of canonical undirected edges.
    """

    node_features: np.ndarray
    edge_lists: dict[int, np.ndarray]
    edge_type_names: list[str]
    issuer_flags: np.ndarray

    def __post_init__(self) -> None:
        self.node_features = np.asarray(self.node_features, dtype=np.float64)
        if self.node_features.ndim != 2:
            raise ValueError("node_features must be 2-d [num_nodes, d_in]")
        if not np.all(np.isfinite(self.node_features)):
            raise ValueError("node_features contains non-finite values")
        self.issuer_flags = np.asarray(self.issuer_flags, dtype=bool)
        n = self.node_features.shape[0]
        if self.issuer_flags.shape != (n,):
            raise ValueError("issuer_flags length must equal num_nodes")
        if sorted(self.edge_lists) != list(range(len(self.edge_type_names))):
            raise ValueError("edge_lists keys must be dense 0..K-1 matching edge_type_names")
        for k, name in enumerate(self.edge_type_names):
            edges = _canonical_edges(self.edge_lists[k], name)
            if edges.size and (edges.min() < 0 or edges.max() >= n):
                bad = int(edges.max() if edges.max() >= n else edges.min())
                raise ValueError(f"edge type '{name}' references unknown node id {bad}")
            self.edge_lists[k] = edges

    @property
    def num_nodes(self) -> int:
        return self.node_features.shape[0]

    @property
    def d_in(self) -> int:
        return self.node_features.shape[1]

    @property
    def num_edge_types(self) -> int:
        return len(self.edge_type_names)

    def union_edges(self) -> np.ndarray:
        """All edges across types with multi-type duplicates collapsed, rows
        in lexicographic order."""
        edges = np.concatenate([np.zeros((0, 2), dtype=np.int64), *self.edge_lists.values()])
        n = self.num_nodes
        keys = sorted_unique(edges[:, 0] * n + edges[:, 1])
        return np.stack([keys // n, keys % n], axis=1)

    def union_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Undirected union graph as CSR (indptr, indices): the neighbours of
        node u are indices[indptr[u]:indptr[u + 1]], ascending."""
        edges = self.union_edges()
        n = self.num_nodes
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        order = np.argsort(src * n + dst)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return indptr, dst[order]


@dataclass(frozen=True, order=True)
class DefaultEvent:
    """A node's default, recorded at a non-negative integer tick."""

    node_id: int
    default_time: int


# ---------------------------------------------------------------------------
# TSV I/O

NODES = (("node_id", int), ("is_issuer", int), Block("f", "feature value"))
EDGES = (("edge_type", str), ("src", int), ("dst", int))
EVENTS = (("node_id", int), ("default_time", int))

_NODE_CHECKS = (
    Check("node_id", lambda c: c["node_id"] != np.arange(len(c["node_id"])),
          "node ids must be dense; got {node_id}"),
    Check("is_issuer", lambda c: (c["is_issuer"] != 0) & (c["is_issuer"] != 1),
          "is_issuer must be 0 or 1"),
    Check("f", lambda c: ~np.isfinite(c["f"]).all(axis=1),
          "non-finite feature value for node {node_id}"),
)


def _edge_checks(n: int) -> tuple[Check, ...]:
    unknown = "edge references unknown node id "
    return (
        Check("src", lambda c: (c["src"] < 0) | (c["src"] >= n), unknown + "{src}"),
        Check("dst", lambda c: (c["dst"] < 0) | (c["dst"] >= n), unknown + "{dst}"),
        Check("dst", lambda c: c["src"] == c["dst"], "self-loop edge on node {src}"),
    )


def _repeats(values: np.ndarray) -> np.ndarray:
    """True at each occurrence of a value after its first."""
    repeats = np.ones(len(values), dtype=bool)
    repeats[np.unique(values, return_index=True)[1]] = False
    return repeats


_EVENT_CHECKS = (
    Check("node_id", lambda c: c["node_id"] < 0, "negative node_id {node_id}"),
    Check("default_time", lambda c: c["default_time"] < 0, "negative default_time"),
    Check("default_time", lambda c: _repeats(c["node_id"]), "duplicate event for node {node_id}"),
)


def _event_checks(n: int | None) -> tuple[Check, ...]:
    """_EVENT_CHECKS and, given a node count n, a check that ids are below n."""
    if n is None:
        return _EVENT_CHECKS
    unknown = "event references unknown node id {node_id}"
    return (*_EVENT_CHECKS, Check("node_id", lambda c: c["node_id"] >= n, unknown))


def save_graph(g: HeteroGraph, directory: Path | str) -> None:
    """Write nodes.tsv and edges.tsv under `directory` (created if missing)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_table(
        directory / "nodes.tsv", NODES, [np.arange(g.num_nodes), g.issuer_flags, g.node_features]
    )
    edges = [g.edge_lists[k] for k in range(g.num_edge_types)]
    names = np.repeat(np.array(g.edge_type_names, dtype=object), [len(e) for e in edges])
    edges = np.concatenate([np.zeros((0, 2), dtype=np.int64), *edges])
    write_table(directory / "edges.tsv", EDGES, [names, edges[:, 0], edges[:, 1]])


def load_graph(directory: Path | str) -> HeteroGraph:
    """Read nodes.tsv + edges.tsv written by save_graph.

    Node ids must be dense and in order, and features finite; edge rows
    referencing unknown node ids raise GraphFormatError naming the id. An
    edges file with only the header yields a graph with zero edge types.
    """
    directory = Path(directory)
    _, flags, features = read_table(directory / "nodes.tsv", NODES, _NODE_CHECKS)
    names, u, v = read_table(directory / "edges.tsv", EDGES, _edge_checks(len(flags)))
    types = list(dict.fromkeys(names))  # type ids by first appearance
    edge_lists = {}
    for k, name in enumerate(types):  # one type's row mask at a time
        rows = names == name
        edge_lists[k] = np.stack([u[rows], v[rows]], axis=1)
    del names, u, v  # HeteroGraph's canonical copies need only the lists
    return HeteroGraph(
        node_features=features,
        edge_lists=edge_lists,
        edge_type_names=types,
        issuer_flags=flags.astype(bool),
    )


def save_events(events: list[DefaultEvent], path: Path | str) -> None:
    """Write events.tsv sorted by (default_time, node_id)."""
    events = sorted(events, key=lambda e: (e.default_time, e.node_id))
    write_table(path, EVENTS, [[e.node_id for e in events], [e.default_time for e in events]])


def load_events(path: Path | str, num_nodes: int | None = None) -> list[DefaultEvent]:
    """Read events.tsv; given the graph's node count, an id outside it raises
    GraphFormatError naming the line."""
    ids, times = read_table(path, EVENTS, _event_checks(num_nodes))
    order = np.lexsort((ids, times))
    return [DefaultEvent(i, t) for i, t in zip(ids[order].tolist(), times[order].tolist())]
