"""Heterogeneous enterprise graph data model and TSV serialization.

A graph couples a dense node-feature matrix with one undirected edge list per
relation type ("parent-subsidiary", "share-investor", ...) and a per-node flag
marking bond issuers. Edges are stored canonically (src < dst, deduplicated
within a type). Message passing and BFS treat them as undirected; self-loops
are never stored, they are added inside the attention layer.

File formats (tab-separated, one header line):

    nodes.tsv   node_id  is_issuer  f0 .. f{d_in-1}     ids dense 0..n-1
    edges.tsv   edge_type  src  dst                     type names, ids by first appearance
    events.tsv  node_id  default_time                   non-negative integer ticks

Feature values are written with 17 significant digits so save->load
round-trips are bit-identical.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class GraphFormatError(ValueError):
    """Raised for malformed graph/event files; message carries the line number."""


class EmptyEdgeTypeError(ValueError):
    """Raised when a subgraph is requested for an edge type with no edges."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def atomic_write_text(path: Path | str, text: str) -> None:
    """Write via a temp file in the same directory plus rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _canonical_edges(edges: np.ndarray, type_name: str) -> np.ndarray:
    """Sort each pair ascending, drop duplicates, order rows lexicographically."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size == 0:
        return edges.reshape(0, 2)
    if np.any(edges[:, 0] == edges[:, 1]):
        raise ValueError(f"self-loop edge in type '{type_name}'; self-loops are implicit")
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return np.unique(np.stack([lo, hi], axis=1), axis=0)


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
        parts = [e for e in self.edge_lists.values() if e.size]
        if not parts:
            return np.zeros((0, 2), dtype=np.int64)
        edges = np.concatenate(parts, axis=0)
        n = self.num_nodes
        keys = np.unique(edges[:, 0] * n + edges[:, 1])
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


@dataclass
class Subgraph:
    """Single-edge-type subgraph with local node indexing.

    parent_node_ids maps local index -> global node id, ascending; the node
    set is exactly the nodes incident to at least one edge of the type.
    """

    parent_node_ids: np.ndarray
    features: np.ndarray
    edges: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.parent_node_ids.shape[0]


@dataclass(frozen=True, order=True)
class DefaultEvent:
    """A node's default, recorded at a non-negative integer tick."""

    node_id: int
    default_time: int


def extract_subgraph(g: HeteroGraph, edge_type_id: int) -> Subgraph:
    """Restrict `g` to one edge type, reindexing nodes in ascending global order."""
    if not 0 <= edge_type_id < g.num_edge_types:
        raise ValueError(f"edge_type_id {edge_type_id} out of range (K={g.num_edge_types})")
    edges = g.edge_lists[edge_type_id]
    if edges.shape[0] == 0:
        raise EmptyEdgeTypeError(
            f"empty subgraph: edge type '{g.edge_type_names[edge_type_id]}' has no edges"
        )
    node_ids = np.unique(edges)
    local_edges = np.searchsorted(node_ids, edges)
    return Subgraph(
        parent_node_ids=node_ids,
        features=g.node_features[node_ids].copy(),
        edges=local_edges,
    )


# ---------------------------------------------------------------------------
# TSV I/O


def save_graph(g: HeteroGraph, directory: Path | str) -> None:
    """Write nodes.tsv and edges.tsv under `directory` (created if missing)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    header = ["node_id", "is_issuer"] + [f"f{j}" for j in range(g.d_in)]
    lines = ["\t".join(header)]
    for i in range(g.num_nodes):
        row = [str(i), str(int(g.issuer_flags[i]))]
        row += [_fmt(x) for x in g.node_features[i]]
        lines.append("\t".join(row))
    atomic_write_text(directory / "nodes.tsv", "\n".join(lines) + "\n")

    lines = ["edge_type\tsrc\tdst"]
    for k, name in enumerate(g.edge_type_names):
        for u, v in g.edge_lists[k]:
            lines.append(f"{name}\t{u}\t{v}")
    atomic_write_text(directory / "edges.tsv", "\n".join(lines) + "\n")


def _parse_int(tok: str, what: str, path: Path, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise GraphFormatError(f"{path}:{lineno}: bad {what} {tok!r}") from None


def load_graph(directory: Path | str) -> HeteroGraph:
    """Read nodes.tsv + edges.tsv written by save_graph.

    Node ids must be dense and in order; edge rows referencing unknown node
    ids raise GraphFormatError naming the id. An edges file with only the
    header yields a graph with zero edge types.
    """
    directory = Path(directory)
    nodes_path = directory / "nodes.tsv"
    edges_path = directory / "edges.tsv"
    if not nodes_path.exists():
        raise FileNotFoundError(f"nodes file not found: {nodes_path}")
    if not edges_path.exists():
        raise FileNotFoundError(f"edges file not found: {edges_path}")

    node_lines = nodes_path.read_text().splitlines()
    if not node_lines:
        raise GraphFormatError(f"{nodes_path}:1: empty file")
    header = node_lines[0].split("\t")
    if header[:2] != ["node_id", "is_issuer"]:
        raise GraphFormatError(f"{nodes_path}:1: bad header {node_lines[0]!r}")
    d_in = len(header) - 2

    feats = []
    flags = []
    for lineno, line in enumerate(node_lines[1:], start=2):
        toks = line.split("\t")
        if len(toks) != 2 + d_in:
            raise GraphFormatError(
                f"{nodes_path}:{lineno}: expected {2 + d_in} columns, got {len(toks)}"
            )
        nid = _parse_int(toks[0], "node_id", nodes_path, lineno)
        if nid != lineno - 2:
            raise GraphFormatError(f"{nodes_path}:{lineno}: node ids must be dense; got {nid}")
        flag = _parse_int(toks[1], "is_issuer", nodes_path, lineno)
        if flag not in (0, 1):
            raise GraphFormatError(f"{nodes_path}:{lineno}: is_issuer must be 0 or 1")
        flags.append(bool(flag))
        try:
            feats.append([float(t) for t in toks[2:]])
        except ValueError:
            raise GraphFormatError(f"{nodes_path}:{lineno}: bad feature value") from None
    n = len(feats)

    edge_lines = edges_path.read_text().splitlines()
    if not edge_lines or edge_lines[0].split("\t") != ["edge_type", "src", "dst"]:
        got = edge_lines[0] if edge_lines else ""
        raise GraphFormatError(f"{edges_path}:1: bad header {got!r}")
    type_names: list[str] = []
    type_ids: dict[str, int] = {}
    per_type: dict[int, list[list[int]]] = {}
    for lineno, line in enumerate(edge_lines[1:], start=2):
        toks = line.split("\t")
        if len(toks) != 3:
            raise GraphFormatError(f"{edges_path}:{lineno}: expected 3 columns, got {len(toks)}")
        name = toks[0]
        u = _parse_int(toks[1], "src", edges_path, lineno)
        v = _parse_int(toks[2], "dst", edges_path, lineno)
        for nid in (u, v):
            if not 0 <= nid < n:
                raise GraphFormatError(
                    f"{edges_path}:{lineno}: edge references unknown node id {nid}"
                )
        if u == v:
            raise GraphFormatError(f"{edges_path}:{lineno}: self-loop edge on node {u}")
        if name not in type_ids:
            type_ids[name] = len(type_names)
            type_names.append(name)
            per_type[type_ids[name]] = []
        per_type[type_ids[name]].append([u, v])

    edge_lists = {
        k: np.array(rows, dtype=np.int64).reshape(-1, 2) for k, rows in per_type.items()
    }
    return HeteroGraph(
        node_features=np.array(feats, dtype=np.float64).reshape(n, d_in),
        edge_lists=edge_lists,
        edge_type_names=type_names,
        issuer_flags=np.array(flags, dtype=bool),
    )


def save_events(events: list[DefaultEvent], path: Path | str) -> None:
    """Write events.tsv sorted by (default_time, node_id)."""
    lines = ["node_id\tdefault_time"]
    for ev in sorted(events, key=lambda e: (e.default_time, e.node_id)):
        lines.append(f"{ev.node_id}\t{ev.default_time}")
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def load_events(path: Path | str) -> list[DefaultEvent]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"events file not found: {path}")
    lines = path.read_text().splitlines()
    if not lines or lines[0].split("\t") != ["node_id", "default_time"]:
        got = lines[0] if lines else ""
        raise GraphFormatError(f"{path}:1: bad header {got!r}")
    events = []
    seen: set[int] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        toks = line.split("\t")
        if len(toks) != 2:
            raise GraphFormatError(f"{path}:{lineno}: expected 2 columns, got {len(toks)}")
        nid = _parse_int(toks[0], "node_id", path, lineno)
        t = _parse_int(toks[1], "default_time", path, lineno)
        if t < 0:
            raise GraphFormatError(f"{path}:{lineno}: negative default_time")
        if nid in seen:
            raise GraphFormatError(f"{path}:{lineno}: duplicate event for node {nid}")
        seen.add(nid)
        events.append(DefaultEvent(node_id=nid, default_time=t))
    return sorted(events, key=lambda e: (e.default_time, e.node_id))
