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
from itertools import repeat
from pathlib import Path
from typing import NoReturn

import numpy as np


class GraphFormatError(ValueError):
    """Raised for a malformed table file (graph, events, pairs, task features,
    embeddings); the message names path:line and the reason."""


class EmptyEdgeTypeError(ValueError):
    """Raised when a subgraph is requested for an edge type with no edges."""


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
    row = "%d\t%d" + "\t%.17g" * g.d_in
    rows = zip(range(g.num_nodes), g.issuer_flags.tolist(), g.node_features.tolist())
    lines = ["\t".join(header)] + [row % (i, flag, *feats) for i, flag, feats in rows]
    atomic_write_text(directory / "nodes.tsv", "\n".join(lines) + "\n")

    parts = ["edge_type\tsrc\tdst\n"]
    for k, name in enumerate(g.edge_type_names):
        row = name.replace("%", "%%") + "\t%d\t%d\n"
        parts.append(row * g.edge_lists[k].shape[0] % tuple(g.edge_lists[k].ravel().tolist()))
    atomic_write_text(directory / "edges.tsv", "".join(parts))


def parse_int(tok: str, what: str, path: Path, lineno: int) -> int:
    """int(tok), or a GraphFormatError naming path:line and the column."""
    try:
        return int(tok)
    except ValueError:
        raise GraphFormatError(f"{path}:{lineno}: bad {what} {tok!r}") from None


def parse_floats(toks: list[str], what: str, path: Path, lineno: int) -> list[float]:
    """float() of each token, or a GraphFormatError naming path:line."""
    try:
        return [float(t) for t in toks]
    except ValueError:
        raise GraphFormatError(f"{path}:{lineno}: bad {what}") from None


def _cells(lines: list[str], ncols: int) -> list[str]:
    """The tab-separated cells of `lines` in row-major order; ValueError when
    a line does not have exactly `ncols` cells."""
    if set(map(str.count, lines, repeat("\t"))) - {ncols - 1}:
        raise ValueError("ragged rows")
    return "\t".join(lines).split("\t") if lines else []


def _raise_node_row_error(path: Path, lines: list[str], d_in: int) -> NoReturn:
    """Raise GraphFormatError for the first malformed row of a node table,
    checking it cell by cell."""
    for lineno, line in enumerate(lines[1:], start=2):
        toks = line.split("\t")
        if len(toks) != 2 + d_in:
            raise GraphFormatError(f"{path}:{lineno}: expected {2 + d_in} columns, got {len(toks)}")
        nid = parse_int(toks[0], "node_id", path, lineno)
        if nid != lineno - 2:
            raise GraphFormatError(f"{path}:{lineno}: node ids must be dense; got {nid}")
        if parse_int(toks[1], "is_issuer", path, lineno) not in (0, 1):
            raise GraphFormatError(f"{path}:{lineno}: is_issuer must be 0 or 1")
        parse_floats(toks[2:], "feature value", path, lineno)
    raise GraphFormatError(f"{path}: malformed node table")


def _raise_edge_row_error(path: Path, lines: list[str], n: int) -> NoReturn:
    """Raise GraphFormatError for the first malformed row of an edge table
    over nodes 0..n-1, checking it cell by cell."""
    for lineno, line in enumerate(lines[1:], start=2):
        toks = line.split("\t")
        if len(toks) != 3:
            raise GraphFormatError(f"{path}:{lineno}: expected 3 columns, got {len(toks)}")
        u = parse_int(toks[1], "src", path, lineno)
        v = parse_int(toks[2], "dst", path, lineno)
        for nid in (u, v):
            if not 0 <= nid < n:
                raise GraphFormatError(f"{path}:{lineno}: edge references unknown node id {nid}")
        if u == v:
            raise GraphFormatError(f"{path}:{lineno}: self-loop edge on node {u}")
    raise GraphFormatError(f"{path}: malformed edge table")


def load_graph(directory: Path | str) -> HeteroGraph:
    """Read nodes.tsv + edges.tsv written by save_graph.

    Node ids must be dense and in order; edge rows referencing unknown node
    ids raise GraphFormatError naming the id. An edges file with only the
    header yields a graph with zero edge types.

    Cells are converted a whole table at a time, with int() and float()
    semantics; only when that fails are the rows checked one by one, to
    name the first bad line.
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
    n = len(node_lines) - 1
    try:
        cells = _cells(node_lines[1:], 2 + d_in)
        # float() accepts every token int() does, so a failure here is a
        # failure of the per-row checks too
        table = np.array(cells, dtype=np.float64).reshape(n, 2 + d_in)
        ids = np.array(cells[0 :: 2 + d_in], dtype=np.int64)
        flags = np.array(cells[1 :: 2 + d_in], dtype=np.int64)
        valid = np.array_equal(ids, np.arange(n)) and bool(np.all((flags == 0) | (flags == 1)))
    except (ValueError, OverflowError):
        valid = False
    if not valid:
        _raise_node_row_error(nodes_path, node_lines, d_in)

    edge_lines = edges_path.read_text().splitlines()
    if not edge_lines or edge_lines[0].split("\t") != ["edge_type", "src", "dst"]:
        got = edge_lines[0] if edge_lines else ""
        raise GraphFormatError(f"{edges_path}:1: bad header {got!r}")
    try:
        cells = _cells(edge_lines[1:], 3)
        u = np.array(cells[1::3], dtype=np.int64)
        v = np.array(cells[2::3], dtype=np.int64)
        valid = bool(np.all((u >= 0) & (u < n) & (v >= 0) & (v < n) & (u != v)))
    except (ValueError, OverflowError):
        valid = False
    if not valid:
        _raise_edge_row_error(edges_path, edge_lines, n)
    # type ids by first appearance
    type_ids: dict[str, int] = {}
    kinds = np.array(
        [type_ids.setdefault(name, len(type_ids)) for name in cells[0::3]], dtype=np.int64
    )
    edge_lists = {
        k: np.stack([u[kinds == k], v[kinds == k]], axis=1) for k in range(len(type_ids))
    }
    return HeteroGraph(
        node_features=np.ascontiguousarray(table[:, 2:]),
        edge_lists=edge_lists,
        edge_type_names=list(type_ids),
        issuer_flags=flags.astype(bool),
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
        nid = parse_int(toks[0], "node_id", path, lineno)
        t = parse_int(toks[1], "default_time", path, lineno)
        if t < 0:
            raise GraphFormatError(f"{path}:{lineno}: negative default_time")
        if nid in seen:
            raise GraphFormatError(f"{path}:{lineno}: duplicate event for node {nid}")
        seen.add(nid)
        events.append(DefaultEvent(node_id=nid, default_time=t))
    return sorted(events, key=lambda e: (e.default_time, e.node_id))
