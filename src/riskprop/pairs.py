"""Labeled issuer-to-issuer propagation pairs from cascade events.

Construction: every defaulted issuer seeds a BFS of at most n_hops over the
union of all edge types; issuer nodes reached become targets. A pair is
black (label 1) only when the target defaulted strictly after the source;
ties and earlier defaults carry no directional evidence and stay white.
White pairs are then uniformly downsampled to the black count, and the
balanced set is split 80/20 stratified by label. Pairs stay aligned
columns (CandidatePairs) from enumeration to the saved split; each step
selects rows. The enumeration keeps its own narrow types: bfs_hops' hop
type, int32 node ids (int64 from 2**31 nodes) and int8 labels. build_pairs
downsamples on those and widens only the rows it keeps to int64, the type
of every CandidatePairs after it.

The BFS is level-synchronous and multi-source: all sources advance one hop
together, with one bit per source in each node's row of a packed frontier,
and a node joins the next frontier when any of its neighbours is in the
current one (the bottom-up step of Beamer et al., SC 2012), computed as a
gather of neighbour rows plus one bitwise-or reduction per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .graph import DefaultEvent, HeteroGraph
from .table import Check, read_table, write_table

# sources per BFS chunk are capped so a chunk's [sources, num_nodes] hop
# matrix holds at most this many cells: 2 MB in int8 hops
_BFS_CELLS = 1 << 21


class PairConstructionError(ValueError):
    pass


class PropagationPair(NamedTuple):
    """One labeled pair; a tuple, so it orders, hashes and compares as one."""

    source_id: int
    target_id: int
    label: int
    hop_distance: int


@dataclass(frozen=True, eq=False)
class CandidatePairs:
    """Pairs as aligned columns, int64 except in enumerate_candidate_pairs'
    narrow result. Iterating yields PropagationPair rows."""

    source: np.ndarray
    target: np.ndarray
    label: np.ndarray
    hop: np.ndarray

    def __len__(self) -> int:
        return self.source.shape[0]

    def __iter__(self) -> Iterator[PropagationPair]:
        cols = (self.source.tolist(), self.target.tolist(), self.label.tolist(), self.hop.tolist())
        return map(PropagationPair, *cols)

    def select(self, rows: np.ndarray) -> CandidatePairs:
        return CandidatePairs(
            self.source[rows], self.target[rows], self.label[rows], self.hop[rows]
        )


@dataclass
class PairDatasetSplit:
    train: CandidatePairs
    test: CandidatePairs
    split_seed: int | None


def bfs_hops(
    indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray, max_hops: int
) -> np.ndarray:
    """Hop distance from each source to every node of a CSR graph, within
    max_hops: a [len(sources), num_nodes] matrix, 0 at the source itself and
    -1 where the node is out of reach. Its type is the narrowest signed
    integer that holds max_hops: int8 up to 127 hops."""
    n = indptr.shape[0] - 1
    num_sources = sources.shape[0]
    hop_type = next(
        t for t in (np.int8, np.int16, np.int32, np.int64) if max_hops <= np.iinfo(t).max
    )
    hops = np.full((num_sources, n), -1, dtype=hop_type)
    hops[np.arange(num_sources), sources] = 0
    bits = np.zeros((n, -(-num_sources // 64) * 64), dtype=bool)
    bits[sources, np.arange(num_sources)] = True
    frontier = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
    visited = frontier.copy()
    has_nbrs = np.flatnonzero(np.diff(indptr))
    for hop in range(1, max_hops + 1):
        reached = np.zeros_like(frontier)
        if has_nbrs.size:
            reached[has_nbrs] = np.bitwise_or.reduceat(
                frontier[indices], indptr[has_nbrs], axis=0
            )
        frontier = reached & ~visited
        if not frontier.any():
            break
        visited |= frontier
        new = np.unpackbits(frontier.view(np.uint8), axis=1, count=num_sources, bitorder="little")
        hops[new.T.view(bool)] = hop
    return hops


def _event_times(g: HeteroGraph, events: list[DefaultEvent]) -> dict[int, int]:
    times: dict[int, int] = {}
    for ev in events:
        if not 0 <= ev.node_id < g.num_nodes:
            raise PairConstructionError(f"event references unknown node id {ev.node_id}")
        if ev.node_id in times:
            raise PairConstructionError(f"duplicate event for node {ev.node_id}")
        times[ev.node_id] = ev.default_time
    return times


def enumerate_candidate_pairs(
    g: HeteroGraph, events: list[DefaultEvent], n_hops: int
) -> CandidatePairs:
    """All pre-balancing pairs, in (source, target) order; deterministic.
    The columns keep the enumeration's own types: int32 node ids (int64
    from 2**31 nodes), int8 labels and bfs_hops' hop type."""
    if n_hops < 1:
        raise PairConstructionError("n_hops must be >= 1")
    times = _event_times(g, events)
    id_type = np.int32 if g.num_nodes < 2**31 else np.int64
    sources = np.array(sorted(nid for nid in times if g.issuer_flags[nid]), dtype=id_type)
    if not sources.size:
        raise PairConstructionError("no defaulted issuers; adjust cascade config")
    time_of = np.full(g.num_nodes, -1, dtype=np.int64)
    time_of[list(times)] = list(times.values())
    issuer_ids = np.flatnonzero(g.issuer_flags).astype(id_type)
    indptr, indices = g.union_csr()
    chunk = max(1, _BFS_CELLS // g.num_nodes)
    parts = []
    for lo in range(0, sources.size, chunk):
        chunk_sources = sources[lo : lo + chunk]
        hops = bfs_hops(indptr, indices, chunk_sources, n_hops)[:, issuer_ids]
        rows, cols = np.nonzero(hops > 0)
        src, dst, hop = chunk_sources[rows], issuer_ids[cols], hops[rows, cols]
        # the int64 indices and the hop matrix go before the label temporaries
        del rows, cols, hops
        parts.append((src, dst, (time_of[dst] > time_of[src]).astype(np.int8), hop))
    return CandidatePairs(*(np.concatenate(col) for col in zip(*parts)))


def build_pairs(
    g: HeteroGraph, events: list[DefaultEvent], n_hops: int, seed: int
) -> CandidatePairs:
    """Candidate pairs with whites uniformly downsampled to the black count,
    in (source, target) order. Only the rows kept are widened to int64."""
    candidates = enumerate_candidate_pairs(g, events, n_hops)
    blacks = np.flatnonzero(candidates.label == 1)
    whites = np.flatnonzero(candidates.label == 0)
    if not blacks.size:
        raise PairConstructionError("no positive samples; adjust cascade config")
    if whites.size > blacks.size:
        rng = np.random.default_rng(seed)
        whites = whites[rng.choice(whites.size, size=blacks.size, replace=False)]
    rows = np.sort(np.concatenate([blacks, whites]))
    cols = (candidates.source, candidates.target, candidates.label, candidates.hop)
    return CandidatePairs(*(col[rows].astype(np.int64) for col in cols))


def split_pairs(pairs: CandidatePairs, train_frac: float, seed: int) -> PairDatasetSplit:
    """Stratified shuffle split; each class needs at least 5 pairs. Each side
    is in (source, target, label, hop) order."""
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must be in (0, 1)")
    rng = np.random.default_rng(seed)
    train, test = [], []
    for label in (0, 1):
        group = np.flatnonzero(pairs.label == label)
        if group.size < 5:
            raise PairConstructionError(
                f"class {label} has only {group.size} pairs; need at least 5 to split"
            )
        order = group[rng.permutation(group.size)]
        n_train = int(round(train_frac * group.size))
        n_train = min(max(n_train, 1), group.size - 1)
        train.append(order[:n_train])
        test.append(order[n_train:])
    keys = np.stack([pairs.hop, pairs.label, pairs.target, pairs.source])

    def sorted_rows(rows: np.ndarray) -> CandidatePairs:
        # a stable sort, source first, as sorted() orders PropagationPair rows
        return pairs.select(rows[np.lexsort(keys[:, rows])])

    return PairDatasetSplit(
        train=sorted_rows(np.concatenate(train)),
        test=sorted_rows(np.concatenate(test)),
        split_seed=seed,
    )


PAIRS = (("source_id", int), ("target_id", int), ("hop", int), ("label", int), ("split", str))
_PAIR_CHECKS = (
    Check("target_id", lambda c: c["source_id"] == c["target_id"],
          "pair from node {source_id} to itself"),
    Check("hop", lambda c: c["hop"] < 1, "hop must be >= 1; got {hop}"),
    Check("label", lambda c: (c["label"] != 0) & (c["label"] != 1),
          "label must be 0 or 1; got {label}"),
    Check(
        "split", lambda c: (c["split"] != "train") & (c["split"] != "test"), "bad split {split!r}"
    ),
)


def save_pairs(split: PairDatasetSplit, path: Path | str) -> None:
    """Train rows, then test rows, each in its split's order."""
    train, test = split.train, split.test
    fields = ("source", "target", "hop", "label")
    cols = [np.concatenate([getattr(train, f), getattr(test, f)]) for f in fields]
    write_table(path, PAIRS, [*cols, ["train"] * len(train) + ["test"] * len(test)])


def load_pairs(path: Path | str) -> PairDatasetSplit:
    """Each split keeps its rows in file order."""
    source, target, hop, label, names = read_table(path, PAIRS, _PAIR_CHECKS)
    pairs = CandidatePairs(source, target, label, hop)
    train = names == "train"
    return PairDatasetSplit(train=pairs.select(train), test=pairs.select(~train), split_seed=None)
