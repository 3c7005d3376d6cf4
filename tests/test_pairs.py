import dataclasses
from collections import Counter

import numpy as np
import pytest

from riskprop.graph import DefaultEvent
from riskprop.pairs import (
    PairConstructionError,
    PairDatasetSplit,
    PropagationPair,
    build_pairs,
    enumerate_candidate_pairs,
    load_pairs,
    save_pairs,
    split_pairs,
)
from riskprop.synthetic import GenConfig, generate_graph, simulate_cascade

from conftest import make_graph
from oracles import bfs_distances, brute_force_candidate_pairs, neighbor_lists, pairs_from_rows


def test_single_black_pair_from_later_default():
    g = make_graph(2, {0: [(0, 1)]}, issuers=[0, 1])
    events = [DefaultEvent(0, 0), DefaultEvent(1, 2)]
    pairs = list(enumerate_candidate_pairs(g, events, 3))
    assert PropagationPair(0, 1, 1, 1) in pairs
    assert PropagationPair(1, 0, 0, 1) in pairs  # reverse direction is white
    assert len(pairs) == 2


def test_same_tick_default_is_white():
    g = make_graph(2, {0: [(0, 1)]}, issuers=[0, 1])
    events = [DefaultEvent(0, 1), DefaultEvent(1, 1)]
    pairs = list(enumerate_candidate_pairs(g, events, 3))
    assert all(p.label == 0 for p in pairs)


def test_earlier_default_is_white():
    g = make_graph(2, {0: [(0, 1)]}, issuers=[0, 1])
    events = [DefaultEvent(0, 3), DefaultEvent(1, 1)]
    pairs = list(enumerate_candidate_pairs(g, events, 3))
    assert PropagationPair(0, 1, 0, 1) in pairs
    assert PropagationPair(1, 0, 1, 1) in pairs


def test_targets_restricted_to_issuers_within_hops():
    # path 0-1-2-3-4; issuers 0, 2, 4; only node 0 defaults
    g = make_graph(5, {0: [(i, i + 1) for i in range(4)]}, issuers=[0, 2, 4])
    events = [DefaultEvent(0, 0), DefaultEvent(1, 1)]  # node 1 is a carrier, not an issuer
    pairs = list(enumerate_candidate_pairs(g, events, 3))
    assert pairs == [PropagationPair(0, 2, 0, 2)]  # node 4 is 4 hops away, node 1 not an issuer


def test_non_issuer_default_never_a_source():
    g = make_graph(3, {0: [(0, 1), (1, 2)]}, issuers=[0, 2])
    events = [DefaultEvent(1, 0), DefaultEvent(2, 1)]
    pairs = list(enumerate_candidate_pairs(g, events, 2))
    assert all(p.source_id == 2 for p in pairs)


def test_candidates_match_brute_force_join_on_generated_worlds():
    for seed in range(3):
        cfg = dataclasses.replace(GenConfig(), num_nodes=120, rng_seed=seed)
        g = generate_graph(cfg)
        events = simulate_cascade(g, cfg)
        got = [
            (p.source_id, p.target_id, p.label, p.hop_distance)
            for p in enumerate_candidate_pairs(g, events, 3)
        ]
        assert got == brute_force_candidate_pairs(g, events, 3)


def test_hop_distances_verified_by_bfs():
    cfg = GenConfig(num_nodes=80, rng_seed=4)
    g = generate_graph(cfg)
    events = simulate_cascade(g, cfg)
    neighbors = neighbor_lists(g)
    for p in enumerate_candidate_pairs(g, events, 3):
        dist = bfs_distances(neighbors, p.source_id, 3)
        assert p.hop_distance == dist[p.target_id] <= 3


def test_balancing_keeps_blacks_and_downsamples_whites():
    cfg = GenConfig(num_nodes=120, rng_seed=1)
    g = generate_graph(cfg)
    events = simulate_cascade(g, cfg)
    candidates = list(enumerate_candidate_pairs(g, events, 3))
    balanced = list(build_pairs(g, events, 3, seed=0))
    blacks = [p for p in candidates if p.label == 1]
    n_black = len(blacks)
    assert sum(p.label for p in balanced) == n_black
    assert len(balanced) == 2 * n_black
    assert set(p for p in balanced if p.label == 1) == set(blacks)
    assert set(balanced) <= set(candidates)


def test_balancing_deterministic_per_seed():
    cfg = GenConfig(num_nodes=100, rng_seed=2)
    g = generate_graph(cfg)
    events = simulate_cascade(g, cfg)
    assert list(build_pairs(g, events, 3, seed=5)) == list(build_pairs(g, events, 3, seed=5))
    assert list(build_pairs(g, events, 3, seed=5)) != list(build_pairs(g, events, 3, seed=6))


def test_no_duplicate_directed_pairs():
    cfg = GenConfig(num_nodes=100, rng_seed=3)
    g = generate_graph(cfg)
    events = simulate_cascade(g, cfg)
    pairs = list(enumerate_candidate_pairs(g, events, 3))
    keys = [(p.source_id, p.target_id) for p in pairs]
    assert len(keys) == len(set(keys))
    # both directions appear only when both endpoints defaulted
    times = {e.node_id: e.default_time for e in events}
    directed = set(keys)
    for s, t in directed:
        if (t, s) in directed:
            assert s in times and t in times


def test_no_positive_samples_is_an_error():
    g = make_graph(2, {0: [(0, 1)]}, issuers=[0, 1])
    events = [DefaultEvent(0, 0)]
    with pytest.raises(PairConstructionError, match="no positive samples"):
        build_pairs(g, events, 3, seed=0)


# -- split --------------------------------------------------------------------


def hundred_balanced_pairs():
    pairs = []
    for i in range(50):
        pairs.append(PropagationPair(source_id=i, target_id=100 + i, label=1, hop_distance=1))
        pairs.append(PropagationPair(source_id=i, target_id=200 + i, label=0, hop_distance=1))
    return pairs_from_rows(pairs)


def test_split_fractions_and_stratification():
    split = split_pairs(hundred_balanced_pairs(), 0.8, seed=0)
    assert len(split.train) == 80 and len(split.test) == 20
    assert sum(p.label for p in split.train) == 40
    assert sum(p.label for p in split.test) == 10


def test_split_deterministic_and_multiset_preserving():
    pairs = hundred_balanced_pairs()
    a = split_pairs(pairs, 0.8, seed=3)
    b = split_pairs(pairs, 0.8, seed=3)
    assert list(a.train) == list(b.train) and list(a.test) == list(b.test)
    assert Counter(a.train) + Counter(a.test) == Counter(pairs)
    assert not set(a.train) & set(a.test)


def test_split_class_too_small():
    pairs = hundred_balanced_pairs().select(np.arange(8))  # 4 per class
    with pytest.raises(PairConstructionError, match="at least 5"):
        split_pairs(pairs, 0.8, seed=0)


def test_pairs_roundtrip(tmp_path):
    split = split_pairs(hundred_balanced_pairs(), 0.8, seed=1)
    save_pairs(split, tmp_path / "pairs.tsv")
    loaded = load_pairs(tmp_path / "pairs.tsv")
    for side in ("train", "test"):
        for col in ("source", "target", "label", "hop"):
            got, want = getattr(getattr(loaded, side), col), getattr(getattr(split, side), col)
            assert got.dtype == np.int64 and np.array_equal(got, want), (side, col)


@pytest.mark.parametrize("col, what", [(0, "source_id"), (1, "target_id"), (2, "hop"), (3, "label")])
def test_load_pairs_bad_cell_names_line_and_column(tmp_path, col, what):
    train = [PropagationPair(0, 1, 1, 2), PropagationPair(2, 1, 0, 1)]
    test = [PropagationPair(1, 0, 0, 2)]
    split = PairDatasetSplit(pairs_from_rows(train), pairs_from_rows(test), split_seed=0)
    path = tmp_path / "pairs.tsv"
    save_pairs(split, path)
    lines = path.read_text().splitlines()
    toks = lines[2].split("\t")
    toks[col] = "x"
    lines[2] = "\t".join(toks)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        load_pairs(path)
    assert str(err.value) == f"{path}:3: bad {what} 'x'"
