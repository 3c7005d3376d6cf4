"""Stage-2 outputs pinned by SHA-256, and the array paths against their loop
references.

stage2_reference.json holds digests of the generated graph, the cascade
events, build_pairs and split_pairs for the 4k worlds 0-2 (the default
config scaled to 4000 nodes at constant mean degree) and for the default
world. They were recorded with the dict/deque implementations, so any
change to a draw, an ordering or a label shows here as a changed digest.
stage2_tail_reference.json pins the rest of stage 2 on the same worlds: the
saved nodes.tsv and edges.tsv bytes, the fused classifier inputs, the
task_only classifier and its evaluate() dict. It was recorded with the
per-row codec, the per-pair fusion and the masked sigmoid. Re-record only
for a change that is meant to change these outputs:

    PYTHONPATH=src:tests python -c "import test_stage2; test_stage2.record('<commit>')"
    PYTHONPATH=src:tests python -c "import test_stage2; test_stage2.record_tail('<commit>')"
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from riskprop import classify
from riskprop import pairs as pairs_mod
from riskprop import synthetic
from riskprop.graph import DefaultEvent, load_graph, save_graph
from riskprop.pairs import (
    PropagationPair,
    bfs_hops,
    build_pairs,
    enumerate_candidate_pairs,
    split_pairs,
)
from riskprop.synthetic import GenConfig, generate_graph, simulate_cascade

from conftest import make_graph, traced_peak, world_4k_config
from oracles import (
    bfs_distances,
    brute_force_candidate_pairs,
    cascade_by_live_edges,
    neighbor_lists,
)

REFERENCE_PATH = Path(__file__).parent / "stage2_reference.json"
TAIL_REFERENCE_PATH = Path(__file__).parent / "stage2_tail_reference.json"
WORLD_4K_SEEDS = (0, 1, 2)
DEFAULT_WORLD_SEEDS = (0, 1, 2, 3, 4)
PAIR_SEEDS = (0, 17)


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\n")
    return h.hexdigest()


def _pair_lines(pairs) -> list[str]:
    return [f"{p.source_id}\t{p.target_id}\t{p.label}\t{p.hop_distance}" for p in pairs]


def graph_digest(g) -> str:
    parts = [g.edge_lists[k].tobytes() for k in range(g.num_edge_types)]
    return _sha(parts + [g.node_features.tobytes(), g.issuer_flags.tobytes()])


def events_digest(events) -> str:
    return _sha(f"{e.node_id}\t{e.default_time}" for e in events)


def world_digests(cfg: GenConfig, pair_seeds=()) -> dict:
    """Digests of one world and, per pair seed, of its default-config
    (3 hops, 80/20) pairs and split."""
    g = generate_graph(cfg)
    events = simulate_cascade(g, cfg)
    out = {"graph": graph_digest(g), "events": events_digest(events)}
    for seed in pair_seeds:
        pairs = build_pairs(g, events, 3, seed=seed)
        split = split_pairs(pairs, 0.8, seed=seed)
        out[f"pairs_seed{seed}"] = _sha(_pair_lines(pairs))
        out[f"split_seed{seed}"] = _sha(
            _pair_lines(split.train) + ["--"] + _pair_lines(split.test)
        )
    return out


def record(recorded_at: str) -> None:
    ref = {
        "recorded_at": recorded_at,
        "environment": "x86-64, numpy 2.4.6",
        "world_4k": {
            str(s): world_digests(world_4k_config(s), PAIR_SEEDS) for s in WORLD_4K_SEEDS
        },
        "default_world": {
            str(s): world_digests(dataclasses.replace(GenConfig(), rng_seed=s))
            for s in DEFAULT_WORLD_SEEDS
        },
    }
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


REFERENCE = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}


def _array_parts(*arrays) -> list:
    return [part for a in arrays for part in (str(a.dtype), str(a.shape), a.tobytes())]


def tail_digests(cfg: GenConfig, pair_seeds, directory: Path) -> tuple[dict, str]:
    """Digests of one world's saved graph files and, per pair seed, of its
    fused inputs (task only, and with a 3-wide random embedding), the
    task_only classifier and its evaluate() dict on the test split. Also
    returns the digest of the graph loaded back from the saved files."""
    g = generate_graph(cfg)
    events = simulate_cascade(g, cfg)
    task = synthetic.task_feature_table(g, synthetic.attach_task_features(g, events, cfg))
    save_graph(g, directory)
    out = {
        "nodes_tsv": _sha([(directory / "nodes.tsv").read_bytes()]),
        "edges_tsv": _sha([(directory / "edges.tsv").read_bytes()]),
    }
    loaded = graph_digest(load_graph(directory))
    emb = np.random.default_rng(cfg.rng_seed).standard_normal((g.num_nodes, 3))
    task_only = classify.make_fusion_fn(task, np.zeros((g.num_nodes, 0)))
    with_emb = classify.make_fusion_fn(task, emb)
    for seed in pair_seeds:
        split = split_pairs(build_pairs(g, events, 3, seed=seed), 0.8, seed=seed)
        for key, fusion_fn in (("fusion", task_only), ("fusion_emb", with_emb)):
            parts = []
            for group in (split.train, split.test):
                parts += _array_parts(fusion_fn(group), group.label.astype(np.float64))
            out[f"{key}_seed{seed}"] = _sha(parts)
        model = classify.train_classifier(split, task_only, classify.ClassifierConfig())
        out[f"model_seed{seed}"] = _sha(_array_parts(model.weights, np.float64(model.bias)))
        out[f"evaluate_seed{seed}"] = _sha([repr(classify.evaluate(model, split.test, task_only))])
    return out, loaded


# key -> (config, pair seeds): the 4k worlds with both pair seeds, and the
# default worlds with the pipeline's pair seed, which is the world seed
TAIL_WORLDS = {
    **{f"world_4k/{s}": (world_4k_config(s), PAIR_SEEDS) for s in WORLD_4K_SEEDS},
    **{
        f"default_world/{s}": (dataclasses.replace(GenConfig(), rng_seed=s), (s,))
        for s in DEFAULT_WORLD_SEEDS
    },
}


def record_tail(recorded_at: str) -> None:
    ref = {"recorded_at": recorded_at, "environment": "x86-64, numpy 2.4.6"}
    for key, (cfg, pair_seeds) in TAIL_WORLDS.items():
        with tempfile.TemporaryDirectory() as tmp:
            ref[key], _ = tail_digests(cfg, pair_seeds, Path(tmp))
    TAIL_REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


TAIL_REFERENCE = (
    json.loads(TAIL_REFERENCE_PATH.read_text()) if TAIL_REFERENCE_PATH.exists() else {}
)


@pytest.mark.parametrize("world_seed", WORLD_4K_SEEDS)
def test_world_4k_stage2_matches_recorded_digests(world_seed):
    got = world_digests(world_4k_config(world_seed), PAIR_SEEDS)
    assert got == REFERENCE["world_4k"][str(world_seed)]


def test_default_worlds_match_recorded_digests():
    for seed in DEFAULT_WORLD_SEEDS:
        got = world_digests(dataclasses.replace(GenConfig(), rng_seed=seed))
        assert got == REFERENCE["default_world"][str(seed)], seed


@pytest.mark.parametrize("key", list(TAIL_WORLDS))
def test_stage2_tail_matches_recorded_digests(tmp_path, key):
    got, loaded = tail_digests(*TAIL_WORLDS[key], tmp_path)
    assert got == TAIL_REFERENCE[key]
    # loading the saved files gives back the generated graph, bit for bit
    world, seed = key.split("/")
    assert loaded == REFERENCE[world][seed]["graph"]


def test_generator_chunk_size_does_not_change_the_world(monkeypatch):
    # chunks of 7 pairs split rows and types at odd places; the stream must
    # still be the one recorded with a single draw per type
    monkeypatch.setattr(synthetic, "_PAIR_CHUNK", 7)
    cfg = GenConfig(rng_seed=3)
    assert graph_digest(generate_graph(cfg)) == REFERENCE["default_world"]["3"]["graph"]


def _sparse_world(n: int, seed: int) -> GenConfig:
    # an eighth of the default world's mean degree at every size, so some
    # nodes are isolated and 4 hops do not reach the whole graph
    scale = 200 / n / 8
    gen = GenConfig()
    return dataclasses.replace(
        gen,
        num_nodes=n,
        intra_edge_prob=tuple(p * scale for p in gen.intra_edge_prob),
        inter_edge_prob=tuple(p * scale for p in gen.inter_edge_prob),
        rng_seed=seed,
    )


@pytest.mark.parametrize("n", [120, 500, 1000])
def test_union_csr_matches_neighbor_lists(n):
    g = generate_graph(_sparse_world(n, seed=n))
    indptr, indices = g.union_csr()
    nbrs = neighbor_lists(g)
    assert any(a.size == 0 for a in nbrs)  # isolated nodes are covered
    for u in range(n):
        assert indices[indptr[u] : indptr[u + 1]].tolist() == nbrs[u].tolist()


@pytest.mark.parametrize("n", [120, 500, 1000])
@pytest.mark.parametrize("max_hops", [1, 2, 3, 4])
def test_array_bfs_matches_deque_bfs(n, max_hops):
    g = generate_graph(_sparse_world(n, seed=n + max_hops))
    nbrs = neighbor_lists(g)
    isolated = [u for u in range(n) if nbrs[u].size == 0]
    rng = np.random.default_rng(max_hops)
    sources = np.unique(np.concatenate([rng.choice(n, size=70, replace=False), isolated[:3]]))
    hops = bfs_hops(*g.union_csr(), sources, max_hops)
    assert hops.shape == (sources.size, n)
    for row, s in zip(hops, sources.tolist()):
        want = bfs_distances(nbrs, s, max_hops)
        got = {v: int(d) for v, d in enumerate(row) if d >= 0}
        assert got == want


def test_hops_beyond_int8_match_the_oracles():
    # a 300-node path: 200 hops need a wider hop type than int8
    n, n_hops = 300, 200
    g = make_graph(n, {0: [(u, u + 1) for u in range(n - 1)]}, issuers=range(0, n, 7))
    events = [DefaultEvent(u, u % 5) for u in range(0, n, 21)]
    nbrs = neighbor_lists(g)
    sources = np.array([0, 150, 299])
    hops = bfs_hops(*g.union_csr(), sources, n_hops)
    assert hops.dtype == np.int16
    for row, s in zip(hops, sources.tolist()):
        assert {v: int(d) for v, d in enumerate(row) if d >= 0} == bfs_distances(nbrs, s, n_hops)
    got = enumerate_candidate_pairs(g, events, n_hops)
    for col in ("source", "target", "label", "hop"):
        assert getattr(got, col).dtype == np.int64
    assert got.hop.max() > 127
    want = brute_force_candidate_pairs(g, events, n_hops)
    assert list(got) == [PropagationPair(*t) for t in want]


def test_multi_chunk_enumeration_matches_one_chunk(monkeypatch):
    cfg = dataclasses.replace(GenConfig(), num_nodes=300, rng_seed=2)
    g = generate_graph(cfg)
    events = simulate_cascade(g, cfg)
    whole = enumerate_candidate_pairs(g, events, 3)
    whole_kept = build_pairs(g, events, 3, seed=4)
    monkeypatch.setattr(pairs_mod, "_BFS_CELLS", 5 * cfg.num_nodes)  # 5 sources per chunk
    chunked = enumerate_candidate_pairs(g, events, 3)
    chunked_kept = build_pairs(g, events, 3, seed=4)
    for col in ("source", "target", "label", "hop"):
        assert getattr(whole, col).dtype == np.int64
        assert np.array_equal(getattr(whole, col), getattr(chunked, col)), col
        assert getattr(chunked_kept, col).dtype == np.int64
        assert np.array_equal(getattr(whole_kept, col), getattr(chunked_kept, col)), col


def test_build_pairs_traced_peak_on_a_4k_world():
    # 4k world 2 has 290,752 candidates; with int64 scratch (a [sources,
    # nodes] hop matrix and candidate columns held twice) the peak was 26.9 MB
    cfg = world_4k_config(2)
    g = generate_graph(cfg)
    events = simulate_cascade(g, cfg)
    kept, peak = traced_peak(lambda: build_pairs(g, events, 3, seed=17))
    assert len(kept) == 24_192
    assert peak <= 16e6, f"build_pairs peaked at {peak / 1e6:.1f} MB"


def test_graph_save_and_load_traced_peaks_on_a_4k_world(tmp_path):
    # 4k world 2: 4,000 node rows and 37,222 edge rows. Streamed in chunks
    # of 2**14 cells, save_graph peaked at 1.7 MB and load_graph at 4.2 MB
    # (x86-64, numpy 2.4.6); holding each whole table as Python objects,
    # 6.8 and 12.4 MB. The bounds leave about 20% of room.
    g = generate_graph(world_4k_config(2))
    _, save_peak = traced_peak(lambda: save_graph(g, tmp_path))
    loaded, load_peak = traced_peak(lambda: load_graph(tmp_path))
    assert np.array_equal(loaded.node_features, g.node_features)
    assert save_peak <= 2.1e6, f"save_graph peaked at {save_peak / 1e6:.1f} MB"
    assert load_peak <= 5.0e6, f"load_graph peaked at {load_peak / 1e6:.1f} MB"


def test_source_with_no_issuer_in_reach_adds_no_pairs():
    # 0-1-2 and 3-4 plus isolated 5: source 3 reaches only the non-issuer 4,
    # source 5 reaches nothing
    g = make_graph(6, {0: [(0, 1), (1, 2)], 1: [(3, 4)]}, issuers=[0, 2, 3, 5])
    events = [DefaultEvent(0, 0), DefaultEvent(3, 0), DefaultEvent(5, 1), DefaultEvent(2, 2)]
    got = enumerate_candidate_pairs(g, events, 3)
    assert len(got) == 2
    assert list(got) == [PropagationPair(0, 2, 1, 2), PropagationPair(2, 0, 0, 2)]
    assert [tuple(p) for p in brute_force_candidate_pairs(g, events, 3)] == [
        (0, 2, 1, 2),
        (2, 0, 0, 2),
    ]


def test_cascade_matches_live_edge_oracle_at_1000_nodes():
    for seed in range(3):
        cfg = _sparse_world(1000, seed)
        cfg = dataclasses.replace(cfg, num_seed_defaults=20, max_cascade_hops=8)
        g = generate_graph(cfg)
        events = simulate_cascade(g, cfg)
        assert len(events) > cfg.num_seed_defaults
        assert events == cascade_by_live_edges(g, cfg)
