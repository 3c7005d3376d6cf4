import dataclasses

import numpy as np
import pytest

from riskprop.graph import DefaultEvent
from riskprop.synthetic import (
    ConfigValidationError,
    GenConfig,
    attach_task_features,
    community_assignment,
    generate_graph,
    load_gen_config,
    load_task_features,
    save_gen_config,
    save_task_features,
    simulate_cascade,
    task_feature_table,
)

from oracles import cascade_by_live_edges


def test_invalid_config_lists_every_problem():
    with pytest.raises(ConfigValidationError) as exc:
        GenConfig(num_nodes=1, issuer_fraction=1.5, noise_std=-1.0)
    msg = str(exc.value)
    assert "num_nodes" in msg and "issuer_fraction" in msg and "noise_std" in msg


def test_zero_noise_features_take_exactly_community_values():
    cfg = GenConfig(num_nodes=20, num_communities=2, d_in=4, noise_std=0.0)
    g = generate_graph(cfg)
    distinct = np.unique(g.node_features, axis=0)
    assert distinct.shape[0] == 2
    comm = community_assignment(cfg)
    expected = np.zeros((20, 4))
    expected[np.arange(20), comm] = 1.0
    np.testing.assert_array_equal(g.node_features, expected)


def test_generation_deterministic():
    cfg = GenConfig(num_nodes=50, rng_seed=9)
    a = generate_graph(cfg)
    b = generate_graph(cfg)
    assert a.node_features.tobytes() == b.node_features.tobytes()
    np.testing.assert_array_equal(a.issuer_flags, b.issuer_flags)
    for k in range(a.num_edge_types):
        np.testing.assert_array_equal(a.edge_lists[k], b.edge_lists[k])


def test_edge_counts_within_three_sigma_of_binomial():
    cfg = GenConfig()
    g = generate_graph(cfg)
    comm = community_assignment(cfg)
    iu, iv = np.triu_indices(cfg.num_nodes, k=1)
    n_intra_pairs = int(np.sum(comm[iu] == comm[iv]))
    n_inter_pairs = iu.size - n_intra_pairs
    for k in range(cfg.num_edge_types):
        edges = g.edge_lists[k]
        same = comm[edges[:, 0]] == comm[edges[:, 1]]
        for observed, pairs, p in (
            (int(same.sum()), n_intra_pairs, cfg.intra_edge_prob[k]),
            (int((~same).sum()), n_inter_pairs, cfg.inter_edge_prob[k]),
        ):
            mean = pairs * p
            sigma = np.sqrt(pairs * p * (1 - p))
            assert abs(observed - mean) <= 3 * sigma + 1e-9, (k, observed, mean, sigma)


def test_issuer_count_is_rounded_fraction():
    cfg = GenConfig(num_nodes=50, issuer_fraction=0.3)
    g = generate_graph(cfg)
    assert int(g.issuer_flags.sum()) == 15


# -- cascade ----------------------------------------------------------------


def test_zero_transmission_keeps_only_seeds():
    cfg = GenConfig(num_nodes=40, transmission_prob=(0.0, 0.0, 0.0), num_seed_defaults=3)
    g = generate_graph(cfg)
    events = simulate_cascade(g, cfg)
    assert len(events) == 3
    assert all(e.default_time == 0 for e in events)
    assert all(g.issuer_flags[e.node_id] for e in events)


def test_full_transmission_floods_at_bfs_distance():
    cfg = GenConfig(
        num_nodes=30,
        intra_edge_prob=(0.6, 0.2, 0.2),
        inter_edge_prob=(0.4, 0.2, 0.2),
        transmission_prob=(1.0, 1.0, 1.0),
        num_seed_defaults=1,
        max_cascade_hops=29,
        rng_seed=2,
    )
    g = generate_graph(cfg)
    events = simulate_cascade(g, cfg)
    times = {e.node_id: e.default_time for e in events}
    seed = next(e.node_id for e in events if e.default_time == 0)
    # per-node BFS over the union graph
    from oracles import bfs_distances, neighbor_lists

    dist = bfs_distances(neighbor_lists(g), seed, cfg.max_cascade_hops)
    assert times == dist
    assert len(times) == 30  # graph this dense is connected


def test_cascade_matches_independent_live_edge_simulation():
    for seed in range(4):
        cfg = dataclasses.replace(GenConfig(), rng_seed=seed)
        g = generate_graph(cfg)
        assert simulate_cascade(g, cfg) == cascade_by_live_edges(g, cfg)


def test_cascade_monotone_in_transmission_probability():
    base = GenConfig(num_nodes=80, rng_seed=6)
    g = generate_graph(base)
    lower = {e.node_id for e in simulate_cascade(g, base)}
    for bump in (0.1, 0.3, 0.6):
        raised = dataclasses.replace(
            base, transmission_prob=tuple(min(1.0, p + bump) for p in base.transmission_prob)
        )
        higher = {e.node_id for e in simulate_cascade(g, raised)}
        assert lower <= higher
        lower = higher


def test_event_times_bounded_and_seeds_at_zero():
    cfg = GenConfig(rng_seed=3)
    g = generate_graph(cfg)
    events = simulate_cascade(g, cfg)
    assert all(0 <= e.default_time <= cfg.max_cascade_hops for e in events)
    assert sum(1 for e in events if e.default_time == 0) == cfg.num_seed_defaults


def test_too_many_seed_defaults_rejected():
    cfg = GenConfig(num_nodes=20, issuer_fraction=0.1, num_seed_defaults=8)
    g = generate_graph(cfg)
    with pytest.raises(ConfigValidationError, match="num_seed_defaults"):
        simulate_cascade(g, cfg)


# -- task features ----------------------------------------------------------


def test_task_features_zero_when_noise_and_weight_zero():
    cfg = GenConfig(num_nodes=30, noise_std=0.0, susceptibility_weight=0.0)
    g = generate_graph(cfg)
    events = simulate_cascade(g, cfg)
    values = attach_task_features(g, events, cfg)
    assert values.shape == (int(g.issuer_flags.sum()), cfg.d_task)
    assert np.all(values == 0.0)


def test_task_features_deterministic_and_indicator_shifted():
    cfg = GenConfig(num_nodes=60, rng_seed=4)
    g = generate_graph(cfg)
    events = simulate_cascade(g, cfg)
    a = attach_task_features(g, events, cfg)
    b = attach_task_features(g, events, cfg)
    assert a.tobytes() == b.tobytes()
    # zero-noise variant shows the indicator exactly
    clean_cfg = dataclasses.replace(cfg, noise_std=0.0)
    clean_g = generate_graph(clean_cfg)
    clean_events = simulate_cascade(clean_g, clean_cfg)
    clean = attach_task_features(clean_g, clean_events, clean_cfg)
    defaulted = {e.node_id for e in clean_events}
    issuer_ids = np.flatnonzero(clean_g.issuer_flags)
    for row, nid in zip(clean, issuer_ids):
        expected = clean_cfg.susceptibility_weight if int(nid) in defaulted else 0.0
        assert row[0] == expected
        assert np.all(row[1:] == 0.0)


def test_task_feature_table_and_roundtrip(tmp_path):
    cfg = GenConfig(num_nodes=40, rng_seed=8)
    g = generate_graph(cfg)
    events = simulate_cascade(g, cfg)
    table = task_feature_table(g, attach_task_features(g, events, cfg))
    assert set(table) == set(np.flatnonzero(g.issuer_flags).tolist())
    save_task_features(table, tmp_path / "task_features.tsv")
    loaded = load_task_features(tmp_path / "task_features.tsv")
    assert set(loaded) == set(table)
    for nid in table:
        assert loaded[nid].tobytes() == table[nid].tobytes()


@pytest.mark.parametrize("col, reason", [(0, "bad node_id 'x'"), (2, "bad task feature value")])
def test_load_task_features_bad_cell_names_line(tmp_path, col, reason):
    table = {3: np.array([0.5, -1.0]), 7: np.array([2.0, 0.25])}
    path = tmp_path / "task_features.tsv"
    save_task_features(table, path)
    lines = path.read_text().splitlines()
    toks = lines[2].split("\t")
    toks[col] = "x"
    lines[2] = "\t".join(toks)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        load_task_features(path)
    assert str(err.value) == f"{path}:3: {reason}"


def test_gen_config_roundtrip(tmp_path):
    cfg = GenConfig(num_nodes=123, noise_std=0.37, rng_seed=42)
    save_gen_config(cfg, tmp_path / "gen.config")
    assert load_gen_config(tmp_path / "gen.config") == cfg


@pytest.mark.parametrize(
    "text, problems",
    [
        ("noise_std=abc\n", ["2: noise_std: cannot parse 'abc'"]),
        ("num_nodes=50\nnum_nodes=60\n", ["3: duplicate key 'num_nodes'"]),
        (
            "bogus=1\nd_task\nintra_edge_prob=0.1,x,0.1\n",
            [
                "2: unknown key 'bogus'",
                "3: expected key=value",
                "4: intra_edge_prob: cannot parse '0.1,x,0.1'",
            ],
        ),
    ],
)
def test_malformed_gen_config_names_every_line(tmp_path, text, problems):
    path = tmp_path / "gen.config"
    path.write_text("num_communities=3\n" + text)
    with pytest.raises(ConfigValidationError) as err:
        load_gen_config(path)
    head, *got = str(err.value).split("\n  ")
    assert head == "invalid GenConfig file:"
    assert got == [f"{path}:{p}" for p in problems]


def test_event_with_unknown_node_rejected():
    cfg = GenConfig(num_nodes=10, num_seed_defaults=1)
    g = generate_graph(cfg)
    with pytest.raises(ValueError, match="unknown node id 99"):
        attach_task_features(g, [DefaultEvent(99, 0)], cfg)
