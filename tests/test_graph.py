import numpy as np
import pytest

from riskprop.graph import (
    DefaultEvent,
    GraphFormatError,
    HeteroGraph,
    _canonical_edges,
    load_events,
    load_graph,
    save_events,
    save_graph,
)
from riskprop.hgmae import plan_graph
from riskprop.synthetic import GenConfig, generate_graph

from conftest import make_graph
from oracles import sorted_pairs


def test_edges_canonicalized_and_deduplicated():
    g = make_graph(4, {0: [(2, 1), (1, 2), (0, 3)]})
    assert g.edge_lists[0].tolist() == [[0, 3], [1, 2]]


def test_canonical_edges_keeps_canonical_input_as_a_copy():
    edges = np.array([[0, 3], [0, 5], [1, 2], [2, 4]], dtype=np.int64)
    out = _canonical_edges(edges, "r")
    assert np.array_equal(out, edges)
    assert not np.shares_memory(out, edges)


@pytest.mark.parametrize(
    "rows",
    [
        [(1, 2), (0, 3), (2, 4), (0, 5)],  # rows shuffled
        [(3, 0), (5, 0), (2, 1), (4, 2)],  # every pair reversed
        [(0, 3), (0, 5), (0, 5), (1, 2), (2, 4)],  # a repeated row
        [(0, 3), (0, 5), (1, 2), (2, 4), (4, 2)],  # a reversed duplicate at the end
    ],
    ids=["shuffled", "reversed", "duplicated", "reversed-duplicate"],
)
def test_canonical_edges_canonicalises_other_input(rows):
    edges = np.array(rows, dtype=np.int64)
    out = _canonical_edges(edges, "r")
    assert out.tolist() == [[0, 3], [0, 5], [1, 2], [2, 4]]
    assert not np.shares_memory(out, edges)


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        make_graph(3, {0: [(1, 1)]})


def test_out_of_range_edge_rejected():
    with pytest.raises(ValueError, match="unknown node id 9"):
        make_graph(3, {0: [(0, 9)]})


def test_negative_edge_id_rejected():
    # canonical input, so this also checks the id range on that path
    with pytest.raises(ValueError, match="unknown node id -1"):
        make_graph(3, {0: [(-1, 0), (0, 1)]})


def test_non_finite_features_rejected():
    feats = np.zeros((2, 2))
    feats[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        HeteroGraph(feats, {0: np.array([[0, 1]])}, ["r"], np.zeros(2, dtype=bool))


@pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\rb", "\r\n"])
def test_edge_type_name_holding_a_tab_or_line_break_rejected(name):
    # edges.tsv splits a column at a tab, and reads "\r" and "\r\n" as "\n"
    edges = {0: np.array([[0, 1]]), 1: np.array([[0, 1]])}
    with pytest.raises(ValueError) as err:
        HeteroGraph(np.zeros((2, 1)), edges, ["ok", name], np.zeros(2, dtype=bool))
    assert str(err.value) == f"edge type name {name!r} holds a tab or a line break"


def test_union_edges_collapses_multi_type_duplicates():
    g = make_graph(4, {0: [(0, 1), (1, 2)], 1: [(0, 1), (2, 3)]})
    assert g.union_edges().tolist() == [[0, 1], [1, 2], [2, 3]]


# -- single-type terms of plan_graph ----------------------------------------


def term_edges(term) -> np.ndarray:
    """A term's edges in its own node ids, read back from its message pairs:
    one row (r, s) per pair with r < s, in lexicographic order."""
    dst, src, _ = sorted_pairs(term.pairs)
    keep = dst < src
    return np.stack([dst[keep], src[keep]], axis=1)


def type_terms(g) -> dict:
    """plan_graph's single-type terms by edge type."""
    return {term.edge_type: term for term in plan_graph(g)[1:]}


def test_extract_triangle_identity():
    g = make_graph(3, {0: [(0, 1), (1, 2), (0, 2)]})
    term = type_terms(g)[0]
    assert term.pairs.num_nodes == 3
    assert term_edges(term).tolist() == [[0, 1], [0, 2], [1, 2]]
    np.testing.assert_array_equal(term.features, g.node_features)


def test_extract_single_edge_type():
    g = make_graph(4, {0: [(0, 1), (2, 3)], 1: [(0, 1)]})
    term = type_terms(g)[1]
    assert term.pairs.num_nodes == 2
    assert term_edges(term).tolist() == [[0, 1]]
    np.testing.assert_array_equal(term.features, g.node_features[[0, 1]])


def test_extract_skips_empty_type():
    g = make_graph(3, {0: [(0, 1)], 1: np.zeros((0, 2))})
    assert list(type_terms(g)) == [0]
    assert type_terms(make_graph(3, {0: np.zeros((0, 2))})) == {}


def test_plan_lists_full_graph_then_nonempty_types_ascending():
    g = make_graph(4, {0: [(0, 1)], 1: np.zeros((0, 2)), 2: [(2, 3), (1, 2)]})
    terms = plan_graph(g)
    assert [term.edge_type for term in terms] == [None, 0, 2]
    assert terms[0].pairs.num_nodes == g.num_nodes
    np.testing.assert_array_equal(terms[0].features, g.node_features)


def test_subgraph_features_are_copies():
    g = make_graph(3, {0: [(0, 1)]})
    term = type_terms(g)[0]
    term.features[0, 0] = 123.0
    assert g.node_features[0, 0] != 123.0


def test_subgraph_membership_matches_incidence_scan():
    # brute-force check on generated graphs at several seeds
    for seed in range(3):
        cfg = GenConfig(num_nodes=40, rng_seed=seed)
        g = generate_graph(cfg)
        subs = type_terms(g)
        assert list(subs) == [k for k in range(g.num_edge_types) if g.edge_lists[k].size]
        for k, term in subs.items():
            ids = np.array(sorted({v for edge in g.edge_lists[k].tolist() for v in edge}))
            assert term.pairs.num_nodes == ids.size
            np.testing.assert_array_equal(term.features, g.node_features[ids])
            # renumbered edges map back to the originals
            np.testing.assert_array_equal(ids[term_edges(term)], g.edge_lists[k])


def test_union_is_disjoint_partition_by_type():
    cfg = GenConfig(num_nodes=40, rng_seed=1)
    g = generate_graph(cfg)
    seen: dict[tuple[int, int], int] = {}
    for k in range(g.num_edge_types):
        for u, v in g.edge_lists[k].tolist():
            # a pair may repeat across types but not within one
            assert seen.get((u, v)) != k
            seen[(u, v)] = k
    union = {tuple(e) for e in g.union_edges().tolist()}
    assert union == set(seen)


def test_extract_deterministic():
    g = make_graph(5, {0: [(0, 1), (1, 2), (3, 4)]})
    a = type_terms(g)[0]
    b = type_terms(g)[0]
    np.testing.assert_array_equal(a.features, b.features)
    for name in ("order", "counts", "recv", "nbr", "mirror", "slot_bounds"):
        assert np.array_equal(getattr(a.pairs, name), getattr(b.pairs, name)), name


# -- file I/O ---------------------------------------------------------------


def test_graph_roundtrip_bit_identical(tmp_path):
    cfg = GenConfig(num_nodes=30, rng_seed=5)
    g = generate_graph(cfg)
    save_graph(g, tmp_path)
    g2 = load_graph(tmp_path)
    assert g2.node_features.tobytes() == g.node_features.tobytes()
    assert g2.edge_type_names == g.edge_type_names
    np.testing.assert_array_equal(g2.issuer_flags, g.issuer_flags)
    for k in range(g.num_edge_types):
        np.testing.assert_array_equal(g2.edge_lists[k], g.edge_lists[k])
    # saving the loaded graph reproduces the files byte for byte
    save_graph(g2, tmp_path / "again")
    assert (tmp_path / "again" / "nodes.tsv").read_bytes() == (tmp_path / "nodes.tsv").read_bytes()
    assert (tmp_path / "again" / "edges.tsv").read_bytes() == (tmp_path / "edges.tsv").read_bytes()


def test_edge_type_names_with_format_characters_roundtrip(tmp_path):
    # % and str.format characters, and line breaks of str.splitlines that
    # are not "\n": a line ends only at "\n"
    names = ["50% owned", "%d {0} %%s", "a\x0cb", "p\x85q", "x\u2028y"]
    edges = {k: np.array([[0, 1], [1, 2]] if k == 0 else [[0, k]]) for k in range(5)}
    g = HeteroGraph(np.zeros((5, 1)), edges, names, np.zeros(5, dtype=bool))
    save_graph(g, tmp_path)
    assert (tmp_path / "edges.tsv").read_text().split("\n")[1] == "50% owned\t0\t1"
    g2 = load_graph(tmp_path)
    assert g2.edge_type_names == names
    for k in range(5):
        np.testing.assert_array_equal(g2.edge_lists[k], g.edge_lists[k])


def test_load_dangling_node_id(tmp_path):
    g = make_graph(10, {0: [(0, 1)]})
    save_graph(g, tmp_path)
    edges = tmp_path / "edges.tsv"
    edges.write_text(edges.read_text() + "rel-0\t3\t999\n")
    with pytest.raises(GraphFormatError, match="unknown node id 999"):
        load_graph(tmp_path)


def test_load_malformed_row_names_line(tmp_path):
    g = make_graph(3, {0: [(0, 1)]})
    save_graph(g, tmp_path)
    nodes = tmp_path / "nodes.tsv"
    lines = nodes.read_text().splitlines()
    lines[2] = "1\tnot-a-flag\t0\t0\t0\t0"
    nodes.write_text("\n".join(lines) + "\n")
    with pytest.raises(GraphFormatError, match="nodes.tsv:3"):
        load_graph(tmp_path)


def _set_line(lines, lineno, text):
    return lines[: lineno - 1] + [text] + lines[lineno:]


# (file, corruption of its lines, expected "line: reason"); the graph has
# nodes 0..4 with 2 features (nodes.tsv lines 2..6) and edges.tsv rows
# rel-0 0 1 / rel-0 1 2 / rel-0 3 4 / rel-1 0 4 on lines 2..5
_GRAPH_FAULTS = [
    ("nodes.tsv", lambda ls: [], "1: empty file"),
    ("nodes.tsv", lambda ls: ["id\tis_issuer"] + ls[1:], "1: bad header 'id\\tis_issuer'"),
    ("nodes.tsv", lambda ls: _set_line(ls, 3, "1\t0\t0.5"), "3: expected 4 columns, got 3"),
    ("nodes.tsv", lambda ls: _set_line(ls, 3, "x\t0\t0.5\t1"), "3: bad node_id 'x'"),
    ("nodes.tsv", lambda ls: _set_line(ls, 3, "5\t0\t0.5\t1"), "3: node ids must be dense; got 5"),
    ("nodes.tsv", lambda ls: _set_line(ls, 3, "1\ty\t0.5\t1"), "3: bad is_issuer 'y'"),
    ("nodes.tsv", lambda ls: _set_line(ls, 3, "1\t2\t0.5\t1"), "3: is_issuer must be 0 or 1"),
    ("nodes.tsv", lambda ls: _set_line(ls, 3, "1\t0\t0.5\tabc"), "3: bad feature value"),
    ("nodes.tsv", lambda ls: ls + [""], "7: expected 4 columns, got 1"),
    # the first bad line is reported, whatever is wrong further down
    (
        "nodes.tsv",
        lambda ls: _set_line(_set_line(ls, 5, "x\t0\t0\t0"), 3, "1\t0\t0\t1e999x"),
        "3: bad feature value",
    ),
    # within a line, the id is checked before the features
    ("nodes.tsv", lambda ls: _set_line(ls, 4, "7\t0\tabc\t0"), "4: node ids must be dense; got 7"),
    ("edges.tsv", lambda ls: ["type\tsrc\tdst"] + ls[1:], "1: bad header 'type\\tsrc\\tdst'"),
    ("edges.tsv", lambda ls: [], "1: empty file"),
    ("edges.tsv", lambda ls: _set_line(ls, 3, "rel-0\t1"), "3: expected 3 columns, got 2"),
    ("edges.tsv", lambda ls: _set_line(ls, 3, "rel-0\tx\t2"), "3: bad src 'x'"),
    ("edges.tsv", lambda ls: _set_line(ls, 3, "rel-0\t1\t2.0"), "3: bad dst '2.0'"),
    ("edges.tsv", lambda ls: _set_line(ls, 3, "rel-0\t-1\t2"), "3: edge references unknown node id -1"),
    ("edges.tsv", lambda ls: _set_line(ls, 3, "rel-0\t1\t5"), "3: edge references unknown node id 5"),
    ("edges.tsv", lambda ls: _set_line(ls, 3, "rel-0\t2\t2"), "3: self-loop edge on node 2"),
    (
        "edges.tsv",
        lambda ls: _set_line(_set_line(ls, 4, "rel-0\tx\t4"), 3, "rel-1\t2\t2"),
        "3: self-loop edge on node 2",
    ),
    (
        "edges.tsv",
        lambda ls: ls + ["rel-2\t0\t99999999999999999999999"],
        "6: edge references unknown node id 99999999999999999999999",
    ),
]


@pytest.mark.parametrize(
    "name, corrupt, where",
    _GRAPH_FAULTS,
    ids=[f"{name}:{where.split(':')[0]}-{i}" for i, (name, _, where) in enumerate(_GRAPH_FAULTS)],
)
def test_malformed_graph_file_names_line_and_reason(tmp_path, name, corrupt, where):
    g = make_graph(5, {0: [(0, 1), (1, 2), (3, 4)], 1: [(0, 4)]}, d_in=2, issuers=[0, 2])
    save_graph(g, tmp_path)
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in corrupt(path.read_text().splitlines())))
    with pytest.raises(GraphFormatError) as err:
        load_graph(tmp_path)
    assert str(err.value) == f"{path}:{where}"


def test_load_empty_edges_file(tmp_path):
    g = make_graph(5, {0: [(0, 1)]})
    save_graph(g, tmp_path)
    (tmp_path / "edges.tsv").write_text("edge_type\tsrc\tdst\n")
    g2 = load_graph(tmp_path)
    assert g2.num_nodes == 5
    assert g2.num_edge_types == 0
    assert g2.union_edges().shape == (0, 2)


def test_events_roundtrip(tmp_path):
    events = [DefaultEvent(5, 2), DefaultEvent(1, 0), DefaultEvent(3, 2)]
    save_events(events, tmp_path / "events.tsv")
    loaded = load_events(tmp_path / "events.tsv")
    assert loaded == [DefaultEvent(1, 0), DefaultEvent(3, 2), DefaultEvent(5, 2)]


def test_events_duplicate_node_rejected(tmp_path):
    (tmp_path / "events.tsv").write_text("node_id\tdefault_time\n1\t0\n1\t2\n")
    with pytest.raises(GraphFormatError, match="duplicate event for node 1"):
        load_events(tmp_path / "events.tsv")
