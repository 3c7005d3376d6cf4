import weakref

import numpy as np
import pytest

from riskprop import gat
from riskprop.autodiff import NumericFault
from riskprop.experiment import ExperimentConfig, build_world
from riskprop.gat import (
    LEAKY_SLOPE,
    GATLayerParams,
    build_message_pairs,
    gat_head,
    gat_layer_forward,
    gat_stack_forward,
    init_gat_layer,
)

import tape
from oracles import (
    dense_adjacency,
    dense_gat_layer,
    dense_stack,
    layers_as_arrays,
    slot_loop_jagged_matmul,
    sorted_pairs,
)

NO_EDGES = np.zeros((0, 2), dtype=np.int64)


def random_layer(d_in, d_out, heads=1, activation="elu", seed=0):
    return init_gat_layer(np.random.default_rng(seed), d_in, d_out, heads, activation)


def layer_out(params, x, edges):
    """The layer's output on raw edges."""
    return gat_layer_forward(params, x, build_message_pairs(edges, x.shape[0]))[0]


def stack_out(layers, x, edges):
    return gat_stack_forward(layers, x, build_message_pairs(edges, x.shape[0]))[0]


def test_single_node_softmax_over_self_loop():
    params = GATLayerParams(weights=[np.eye(3)], attn=[np.zeros(6)], activation="elu")
    x = np.array([[1.5, -0.7, 0.0]])
    pairs = build_message_pairs(NO_EDGES, 1)
    assert pairs.recv.tolist() == [0] and pairs.nbr.tolist() == [0]
    _, alpha, _ = gat_head(x, params.weights[0], params.attn[0], pairs)
    np.testing.assert_array_equal(alpha, [1.0])
    out, _ = gat_layer_forward(params, x, pairs)
    np.testing.assert_allclose(out, np.where(x > 0, x, np.expm1(x)), atol=1e-15)


def test_isolated_nodes_independent_and_permutable():
    params = random_layer(3, 4, heads=2, seed=1)
    x = np.random.default_rng(2).standard_normal((2, 3))
    out = layer_out(params, x, NO_EDGES)
    flipped = layer_out(params, x[::-1].copy(), NO_EDGES)
    np.testing.assert_array_equal(out, flipped[::-1])


# ids name the head merge, which is always concatenation
@pytest.mark.parametrize(
    "heads,activation",
    [(1, "identity"), (1, "elu"), (3, "elu")],
    ids=["1-concat-identity", "1-concat-elu", "3-concat-elu"],
)
def test_matches_dense_reference_on_path_graph(heads, activation):
    rng = np.random.default_rng(4)
    edges = np.array([[0, 1], [1, 2], [2, 3]])
    x = rng.standard_normal((4, 5))
    params = init_gat_layer(rng, 5, 3, heads, activation)
    out = layer_out(params, x, edges)
    expected = dense_gat_layer(
        params.weights,
        params.attn,
        x,
        dense_adjacency(edges, 4),
        LEAKY_SLOPE,
        activation,
    )
    np.testing.assert_allclose(out, expected, atol=1e-12, rtol=0)


def test_stack_matches_dense_reference_on_six_node_graph():
    rng = np.random.default_rng(9)
    edges = np.array([[0, 1], [0, 2], [1, 3], [2, 4], [4, 5], [1, 2]])
    x = rng.standard_normal((6, 4))
    layers = [init_gat_layer(rng, 4, 3, 2, "elu"), init_gat_layer(rng, 6, 2, 1, "identity")]
    out = stack_out(layers, x, edges)
    expected = dense_stack(layers_as_arrays(layers), x, dense_adjacency(edges, 6))
    np.testing.assert_allclose(out, expected, atol=1e-12, rtol=0)


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(7)
    edges = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [3, 4]])
    params = init_gat_layer(rng, 4, 3, 2)
    x = rng.standard_normal((5, 4))
    pairs = build_message_pairs(edges, 5)
    dst, _, order = sorted_pairs(pairs)
    for w, a in zip(params.weights, params.attn):
        _, alpha, _ = gat_head(x, w, a, pairs)
        sums = np.bincount(dst, weights=alpha[order], minlength=5)
        np.testing.assert_allclose(sums, np.ones(5), atol=1e-12, rtol=0)


def test_permutation_equivariance():
    rng = np.random.default_rng(12)
    edges = np.array([[0, 1], [1, 2], [2, 3], [0, 3], [1, 3]])
    x = rng.standard_normal((5, 4))
    params = random_layer(4, 3, heads=2, seed=5)
    out = layer_out(params, x, edges)

    perm = np.array([3, 0, 4, 1, 2])  # new id of old node i
    perm_edges = perm[edges]
    perm_x = np.empty_like(x)
    perm_x[perm] = x
    perm_out = layer_out(params, perm_x, perm_edges)
    np.testing.assert_allclose(perm_out[perm], out, atol=1e-12, rtol=0)


def test_edge_removal_is_local_to_receptive_field():
    # path 0-1-2-3-4-5-6-7; drop edge (3,4); with 2 layers, nodes at
    # distance >= 2 from both endpoints keep bit-identical outputs
    rng = np.random.default_rng(3)
    edges = np.array([[i, i + 1] for i in range(7)])
    pruned = np.array([e for e in edges.tolist() if e != [3, 4]])
    x = rng.standard_normal((8, 3))
    layers = [init_gat_layer(rng, 3, 4, 2, "elu"), init_gat_layer(rng, 8, 3, 1, "identity")]
    full = stack_out(layers, x, edges)
    cut = stack_out(layers, x, pruned)
    unaffected = [0, 1, 6, 7]  # min(dist to 3, dist to 4) >= 2
    np.testing.assert_array_equal(full[unaffected], cut[unaffected])
    affected = [2, 3, 4, 5]
    assert np.abs(full[affected] - cut[affected]).max() > 0


@pytest.mark.parametrize(
    "heads,activation", [(1, "identity"), (2, "elu")], ids=["1-concat-identity", "2-concat-elu"]
)
def test_layer_gradients_pass_finite_difference_check(heads, activation):
    rng = np.random.default_rng(21)
    edges = np.array([[0, 1], [1, 2], [2, 3], [0, 3]])
    x = rng.standard_normal((4, 3))
    params = init_gat_layer(rng, 3, 2, heads, activation)
    pairs = build_message_pairs(edges, 4)
    arrays = {}
    for h, (w, a) in enumerate(zip(params.weights, params.attn)):
        arrays[f"W{h}"] = w
        arrays[f"a{h}"] = a

    # loss = sum(out * out), so its gradient with respect to out is 2 * out
    out, backward = gat_layer_forward(params, x, pairs)
    _, grads = backward(2.0 * out)
    analytic = dict(zip(arrays, grads))

    def loss():
        out, _ = gat_layer_forward(params, x, pairs)
        return float((out * out).sum())

    report = tape.grad_check(loss, arrays, analytic, h=1e-5, tol=1e-4)
    assert report.passed, (report.worst_param, report.max_rel_err)


def test_build_message_pairs_sorted_with_self_loops():
    pairs = build_message_pairs(np.array([[1, 2], [0, 2]]), 3)
    dst, src, _ = sorted_pairs(pairs)
    assert list(zip(dst.tolist(), src.tolist())) == [
        (0, 0), (0, 2), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2),
    ]
    # node 2 has three pairs, nodes 0 and 1 two each; slot j holds every
    # receiver's j-th smallest sender
    assert pairs.order.tolist() == [2, 0, 1]
    assert pairs.counts.tolist() == [3, 3, 1]
    assert pairs.recv.tolist() == [2, 0, 1, 2, 0, 1, 2]
    assert pairs.nbr.tolist() == [0, 0, 1, 1, 2, 2, 2]
    assert pairs.slot_bounds == (0, 3, 6, 7)


@pytest.mark.parametrize(
    "edges",
    [[[0, 1], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, 1], [1, 0]]],
    ids=["repeated", "reversed", "both"],
)
def test_build_message_pairs_collapses_duplicate_edges(edges):
    pairs = build_message_pairs(np.array(edges), 3)
    single = build_message_pairs(np.array([[0, 1]]), 3)
    for name in ("order", "counts", "recv", "nbr", "mirror", "slot_bounds"):
        assert np.array_equal(getattr(pairs, name), getattr(single, name)), name


def test_duplicate_edges_match_dense_reference():
    rng = np.random.default_rng(8)
    edges = np.array([[0, 1], [1, 0], [0, 1], [1, 2], [2, 3], [3, 2]])
    x = rng.standard_normal((4, 3))
    params = init_gat_layer(rng, 3, 2, 2, "elu")
    out = layer_out(params, x, edges)
    expected = dense_gat_layer(
        params.weights,
        params.attn,
        x,
        dense_adjacency(edges, 4),
        LEAKY_SLOPE,
        "elu",
    )
    np.testing.assert_allclose(out, expected, atol=1e-12, rtol=0)


@pytest.mark.parametrize(
    "edges,reason",
    [
        ([[0, 1], [2, 2]], r"edge row 1 \[2, 2\]: self-loop"),
        ([[0, 1], [1, 2], [3, 1]], r"edge row 2 \[3, 1\]: node id outside \[0, 3\)"),
        ([[0, 1], [-1, 2]], r"edge row 1 \[-1, 2\]: node id outside \[0, 3\)"),
    ],
    ids=["self-loop", "id-too-large", "negative-id"],
)
def test_build_message_pairs_rejects_bad_rows(edges, reason):
    with pytest.raises(ValueError, match=reason):
        build_message_pairs(np.array(edges), 3)


def test_layer_rejects_pairs_built_for_another_graph():
    pairs = build_message_pairs(np.array([[0, 1]]), 2)
    with pytest.raises(ValueError, match="cover 2 nodes, features have 3"):
        gat_layer_forward(random_layer(2, 2), np.ones((3, 2)), pairs)


# -- the hand-written head against its generic-op composition ----------------

# 0-1-2-3 path, a triangle 4-5-6 with a chord to 2, and isolated nodes 7 and 8
FUSED_EDGES = np.array([[0, 1], [1, 2], [2, 3], [4, 5], [5, 6], [4, 6], [2, 6]])


def assert_fused_matches_tape(layer, x_arr, pairs, weight):
    """Layer output, alphas and the gradients of x, W and a of the loss
    sum(weight * out), hand-written against the generic-op composition,
    under np.array_equal. Returns the alphas."""
    fused_out, backward = gat_layer_forward(layer, x_arr, pairs)
    dst, src, order = sorted_pairs(pairs)
    fused_alphas = [
        gat_head(x_arr, w, a, pairs)[1][order]
        for w, a in zip(layer.weights, layer.attn)
    ]
    g_x, head_grads = backward(weight)
    # head_grads alternates W and a per head; the tape lists every W first
    fused_grads = [g_x] + head_grads[0::2] + head_grads[1::2]

    x = tape.Tensor(x_arr.copy())
    weights = [tape.Tensor(w.copy()) for w in layer.weights]
    attn = [tape.Tensor(a.copy()) for a in layer.attn]
    out, ref_alphas = tape.tape_gat_layer(layer, x, dst, src, weights, attn)
    tape.backward(tape.total_sum(tape.mul(out, tape.constant(weight))))
    ref_out = out.data
    ref_grads = [x.grad] + [t.grad for t in weights + attn]

    assert np.array_equal(fused_out, ref_out)
    assert len(fused_alphas) == layer.num_heads
    for got, want in zip(fused_alphas, ref_alphas):
        assert np.array_equal(got, want)
    for got, want in zip(fused_grads, ref_grads):
        assert np.array_equal(got, want)
    return fused_alphas


@pytest.mark.parametrize("heads", [1, 4])
@pytest.mark.parametrize("activation", ["elu", "identity"])
def test_fused_head_bit_identical_to_tape_composition(heads, activation):
    rng = np.random.default_rng(40 + heads)
    x_arr = rng.standard_normal((9, 5))
    weight = rng.standard_normal((9, 3 * heads))
    layer = init_gat_layer(rng, 5, 3, heads, activation)
    pairs = build_message_pairs(FUSED_EDGES, 9)
    fused_alphas = assert_fused_matches_tape(layer, x_arr, pairs, weight)
    # isolated nodes attend only to themselves
    isolated = np.isin(sorted_pairs(pairs)[0], [7, 8])
    assert all(np.array_equal(alpha[isolated], [1.0, 1.0]) for alpha in fused_alphas)


@pytest.mark.parametrize(
    "heads,activation,kept", [(1, "identity", False), (4, "identity", False), (4, "elu", True)]
)
def test_closures_keep_no_alpha_and_only_an_elu_output(heads, activation, kept):
    """With its backward closure alive, a head's returned alpha is freed
    once the caller drops it, and so is a layer's output unless the layer
    is ELU. The closures still give the gradients of a run that kept both."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((9, 5))
    g = rng.standard_normal((9, 3 * heads))
    layer = init_gat_layer(rng, 5, 3, heads, activation)
    pairs = build_message_pairs(FUSED_EDGES, 9)
    w, a = layer.weights[0], layer.attn[0]
    _, alpha, head_backward = gat_head(x, w, a, pairs)
    alpha_ref = weakref.ref(alpha)
    del alpha
    assert alpha_ref() is None
    out, backward = gat_layer_forward(layer, x, pairs)
    out_ref = weakref.ref(out)
    del out
    assert (out_ref() is not None) == kept

    # the same forwards, with alpha and the output held by the caller
    _, kept_alpha, kept_head_backward = gat_head(x, w, a, pairs)
    kept_out, kept_backward = gat_layer_forward(layer, x, pairs)
    g_head = np.ascontiguousarray(g[:, :3])
    (got_x, got_grads), (want_x, want_grads) = backward(g), kept_backward(g)
    got = [*head_backward(g_head), got_x, *got_grads]
    want = [*kept_head_backward(g_head), want_x, *want_grads]
    assert len(got) == len(want) == 4 + 2 * heads
    assert all(np.array_equal(u, v) for u, v in zip(got, want))


def shaped_edges(shape):
    """(features, edges) for graphs whose slot layouts differ most from the
    9-node fixture: one hub of degree n-1, all degrees tied, no edges at
    all, the default world, and the default world restricted to one
    relation type, with its nodes renumbered in ascending id."""
    if shape in ("default-subgraph", "default-world"):
        _, g, _, _ = build_world(ExperimentConfig(), 0)
        if shape == "default-world":
            return g.node_features, g.union_edges()
        edges = g.edge_lists[2]  # the densest relation type
        ids = np.unique(edges)
        return g.node_features[ids], np.searchsorted(ids, edges)
    rng = np.random.default_rng(len(shape))
    n = {"star": 40, "ring": 30, "edgeless": 6}[shape]
    edges = {
        "star": [[0, i] for i in range(1, n)],
        "ring": [[i, (i + 1) % n] for i in range(n)],
        "edgeless": NO_EDGES,
    }[shape]
    return rng.standard_normal((n, 5)), np.array(edges)


def shaped_graph(shape):
    """(features, message pairs) of shaped_edges(shape)."""
    x, edges = shaped_edges(shape)
    return x, build_message_pairs(edges, x.shape[0])


GRAPH_SHAPES = ["star", "ring", "edgeless", "default-subgraph"]


@pytest.mark.parametrize("shape", GRAPH_SHAPES)
def test_fused_head_bit_identical_on_graph_shapes(shape):
    x_arr, pairs = shaped_graph(shape)
    rng = np.random.default_rng(7)
    layer = init_gat_layer(rng, x_arr.shape[1], 16, 2, "elu")
    weight = rng.standard_normal((x_arr.shape[0], 32))
    assert_fused_matches_tape(layer, x_arr, pairs, weight)


@pytest.mark.parametrize("shape", GRAPH_SHAPES + ["fixture"])
def test_jagged_layout_invariants(shape):
    if shape == "fixture":
        n, edges = 9, FUSED_EDGES
    else:
        x, edges = shaped_edges(shape)
        n = x.shape[0]
    pairs = build_message_pairs(edges, n)
    # brute force: both directions of every edge plus self-loops, deduplicated
    senders = {r: {r} for r in range(n)}
    for u, v in np.asarray(edges).tolist():
        senders[u].add(v)
        senders[v].add(u)
    senders = {r: sorted(s) for r, s in senders.items()}
    dst, src, _ = sorted_pairs(pairs)
    assert list(zip(dst.tolist(), src.tolist())) == [(r, s) for r in range(n) for s in senders[r]]
    total = pairs.nbr.shape[0]
    deg = np.array([len(senders[r]) for r in range(n)])
    # receivers by descending degree, ties in ascending id
    assert np.array_equal(pairs.order, np.lexsort((np.arange(n), -deg)))
    # counts never increase and cover every pair once
    assert pairs.counts[0] == n and np.all(np.diff(pairs.counts) <= 0)
    assert pairs.slot_bounds == (0, *np.cumsum(pairs.counts).tolist())
    assert pairs.slot_bounds[-1] == total == deg.sum()
    # slot j holds the j-th smallest sender of each receiver in order[:counts[j]]
    for j, c in enumerate(pairs.counts.tolist()):
        lo = pairs.slot_bounds[j]
        assert np.array_equal(pairs.recv[lo : lo + c], pairs.order[:c])
        assert pairs.nbr[lo : lo + c].tolist() == [senders[r][j] for r in pairs.order[:c].tolist()]
    # the mirror maps (r, s) to (s, r) and is an involution
    assert np.array_equal(pairs.recv[pairs.mirror], pairs.nbr)
    assert np.array_equal(pairs.nbr[pairs.mirror], pairs.recv)
    assert np.array_equal(pairs.mirror[pairs.mirror], np.arange(total))


@pytest.mark.parametrize("bound", [1, gat._BLOCK_FLOATS, 1 << 40], ids=["tiny", "default", "huge"])
@pytest.mark.parametrize("d", [1, 16, 32])
@pytest.mark.parametrize("shape", ["star", "ring", "edgeless", "default-world"])
def test_blocked_jagged_matmul_bit_identical_to_slot_loop(shape, d, bound, monkeypatch):
    # tiny: the cap is n, so a slot of n entries (more than bound / d) fills
    # a block alone and the short tail slots share one; default: several
    # multi-slot blocks on the default world at d = 16 and 32; huge: one
    # block per layout
    monkeypatch.setattr(gat, "_BLOCK_FLOATS", bound)
    _, pairs = shaped_graph(shape)
    rng = np.random.default_rng(d)
    n, entries = pairs.num_nodes, pairs.nbr.shape[0]
    weights = rng.standard_normal(entries)
    rows = rng.standard_normal((n, d))
    dot_with = rng.standard_normal((n, d))
    out, dots = gat._jagged_matmul(pairs, weights, rows)
    want_out, _ = slot_loop_jagged_matmul(pairs, weights, rows)
    assert dots is None
    assert np.array_equal(out, want_out)
    out, dots = gat._jagged_matmul(pairs, weights, rows, dot_with=dot_with)
    want_out, want_dots = slot_loop_jagged_matmul(pairs, weights, rows, dot_with=dot_with)
    assert np.array_equal(out, want_out)
    assert np.array_equal(dots, want_dots)


def test_fused_head_names_itself_on_non_finite_weight():
    layer = random_layer(3, 2, heads=2)
    layer.weights[1][0, 1] = np.nan
    with pytest.raises(NumericFault, match="gat_head"):
        layer_out(layer, np.ones((4, 3)), FUSED_EDGES[:3])
