import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from riskprop import hgmae
from riskprop.autodiff import NumericFault
from riskprop.experiment import ExperimentConfig, build_world
from riskprop.gat import GATLayerParams, build_message_pairs, gat_stack_forward
from riskprop.hgmae import (
    MaskingError,
    MaskPlan,
    ModelParams,
    TrainConfig,
    apply_mask,
    hgmae_loss,
    hgmae_step,
    infer_embeddings,
    init_params,
    load_embeddings,
    make_step_plans,
    plan_graph,
    pretrain,
    remask_and_decode,
    sample_mask,
    save_embeddings,
    save_pretrain_log,
    sce_loss,
)
from riskprop.optim import AdamState, adam_step
from riskprop.synthetic import GenConfig, generate_graph

import tape
from conftest import (
    assert_no_child_left,
    fresh_params,
    make_graph,
    record_fork_epochs,
    traced_peak,
)
from oracles import dense_hgmae_loss


def manual_plan(n, masked, token=None, random_ids=(), random_src=()):
    masked = np.array(sorted(masked), dtype=np.int64)
    random_ids = np.array(sorted(random_ids), dtype=np.int64)
    token_ids = np.setdiff1d(masked, random_ids) if token is None else np.array(token)
    return MaskPlan(
        num_nodes=n,
        masked_ids=masked,
        token_ids=token_ids,
        random_ids=random_ids,
        random_src_ids=np.array(random_src, dtype=np.int64),
        rng_seed=0,
    )


# -- config and mask sampling -------------------------------------------------


def test_mask_ratio_one_rejected():
    with pytest.raises(ValueError, match="mask_ratio"):
        TrainConfig(mask_ratio=1.0)


def test_sample_mask_counts_forced_by_config():
    plan = sample_mask(10, TrainConfig(), np.random.default_rng(0))
    assert plan.masked_ids.size == 5
    assert plan.random_ids.size == 1  # round(0.15 * 5)
    assert plan.token_ids.size == 4
    assert np.all(np.diff(plan.masked_ids) > 0)
    assert set(plan.random_ids) <= set(plan.masked_ids)
    assert not set(plan.random_src_ids) & set(plan.masked_ids)


def test_sample_mask_too_small_graph():
    with pytest.raises(MaskingError, match="too small"):
        sample_mask(2, TrainConfig(mask_ratio=0.2), np.random.default_rng(0))


def test_sample_mask_never_covers_every_node():
    with pytest.raises(MaskingError, match="cover all"):
        sample_mask(2, TrainConfig(mask_ratio=0.99), np.random.default_rng(0))


def test_sample_mask_deterministic_given_rng_state():
    a = sample_mask(20, TrainConfig(), np.random.default_rng(42))
    b = sample_mask(20, TrainConfig(), np.random.default_rng(42))
    assert a.rng_seed == b.rng_seed
    np.testing.assert_array_equal(a.masked_ids, b.masked_ids)
    np.testing.assert_array_equal(a.random_src_ids, b.random_src_ids)


@pytest.mark.parametrize("random_sub_rate", [0.0, 0.15, 0.5, 1.0])
def test_sample_mask_matches_setdiff_form(random_sub_rate):
    # token_ids and the donor pool as two setdiff1d calls would give them
    cfg = TrainConfig(random_sub_rate=random_sub_rate)
    rng = np.random.default_rng(4)
    for n in range(2, 400, 7):
        plan = sample_mask(n, cfg, rng)
        prng = np.random.default_rng(plan.rng_seed)
        masked = np.sort(prng.choice(n, size=plan.masked_ids.size, replace=False))
        positions = np.sort(prng.choice(masked.size, size=plan.random_ids.size, replace=False))
        pool = np.setdiff1d(np.arange(n), masked)
        want_src = pool[prng.integers(0, pool.size, size=positions.size)]
        for got, want in [
            (plan.masked_ids, masked),
            (plan.token_ids, np.setdiff1d(masked, masked[positions])),
            (plan.random_ids, masked[positions]),
            (plan.random_src_ids, want_src),
        ]:
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_mask_frequency_within_binomial_bounds():
    rng = np.random.default_rng(1)
    cfg = TrainConfig()
    counts = np.zeros(20)
    draws = 2000
    for _ in range(draws):
        counts[sample_mask(20, cfg, rng).masked_ids] += 1
    sigma = math.sqrt(draws * 0.25)
    assert np.all(np.abs(counts - draws * 0.5) <= 3 * sigma)


# -- apply_mask ---------------------------------------------------------------


def test_apply_mask_token_rows_and_unmasked_bytes():
    g = make_graph(8, {0: [(0, 1)]}, d_in=3, seed=1)
    params = fresh_params(g, TrainConfig(d_emb=4, hidden_heads=1, hidden_head_dim=2))
    plan = manual_plan(8, masked=[1, 4, 6])
    out = apply_mask(g.node_features, plan, params)
    for i in plan.token_ids:
        np.testing.assert_array_equal(out[i], params.mask_token)
    untouched = np.setdiff1d(np.arange(8), plan.masked_ids)
    assert out[untouched].tobytes() == g.node_features[untouched].tobytes()


def test_apply_mask_random_rows_copy_unmasked_features():
    rng = np.random.default_rng(3)
    g = make_graph(30, {0: [(0, 1)]}, d_in=4, seed=2)
    cfg = TrainConfig(random_sub_rate=0.4)
    plan = sample_mask(30, cfg, rng)
    params = fresh_params(g, TrainConfig(d_emb=4, hidden_heads=1, hidden_head_dim=2))
    out = apply_mask(g.node_features, plan, params)
    unmasked_rows = {
        g.node_features[i].tobytes() for i in np.setdiff1d(np.arange(30), plan.masked_ids)
    }
    assert plan.random_ids.size >= 2
    for i, src in zip(plan.random_ids, plan.random_src_ids):
        assert out[i].tobytes() == g.node_features[src].tobytes()
        assert out[i].tobytes() in unmasked_rows


def test_apply_mask_size_mismatch():
    g = make_graph(4, {0: [(0, 1)]}, d_in=3)
    params = fresh_params(g, TrainConfig(d_emb=4, hidden_heads=1, hidden_head_dim=2))
    with pytest.raises(ValueError, match="plan built for"):
        apply_mask(g.node_features[:3], manual_plan(4, [0, 1]), params)


# -- encode / remask_and_decode ----------------------------------------------


def test_encode_single_node_depends_only_on_its_features():
    cfg = TrainConfig(d_emb=3, hidden_heads=2, hidden_head_dim=2)
    x = np.array([[0.3, -1.2]])
    g1 = make_graph(1, {0: np.zeros((0, 2))}, d_in=2)
    g2 = make_graph(1, {0: np.zeros((0, 2))}, d_in=2, seed=9)
    params = fresh_params(g1, cfg)
    h1, _ = gat_stack_forward(params.encoder, x, plan_graph(g1)[0].pairs)
    h2, _ = gat_stack_forward(params.encoder, x, plan_graph(g2)[0].pairs)
    np.testing.assert_array_equal(h1, h2)


def identity_decoder_params(d: int) -> ModelParams:
    """Decoder is a single identity-weight head, so on an edgeless graph the
    decoder output equals its input row for row."""
    enc = GATLayerParams(weights=[np.eye(d)], attn=[np.zeros(2 * d)], activation="identity")
    dec = GATLayerParams(weights=[np.eye(d)], attn=[np.zeros(2 * d)], activation="identity")
    return ModelParams(
        encoder=[enc],
        decoder=[dec],
        mask_token=np.zeros(d),
        remask_token=np.arange(1.0, d + 1),
    )


def test_remask_with_no_masked_rows_keeps_latent():
    x = np.random.default_rng(0).standard_normal((4, 3))
    params = identity_decoder_params(3)
    pairs = build_message_pairs(np.zeros((0, 2)), 4)
    out, _ = remask_and_decode(x, manual_plan(4, []), params, pairs)
    np.testing.assert_array_equal(out, x)


def test_remask_all_rows_become_token():
    x = np.random.default_rng(0).standard_normal((4, 3))
    params = identity_decoder_params(3)
    pairs = build_message_pairs(np.zeros((0, 2)), 4)
    out, _ = remask_and_decode(x, manual_plan(4, [0, 1, 2, 3]), params, pairs)
    np.testing.assert_array_equal(out, np.tile(params.remask_token, (4, 1)))


# -- sce_loss -----------------------------------------------------------------


def test_sce_hand_computed_value():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    z = np.array([[1.0, 1.0], [0.0, 2.0]])
    loss, _, zero_rows = sce_loss(x, z, np.array([0, 1]), gamma=1.0)
    assert loss == pytest.approx((1.0 - 1.0 / math.sqrt(2.0)) / 2.0, abs=1e-15)
    assert zero_rows == 0


def test_sce_scale_invariance_gives_zero():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 4))
    z = x * rng.uniform(0.1, 9.0, size=(6, 1))
    assert sce_loss(x, z, np.arange(6))[0] == pytest.approx(0.0, abs=1e-15)


def test_sce_orthogonal_rows_give_one():
    x = np.array([[1.0, 0.0], [2.0, 0.0]])
    z = np.array([[0.0, 3.0], [0.0, -1e-3]])
    assert sce_loss(x, z, np.array([0, 1]))[0] == pytest.approx(1.0, abs=1e-15)


def test_sce_gamma_sharpening():
    x = np.array([[1.0, 0.0]])
    z = np.array([[1.0, 1.0]])
    base = 1.0 - 1.0 / math.sqrt(2.0)
    assert sce_loss(x, z, np.array([0]), gamma=3.0)[0] == pytest.approx(base**3, rel=1e-12)


def test_sce_zero_norm_row_clamped_and_counted():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    z = np.array([[0.0, 0.0], [0.0, 2.0]])
    loss, _, zero_rows = sce_loss(x, z, np.array([0, 1]))
    assert loss == pytest.approx(0.5, abs=1e-15)  # (1 + 0) / 2
    assert zero_rows == 1
    # all-bad case pins the loss at the maximum penalty, with no gradient
    assert sce_loss(x, np.zeros((2, 2)), np.array([0, 1])) == (1.0, None, 2)


def test_sce_zero_iff_positive_multiples():
    x = np.array([[1.0, 2.0], [3.0, -1.0]])
    good = x * np.array([[2.0], [0.5]])
    assert sce_loss(x, good, np.array([0, 1]))[0] == pytest.approx(0.0, abs=1e-15)
    flipped = x * np.array([[2.0], [-0.5]])
    assert sce_loss(x, flipped, np.array([0, 1]))[0] > 0.9


def test_sce_gradient_matches_finite_difference():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 3))
    z_arr = rng.standard_normal((5, 3))

    _, backward, _ = sce_loss(x, z_arr, np.array([0, 2, 4]), gamma=2.0)
    analytic = {"z": backward(1.0)}

    report = tape.grad_check(
        lambda: sce_loss(x, z_arr, np.array([0, 2, 4]), gamma=2.0)[0],
        {"z": z_arr},
        analytic,
        h=1e-6,
        tol=1e-6,
    )
    assert report.passed


# -- loss merging and steps ---------------------------------------------------


def test_loss_total_is_full_plus_weighted_sum_of_subgraph_terms(two_type_graph, tiny_cfg):
    g = two_type_graph
    cfg = dataclasses.replace(tiny_cfg, eta=0.5)
    terms = plan_graph(g)
    plans = make_step_plans(terms, cfg, np.random.default_rng(3))
    parts, _ = hgmae_loss(terms, fresh_params(g, cfg), cfg, plans)
    assert list(parts.subs) == [0, 1]
    assert parts.total == parts.full + 0.5 / 2 * sum(parts.subs.values())


def test_loss_eta_zero_total_is_the_full_term(two_type_graph, tiny_cfg):
    g = two_type_graph
    cfg0 = dataclasses.replace(tiny_cfg, eta=0.0)
    terms = plan_graph(g)
    plans = make_step_plans(terms, cfg0, np.random.default_rng(3))
    parts, _ = hgmae_loss(terms, fresh_params(g, cfg0), cfg0, plans)
    assert parts.total is parts.full
    assert parts.subs == {}


def test_step_loss_matches_replayed_plans_and_dense_oracle(two_type_graph, tiny_cfg):
    g = two_type_graph
    params = fresh_params(g, tiny_cfg)
    terms = plan_graph(g)
    plans = make_step_plans(terms, tiny_cfg, np.random.default_rng(33))
    stepped, _ = hgmae_step(terms, params, tiny_cfg, np.random.default_rng(33))

    parts, _ = hgmae_loss(terms, params, tiny_cfg, plans)
    assert stepped == parts

    dense_total, dense_full, dense_subs = dense_hgmae_loss(g, params, tiny_cfg, plans)
    assert parts.total == pytest.approx(dense_total, abs=1e-12)
    assert parts.full == pytest.approx(dense_full, abs=1e-12)
    for k, val in parts.subs.items():
        assert val == pytest.approx(dense_subs[k], abs=1e-12)


def test_step_eta_zero_equals_full_graph_term(two_type_graph, tiny_cfg):
    g = two_type_graph
    cfg0 = dataclasses.replace(tiny_cfg, eta=0.0)
    params = fresh_params(g, cfg0)
    parts, _ = hgmae_step(plan_graph(g), params, cfg0, np.random.default_rng(5))
    assert parts.total == parts.full
    assert math.isnan(parts.sub_mean)


def test_step_grads_do_not_accumulate_across_calls(two_type_graph, tiny_cfg):
    g = two_type_graph
    params = fresh_params(g, tiny_cfg)
    terms = plan_graph(g)
    _, a = hgmae_step(terms, params, tiny_cfg, np.random.default_rng(7))
    _, b = hgmae_step(terms, params, tiny_cfg, np.random.default_rng(7))
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])


def test_step_skips_empty_edge_types(tiny_cfg):
    g = make_graph(12, {0: [(i, i + 1) for i in range(11)], 1: np.zeros((0, 2))}, d_in=4)
    params = fresh_params(g, tiny_cfg)
    terms = plan_graph(g)
    parts, _ = hgmae_step(terms, params, tiny_cfg, np.random.default_rng(0))
    plans = make_step_plans(terms, tiny_cfg, np.random.default_rng(0))
    assert len(plans) == 2  # the full graph and the only nonempty type
    assert list(parts.subs) == [0]
    assert math.isfinite(parts.total)


def test_all_edge_types_empty_warns_and_degenerates(tiny_cfg):
    g = make_graph(10, {0: np.zeros((0, 2))}, d_in=4)
    params = fresh_params(g, tiny_cfg)
    with pytest.warns(UserWarning, match="full graph only"):
        parts, _ = hgmae_step(plan_graph(g), params, tiny_cfg, np.random.default_rng(1))
    assert parts.total == parts.full


def test_eq2_linearity_with_replayed_plans(two_type_graph, tiny_cfg):
    # total with eta=1 equals full + mean of per-type terms computed separately
    g = two_type_graph
    params = fresh_params(g, tiny_cfg)
    terms = plan_graph(g)
    plans = make_step_plans(terms, tiny_cfg, np.random.default_rng(2))
    parts, _ = hgmae_loss(terms, params, tiny_cfg, plans)
    recombined = parts.full + tiny_cfg.eta * np.mean(list(parts.subs.values()))
    assert parts.total == pytest.approx(recombined, abs=1e-12)


# -- hand-written gradients against the tape ----------------------------------


def assert_step_matches_tape(terms, params, cfg, plans):
    """Loss parts and every gradient of hgmae_loss equal the tape
    composition's bit for bit (signed zeros included)."""
    parts, grads = hgmae_loss(terms, params, cfg, plans)
    total, full, subs, want = tape.tape_hgmae_loss(terms, params, cfg, plans)
    assert repr((parts.total, parts.full, parts.subs)) == repr((total, full, subs))
    assert list(grads) == list(want)
    for name, g in grads.items():
        assert g.dtype == want[name].dtype and g.shape == want[name].shape, name
        assert g.tobytes() == want[name].tobytes(), name
    return parts, grads


def steps_match_tape(g, params, cfg, seed=0, steps=3):
    """assert_step_matches_tape on `steps` Adam steps from params."""
    terms = plan_graph(g)
    rng = np.random.default_rng(seed)
    state = AdamState.for_params(params.named_arrays(), lr=cfg.lr)
    for _ in range(steps):
        plans = make_step_plans(terms, cfg, rng)
        _, grads = assert_step_matches_tape(terms, params, cfg, plans)
        adam_step(state, params.named_arrays(), grads)
    return plans


@pytest.mark.parametrize("gamma", [1.0, 2.0])
@pytest.mark.parametrize("eta", [1.0, 0.0])
@pytest.mark.parametrize("world", [0, 3])
def test_step_gradients_bit_identical_to_tape(world, eta, gamma):
    exp = ExperimentConfig()
    _, g, _, _ = build_world(exp, world)
    cfg = dataclasses.replace(exp.pretrain, eta=eta, gamma=gamma)
    steps_match_tape(g, init_params(g.d_in, cfg, np.random.default_rng(world)), cfg, seed=world)


@pytest.mark.parametrize(
    "random_sub_rate, empty", [(0.0, "random_ids"), (1.0, "token_ids")]
)
def test_step_gradients_bit_identical_with_empty_plan_parts(random_sub_rate, empty, two_type_graph):
    cfg = TrainConfig(
        d_emb=5, hidden_heads=2, hidden_head_dim=4, gamma=2.0, random_sub_rate=random_sub_rate
    )
    plans = steps_match_tape(two_type_graph, fresh_params(two_type_graph, cfg), cfg)
    for plan in plans:
        assert getattr(plan, empty).size == 0


def test_step_gradients_bit_identical_with_zero_norm_rows(tiny_cfg):
    # nodes 8..15 are isolated: with both tokens at zero, as at init, a
    # masked isolated row reconstructs to zero
    ring = [(i, (i + 1) % 8) for i in range(8)]
    g = make_graph(16, {0: ring, 1: [(0, 4), (2, 6)]}, d_in=4, seed=5)
    params = fresh_params(g, tiny_cfg, tokens_randomized=False)
    terms = plan_graph(g)
    plans = make_step_plans(terms, tiny_cfg, np.random.default_rng(0))
    parts, _ = assert_step_matches_tape(terms, params, tiny_cfg, plans)
    assert parts.zero_norm_rows > 0


def test_step_gradients_bit_identical_when_every_masked_row_has_zero_norm(tiny_cfg):
    # an edgeless graph with the tokens at zero: the loss is the constant 1
    # and no parameter gets a gradient
    g = make_graph(6, {0: np.zeros((0, 2))}, d_in=3)
    params = fresh_params(g, tiny_cfg, tokens_randomized=False)
    with pytest.warns(UserWarning, match="full graph only"):
        steps_match_tape(g, params, tiny_cfg, steps=1)
    with pytest.warns(UserWarning, match="full graph only"):
        parts, grads = hgmae_step(plan_graph(g), params, tiny_cfg, np.random.default_rng(0))
    assert parts.total == 1.0 and parts.zero_norm_rows == 3  # half of the 6 rows
    assert not any(grad.any() for grad in grads.values())


# -- pretrain / inference -----------------------------------------------------


def test_pretrain_zero_epochs_returns_initialized_params():
    g = make_graph(10, {0: [(i, i + 1) for i in range(9)]}, d_in=3)
    cfg = TrainConfig(epochs=0, d_emb=4, hidden_heads=1, hidden_head_dim=3, rng_seed=5)
    params, history = pretrain(g, cfg)
    assert history == []
    expected = init_params(g.d_in, cfg, np.random.default_rng(5))
    for name, arr in params.named_arrays().items():
        np.testing.assert_array_equal(arr, expected.named_arrays()[name])


def test_pretrain_bit_reproducible(two_type_graph, tiny_cfg):
    _, h1 = pretrain(two_type_graph, tiny_cfg)
    _, h2 = pretrain(two_type_graph, tiny_cfg)
    assert [(s.loss_total, s.loss_full, s.loss_sub_mean) for s in h1] == [
        (s.loss_total, s.loss_full, s.loss_sub_mean) for s in h2
    ]


def test_pretrain_loss_decreases(two_type_graph):
    cfg = TrainConfig(epochs=60, d_emb=5, hidden_heads=2, hidden_head_dim=4, lr=0.01, rng_seed=1)
    _, history = pretrain(two_type_graph, cfg)
    assert history[-1].loss_total < history[0].loss_total


REFERENCE = json.loads((Path(__file__).parent / "pretrain_reference.json").read_text())


@pytest.mark.parametrize("eta", [1.0, 0.0])
def test_pretrain_bit_identical_to_recorded_reference(eta):
    # losses and embeddings recorded before the attention head was fused;
    # any change to the order of a float sum shows here as a changed bit
    want = REFERENCE["variants"][f"eta={eta!r}"]
    exp = ExperimentConfig()
    _, g, _, _ = build_world(exp, 0)
    cfg = dataclasses.replace(exp.pretrain, rng_seed=0, epochs=20, eta=eta)
    params, history = pretrain(g, cfg)
    got = [[repr(h.loss_total), repr(h.loss_full), repr(h.loss_sub_mean)] for h in history]
    assert got == want["loss_repr"]
    emb = infer_embeddings(g, params)
    assert list(emb.shape) == want["embeddings_shape"]
    assert hashlib.sha256(emb.tobytes()).hexdigest() == want["embeddings_sha256"]


# The 1k world is the default config scaled to 1000 nodes at constant mean
# degree: 19,368 full-graph message pairs in 35 slots, against 29 slots and
# n = 200 in the default world, so it pins the attention kernel's summation
# order on five times the receivers. At n = 1000, OpenBLAS splits the weight
# gradient's matmul by thread count and the embeddings move in the last bit,
# so the digests are computed in a child process with BLAS on one thread.
# The world is above hgmae.REPLICA_MIN_PAIRS, so the child, on two usable
# CPUs, forks a replica. Re-record only for a change meant to move these bits:
#     PYTHONPATH=src:tests python -c "import test_hgmae; test_hgmae.record_1k('<commit>')"
REFERENCE_1K_PATH = Path(__file__).parent / "pretrain_1k_reference.json"
WORLD_1K_NODES = 1000
WORLD_1K_EPOCHS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def world_1k():
    exp = ExperimentConfig()
    scale = exp.gen.num_nodes / WORLD_1K_NODES
    gen = dataclasses.replace(
        exp.gen,
        num_nodes=WORLD_1K_NODES,
        intra_edge_prob=tuple(p * scale for p in exp.gen.intra_edge_prob),
        inter_edge_prob=tuple(p * scale for p in exp.gen.inter_edge_prob),
        rng_seed=0,
    )
    return generate_graph(gen)


def pretrain_1k(eta: float):
    """(world, params, history) of the recorded 1k pretrain run."""
    g = world_1k()
    cfg = dataclasses.replace(
        ExperimentConfig().pretrain, rng_seed=0, epochs=WORLD_1K_EPOCHS, eta=eta
    )
    return (g, *pretrain(g, cfg))


def pretrain_1k_digests(eta: float) -> dict:
    return run_digests(*pretrain_1k(eta))


def run_digests(g, params, history) -> dict:
    """The loss reprs of a pretrain run and the digest of its embeddings."""
    emb = infer_embeddings(g, params)
    return {
        "loss_repr": [
            [repr(h.loss_total), repr(h.loss_full), repr(h.loss_sub_mean)] for h in history
        ],
        "embeddings_sha256": hashlib.sha256(emb.tobytes()).hexdigest(),
        "embeddings_shape": list(emb.shape),
    }


def child_json(code: str, blas_threads: str = "1", timeout: float = 600):
    """The JSON that `code` prints in a child process with this directory
    and src/ on its path and `blas_threads` BLAS threads."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    blas = dict.fromkeys(BLAS_THREAD_VARS, blas_threads)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, **blas, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=timeout,
    )
    return json.loads(proc.stdout)


def one_thread_1k_digests(eta: float) -> dict:
    return child_json(
        f"import json, test_hgmae; print(json.dumps(test_hgmae.pretrain_1k_digests({eta!r})))"
    )


def record_1k(recorded_at: str) -> None:
    ref = {
        "recorded_at": recorded_at,
        "environment": "x86-64, numpy 2.4.6 with OpenBLAS 0.3.31 on one thread; "
        "other BLAS builds may differ in the last bit",
        "world": f"ExperimentConfig().gen scaled to {WORLD_1K_NODES} nodes "
        "at constant mean degree, rng_seed=0",
        "pretrain": f"ExperimentConfig().pretrain with rng_seed=0, epochs={WORLD_1K_EPOCHS}",
        "variants": {f"eta={eta!r}": one_thread_1k_digests(eta) for eta in (1.0, 0.0)},
    }
    REFERENCE_1K_PATH.write_text(json.dumps(ref, indent=1) + "\n")


@pytest.mark.parametrize("eta", [1.0, 0.0])
def test_pretrain_1k_world_bit_identical_to_recorded_reference(eta):
    want = json.loads(REFERENCE_1K_PATH.read_text())["variants"][f"eta={eta!r}"]
    assert one_thread_1k_digests(eta) == want


def spare_cpu_at(epoch: int | None):
    """A spare_cpu source for pretrain that answers True from its epoch-th
    call on, which pretrain makes at that epoch; with None, never."""
    calls = []

    def spare_cpu() -> bool:
        calls.append(None)
        return epoch is not None and len(calls) >= epoch

    return spare_cpu


def default_world():
    return build_world(ExperimentConfig(), 0)[1]


# per world: (epochs, the later epoch a replica starts at)
REPLICA_STARTS = {"default": (20, 7), "1k": (WORLD_1K_EPOCHS, 2)}


def replica_start_digests(world: str) -> list[dict]:
    """The digests, the zero-norm rows and the replica's fork epochs of one
    pretrain run per replica start: epoch 1, REPLICA_STARTS' later epoch and
    never, on the default world or the 1k world. Each run leaves no child."""
    g = default_world() if world == "default" else world_1k()
    epochs, later = REPLICA_STARTS[world]
    cfg = dataclasses.replace(ExperimentConfig().pretrain, rng_seed=0, epochs=epochs)
    results = []
    for start in (1, later, None):
        forked = []
        with pytest.MonkeyPatch.context() as mp:
            record_fork_epochs(mp, forked.append)
            params, history = pretrain(g, cfg, spare_cpu_at(start))
        assert_no_child_left()
        params_bytes = b"".join(a.tobytes() for a in params.named_arrays().values())
        results.append({
            **run_digests(g, params, history),
            "params_sha256": hashlib.sha256(params_bytes).hexdigest(),
            "zero_norm_rows": [st.zero_norm_rows for st in history],
            "fork_epochs": forked,
        })
    return results


def assert_replica_start_leaves_the_bits_unchanged(world: str, blas_threads: str) -> None:
    """A replica from epoch 1, from a later epoch and none at all give the
    same parameter and embedding bytes, loss reprs and zero-norm rows, and
    leave no child process."""
    runs = child_json(
        "import json, test_hgmae; "
        f"print(json.dumps(test_hgmae.replica_start_digests({world!r})))",
        blas_threads,
    )
    later = REPLICA_STARTS[world][1]
    assert [run.pop("fork_epochs") for run in runs] == [[1], [later], []]
    assert sum(runs[0]["zero_norm_rows"]) > 0
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_pretrain_1k_bytes_equal_with_one_and_two_terms_in_flight(blas_threads):
    """The 1k world's terms one at a time in one process, and two at a time
    split with a replica from either of its two epochs: the same bytes at
    either BLAS thread count."""
    assert_replica_start_leaves_the_bits_unchanged("1k", blas_threads)


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_replica_start_epoch_leaves_the_default_world_bits_unchanged(blas_threads):
    assert_replica_start_leaves_the_bits_unchanged("default", blas_threads)


def test_shares_deal_full_and_type_0_to_the_caller():
    """Largest first by message pairs, dealt caller, replica, replica,
    caller: the full graph and type 0 against types 2 and 1."""
    for g in (default_world(), world_1k()):
        terms = plan_graph(g)
        assert [t.edge_type for t in terms] == [None, 0, 1, 2]
        sizes = [t.pairs.nbr.shape[0] for t in terms]
        assert sizes[0] > sizes[3] > sizes[2] > sizes[1]
        assert hgmae._shares(terms) == ([0, 1], [2, 3])


def outcome_bytes(outcomes: dict) -> dict:
    return {
        i: (repr(loss), {name: g.tobytes() for name, g in grads.items()}, rows)
        for i, (loss, grads, rows) in outcomes.items()
    }


def test_replica_holds_no_state(monkeypatch):
    """A replica answers each request from the parameters and plans in it
    alone: two requests from two rng seeds, sent in both orders, get what
    _run_terms gives on the replica's share in this process, bit for bit.
    It never draws a mask or takes an Adam step, and exits 0 once the
    caller closes the pipe."""
    caller = os.getpid()

    def caller_only(fn):
        def wrapped(*args):
            assert os.getpid() == caller, f"{fn.__name__} ran in the replica"
            return fn(*args)

        return wrapped

    monkeypatch.setattr(hgmae, "adam_step", caller_only(adam_step))
    monkeypatch.setattr(hgmae, "make_step_plans", caller_only(make_step_plans))
    g = default_world()
    cfg = ExperimentConfig().pretrain
    terms = plan_graph(g)
    share = hgmae._shares(terms)[1]
    requests = [
        (fresh_params(g, cfg, seed), make_step_plans(terms, cfg, np.random.default_rng(seed)))
        for seed in (0, 1)
    ]
    want = [
        outcome_bytes(hgmae._run_terms(terms, params, cfg, plans, share))
        for params, plans in requests
    ]
    assert want[0] != want[1]
    replica = hgmae._Replica(terms, cfg)
    try:
        for order in ((0, 1), (1, 0)):
            for r in order:
                params, plans = requests[r]
                replica.send(params, plans)
                assert outcome_bytes(replica.receive()) == want[r]
    finally:
        code = replica.close(kill=False)
    assert code == 0


@pytest.mark.parametrize(
    "cpus, world, forks", [({0, 1}, "1k", True), ({0}, "1k", False), ({0, 1}, "default", False)]
)
def test_direct_call_forks_on_a_large_graph_with_two_cpus(monkeypatch, cpus, world, forks):
    g = world_1k() if world == "1k" else default_world()
    forked = []
    record_fork_epochs(monkeypatch, forked.append)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    pretrain(g, dataclasses.replace(ExperimentConfig().pretrain, epochs=1))
    assert forked == ([1] if forks else [])


def module_globals() -> dict[str, dict[str, str]]:
    """The repr of every non-callable global of every loaded riskprop module,
    the interpreter's dunder names aside."""
    modules = {name: m for name, m in sys.modules.items() if name.split(".")[0] == "riskprop"}
    return {
        name: {k: repr(v) for k, v in vars(m).items() if not (callable(v) or k.startswith("__"))}
        for name, m in sorted(modules.items())
    }


def test_pretrain_leaves_every_module_global_as_it_was():
    """Stage 1 keeps no state between calls: a pretrain on the 1k world
    without a replica and one with a replica from epoch 1, whose steps meet
    zero-norm rows, leave every global of every riskprop module as it was."""
    g = world_1k()
    cfg = dataclasses.replace(ExperimentConfig().pretrain, rng_seed=0, epochs=WORLD_1K_EPOCHS)
    before = module_globals()
    for start in (None, 1):
        _, history = pretrain(g, cfg, spare_cpu_at(start))
        assert sum(st.zero_norm_rows for st in history) > 0
    assert module_globals() == before


# tracemalloc peak of one eta = 1 step on the 1k world above what was held
# before it, in the calling process, measured on x86-64 with numpy 2.4.6:
# 4.2 MB, with the terms all in this process or half of them in a replica,
# since a process runs one term at a time. Its heads keep their per-pair
# arrays but not alpha, which the backward recomputes; the identity layers'
# outputs are not kept; and each closure is dropped once it has run. Keeping
# alpha and every output it took 5.4 MB, and before this layout of the
# closures 7.9 MB. The bound leaves 10% of room.
STEP_PEAK_1K_MB = 4.7


@pytest.mark.parametrize("processes", [1, 2])
def test_step_peak_memory_on_the_1k_world(processes):
    g = world_1k()
    cfg = dataclasses.replace(ExperimentConfig().pretrain, eta=1.0)
    terms = plan_graph(g)
    params = init_params(g.d_in, cfg, np.random.default_rng(0))
    hgmae_step(terms, params, cfg, np.random.default_rng(0))  # warm-up
    replica = hgmae._Replica(terms, cfg) if processes == 2 else None
    try:
        _, peak = traced_peak(
            lambda: hgmae_step(terms, params, cfg, np.random.default_rng(1), replica)
        )
    finally:
        if replica is not None:
            replica.close(kill=False)
    assert peak < STEP_PEAK_1K_MB * 2**20


def poison_features(monkeypatch, edge_type):
    """Make plan_graph's term for edge_type all NaN: a subgraph term holds its
    own copy of its rows."""
    real_plan_graph = hgmae.plan_graph

    def poisoned(g):
        terms = real_plan_graph(g)
        next(t for t in terms if t.edge_type == edge_type).features[:] = np.nan
        return terms

    monkeypatch.setattr(hgmae, "plan_graph", poisoned)


def fault_messages(g, cfg) -> list[str]:
    """pretrain's NumericFault message without a replica, then with one
    from epoch 1."""
    messages = []
    for start in (None, 1):
        with pytest.raises(NumericFault) as err:
            pretrain(g, cfg, spare_cpu_at(start))
        messages.append(str(err.value))
    return messages


def test_replica_pretrain_fault_names_epoch_and_stage_as_alone(monkeypatch):
    poison_features(monkeypatch, 1)  # a term of the replica's share
    cfg = dataclasses.replace(ExperimentConfig().pretrain, epochs=2)
    assert fault_messages(default_world(), cfg) == ["epoch 1: non-finite output from mask"] * 2


def fail_at_step(monkeypatch, step: int, fail) -> None:
    """Call fail(term) before every term of each pretrain call's step-th
    step and later ones, counted by the process that runs them: each step
    runs its share of the terms once in the caller and once in a replica,
    which inherits the count when it is forked."""
    steps = []
    real_plan_graph = hgmae.plan_graph
    real_run_terms, real_term = hgmae._run_terms, hgmae._reconstruction_term

    def planning_anew(g):
        steps.clear()
        return real_plan_graph(g)

    def counting_run_terms(*args):
        steps.append(None)
        return real_run_terms(*args)

    def failing_term(term, *args):
        if len(steps) >= step:
            fail(term)
        return real_term(term, *args)

    monkeypatch.setattr(hgmae, "plan_graph", planning_anew)
    monkeypatch.setattr(hgmae, "_run_terms", counting_run_terms)
    monkeypatch.setattr(hgmae, "_reconstruction_term", failing_term)


@pytest.mark.parametrize("failing", [(None, 2), (0, 2), (1, 2), (2,), (1,)])
def test_replica_fault_is_the_first_failing_term_in_term_order(monkeypatch, failing):
    """Types 1 and 2 are the replica's: the fault raised is the first in
    term order, whichever process met it."""

    def fail(term):
        if term.edge_type in failing:
            raise NumericFault(f"non-finite output from type {term.edge_type}")

    fail_at_step(monkeypatch, 3, fail)
    cfg = dataclasses.replace(ExperimentConfig().pretrain, epochs=4)
    want = f"epoch 3: non-finite output from type {failing[0]}"
    assert fault_messages(default_world(), cfg) == [want] * 2


@pytest.mark.parametrize(
    "signal_or_status, reason", [(9, "was killed by signal 9"), (None, "exited with status 1")]
)
def test_replica_that_dies_in_mid_step_is_named(monkeypatch, capfd, signal_or_status, reason):
    """A replica killed in its second step, or failing there with an error
    other than a NumericFault, makes the caller raise ChildProcessError
    naming it within seconds, and is reaped."""
    caller = os.getpid()

    def die(term):
        if os.getpid() != caller:
            if signal_or_status is None:
                raise MemoryError("the replica ran out")
            os.kill(os.getpid(), signal_or_status)

    fail_at_step(monkeypatch, 2, die)
    cfg = dataclasses.replace(ExperimentConfig().pretrain, epochs=3)
    t0 = time.perf_counter()
    with pytest.raises(ChildProcessError) as err:
        pretrain(default_world(), cfg, spare_cpu_at(1))
    assert time.perf_counter() - t0 < 10
    pid = str(err.value).split("(pid ")[1].split(")")[0]
    assert str(err.value) == f"epoch 2: pretrain replica (pid {pid}) {reason}"
    if signal_or_status is None:
        assert "MemoryError: the replica ran out" in capfd.readouterr().err


def test_interrupted_caller_leaves_no_replica(monkeypatch):
    """The teardown check in conftest.py finds no replica left."""
    caller, steps = os.getpid(), []
    real_adam_step = hgmae.adam_step

    def interrupted_adam_step(*args):
        real_adam_step(*args)
        steps.append(None)
        if os.getpid() == caller and len(steps) == 2:
            raise KeyboardInterrupt

    monkeypatch.setattr(hgmae, "adam_step", interrupted_adam_step)
    cfg = dataclasses.replace(ExperimentConfig().pretrain, epochs=4)
    with pytest.raises(KeyboardInterrupt):
        pretrain(default_world(), cfg, spare_cpu_at(1))


def large_exchange_digests() -> list[dict]:
    """run_digests of two epochs on the default world with 4,096-wide
    hidden heads, with a replica from epoch 1 and without one, and the
    bytes of one term's gradients."""
    g = default_world()
    cfg = dataclasses.replace(
        ExperimentConfig().pretrain, rng_seed=0, epochs=2, hidden_heads=1, hidden_head_dim=4096
    )
    runs = [run_digests(g, *pretrain(g, cfg, spare_cpu_at(start))) for start in (1, None)]
    params = init_params(g.d_in, cfg, np.random.default_rng(0))
    grad_bytes = sum(a.nbytes for a in params.named_arrays().values())
    assert_no_child_left()
    return runs + [grad_bytes]


def test_exchange_larger_than_a_pipe_holds_completes():
    """Each request carries the parameters, and each answer two terms'
    gradients, more than 1 MB each: the caller sends its request before it
    runs its own terms and reads the answer after, so neither process
    blocks the other."""
    with_replica, alone, grad_bytes = child_json(
        "import json, test_hgmae; print(json.dumps(test_hgmae.large_exchange_digests()))",
        timeout=120,
    )
    assert grad_bytes > 2**20
    assert with_replica == alone


def lr_outcomes(action: str, replica_from: int | None) -> list[str]:
    """Per learning rate, from sane to diverging in the mask and in a head,
    the digest of a 40-epoch pretrain's parameters on the default world or
    the NumericFault it raises, under the warnings filter action."""
    g = default_world()
    outcomes = []
    for lr in (1e3, 1e30, 1e200):
        cfg = dataclasses.replace(ExperimentConfig().pretrain, rng_seed=0, epochs=40, lr=lr)
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            try:
                params, _ = pretrain(g, cfg, spare_cpu_at(replica_from))
            except NumericFault as fault:
                outcomes.append(f"NumericFault: {fault}")
                continue
        params_bytes = b"".join(a.tobytes() for a in params.named_arrays().values())
        outcomes.append(hashlib.sha256(params_bytes).hexdigest())
    return outcomes


def test_numeric_faults_do_not_depend_on_the_warnings_filter():
    """A run that overflows ends the same, parameters or NumericFault, with
    numpy's warnings as errors or only shown, alone or with a replica."""
    want = lr_outcomes("default", None)
    assert want[0].isalnum()
    assert all(re.match(r"NumericFault: epoch \d+: non-finite output from ", o) for o in want[1:])
    for action, replica_from in [("error", None), ("default", 1), ("error", 1)]:
        assert lr_outcomes(action, replica_from) == want, (action, replica_from)


def test_pretrain_fault_names_epoch_and_op(monkeypatch, two_type_graph, tiny_cfg):
    real_adam_step = hgmae.adam_step
    updates = []

    def poisoning_adam_step(state, tensors, grads):
        real_adam_step(state, tensors, grads)
        updates.append(1)
        if len(updates) == 2:
            tensors["encoder.0.head1.W"].data[0, 0] = np.nan

    monkeypatch.setattr(hgmae, "adam_step", poisoning_adam_step)
    with pytest.raises(NumericFault, match=r"^epoch 3: non-finite output from gat_head$"):
        pretrain(two_type_graph, tiny_cfg)


def test_pretrain_fault_names_epoch_and_mask_stage(monkeypatch, two_type_graph, tiny_cfg):
    real_adam_step = hgmae.adam_step
    updates = []

    def poisoning_adam_step(state, arrays, grads):
        real_adam_step(state, arrays, grads)
        updates.append(1)
        if len(updates) == 2:
            arrays["mask_token"][0] = np.nan

    monkeypatch.setattr(hgmae, "adam_step", poisoning_adam_step)
    with pytest.raises(NumericFault, match=r"^epoch 3: non-finite output from mask$"):
        pretrain(two_type_graph, tiny_cfg)


def test_infer_embeddings_deterministic_and_mask_free(two_type_graph, tiny_cfg):
    g = two_type_graph
    params, _ = pretrain(g, tiny_cfg)
    emb1 = infer_embeddings(g, params)
    # masking activity in between must not leak into inference
    plan = sample_mask(g.num_nodes, tiny_cfg, np.random.default_rng(0))
    apply_mask(g.node_features, plan, params)
    emb2 = infer_embeddings(g, params)
    assert emb1.tobytes() == emb2.tobytes()
    assert emb1.shape == (12, tiny_cfg.d_emb)


def test_embeddings_separate_communities_on_clean_graph():
    gen = GenConfig(
        num_nodes=40,
        num_communities=2,
        d_in=8,
        noise_std=0.0,
        intra_edge_prob=(0.3, 0.2, 0.1),
        inter_edge_prob=(0.02, 0.02, 0.02),
        rng_seed=2,
    )
    g = generate_graph(gen)
    cfg = TrainConfig(epochs=80, d_emb=6, hidden_heads=2, hidden_head_dim=4, rng_seed=0)
    params, _ = pretrain(g, cfg)
    emb = infer_embeddings(g, params)
    from riskprop.synthetic import community_assignment

    comm = community_assignment(gen)
    normed = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    cos = normed @ normed.T
    same = comm[:, None] == comm[None, :]
    off_diag = ~np.eye(40, dtype=bool)
    intra = cos[same & off_diag].mean()
    inter = cos[~same].mean()
    assert intra > inter


def test_embeddings_roundtrip(tmp_path, two_type_graph, tiny_cfg):
    params, history = pretrain(two_type_graph, tiny_cfg)
    emb = infer_embeddings(two_type_graph, params)
    save_embeddings(emb, tmp_path / "embeddings.tsv")
    loaded = load_embeddings(tmp_path / "embeddings.tsv")
    assert loaded.tobytes() == emb.tobytes()
    save_pretrain_log(history, tmp_path / "pretrain_log.tsv")
    lines = (tmp_path / "pretrain_log.tsv").read_text().splitlines()
    assert lines[0] == "epoch\tloss_total\tloss_o\tloss_sub_mean"
    assert len(lines) == len(history) + 1


@pytest.mark.parametrize(
    "col, bad, reason",
    [(0, "x", "bad node_id 'x'"), (0, "0", "malformed row"), (2, "x", "bad embedding value")],
)
def test_load_embeddings_bad_cell_names_line(tmp_path, col, bad, reason):
    path = tmp_path / "embeddings.tsv"
    save_embeddings(np.arange(6.0).reshape(3, 2), path)
    lines = path.read_text().splitlines()
    toks = lines[2].split("\t")
    toks[col] = bad
    lines[2] = "\t".join(toks)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        load_embeddings(path)
    assert str(err.value) == f"{path}:3: {reason}"
