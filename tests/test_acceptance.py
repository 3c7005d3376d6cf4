"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line on the real stdout (visible regardless
of pytest capture). Expensive criteria run the shipped default experiment
configuration end to end.
"""

import dataclasses
import functools
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from riskprop import hgmae
from riskprop.classify import accuracy, binary_auc, micro_f1
from riskprop.experiment import ExperimentConfig, run_conditions
from riskprop.hgmae import (
    TrainConfig,
    apply_mask,
    hgmae_loss,
    hgmae_step,
    make_step_plans,
    plan_graph,
    pretrain,
    sample_mask,
)
from riskprop.pairs import enumerate_candidate_pairs
from riskprop.synthetic import GenConfig, generate_graph, simulate_cascade

from conftest import fresh_params, make_graph
from oracles import brute_force_candidate_pairs, dense_hgmae_loss, exhaustive_auc
from tape import grad_check

REPO_ROOT = Path(__file__).resolve().parent.parent


def emit(line: str) -> None:
    import conftest

    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)  # visible inline under pytest -s


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                emit(f"ACCEPTANCE {num}: FAIL - {title}")
                raise
            emit(f"ACCEPTANCE {num}: PASS - {title}")

        return wrapper

    return deco


def twelve_node_two_type_graph():
    ring = [(i, (i + 1) % 12) for i in range(12)]
    chords = [(0, 6), (2, 9), (4, 10), (1, 7)]
    return make_graph(12, {0: ring, 1: chords}, d_in=6, issuers=[0, 3, 6, 9], seed=3)


@criterion(1, "gradient correctness: rel err < 1e-4 on full loss, h=1e-5, < 60 s")
def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    g = twelve_node_two_type_graph()
    cfg = TrainConfig(d_emb=5, hidden_heads=2, hidden_head_dim=4, rng_seed=7)
    params = fresh_params(g, cfg, seed=11)  # tokens moved off zero: generic point
    terms = plan_graph(g)
    plans = make_step_plans(terms, cfg, np.random.default_rng(33))

    arrays = params.named_arrays()
    _, analytic = hgmae_loss(terms, params, cfg, plans)

    report = grad_check(
        lambda: hgmae_loss(terms, params, cfg, plans)[0].total, arrays, analytic, h=1e-5, tol=1e-4
    )
    elapsed = time.monotonic() - start
    assert report.passed, (report.max_rel_err, report.worst_param, report.worst_index)
    assert report.checked == sum(a.size for a in arrays.values())
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@criterion(2, "loss formula: step total == L_o + (eta/K_eff)*sum L_k via dense oracle, 1e-12")
def test_criterion_2_loss_formula_oracle():
    graphs = [twelve_node_two_type_graph(), generate_graph(GenConfig(num_nodes=40, rng_seed=5))]
    for g in graphs:
        cfg = TrainConfig(d_emb=5, hidden_heads=2, hidden_head_dim=4, rng_seed=1)
        params = fresh_params(g, cfg, seed=2)
        terms = plan_graph(g)
        plans = make_step_plans(terms, cfg, np.random.default_rng(12))
        parts, _ = hgmae_step(terms, params, cfg, np.random.default_rng(12))

        dense_total, dense_full, dense_subs = dense_hgmae_loss(g, params, cfg, plans)
        recombined = dense_full + cfg.eta / len(dense_subs) * sum(dense_subs.values())
        assert abs(parts.total - dense_total) < 1e-12
        assert abs(parts.full - dense_full) < 1e-12
        assert abs(dense_total - recombined) < 1e-12

        # eta = 0 reproduces the full-graph-only loss exactly
        cfg0 = dataclasses.replace(cfg, eta=0.0)
        parts0, _ = hgmae_step(terms, params, cfg0, np.random.default_rng(12))
        plans0 = make_step_plans(terms, cfg0, np.random.default_rng(12))
        replay0, _ = hgmae_loss(terms, params, cfg0, plans0)
        assert parts0.total == parts0.full == replay0.total


@criterion(3, "masking invariants over 10k samples: counts exact, bytes intact, freq in 3 sigma")
def test_criterion_3_masking_invariants():
    n = 20
    cfg = TrainConfig()
    g = make_graph(n, {0: [(i, i + 1) for i in range(n - 1)]}, d_in=4, seed=1)
    params = fresh_params(g, cfg)
    rng = np.random.default_rng(99)
    draws = 10_000
    frequency = np.zeros(n)
    expect_masked = round(cfg.mask_ratio * n)
    for _ in range(draws):
        plan = sample_mask(n, cfg, rng)
        assert plan.masked_ids.size == expect_masked
        assert plan.random_ids.size == round(cfg.random_sub_rate * plan.masked_ids.size)
        frequency[plan.masked_ids] += 1
        corrupted = apply_mask(g.node_features, plan, params)
        untouched = np.setdiff1d(np.arange(n), plan.masked_ids)
        assert corrupted[untouched].tobytes() == g.node_features[untouched].tobytes()
    p = expect_masked / n
    sigma = math.sqrt(draws * p * (1 - p))
    assert np.all(np.abs(frequency - draws * p) <= 3 * sigma), frequency


@criterion(4, "training health: final loss < 0.5 x epoch-1 on default config; bit-identical reruns")
def test_criterion_4_training_health():
    gen = GenConfig()
    assert gen.num_nodes == 200 and gen.num_edge_types == 3
    g = generate_graph(gen)
    cfg = TrainConfig()
    assert cfg.epochs == 300
    _, history = pretrain(g, cfg)
    assert history[-1].loss_total < 0.5 * history[0].loss_total, (
        history[0].loss_total,
        history[-1].loss_total,
    )
    _, rerun = pretrain(g, cfg)
    assert [(s.loss_total, s.loss_full, s.loss_sub_mean) for s in history] == [
        (s.loss_total, s.loss_full, s.loss_sub_mean) for s in rerun
    ]


@criterion(5, "pair construction matches brute-force BFS + event join on graphs <= 300 nodes")
def test_criterion_5_pair_construction_oracle():
    for num_nodes, seed in ((120, 0), (200, 1), (300, 2)):
        cfg = dataclasses.replace(GenConfig(), num_nodes=num_nodes, rng_seed=seed)
        g = generate_graph(cfg)
        events = simulate_cascade(g, cfg)
        got = [
            (p.source_id, p.target_id, p.label, p.hop_distance)
            for p in enumerate_candidate_pairs(g, events, 3)
        ]
        assert got == brute_force_candidate_pairs(g, events, 3)


@criterion(6, "downstream uplift on 5 default-config seeds; harness < 10 min")
def test_criterion_6_downstream_uplift():
    start = time.monotonic()
    exp = ExperimentConfig()
    assert len(exp.seeds) >= 5
    results = run_conditions(exp)
    summary = results.summary()
    mean_a = summary["task_only"][0]
    mean_b = summary["hgmae"][0]
    mean_c = summary["eta0"][0]

    assert mean_b - mean_a >= 0.03, f"uplift {mean_b - mean_a:.4f}"
    assert mean_b >= mean_c - 0.01, f"ablation gap {mean_b - mean_c:.4f}"
    wins = sum(
        results.metric("hgmae", s) >= results.metric("eta0", s) for s in exp.seeds
    )
    assert wins >= 3, f"hgmae >= eta0 on only {wins}/{len(exp.seeds)} seeds"
    # task features alone are informative but not sufficient
    assert 0.5 < mean_a < mean_b
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    emit(
        f"  micro-F1 means: task_only {mean_a:.4f}  hgmae {mean_b:.4f}  eta0 {mean_c:.4f}"
        f"  ({elapsed:.0f}s)"
    )


@criterion(7, "micro-F1 == accuracy on binary fixtures; AUC exact vs exhaustive ranking")
def test_criterion_7_metric_correctness():
    assert micro_f1([1, 1, 0, 0], [1, 0, 0, 0]) == 0.75 == accuracy([1, 1, 0, 0], [1, 0, 0, 0])
    assert micro_f1([1, 0], [1, 0]) == 1.0
    assert binary_auc([1, 0, 1, 0], [0.9, 0.4, 0.6, 0.1]) == 1.0
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 21))
        y = rng.integers(0, 2, n)
        preds = rng.integers(0, 2, n)
        assert micro_f1(y, preds) == pytest.approx(accuracy(y, preds), abs=1e-15)
        if y.min() != y.max():
            scores = np.round(rng.random(n), 1)  # coarse grid provokes ties
            assert binary_auc(y, scores) == exhaustive_auc(y.tolist(), scores.tolist())


@criterion(8, "run_all bytewise deterministic across repeated invocations")
def test_criterion_8_run_all_reproducible(tmp_path):
    smoke = REPO_ROOT / "configs" / "smoke.config"
    trees = []
    for name in ("first", "second"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "riskprop", "run-all", "--config", str(smoke),
             "--out", str(out), "--quiet"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        trees.append(
            {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        )
    assert trees[0] == trees[1]
    assert "results.tsv" in trees[0]
