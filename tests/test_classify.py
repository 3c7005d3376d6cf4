import hashlib

import numpy as np
import pytest

from riskprop.checkpoint import CheckpointError, save_checkpoint

from riskprop.classify import (
    ClassifierConfig,
    _sigmoid,
    accuracy,
    binary_auc,
    evaluate,
    load_classifier,
    logistic_loss_and_grad,
    make_fusion_fn,
    micro_f1,
    save_classifier,
    standardization_stats,
    train_classifier,
)
from riskprop.hgmae import TrainConfig, init_params
from riskprop.pairs import PairDatasetSplit, PropagationPair

from oracles import masked_sigmoid, pairs_from_rows


def toy_pair(s=0, t=1, label=1):
    return PropagationPair(source_id=s, target_id=t, label=label, hop_distance=1)


def test_fusion_length_and_ordering():
    task = {0: np.array([1.0, 2.0]), 1: np.array([3.0, 4.0])}
    emb = np.array([[5.0, 6.0, 7.0], [8.0, 9.0, 10.0]])
    merged, swapped = make_fusion_fn(task, emb)(pairs_from_rows([toy_pair(0, 1), toy_pair(1, 0)]))
    assert merged.shape == (10,)
    np.testing.assert_array_equal(merged, [1, 2, 5, 6, 7, 3, 4, 8, 9, 10])
    assert not np.array_equal(merged, swapped)


def test_fusion_with_zero_width_embeddings():
    task = {0: np.array([1.0, 2.0]), 1: np.array([3.0, 4.0])}
    emb = np.zeros((2, 0))
    merged = make_fusion_fn(task, emb)(pairs_from_rows([toy_pair(0, 1)]))[0]
    np.testing.assert_array_equal(merged, [1, 2, 3, 4])


def test_fusion_zero_embeddings_reduce_to_task_and_zeros():
    task = {0: np.array([1.0]), 1: np.array([2.0])}
    emb = np.zeros((2, 2))
    merged = make_fusion_fn(task, emb)(pairs_from_rows([toy_pair(0, 1)]))[0]
    np.testing.assert_array_equal(merged, [1, 0, 0, 2, 0, 0])


def test_fusion_missing_rows_error_names_node():
    task = {0: np.array([1.0])}
    with pytest.raises(KeyError, match="task features for node 7"):
        make_fusion_fn(task, np.zeros((10, 2)))(pairs_from_rows([toy_pair(0, 7)]))
    with pytest.raises(KeyError, match="embedding row for node 3"):
        fusion_fn = make_fusion_fn({0: np.array([1.0]), 3: np.array([1.0])}, np.zeros((2, 2)))
        fusion_fn(pairs_from_rows([toy_pair(0, 3)]))


def separable_split(n=40):
    rng = np.random.default_rng(0)
    rows, vectors = [], np.empty((n, 2))
    for i in range(n):
        label = i % 2
        base = np.array([3.0, 3.0]) if label else np.array([-3.0, -3.0])
        vectors[i] = base + 0.3 * rng.standard_normal(2)
        rows.append(PropagationPair(source_id=i, target_id=i, label=label, hop_distance=1))
    pairs = pairs_from_rows(rows)
    split = PairDatasetSplit(
        train=pairs.select(np.arange(n - 10)), test=pairs.select(np.arange(n - 10, n)), split_seed=0
    )
    return split, lambda ps: vectors[ps.source]


def test_logistic_separable_reaches_full_train_accuracy():
    split, fusion_fn = separable_split()
    model = train_classifier(split, fusion_fn)
    X = fusion_fn(split.train)
    y = split.train.label
    assert accuracy(y, model.scores(X) >= 0.5) == 1.0


def test_logistic_training_deterministic():
    split, fusion_fn = separable_split()
    a = train_classifier(split, fusion_fn)
    b = train_classifier(split, fusion_fn)
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.bias == b.bias


def test_logistic_gradient_matches_finite_differences():
    from tape import grad_check

    rng = np.random.default_rng(2)
    X = rng.standard_normal((12, 4))
    y = (rng.random(12) > 0.5).astype(float)
    params = {"w": rng.standard_normal(4), "b": np.array([0.3])}
    _, gw, gb = logistic_loss_and_grad(params["w"], float(params["b"][0]), X, y, l2=1e-3)
    report = grad_check(
        lambda: logistic_loss_and_grad(params["w"], float(params["b"][0]), X, y, 1e-3)[0],
        params,
        {"w": gw, "b": np.array([gb])},
        h=1e-6,
        tol=1e-6,
    )
    assert report.passed


DIVERGED = "^logistic training diverged: non-finite loss$"


@pytest.mark.filterwarnings("error")
def test_diverging_logits_raise_at_the_first_non_finite_loss():
    # constant features standardize to zero, so only the bias moves: one
    # step of lr 1e308 puts every logit at -2e307, and the 30 positives'
    # log-losses then sum past the float range while the L2 term stays 0.
    # The overflows on the way raise no numpy warning, even as errors.
    rows = [toy_pair(i, i, label=int(i < 30)) for i in range(100)]
    split = PairDatasetSplit(train=pairs_from_rows(rows), test=pairs_from_rows([]), split_seed=0)
    fusion_fn = lambda ps: np.ones((len(ps), 1))  # noqa: E731
    train_classifier(split, fusion_fn, ClassifierConfig(iterations=1, lr=1e308))
    with pytest.raises(FloatingPointError, match=DIVERGED):
        train_classifier(split, fusion_fn, ClassifierConfig(iterations=2, lr=1e308))


def test_diverging_l2_term_raises_at_the_first_non_finite_loss():
    # one step of lr 3 gives |w|^2 near 4.5 and logits below 4, so at the
    # second iteration only 0.5 * l2 * |w|^2 overflows; no numpy operation
    # overflows, so this raises no RuntimeWarning either
    split, fusion_fn = separable_split()
    train_classifier(split, fusion_fn, ClassifierConfig(iterations=1, lr=3.0, l2=1e308))
    with pytest.raises(FloatingPointError, match=DIVERGED):
        train_classifier(split, fusion_fn, ClassifierConfig(iterations=2, lr=3.0, l2=1e308))


def test_classifier_config_rejects_every_bad_value():
    with pytest.raises(ValueError) as err:
        ClassifierConfig(iterations=-3, lr=-0.1, l2=-5)
    assert str(err.value) == (
        "invalid ClassifierConfig: iterations must be >= 0; lr must be > 0; l2 must be >= 0"
    )


def test_standardization_from_train_only():
    split, fusion_fn = separable_split()
    X_train = fusion_fn(split.train)
    mean, std = standardization_stats(X_train)
    model = train_classifier(split, fusion_fn)
    np.testing.assert_array_equal(model.feat_mean, mean)
    np.testing.assert_array_equal(model.feat_std, std)
    # removing any test row cannot change train statistics
    for drop in range(len(split.test)):
        kept = np.delete(np.arange(len(split.test)), drop)
        reduced = PairDatasetSplit(train=split.train, test=split.test.select(kept), split_seed=0)
        again = train_classifier(reduced, fusion_fn)
        np.testing.assert_array_equal(again.feat_mean, model.feat_mean)
        np.testing.assert_array_equal(again.feat_std, model.feat_std)


def test_decisions_invariant_to_positive_feature_rescaling():
    # standardization absorbs any per-dimension positive rescaling of the raw
    # inputs, so retraining on scaled features reproduces the same decisions
    split, fusion_fn = separable_split()
    scale = np.array([5.0, 0.25])
    model = train_classifier(split, fusion_fn)
    scaled_model = train_classifier(split, lambda ps: fusion_fn(ps) * scale)
    X = fusion_fn(split.test)
    np.testing.assert_allclose(
        scaled_model.scores(X * scale), model.scores(X), rtol=0, atol=1e-12
    )
    np.testing.assert_array_equal(scaled_model.scores(X * scale) >= 0.5, model.scores(X) >= 0.5)


def test_sigmoid_bit_identical_to_masked_reference():
    rng = np.random.default_rng(5)
    scales = [0.1, 1.0, 10.0, 100.0, 800.0]
    edges = [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, np.inf, -np.inf, np.nan]
    t = np.concatenate([s * rng.standard_normal(4000) for s in scales] + [np.array(edges)])
    got = _sigmoid(t)
    assert got.dtype == np.float64
    assert np.array_equal(got, masked_sigmoid(t), equal_nan=True)


def test_constant_dim_standardizes_to_zero():
    X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    mean, std = standardization_stats(X)
    assert std[1] == 1.0
    assert np.all(((X - mean) / std)[:, 1] == 0.0)


# -- metrics ------------------------------------------------------------------


def test_micro_f1_equals_accuracy_throughout():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(1, 30))
        y = rng.integers(0, 2, n)
        p = rng.integers(0, 2, n)
        assert micro_f1(y, p) == pytest.approx(accuracy(y, p), abs=1e-15)


def test_micro_f1_counted_example():
    assert micro_f1([1, 1, 0, 0], [1, 0, 0, 0]) == 0.75


def test_perfect_predictions():
    assert micro_f1([1, 0, 1], [1, 0, 1]) == 1.0


def test_auc_separated_scores():
    assert binary_auc([1, 0, 1, 0], [0.9, 0.4, 0.6, 0.1]) == 1.0


def test_auc_matches_exhaustive_ranking_exactly():
    from oracles import exhaustive_auc

    rng = np.random.default_rng(9)
    for trial in range(50):
        n = int(rng.integers(4, 21))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        scores = np.round(rng.random(n), 2)  # coarse grid forces ties
        assert binary_auc(y, scores) == exhaustive_auc(y.tolist(), scores.tolist())


def test_auc_matches_exhaustive_ranking_when_most_scores_tie():
    from oracles import exhaustive_auc

    rng = np.random.default_rng(4)
    y = rng.integers(0, 2, 300)
    scores = rng.choice([0.25, 0.5, 0.75], size=300, p=[0.1, 0.8, 0.1])
    scores[:5] = rng.random(5)  # a few untied scores among the ties
    assert binary_auc(y, scores) == exhaustive_auc(y.tolist(), scores.tolist())


def test_auc_single_class_is_nan():
    assert np.isnan(binary_auc([1, 1], [0.2, 0.4]))


def test_evaluate_invariant_to_pair_order():
    split, fusion_fn = separable_split()
    model = train_classifier(split, fusion_fn)
    metrics = evaluate(model, split.test, fusion_fn)
    backwards = split.test.select(np.arange(len(split.test))[::-1])
    reversed_metrics = evaluate(model, backwards, fusion_fn)
    assert metrics == reversed_metrics
    assert metrics["micro_f1"] == metrics["accuracy"]


def test_classifier_roundtrip(tmp_path):
    split, fusion_fn = separable_split()
    model = train_classifier(split, fusion_fn)
    save_classifier(model, tmp_path / "clf.tsv")
    loaded = load_classifier(tmp_path / "clf.tsv")
    save_classifier(loaded, tmp_path / "again.tsv")
    assert (tmp_path / "again.tsv").read_bytes() == (tmp_path / "clf.tsv").read_bytes()
    assert loaded.weights.tobytes() == model.weights.tobytes()
    assert loaded.bias == model.bias
    X = fusion_fn(split.test)
    np.testing.assert_array_equal(loaded.scores(X), model.scores(X))


def _saved_classifier_lines(tmp_path):
    split, fusion_fn = separable_split()
    save_classifier(train_classifier(split, fusion_fn), tmp_path / "clf.tsv")
    return (tmp_path / "clf.tsv").read_text().splitlines()


def _with_fresh_checksum(lines):
    """The lines with the checksum recomputed over their data lines, so a
    fault shows in the parse and not as corruption."""
    data = [line for line in lines if not line.startswith("#")]
    digest = hashlib.sha256("\n".join(data).encode()).hexdigest()
    return [f"# checksum\t{digest}" if line.startswith("# checksum\t") else line for line in lines]


def _drop_last_value(line):
    return line.rsplit(" ", 1)[0]


def _replace(lineno, text):
    return lambda ls: ls[: lineno - 1] + [text] + ls[lineno:]


# lines 1-7 are the tag, the echo of d = 2, the manifest of bias, weights,
# feat_mean and feat_std, and the checksum; lines 8-11 hold their values
@pytest.mark.parametrize(
    "corrupt, where, reason",
    [
        pytest.param(
            lambda ls: ls[:8] + [ls[8].replace("\t", " ", 1)] + ls[9:],
            9,
            "expected key<TAB>value",
            id="no-tab",
        ),
        pytest.param(lambda ls: ls[:7] + ls[8:], 11, "missing key 'bias'", id="missing-bias"),
        pytest.param(lambda ls: ls[:10], 11, "missing key 'feat_std'", id="missing-feat_std"),
        pytest.param(lambda ls: ls + ["margin\t0.5"], 12, "unknown key 'margin'", id="unknown-key"),
        pytest.param(lambda ls: ls + [ls[7]], 12, "duplicate key 'bias'", id="duplicate-key"),
        pytest.param(
            _replace(8, "bias\tnan?"), 8, "tensor 'bias': bad number 'nan?'", id="bad-number"
        ),
        pytest.param(
            _replace(9, "weights\tnan nan"),
            9,
            "tensor 'weights' has non-finite values",
            id="nan-weights",
        ),
        pytest.param(
            _replace(8, "bias\tinf"), 8, "tensor 'bias' has non-finite values", id="inf-bias"
        ),
        pytest.param(
            _replace(8, "bias\t1 2"), 8, "tensor 'bias' has 2 values, wants (1,)", id="bias-size"
        ),
        pytest.param(
            lambda ls: ls[:9] + [_drop_last_value(ls[9])] + ls[10:],
            10,
            "tensor 'feat_mean' has 1 values, wants (2,)",
            id="feat_mean-size",
        ),
        pytest.param(
            lambda ls: ls[:10] + [_drop_last_value(ls[10])],
            11,
            "tensor 'feat_std' has 1 values, wants (2,)",
            id="feat_std-size",
        ),
        pytest.param(
            lambda ls: ls[:8] + [_drop_last_value(ls[8])] + ls[9:],
            9,
            "tensor 'weights' has 1 values, wants (2,)",
            id="weights-size",
        ),
        pytest.param(
            _replace(4, "# tensor\tweights\t3"),
            4,
            "tensor 'weights' has shape (3,), config implies (2,)",
            id="manifest-shape",
        ),
        pytest.param(lambda ls: ls[:1] + ls[2:], 1, "missing key 'd'", id="missing-d"),
    ],
)
def test_malformed_classifier_file_names_line_and_reason(tmp_path, corrupt, where, reason):
    lines = _saved_classifier_lines(tmp_path)
    names = ["bias", "weights", "feat_mean", "feat_std"]
    assert lines[:6] == ["# riskprop-classifier v1", "# config\td\t2", "# tensor\tbias\t1"] + [
        f"# tensor\t{name}\t2" for name in names[1:]
    ]
    assert lines[6].startswith("# checksum\t")
    assert [line.split("\t")[0] for line in lines[7:]] == names
    path = tmp_path / "clf.tsv"
    path.write_text("\n".join(_with_fresh_checksum(corrupt(lines))) + "\n")
    with pytest.raises(CheckpointError) as err:
        load_classifier(path)
    assert str(err.value) == f"{path}:{where}: {reason}"


def test_classifier_edited_without_fresh_checksum_is_corrupt(tmp_path):
    lines = _saved_classifier_lines(tmp_path)
    path = tmp_path / "clf.tsv"
    path.write_text("\n".join(_replace(8, "bias\t0.5")(lines)) + "\n")
    with pytest.raises(CheckpointError) as err:
        load_classifier(path)
    assert str(err.value) == f"{path}: checksum mismatch; file is corrupt"


def test_load_classifier_rejects_a_checkpoint_file(tmp_path):
    cfg = TrainConfig(d_emb=2, hidden_heads=1, hidden_head_dim=2)
    path = tmp_path / "checkpoint.tsv"
    save_checkpoint(init_params(3, cfg, np.random.default_rng(0)), cfg, path)
    with pytest.raises(CheckpointError) as err:
        load_classifier(path)
    assert str(err.value) == f"{path}: not a riskprop-classifier v1 file"
