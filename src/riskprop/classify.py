"""Stage-2 classification over fused feature vectors.

A pair's classifier input concatenates, for the source then the target, the
issuer's task features with its pre-trained embedding row; the pairs arrive
as CandidatePairs columns, and their labels are the targets. The in-repo model
is L2-regularized logistic regression on train-standardized inputs. The
headline metric is micro-F1, which equals accuracy for single-label binary
prediction, with AUC as a rank-based diagnostic. The trained model is saved
as a table.py model file: the echo holds the input width d, and the arrays
are bias (1,), weights, feat_mean and feat_std (d,).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .pairs import CandidatePairs, PairDatasetSplit
from .table import ConfigError, read_model_file, write_model_file


def make_fusion_fn(task: dict[int, np.ndarray], embeddings: np.ndarray):
    """A batch fusion function: CandidatePairs -> [m, 2 * (d_task + d_emb)] rows of
    [task_s | emb_s | task_t | emb_t]. A node with no task row or no
    embedding row is a hard error naming the node."""
    ids = np.fromiter(task, dtype=np.int64, count=len(task))
    rows = np.stack(list(task.values())) if task else np.zeros((0, 0))
    # row_of[nid]: nid's task row, or -1; only nodes with an embedding row
    row_of = np.full(embeddings.shape[0], -1, dtype=np.int64)
    inside = (ids >= 0) & (ids < embeddings.shape[0])
    row_of[ids[inside]] = np.flatnonzero(inside)

    def fuse(pairs: CandidatePairs) -> np.ndarray:
        src, dst = pairs.source, pairs.target
        nids = np.stack([src, dst], axis=1)
        found = (nids >= 0) & (nids < row_of.shape[0])
        found[found] = row_of[nids[found]] >= 0
        if not found.all():
            nid = int(nids.ravel()[np.argmin(found.ravel())])  # first, source before target
            if nid not in task:
                raise KeyError(f"no task features for node {nid}")
            raise KeyError(f"no embedding row for node {nid}")
        return np.concatenate(
            [rows[row_of[src]], embeddings[src], rows[row_of[dst]], embeddings[dst]], axis=1
        )

    return fuse


@dataclass
class ClassifierConfig:
    iterations: int = 500
    lr: float = 0.1
    l2: float = 1e-3

    def __post_init__(self) -> None:
        problems = []
        if self.iterations < 0:
            problems.append("iterations must be >= 0")
        if self.lr <= 0:
            problems.append("lr must be > 0")
        if self.l2 < 0:
            problems.append("l2 must be >= 0")
        if problems:
            raise ConfigError("invalid ClassifierConfig: " + "; ".join(problems))


@dataclass
class ClassifierModel:
    """Trained model plus the train-split standardization stats it bakes in."""

    weights: np.ndarray
    bias: float
    feat_mean: np.ndarray
    feat_std: np.ndarray

    def scores(self, X: np.ndarray) -> np.ndarray:
        Xs = (X - self.feat_mean) / self.feat_std
        return _sigmoid(Xs @ self.weights + self.bias)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    return _logistic(t, np.exp(-np.abs(t)))


def _logistic(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    """sigmoid(t) from e = exp(-|t|), which never overflows: 1/(1+e) where
    t >= 0 and e/(1+e) elsewhere, chosen without a branch."""
    return np.maximum(e, t >= 0) / (1.0 + e)


def standardization_stats(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-dim mean/std; constant dims get std 1 so they standardize to zero."""
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return mean, std


def logistic_loss_and_grad(
    w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray, float]:
    """Mean log-loss + 0.5*l2*|w|^2 (bias unregularized), with gradients."""
    logits, e, gw, gb = _logits_and_grad(w, b, X, y, l2)
    return _loss(logits, e, w, y, l2), gw, gb


def _logits_and_grad(
    w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, l2: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    logits = X @ w + b
    e = np.exp(-np.abs(logits))
    residual = _logistic(logits, e) - y
    gw = X.T @ residual / X.shape[0] + l2 * w
    return logits, e, gw, float(np.mean(residual))


def _loss(logits: np.ndarray, e: np.ndarray, w: np.ndarray, y: np.ndarray, l2: float) -> float:
    # log(1+exp(-|t|)) form avoids overflow in both tails
    nll = np.mean(np.log1p(e) + np.maximum(logits, 0.0) - y * logits)
    return float(nll + 0.5 * l2 * float(w @ w))


def _train_logistic(X: np.ndarray, y: np.ndarray, cfg: ClassifierConfig) -> ClassifierModel:
    mean, std = standardization_stats(X)
    Xs = (X - mean) / std
    w = np.zeros(X.shape[1])
    b = 0.0
    # each row's log-loss lies in [0, |logit| + log 2] for labels in {0, 1},
    # so these bounds prove the loss finite without computing it
    logit_bound = 1e300 / X.shape[0]
    # a diverging run overflows on its way to the non-finite loss; the
    # finiteness test below reports it, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.iterations):
            logits, e, gw, gb = _logits_and_grad(w, b, Xs, y, cfg.l2)
            bounded = np.abs(logits).max() < logit_bound and 0.5 * cfg.l2 * float(w @ w) < 1e300
            if not bounded and not np.isfinite(_loss(logits, e, w, y, cfg.l2)):
                raise FloatingPointError("logistic training diverged: non-finite loss")
            w -= cfg.lr * gw
            b -= cfg.lr * gb
    return ClassifierModel(weights=w, bias=b, feat_mean=mean, feat_std=std)


def train_classifier(
    split: PairDatasetSplit, fusion_fn, cfg: ClassifierConfig | None = None
) -> ClassifierModel:
    cfg = cfg or ClassifierConfig()
    if not split.train:
        raise ValueError("empty train split")
    return _train_logistic(fusion_fn(split.train), split.train.label, cfg)


# ---------------------------------------------------------------------------
# metrics


def micro_f1(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """F1 from TP/FP/FN pooled over classes; equals accuracy for single-label
    binary predictions."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    tp = fp = fn = 0
    for cls in np.unique(np.concatenate([y_true, y_pred])):
        tp += int(np.sum((y_pred == cls) & (y_true == cls)))
        fp += int(np.sum((y_pred == cls) & (y_true != cls)))
        fn += int(np.sum((y_pred != cls) & (y_true == cls)))
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true)
    return float(np.mean(y_true == np.asarray(y_pred)))


def binary_auc(y_true: np.ndarray, scores: np.ndarray) -> float:
    """Rank-statistic AUC with tie credit 1/2; nan when a class is absent."""
    y_true = np.asarray(y_true, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(np.sum(y_true == 1))
    n_neg = int(np.sum(y_true == 0))
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    # tied scores share the mean of their 1-based ranks, an exact half
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    ranks = ((2 * last - counts + 1) / 2.0)[group]
    rank_sum = float(ranks[y_true == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate(model: ClassifierModel, pairs: CandidatePairs, fusion_fn) -> dict[str, float]:
    """micro_f1 / accuracy / auc over the given pairs (normally the test split)."""
    if not pairs:
        raise ValueError("nothing to evaluate: no pairs")
    y = pairs.label
    scores = model.scores(fusion_fn(pairs))
    preds = (scores >= 0.5).astype(np.int64)
    return {
        "micro_f1": micro_f1(y, preds),
        "accuracy": accuracy(y, preds),
        "auc": binary_auc(y, scores),
    }


# ---------------------------------------------------------------------------
# classifier file I/O

FORMAT_TAG = "riskprop-classifier v1"


def save_classifier(model: ClassifierModel, path: Path | str) -> None:
    stats = {"feat_mean": model.feat_mean, "feat_std": model.feat_std}
    arrays = {"bias": np.array([model.bias]), "weights": model.weights, **stats}
    write_model_file(path, FORMAT_TAG, {"d": model.weights.size}, arrays)


def load_classifier(path: Path | str) -> ClassifierModel:
    """Read a save_classifier file; a malformed one raises CheckpointError
    naming the path and, where there is one, the line."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"classifier file not found: {path}")
    f = read_model_file(path, FORMAT_TAG, {"d": int})
    d = f.echo["d"][1]
    arrays = f.arrays({"bias": (1,), "weights": (d,), "feat_mean": (d,), "feat_std": (d,)})
    return ClassifierModel(bias=float(arrays.pop("bias")[0]), **arrays)
