"""End-to-end experiment orchestration and the three-condition comparison.

A pipeline seed re-derives every stage: world generation, pre-training,
pair construction, and the train/test split all take their rng from it, so
a (config, seed) pair maps to one reproducible result row. The comparison
reports micro-F1 for three conditions per seed:

    task_only   task features alone
    hgmae       task features + embeddings pre-trained with subgraph terms
    eta0        task features + embeddings pre-trained with eta = 0

File layout under the output directory: one subdirectory per seed holding
that run's artifacts, plus results.tsv (per-seed rows, then mean/std rows
per condition) and summary.txt at the top level.

The pretrain stage runs its (seed, variant) runs in forked worker
processes, one per usable CPU at most. A CPU no worker uses, at the start or
once a worker has no task left, lets a running run fork a replica that
splits its steps' terms with it (hgmae.pretrain). Each run seeds its own rng
from (config, seed) and writes its own files, so the bytes do not depend on
the worker count or on which runs got a replica, and every worker and
replica has exited when the stage returns.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import classify, graph, hgmae, pairs as pairs_mod, synthetic
from .checkpoint import load_checkpoint, save_checkpoint
from .classify import ClassifierConfig
from .hgmae import TrainConfig
from .synthetic import GenConfig
from .table import ConfigError, atomic_write_text, read_record, write_record, write_table

CONDITIONS = ("task_only", "hgmae", "eta0")


@dataclass
class PairConfig:
    n_hops: int = 3
    train_frac: float = 0.8

    def __post_init__(self) -> None:
        problems = []
        if self.n_hops < 1:
            problems.append("n_hops must be >= 1")
        if not 0.0 < self.train_frac < 1.0:
            problems.append("train_frac must be in (0, 1)")
        if problems:
            raise ConfigError("invalid PairConfig: " + "; ".join(problems))


@dataclass
class ExperimentConfig:
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    output_dir: str = "out"
    gen: GenConfig = field(default_factory=GenConfig)
    pretrain: TrainConfig = field(default_factory=TrainConfig)
    pairs: PairConfig = field(default_factory=PairConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)

    def __post_init__(self) -> None:
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        for i, seed in enumerate(self.seeds):
            if seed < 0:
                raise ConfigError(f"seeds must be >= 0, got {seed}")
            if seed in self.seeds[:i]:
                raise ConfigError(f"seeds must be distinct, got {seed} twice")


def seed_dir(out_dir: Path | str, seed: int) -> Path:
    return Path(out_dir) / f"seed_{seed}"


# ---------------------------------------------------------------------------
# config file: flat key=value with section prefixes

# keys that no longer set anything, with the reason a config file may not
# set them
_REMOVED_KEYS = {
    "gen.rng_seed": "each world's seed comes from seeds=",
    "pretrain.rng_seed": "pre-training's seed comes from seeds=",
    "classifier.kind": "the classifier is always logistic",
}


def parse_experiment_config(path: Path | str) -> ExperimentConfig:
    """Parse, collecting every problem before raising. Omitted keys keep
    their defaults; '#' starts a comment."""
    return read_record(path, ExperimentConfig, _REMOVED_KEYS)


def write_experiment_config(cfg: ExperimentConfig, path: Path | str) -> None:
    write_record(path, cfg, _REMOVED_KEYS)


# ---------------------------------------------------------------------------
# worlds and results


def build_world(exp: ExperimentConfig, seed: int):
    """Generate graph, cascade events, and task features for one pipeline seed."""
    gen_cfg = dataclasses.replace(exp.gen, rng_seed=seed)
    g = synthetic.generate_graph(gen_cfg)
    events = synthetic.simulate_cascade(g, gen_cfg)
    task_values = synthetic.attach_task_features(g, events, gen_cfg)
    task = synthetic.task_feature_table(g, task_values)
    return gen_cfg, g, events, task


@dataclass
class ResultRow:
    condition: str
    seed: int
    micro_f1: float
    accuracy: float
    auc: float


@dataclass
class ConditionResults:
    rows: list[ResultRow]

    def metric(self, condition: str, seed: int) -> float:
        for r in self.rows:
            if r.condition == condition and r.seed == seed:
                return r.micro_f1
        raise KeyError((condition, seed))

    def summary(self) -> dict[str, tuple[float, float]]:
        """condition -> (mean, sample std) of micro-F1 across seeds."""
        vals = {cond: [r.micro_f1 for r in self.rows if r.condition == cond] for cond in CONDITIONS}
        return {cond: _mean_std(v) for cond, v in vals.items() if v}


def _mean_std(values: list[float]) -> tuple[float, float]:
    """Mean and sample std (0 for a single value)."""
    return float(np.mean(values)), float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


def run_conditions(exp: ExperimentConfig) -> ConditionResults:
    """The comparison table: every condition for every pipeline seed, from
    run_all in a scratch directory."""
    with tempfile.TemporaryDirectory() as tmp:
        return run_all(exp, Path(tmp), exp.seeds)


# ---------------------------------------------------------------------------
# file-based stages (the CLI surface)


def run_generate(exp: ExperimentConfig, out_dir: Path, seeds: tuple[int, ...]) -> None:
    for seed in seeds:
        gen_cfg, g, events, task = build_world(exp, seed)
        sdir = seed_dir(out_dir, seed)
        sdir.mkdir(parents=True, exist_ok=True)
        graph.save_graph(g, sdir)
        graph.save_events(events, sdir / "events.tsv")
        synthetic.save_task_features(task, sdir / "task_features.tsv")
        synthetic.save_gen_config(gen_cfg, sdir / "gen.config")


def _pretrain_one(sdir: Path, variant: str, cfg: TrainConfig, tokens: tuple[int, int]) -> None:
    """One pre-training run on the world in sdir, writing the variant's
    checkpoint and log. tokens is the (read, write) pipe of spare CPUs, one
    byte each: the run takes one, without blocking, when pretrain asks for a
    spare CPU, and writes it back when pretrain returns."""
    taken = []

    def spare_cpu() -> bool:
        try:
            taken.append(os.read(tokens[0], 1))
        except BlockingIOError:
            return False
        return True

    try:
        params, history = hgmae.pretrain(graph.load_graph(sdir), cfg, spare_cpu)
    finally:
        os.write(tokens[1], b"".join(taken))
    save_checkpoint(params, cfg, sdir / f"checkpoint_{variant}.tsv")
    hgmae.save_pretrain_log(history, sdir / f"pretrain_log_{variant}.tsv")


def run_pretrain(exp: ExperimentConfig, out_dir: Path, seeds: tuple[int, ...]) -> None:
    """Pre-train the subgraph-aware model and the eta=0 ablation on each world.

    Each (seed, variant) run is one task in a pool of forked workers, one
    per usable CPU at most; the longer hgmae runs are queued first. Every
    other usable CPU is a one-byte token on a pipe: the surplus at the
    start, and one more each time a worker finishes a task with none left
    in the queue. A run with at least two terms per step reads a token at an
    epoch boundary, if one is there, to fork a replica (hgmae.pretrain), and
    writes it back when it ends. On the first failed task the queued ones
    are cancelled and its exception is re-raised here, after the pool has
    joined every worker; a worker that dies without one raises
    ChildProcessError.
    """
    # imported here, not at the top: they add about 30 ms and 2 MB to every
    # `import riskprop`, and only this stage uses them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    tasks = [
        (seed_dir(out_dir, seed), variant, dataclasses.replace(exp.pretrain, rng_seed=seed, eta=eta))
        for variant, eta in (("hgmae", exp.pretrain.eta), ("eta0", 0.0))
        for seed in seeds
    ]
    cpus = len(os.sched_getaffinity(0))
    workers = min(len(tasks), cpus)
    tokens = os.pipe()
    os.set_blocking(tokens[0], False)
    try:
        os.write(tokens[1], b"+" * (cpus - workers))
        # fork, not spawn: a spawn pool starts a resource-tracker process that
        # stays alive after the pool has shut down
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(_pretrain_one, *task, tokens) for task in tasks]
            try:
                for done, future in enumerate(as_completed(futures), 1):
                    future.result()
                    if len(tasks) - done < workers:  # its worker has no task left
                        os.write(tokens[1], b"+")
            except BrokenProcessPool as exc:
                raise ChildProcessError("a pretrain worker exited abruptly") from exc
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    finally:
        os.close(tokens[0])
        os.close(tokens[1])


def run_embed(exp: ExperimentConfig, out_dir: Path, seeds: tuple[int, ...]) -> None:
    for seed in seeds:
        sdir = seed_dir(out_dir, seed)
        g = graph.load_graph(sdir)
        for name in ("hgmae", "eta0"):
            path = sdir / f"checkpoint_{name}.tsv"
            params, _ = load_checkpoint(path)
            try:
                emb = hgmae.infer_embeddings(g, params)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
            hgmae.save_embeddings(emb, sdir / f"embeddings_{name}.tsv")


def run_pairs(exp: ExperimentConfig, out_dir: Path, seeds: tuple[int, ...]) -> None:
    for seed in seeds:
        sdir = seed_dir(out_dir, seed)
        g = graph.load_graph(sdir)
        events = graph.load_events(sdir / "events.tsv", g.num_nodes)
        pairs = pairs_mod.build_pairs(g, events, exp.pairs.n_hops, seed=seed)
        split = pairs_mod.split_pairs(pairs, exp.pairs.train_frac, seed=seed)
        pairs_mod.save_pairs(split, sdir / "pairs.tsv")


def _fusion_fn(sdir: Path, cond: str):
    """The condition's fusion function over the seed's task features and embeddings."""
    task = synthetic.load_task_features(sdir / "task_features.tsv")
    if cond == "task_only":  # zero-width embeddings, one row per id up to the largest task id
        emb = np.zeros((max(task, default=-1) + 1, 0))
    else:
        emb = hgmae.load_embeddings(sdir / f"embeddings_{cond}.tsv")
    return classify.make_fusion_fn(task, emb)


def run_train(exp: ExperimentConfig, out_dir: Path, seeds: tuple[int, ...]) -> None:
    for seed in seeds:
        sdir = seed_dir(out_dir, seed)
        split = pairs_mod.load_pairs(sdir / "pairs.tsv")
        for cond in CONDITIONS:
            model = classify.train_classifier(split, _fusion_fn(sdir, cond), exp.classifier)
            classify.save_classifier(model, sdir / f"classifier_{cond}.tsv")


def run_evaluate(exp: ExperimentConfig, out_dir: Path, seeds: tuple[int, ...]) -> ConditionResults:
    rows = []
    for seed in seeds:
        sdir = seed_dir(out_dir, seed)
        split = pairs_mod.load_pairs(sdir / "pairs.tsv")
        for cond in CONDITIONS:
            path = sdir / f"classifier_{cond}.tsv"
            model = classify.load_classifier(path)
            fusion_fn = _fusion_fn(sdir, cond)  # its loaders name their own files
            try:
                m = classify.evaluate(model, split.test, fusion_fn)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
            rows.append(ResultRow(cond, seed, m["micro_f1"], m["accuracy"], m["auc"]))
    results = ConditionResults(rows=rows)
    write_table(out_dir / "results.tsv", RESULTS, list(zip(*_results_rows(results))))
    atomic_write_text(out_dir / "summary.txt", [summary_text(results)])
    return results


RESULTS = (
    ("condition", str), ("seed", str), ("micro_f1", float), ("accuracy", float), ("auc", float)
)


def _results_rows(results: ConditionResults) -> list[tuple]:
    """Per-seed rows by condition, then a mean and a std row per condition."""
    metrics = ("micro_f1", "accuracy", "auc")
    groups = {cond: [r for r in results.rows if r.condition == cond] for cond in CONDITIONS}
    rows = [(c, str(r.seed), *(getattr(r, m) for m in metrics)) for c in groups for r in groups[c]]
    for cond, group in groups.items():
        if group:
            mean, std = zip(*(_mean_std([getattr(r, m) for r in group]) for m in metrics))
            rows += [(cond, "mean", *mean), (cond, "std", *std)]
    return rows


def summary_text(results: ConditionResults) -> str:
    summ = results.summary()
    lines = ["condition      mean micro-F1   std"]
    for cond in CONDITIONS:
        if cond in summ:
            mean, std = summ[cond]
            lines.append(f"{cond:<14} {mean:<15.4f} {std:.4f}")
    if "hgmae" in summ and "task_only" in summ:
        lines.append("")
        lines.append(f"embedding uplift (hgmae - task_only): {summ['hgmae'][0] - summ['task_only'][0]:+.4f}")
    if "hgmae" in summ and "eta0" in summ:
        lines.append(f"subgraph-term effect (hgmae - eta0):  {summ['hgmae'][0] - summ['eta0'][0]:+.4f}")
    return "\n".join(lines) + "\n"


def run_all(exp: ExperimentConfig, out_dir: Path, seeds: tuple[int, ...]) -> ConditionResults:
    run_generate(exp, out_dir, seeds)
    run_pretrain(exp, out_dir, seeds)
    run_embed(exp, out_dir, seeds)
    run_pairs(exp, out_dir, seeds)
    run_train(exp, out_dir, seeds)
    return run_evaluate(exp, out_dir, seeds)
