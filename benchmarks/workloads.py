"""The benchmark's three workloads, each a closed loop of one caller.

A workload is built from the checkout's config and the benchmark seed by
`setup`, warmed up by `warm_up`, and then driven by `iteration`, which does
one unit of user-visible work, checks its outputs and reports what it did.
Every iteration of a run repeats the same inputs, so its outputs and counts
must repeat too.

    pipeline-default  the six CLI stages on configs/default.config for one
                      pipeline seed (seed mod 10): the `run-all` a user waits
                      for; small arrays, so per-op and tape overhead dominate
    pretrain-4k       hgmae.pretrain, eta = 1, for PRETRAIN_4K_EPOCHS epochs
                      on the 4k world built from seed mod 10: large
                      gather/scatter arrays; no pair or classifier work
    world-4k          generate, cascade, save/load, pairs, classifier and
                      evaluation over the WORLD_4K_SEEDS worlds, with the pair
                      downsampling and split seeded by the benchmark seed;
                      no pretraining

The 4k world is the default config with num_nodes = 4000 and every edge
probability scaled by 200/4000, so mean degree stays that of the default
world. world-4k uses a fixed set of worlds because a world's cascade size
sets its pair count, which varies threefold between world seeds; drawing
worlds from the benchmark seed would make run time depend on the seed more
than on the code.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from riskprop import classify, experiment, graph, hgmae, pairs, synthetic

REFERENCE_SEEDS = 10
PRETRAIN_4K_EPOCHS = 4
WORLD_4K_NODES = 4000
WORLD_4K_SEEDS = (0, 1, 2)
# final_loss may move by float re-association (e.g. a different segment-sum
# order) but not by a change to what is computed
LOSS_RTOL = 1e-6
F1_ATOL = 1e-12


@dataclass
class Outcome:
    """What one iteration did. units: pipelines, epochs or worlds completed."""

    units: int = 0
    attempted: int = 0
    failed: int = 0
    quality: dict[str, float] = field(default_factory=dict)
    stage_s: dict[str, float] = field(default_factory=dict)
    bytes_written: int = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)


def _raised(outcome: Outcome, what: str) -> None:
    outcome.fail(what)
    traceback.print_exc(file=sys.stderr)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def load_reference(bench_dir: Path) -> dict:
    return json.loads((bench_dir / "reference.json").read_text())


def world_4k_config(gen: synthetic.GenConfig, world_seed: int) -> synthetic.GenConfig:
    scale = gen.num_nodes / WORLD_4K_NODES
    return dataclasses.replace(
        gen,
        num_nodes=WORLD_4K_NODES,
        intra_edge_prob=tuple(p * scale for p in gen.intra_edge_prob),
        inter_edge_prob=tuple(p * scale for p in gen.inter_edge_prob),
        rng_seed=world_seed,
    )


def check_pairs(split, events, issuer_flags: np.ndarray, n_hops: int) -> list[str]:
    """Re-check every pair: issuers only, hop in 1..n_hops, and label 1
    exactly when the target defaulted strictly after the source."""
    times = {ev.node_id: ev.default_time for ev in events}
    problems = []
    for p in list(split.train) + list(split.test):
        s, t = p.source_id, p.target_id
        if s == t or not (issuer_flags[s] and issuer_flags[t]):
            problems.append(f"pair {s}->{t}: not two distinct issuers")
        elif s not in times:
            problems.append(f"pair {s}->{t}: source never defaulted")
        elif not 1 <= p.hop_distance <= n_hops:
            problems.append(f"pair {s}->{t}: hop {p.hop_distance} outside 1..{n_hops}")
        elif p.label != int(t in times and times[t] > times[s]):
            problems.append(f"pair {s}->{t}: label {p.label} disagrees with default times")
    return problems


def warm_up(exp: experiment.ExperimentConfig, seed: int) -> None:
    """Touch every layer once on the default-size world, untimed and untraced."""
    _, g, events, task = experiment.build_world(exp, seed)
    hgmae.pretrain(g, dataclasses.replace(exp.pretrain, epochs=2))
    pair_list = pairs.build_pairs(g, events, exp.pairs.n_hops, seed=seed)
    split = pairs.split_pairs(pair_list, exp.pairs.train_frac, seed=seed)
    fusion_fn = classify.make_fusion_fn(task, np.zeros((g.num_nodes, 0)))
    model = classify.train_classifier(split, fusion_fn, exp.classifier)
    classify.evaluate(model, split.test, fusion_fn)


class Workload:
    name = ""
    unit = ""

    def __init__(self, root: Path, seed: int, scratch: Path):
        self.root = root
        self.seed = seed
        self.scratch = scratch
        self.reference = load_reference(Path(__file__).resolve().parent)
        self.exp: experiment.ExperimentConfig | None = None

    def setup(self) -> None:
        self.exp = experiment.parse_experiment_config(self.root / "configs" / "default.config")

    def warm_up(self) -> None:
        warm_up(self.exp, self.seed % REFERENCE_SEEDS)

    def iteration(self, measure_io: bool = False) -> Outcome:
        raise NotImplementedError


class PipelineDefault(Workload):
    name = "pipeline-default"
    unit = "pipelines"
    STAGES = (
        ("generate", "run_generate"),
        ("pretrain", "run_pretrain"),
        ("embed", "run_embed"),
        ("pairs", "run_pairs"),
        ("train", "run_train"),
        ("evaluate", "run_evaluate"),
    )

    def setup(self) -> None:
        super().setup()
        self.pipeline_seed = self.seed % REFERENCE_SEEDS
        experiment.build_world(self.exp, self.pipeline_seed)

    def iteration(self, measure_io: bool = False) -> Outcome:
        out = Outcome()
        seeds = (self.pipeline_seed,)
        out_dir = Path(tempfile.mkdtemp(prefix="pipeline-", dir=self.scratch))
        try:
            results = None
            for stage, fn_name in self.STAGES:
                out.attempted += 1
                t0 = time.perf_counter()
                try:
                    results = getattr(experiment, fn_name)(self.exp, out_dir, seeds)
                except Exception:
                    _raised(out, f"{self.name}: stage {stage}")
                    break
                out.stage_s[stage] = time.perf_counter() - t0
            else:
                out.units = 1
                expected = self.reference[self.name][str(self.pipeline_seed)]
                for cond in experiment.CONDITIONS:
                    f1 = results.metric(cond, self.pipeline_seed)
                    out.quality[f"{cond}_micro_f1"] = f1
                    if abs(f1 - expected[cond]) > F1_ATOL:
                        out.fail(f"{self.name}: {cond} micro-F1 {f1!r} != reference {expected[cond]!r}")
            if measure_io:
                out.bytes_written = _dir_bytes(out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return out


class Pretrain4k(Workload):
    name = "pretrain-4k"
    unit = "epochs"

    def setup(self) -> None:
        super().setup()
        self.world_seed = self.seed % REFERENCE_SEEDS
        self.graph = synthetic.generate_graph(world_4k_config(self.exp.gen, self.world_seed))
        self.cfg = dataclasses.replace(
            self.exp.pretrain, eta=1.0, epochs=PRETRAIN_4K_EPOCHS, rng_seed=self.world_seed
        )

    def iteration(self, measure_io: bool = False) -> Outcome:
        out = Outcome(attempted=1)
        try:
            _, history = hgmae.pretrain(self.graph, self.cfg)
        except Exception:
            _raised(out, f"{self.name}: pretrain")
            return out
        losses = [st.loss_total for st in history]
        final = losses[-1]
        out.quality["final_loss"] = final
        expected = self.reference[self.name][str(self.world_seed)]
        if len(losses) != self.cfg.epochs or not all(math.isfinite(x) for x in losses):
            out.fail(f"{self.name}: losses not finite or wrong count: {losses}")
        elif not math.isclose(final, expected, rel_tol=LOSS_RTOL):
            out.fail(f"{self.name}: final_loss {final!r} != reference {expected!r}")
        else:
            out.units = len(losses)
        return out


class World4k(Workload):
    name = "world-4k"
    unit = "worlds"

    def iteration(self, measure_io: bool = False) -> Outcome:
        out = Outcome()
        f1s = []
        for world_seed in WORLD_4K_SEEDS:
            out.attempted += 1
            world_dir = Path(tempfile.mkdtemp(prefix="world-", dir=self.scratch))
            try:
                f1 = self._one_world(world_seed, world_dir)
                if measure_io:
                    out.bytes_written += _dir_bytes(world_dir)
            except Exception:
                _raised(out, f"{self.name}: world {world_seed}")
                continue
            finally:
                shutil.rmtree(world_dir, ignore_errors=True)
            if isinstance(f1, str):
                out.fail(f"{self.name}: world {world_seed}: {f1}")
            else:
                f1s.append(f1)
                out.units += 1
        if f1s:
            out.quality["task_only_micro_f1"] = float(np.mean(f1s))
        return out

    def _one_world(self, world_seed: int, world_dir: Path):
        """Stage-2 path for one world; micro-F1, or a string naming a failed check."""
        gen = world_4k_config(self.exp.gen, world_seed)
        g = synthetic.generate_graph(gen)
        events = synthetic.simulate_cascade(g, gen)
        task = synthetic.task_feature_table(g, synthetic.attach_task_features(g, events, gen))
        graph.save_graph(g, world_dir)
        graph.save_events(events, world_dir / "events.tsv")
        g = graph.load_graph(world_dir)
        events = graph.load_events(world_dir / "events.tsv")
        n_hops = self.exp.pairs.n_hops
        pair_list = pairs.build_pairs(g, events, n_hops, seed=self.seed)
        split = pairs.split_pairs(pair_list, self.exp.pairs.train_frac, seed=self.seed)
        problems = check_pairs(split, events, g.issuer_flags, n_hops)
        if len(split.train) + len(split.test) != len(pair_list):
            problems.append("split does not partition the pairs")
        if problems:
            return f"{len(problems)} bad pair(s), first: {problems[0]}"
        fusion_fn = classify.make_fusion_fn(task, np.zeros((g.num_nodes, 0)))
        model = classify.train_classifier(split, fusion_fn, self.exp.classifier)
        return classify.evaluate(model, split.test, fusion_fn)["micro_f1"]


WORKLOADS = {w.name: w for w in (PipelineDefault, Pretrain4k, World4k)}
