"""The pretrain stage's worker pool: byte-identical outputs at any worker
count and whichever runs get a spare CPU, no process left behind, whether
the stage succeeds or fails, and no pool module loaded by `import
riskprop`."""

import dataclasses
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from riskprop import hgmae
from riskprop.autodiff import NumericFault
from riskprop.checkpoint import save_checkpoint
from riskprop.experiment import (
    CONDITIONS,
    parse_experiment_config,
    run_embed,
    run_evaluate,
    run_generate,
    run_pairs,
    run_pretrain,
    run_train,
    seed_dir,
)
from riskprop.graph import GraphFormatError, load_graph

REPO_ROOT = Path(__file__).resolve().parent.parent
SMOKE = REPO_ROOT / "configs" / "smoke.config"
VARIANTS = ("hgmae", "eta0")


def child_pids() -> list[int]:
    """Every live or unreaped child of this process: the /proc entries whose
    parent pid is ours."""
    me, found = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            with open(entry / "stat") as f:
                stat = f.read()
        except OSError:  # exited while we looked
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and parentheses
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry.name))
    return found


def assert_no_children() -> None:
    assert multiprocessing.active_children() == []
    if sys.platform == "linux":
        assert child_pids() == []


@pytest.fixture(scope="module")
def smoke():
    return parse_experiment_config(SMOKE)


@pytest.fixture(scope="module")
def worlds(smoke, tmp_path_factory):
    out = tmp_path_factory.mktemp("worlds")
    run_generate(smoke, out, smoke.seeds)
    return out


@pytest.fixture(scope="module")
def in_process_bytes(smoke, worlds, tmp_path_factory):
    """Each (seed, variant)'s checkpoint and log, pre-trained in this process."""
    out = tmp_path_factory.mktemp("in_process")
    files = {}
    for seed in smoke.seeds:
        g = load_graph(seed_dir(worlds, seed))
        main = dataclasses.replace(smoke.pretrain, rng_seed=seed)
        for variant, cfg in zip(VARIANTS, (main, dataclasses.replace(main, eta=0.0))):
            params, history = hgmae.pretrain(g, cfg)
            ckpt, log = out / f"ckpt_{seed}_{variant}", out / f"log_{seed}_{variant}"
            save_checkpoint(params, cfg, ckpt)
            hgmae.save_pretrain_log(history, log)
            files[seed, variant] = (ckpt.read_bytes(), log.read_bytes())
    return files


def pretrained_copy(smoke, worlds, out: Path, seeds=None) -> Path:
    shutil.copytree(worlds, out)
    run_pretrain(smoke, out, smoke.seeds if seeds is None else seeds)
    return out


def assert_bytes_match(smoke, out: Path, expected, seeds=None) -> None:
    for seed in smoke.seeds if seeds is None else seeds:
        sdir = seed_dir(out, seed)
        for variant in VARIANTS:
            got = (
                (sdir / f"checkpoint_{variant}.tsv").read_bytes(),
                (sdir / f"pretrain_log_{variant}.tsv").read_bytes(),
            )
            assert got == expected[seed, variant], (seed, variant)


def test_run_pretrain_bytes_equal_in_process_and_no_process_left(
    smoke, worlds, in_process_bytes, tmp_path
):
    assert len(smoke.seeds) * len(VARIANTS) == 4
    out = pretrained_copy(smoke, worlds, tmp_path / "out")
    assert_bytes_match(smoke, out, in_process_bytes)
    assert_no_children()


def test_run_pretrain_one_worker_bytes_equal(
    monkeypatch, smoke, worlds, in_process_bytes, tmp_path
):
    """With one usable CPU the pool has one worker, which runs all four tasks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    out = pretrained_copy(smoke, worlds, tmp_path / "out")
    assert_bytes_match(smoke, out, in_process_bytes)
    assert_no_children()


def record_forks(monkeypatch, marks: Path) -> None:
    """Make every replica fork, in any process, leave a file under marks
    named for the steps it runs; the forked workers inherit the patch."""
    marks.mkdir()
    real_fork = hgmae._fork_replica

    def fork(*args):
        (marks / str(args[-1])).touch()
        return real_fork(*args)

    monkeypatch.setattr(hgmae, "_fork_replica", fork)


def test_surplus_cpu_goes_to_the_hgmae_run_at_its_first_epoch(
    monkeypatch, smoke, worlds, in_process_bytes, tmp_path
):
    """One seed on three CPUs: two workers, and one token from the start,
    which the hgmae run takes at epoch 1; eta0 has one term per step and
    takes none."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    record_forks(monkeypatch, tmp_path / "forks")
    out = pretrained_copy(smoke, worlds, tmp_path / "out", seeds=(0,))
    assert sorted(p.name for p in (tmp_path / "forks").iterdir()) == [str(smoke.pretrain.epochs)]
    assert_bytes_match(smoke, out, in_process_bytes, seeds=(0,))
    assert_no_children()


def test_a_worker_with_no_task_left_hands_its_cpu_to_a_running_run(
    monkeypatch, smoke, worlds, in_process_bytes, tmp_path
):
    """One seed on two CPUs: no token at the start; the hgmae run waits
    for the one the eta0 run's worker hands over when it finishes, and
    forks a replica with it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    record_forks(monkeypatch, tmp_path / "forks")
    real_pretrain = hgmae.pretrain

    def waiting_pretrain(g, cfg, spare_cpu):
        if cfg.eta != 0.0:
            deadline = time.monotonic() + 60
            while not spare_cpu():
                assert time.monotonic() < deadline, "no spare CPU came"
                time.sleep(0.01)
            return real_pretrain(g, cfg, lambda: True)
        return real_pretrain(g, cfg, spare_cpu)

    monkeypatch.setattr(hgmae, "pretrain", waiting_pretrain)
    out = pretrained_copy(smoke, worlds, tmp_path / "out", seeds=(0,))
    assert sorted(p.name for p in (tmp_path / "forks").iterdir()) == [str(smoke.pretrain.epochs)]
    assert_bytes_match(smoke, out, in_process_bytes, seeds=(0,))
    assert_no_children()


def test_run_pretrain_fault_names_epoch_and_stage(monkeypatch, smoke, worlds, tmp_path):
    """The workers are forked, so they inherit the poisoned Adam step; the
    first fault reaches the caller, and no worker outlives the stage."""
    real_adam_step = hgmae.adam_step
    updates = []

    def poisoning_adam_step(state, tensors, grads):
        real_adam_step(state, tensors, grads)
        updates.append(1)
        if len(updates) == 2:
            tensors["encoder.0.head1.W"][0, 0] = np.nan

    monkeypatch.setattr(hgmae, "adam_step", poisoning_adam_step)
    with pytest.raises(NumericFault, match=r"^epoch 3: non-finite output from gat_head$"):
        pretrained_copy(smoke, worlds, tmp_path / "out")
    assert_no_children()


def test_run_pairs_names_the_events_line_of_an_unknown_node(smoke, worlds, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(worlds, out)
    events = seed_dir(out, smoke.seeds[0]) / "events.tsv"
    lines = events.read_text().splitlines() + ["999\t0"]
    assert load_graph(events.parent).num_nodes <= 999 and len(lines) == 35
    events.write_text("\n".join(lines) + "\n")
    with pytest.raises(GraphFormatError) as err:
        run_pairs(smoke, out, smoke.seeds)
    assert str(err.value) == f"{events}:35: event references unknown node id 999"


def test_train_and_evaluate_read_no_graph_file(smoke, worlds, tmp_path):
    """task_only sizes its zero-width embeddings from the task table, so the
    last two stages write the same files with nodes.tsv gone."""
    present = pretrained_copy(smoke, worlds, tmp_path / "present")
    run_embed(smoke, present, smoke.seeds)
    run_pairs(smoke, present, smoke.seeds)
    deleted = tmp_path / "deleted"
    shutil.copytree(present, deleted)
    for seed in smoke.seeds:
        (seed_dir(deleted, seed) / "nodes.tsv").unlink()
    for out in (present, deleted):
        run_train(smoke, out, smoke.seeds)
        run_evaluate(smoke, out, smoke.seeds)
    classifiers = [f"classifier_{cond}.tsv" for cond in CONDITIONS]
    written = [Path("results.tsv")] + [seed_dir("", s) / c for s in smoke.seeds for c in classifiers]
    for rel in written:
        assert (deleted / rel).read_bytes() == (present / rel).read_bytes(), rel


def test_import_riskprop_leaves_the_pool_modules_unimported():
    """run_pretrain imports its pool modules when it runs, so a fresh
    `import riskprop` (every CLI command) does not load them."""
    pool = ("multiprocessing", "concurrent.futures")
    code = f"import sys, riskprop; print([m for m in {pool!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "[]\n"
