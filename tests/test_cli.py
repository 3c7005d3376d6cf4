import os
import subprocess
import sys
from pathlib import Path

import pytest

from riskprop import experiment
from riskprop.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SMOKE = REPO_ROOT / "configs" / "smoke.config"

SEED_FILES = [
    "nodes.tsv",
    "edges.tsv",
    "events.tsv",
    "task_features.tsv",
    "gen.config",
    "checkpoint_hgmae.tsv",
    "checkpoint_eta0.tsv",
    "pretrain_log_hgmae.tsv",
    "pretrain_log_eta0.tsv",
    "embeddings_hgmae.tsv",
    "embeddings_eta0.tsv",
    "pairs.tsv",
    "classifier_task_only.tsv",
    "classifier_hgmae.tsv",
    "classifier_eta0.tsv",
]


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "riskprop", *args], capture_output=True, text=True
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.stderr}\n{proc.stdout}")
    return proc


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def run_all_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("runall")
    run_cli("run-all", "--config", str(SMOKE), "--out", str(out), "--quiet")
    return out


def test_run_all_writes_expected_artifacts(run_all_dir):
    for seed in (0, 1):
        for name in SEED_FILES:
            assert (run_all_dir / f"seed_{seed}" / name).exists(), name
    assert (run_all_dir / "results.tsv").exists()
    assert (run_all_dir / "summary.txt").exists()


def test_results_file_shape(run_all_dir):
    lines = (run_all_dir / "results.tsv").read_text().splitlines()
    assert lines[0] == "condition\tseed\tmicro_f1\taccuracy\tauc"
    body = [l.split("\t") for l in lines[1:]]
    per_seed = [r for r in body if r[1] not in ("mean", "std")]
    assert len(per_seed) == 6  # 3 conditions x 2 seeds
    for row in per_seed:
        assert 0.0 <= float(row[2]) <= 1.0
    assert sum(1 for r in body if r[1] == "mean") == 3
    assert sum(1 for r in body if r[1] == "std") == 3


def test_run_all_is_bytewise_deterministic(run_all_dir, tmp_path):
    again = tmp_path / "again"
    run_cli("run_all", "--config", str(SMOKE), "--out", str(again), "--quiet")
    assert tree_bytes(again) == tree_bytes(run_all_dir)


def test_stagewise_composition_equals_run_all(run_all_dir, tmp_path):
    out = tmp_path / "stages"
    for stage in ("generate", "pretrain", "embed", "pairs", "train", "evaluate"):
        run_cli(stage, "--config", str(SMOKE), "--out", str(out), "--quiet")
    assert tree_bytes(out) == tree_bytes(run_all_dir)


def test_embed_before_pretrain_reports_missing_checkpoint(tmp_path):
    out = tmp_path / "nocheckpoint"
    run_cli("generate", "--config", str(SMOKE), "--out", str(out), "--quiet")
    proc = run_cli("embed", "--config", str(SMOKE), "--out", str(out), "--quiet", check=False)
    assert proc.returncode == 1
    assert "checkpoint not found" in proc.stderr


def test_embed_with_a_checkpoint_of_another_width_names_it(tmp_path):
    out = tmp_path / "regenerated"
    narrow = tmp_path / "narrow.config"
    narrow.write_text(SMOKE.read_text().replace("gen.d_in=16", "gen.d_in=8"))
    for stage, config in (("generate", SMOKE), ("pretrain", SMOKE), ("generate", narrow)):
        run_cli(stage, "--config", str(config), "--out", str(out), "--seed", "0", "--quiet")
    proc = run_cli(
        "embed", "--config", str(narrow), "--out", str(out), "--seed", "0", "--quiet",
        check=False,
    )
    assert proc.returncode == 1
    checkpoint = out / "seed_0" / "checkpoint_hgmae.tsv"
    assert proc.stderr == (
        f"error: {checkpoint}: model takes 16 features per node, graph has 8\n"
    )


def test_stage_without_artifacts_fails_cleanly(tmp_path):
    proc = run_cli(
        "pretrain", "--config", str(SMOKE), "--out", str(tmp_path / "empty"), "--quiet",
        check=False,
    )
    assert proc.returncode == 1
    assert "not found" in proc.stderr


def test_seed_override_limits_work(tmp_path):
    out = tmp_path / "single"
    run_cli("generate", "--config", str(SMOKE), "--out", str(out), "--seed", "1", "--quiet")
    assert (out / "seed_1" / "nodes.tsv").exists()
    assert not (out / "seed_0").exists()


def test_negative_seed_override_names_seeds(tmp_path, capsys):
    assert main(["generate", "--out", str(tmp_path), "--seed", "-3"]) == 1
    assert capsys.readouterr().err == "error: seeds must be >= 0, got -3\n"
    assert not any(tmp_path.iterdir())


def exit_abruptly(*_):
    """A pretrain task whose worker process dies without raising."""
    os._exit(3)


def test_dead_pretrain_worker_is_reported_as_an_error(tmp_path, monkeypatch, capfd):
    # the forked workers inherit the patch
    monkeypatch.setattr(experiment, "_pretrain_one", exit_abruptly)
    assert main(["run-all", "--config", str(SMOKE), "--out", str(tmp_path), "--quiet"]) == 1
    assert capfd.readouterr().err == "error: a pretrain worker exited abruptly\n"


def test_bad_config_lists_problems(tmp_path):
    cfg = tmp_path / "bad.config"
    cfg.write_text("gen.num_nodes=zero\npretrain.lr=-1\n")
    proc = run_cli("generate", "--config", str(cfg), check=False)
    assert proc.returncode == 1
    assert "gen.num_nodes" in proc.stderr and "lr" in proc.stderr


def test_each_command_prints_its_line(tmp_path, capsys):
    out = tmp_path / "printed"
    common = ["--config", str(SMOKE), "--out", str(out)]
    lines = {
        "generate": f"generated 2 world(s) under {out}\n",
        "pretrain": "pre-trained checkpoints for seeds [0, 1]\n",
        "embed": "wrote embeddings for seeds [0, 1]\n",
        "pairs": "built pairs for seeds [0, 1]\n",
        "train": "trained classifiers for seeds [0, 1]\n",
    }
    for command, line in lines.items():
        assert main([command, *common]) == 0
        assert capsys.readouterr().out == line
    assert main(["evaluate", *common]) == 0
    summary = (out / "summary.txt").read_text() + "\n"
    assert capsys.readouterr().out == summary
    for command in ("run-all", "run_all"):
        assert main([command, *common]) == 0
        assert capsys.readouterr().out == summary
    assert main(["generate", *common, "--seed", "1"]) == 0
    assert capsys.readouterr().out == f"generated 1 world(s) under {out}\n"
    assert main(["train", *common, "--quiet"]) == 0
    assert capsys.readouterr().out == ""
