"""Tests of the benchmark itself: run with `python3 -m pytest -q benchmarks`.

The exact-count test runs every workload traced, twice, in fresh processes,
so this file takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402
from riskprop.graph import DefaultEvent  # noqa: E402
from riskprop.pairs import PairDatasetSplit, PropagationPair  # noqa: E402
from workloads import check_pairs  # noqa: E402

# per-layer metrics that are counts or deterministic results, not times
EXACT_UNITS = {"count", "ratio", "bytes", "loss"}
NOT_EXACT = {"trace.overhead_ratio"}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_benchmark_json_matches_metric_tables():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == run.spec()


@pytest.mark.parametrize("workload", [name for name, _ in run.WORKLOADS])
def test_exact_counts_repeat_across_runs(workload):
    results = []
    for _ in range(2):
        proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        results.append(result["metrics"])
    exact = [
        m["name"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        if m["unit"] in EXACT_UNITS and m["name"] not in NOT_EXACT
    ]
    assert exact
    first, second = results
    assert set(first) == set(second) == {m for m, _, _ in tracer.per_layer_spec()}
    for name in exact:
        assert first[name]["value"] == second[name]["value"], name


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "world-4k", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_check_pairs_flags_each_broken_rule():
    issuer = [True, True, True, False]
    events = [DefaultEvent(0, 0), DefaultEvent(1, 1), DefaultEvent(2, 1)]

    def problems(*pairs):
        split = PairDatasetSplit(train=list(pairs), test=[], split_seed=0)
        return check_pairs(split, events, issuer, n_hops=3)

    assert problems(PropagationPair(0, 1, 1, 1), PropagationPair(1, 2, 0, 2)) == []
    assert problems(PropagationPair(0, 3, 0, 1))  # target is no issuer
    assert problems(PropagationPair(0, 0, 0, 1))  # source is the target
    assert problems(PropagationPair(0, 1, 1, 4))  # hop beyond n_hops
    assert problems(PropagationPair(0, 1, 0, 1))  # target defaulted later: black
    assert problems(PropagationPair(1, 2, 1, 1))  # same tick: white


def test_absent_lookup_sites_read_zero_instead_of_failing():
    empty = types.SimpleNamespace()
    numpy_stub = types.SimpleNamespace(random=types.SimpleNamespace())
    modules = {name: empty for name in ("autodiff", "checkpoint", "classify", "experiment", "gat",
                                        "graph", "hgmae", "optim", "pairs", "synthetic")}
    t = tracer.Tracer({**modules, "numpy": numpy_stub})
    t.install()
    t.uninstall()
    assert t.absent == set(tracer.SITES)
    with t.root("iteration") as root:
        pass
    metrics = tracer.per_layer_metrics(t, [root])
    assert all(v == 0.0 for v in metrics.values())
