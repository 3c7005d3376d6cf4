import multiprocessing
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from riskprop import hgmae
from riskprop.graph import HeteroGraph
from riskprop.hgmae import ModelParams, TrainConfig, init_params

# one line per acceptance criterion, printed after the run (see test_acceptance)
ACCEPTANCE_LINES: list[str] = []


def numpy_build() -> str:
    """numpy's version and the BLAS it was built against: the bit-identity
    references were recorded with one build, and another may move a bit."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = "unknown"
    return f"numpy {np.__version__}, BLAS {blas}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    terminalreporter.write_line(numpy_build())
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


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


def assert_no_child_left() -> None:
    """No child of this process is alive or unreaped: no pool worker, no
    pretrain replica, no zombie."""
    assert multiprocessing.active_children() == []
    if sys.platform == "linux":
        assert child_pids() == []
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError("a child process is left")


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test ends with no child process left."""
    yield
    assert_no_child_left()


def traced_peak(fn):
    """fn()'s result, and the tracemalloc peak in bytes while it ran above
    what was traced as held when it was called."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def record_fork_epochs(monkeypatch, mark) -> None:
    """Make pretrain call mark(epoch) with the epoch it forks a replica at,
    in whichever process forks it; forked pool workers inherit the patch."""
    real_replica = hgmae._Replica

    def fork(terms, cfg):
        mark(sys._getframe(1).f_locals["epoch"])  # pretrain's epoch loop
        return real_replica(terms, cfg)

    monkeypatch.setattr(hgmae, "_Replica", fork)


def make_graph(n, edge_lists, d_in=4, issuers=None, seed=0):
    rng = np.random.default_rng(seed)
    flags = np.zeros(n, dtype=bool)
    if issuers is not None:
        flags[list(issuers)] = True
    return HeteroGraph(
        node_features=rng.standard_normal((n, d_in)),
        edge_lists={k: np.array(e, dtype=np.int64).reshape(-1, 2) for k, e in edge_lists.items()},
        edge_type_names=[f"rel-{k}" for k in sorted(edge_lists)],
        issuer_flags=flags,
    )


@pytest.fixture
def two_type_graph():
    """12 nodes, a type-0 ring plus type-1 chords; the gradient-check workhorse."""
    ring = [(i, (i + 1) % 12) for i in range(12)]
    chords = [(0, 6), (2, 9), (4, 10), (1, 7)]
    return make_graph(12, {0: ring, 1: chords}, d_in=6, issuers=[0, 3, 6, 9], seed=3)


@pytest.fixture
def tiny_cfg():
    return TrainConfig(d_emb=5, epochs=8, hidden_heads=2, hidden_head_dim=4, rng_seed=7)


def randomize_tokens(params: ModelParams, rng: np.random.Generator, scale: float = 0.2) -> None:
    """Move the zero-initialized tokens to a generic point so the loss is
    differentiable everywhere the finite-difference probe lands."""
    params.mask_token += scale * rng.standard_normal(params.mask_token.shape)
    params.remask_token += scale * rng.standard_normal(params.remask_token.shape)


def fresh_params(g, cfg, seed=11, tokens_randomized=True):
    rng = np.random.default_rng(seed)
    params = init_params(g.d_in, cfg, rng)
    if tokens_randomized:
        randomize_tokens(params, rng)
    return params
