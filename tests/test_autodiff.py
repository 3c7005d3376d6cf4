"""The generic tape of tests/tape.py (the oracle for the hand-written
gradients), grad_check, and Adam."""

import ast
from pathlib import Path

import numpy as np
import pytest

from riskprop import autodiff
from riskprop.optim import AdamState, adam_step

import tape as ad
from oracles import column_loop_segment_sum
from tape import NumericFault, Tensor, backward, grad_check


def run_check(build_loss, params, h=1e-6, tol=1e-6):
    """FD-check the tape gradients of build_loss(dict of Tensors) -> scalar."""
    tensors = {k: Tensor(v) for k, v in params.items()}
    loss = build_loss(tensors)
    backward(loss)
    analytic = {
        k: (t.grad if t.grad is not None else np.zeros_like(t.data)) for k, t in tensors.items()
    }

    def loss_fn():
        return build_loss({k: Tensor(v) for k, v in params.items()}).item()

    report = grad_check(loss_fn, params, analytic, h=h, tol=tol)
    assert report.passed, (report.worst_param, report.worst_index, report.max_rel_err)


RNG = np.random.default_rng(0)
IDX = np.array([2, 0, 3, 3, 1])
SET_IDX = np.array([1, 3])

OP_CASES = {
    "matmul": (
        lambda t: ad.total_sum(ad.mul(ad.matmul(t["a"], t["b"]), ad.matmul(t["a"], t["b"]))),
        {"a": RNG.standard_normal((3, 4)), "b": RNG.standard_normal((4, 2))},
    ),
    "transpose": (
        lambda t: ad.total_sum(ad.exp(ad.matmul(t["a"], ad.transpose(t["a"])))),
        {"a": 0.3 * RNG.standard_normal((3, 3))},
    ),
    "add_scale": (
        lambda t: ad.total_sum(ad.scale_shift(ad.add(t["a"], t["b"]), 2.5, -1.0)),
        {"a": RNG.standard_normal(5), "b": RNG.standard_normal(5)},
    ),
    "mul_div": (
        lambda t: ad.total_sum(ad.div(ad.mul(t["a"], t["a"]), t["b"])),
        {"a": RNG.standard_normal(6), "b": 2.0 + RNG.random(6)},
    ),
    "sqrt_power": (
        lambda t: ad.total_sum(ad.power(ad.sqrt(t["a"]), 1.5)),
        {"a": 0.5 + RNG.random(7)},
    ),
    "rowsum_matvec": (
        lambda t: ad.total_sum(ad.mul(ad.rowsum(t["a"]), ad.matvec(t["a"], t["v"]))),
        {"a": RNG.standard_normal((4, 3)), "v": RNG.standard_normal(3)},
    ),
    "colmul": (
        lambda t: ad.total_sum(ad.colmul(t["v"], t["a"])),
        {"v": RNG.standard_normal(4), "a": RNG.standard_normal((4, 2))},
    ),
    "gather_scatter": (
        lambda t: ad.total_sum(
            ad.mul(s := ad.scatter_sum(ad.gather_rows(t["a"], IDX), IDX, 4), s)
        ),
        {"a": RNG.standard_normal((4, 2))},
    ),
    "set_rows_repeat": (
        lambda t: ad.total_sum(
            ad.exp(ad.set_rows(t["a"], SET_IDX, ad.repeat_row(t["v"], 2)))
        ),
        {"a": 0.3 * RNG.standard_normal((4, 3)), "v": 0.3 * RNG.standard_normal(3)},
    ),
    "concat_slice": (
        lambda t: ad.total_sum(
            ad.concat_cols([t["a"], ad.colmul(ad.slice1d(t["v"], 1, 4), t["a"])])
        ),
        {"a": RNG.standard_normal((3, 2)), "v": RNG.standard_normal(5)},
    ),
    "leaky_relu": (
        lambda t: ad.total_sum(ad.leaky_relu(t["a"], 0.2)),
        {"a": RNG.standard_normal(20) + np.where(RNG.standard_normal(20) > 0, 0.1, -0.1)},
    ),
    "elu": (
        lambda t: ad.total_sum(ad.mul(e := ad.elu(t["a"]), e)),
        {"a": RNG.standard_normal(20)},
    ),
    "add_const": (
        lambda t: ad.total_sum(ad.exp(ad.add_const(t["a"], np.arange(5.0) / 10))),
        {"a": 0.2 * RNG.standard_normal(5)},
    ),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradients_match_finite_differences(name):
    build, params = OP_CASES[name]
    run_check(build, {k: v.copy() for k, v in params.items()})


def test_non_finite_op_output_raises():
    t = Tensor(np.array([800.0]))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericFault, match="exp"):
            ad.exp(t)
    with pytest.raises(NumericFault):
        Tensor(np.array([np.inf]))


@pytest.mark.parametrize("d", [1, 3, 16])
def test_segment_sum_bit_identical_to_column_loop(d):
    rng = np.random.default_rng(d)
    idx = rng.choice([0, 2, 3, 5, 8], size=200)  # unsorted, bins 1, 4, 6, 7, 9 empty
    values = rng.standard_normal((200, d)) * 10.0 ** rng.integers(-8, 9, size=(200, d))
    got = ad._segment_sum(values, idx, 10)
    assert got.shape == (10, d)
    assert np.array_equal(got, column_loop_segment_sum(values, idx, 10))
    assert not got[[1, 4, 6, 7, 9]].any()


def test_backward_requires_scalar_root():
    with pytest.raises(ValueError, match="scalar"):
        backward(Tensor(np.zeros(3)))


def test_shape_mismatch_raises():
    with pytest.raises(ValueError, match="add shape mismatch"):
        ad.add(Tensor(np.zeros(2)), Tensor(np.zeros(3)))


def test_grad_accumulates_across_shared_subexpressions():
    a = Tensor(np.array([3.0]))
    y = ad.add(ad.mul(a, a), ad.scale_shift(a, 4.0))  # a^2 + 4a
    backward(ad.total_sum(y))
    np.testing.assert_allclose(a.grad, [10.0])


def test_linear_gradient_is_column_sum_of_inputs():
    # d/dW of sum(x @ W.T) == per-row sum of x replicated over output rows
    x = Tensor(np.arange(12.0).reshape(4, 3))
    w = Tensor(np.zeros((2, 3)))
    backward(ad.total_sum(ad.matmul(x, ad.transpose(w))))
    np.testing.assert_array_equal(w.grad, np.tile(x.data.sum(axis=0), (2, 1)))


# -- grad_check itself ------------------------------------------------------


def quadratic_setup():
    params = {"w": np.array([1.0, -2.0, 3.0])}

    def loss_fn():
        w = params["w"]
        return float(w @ w + 2.0 * w.sum())

    analytic = {"w": 2.0 * params["w"] + 2.0}
    return params, loss_fn, analytic


def test_grad_check_quadratic_is_nearly_exact():
    params, loss_fn, analytic = quadratic_setup()
    report = grad_check(loss_fn, params, analytic, h=1e-5, tol=1e-9)
    assert report.passed
    assert report.checked == 3


def test_grad_check_report_deterministic():
    params, loss_fn, analytic = quadratic_setup()
    a = grad_check(loss_fn, params, analytic)
    b = grad_check(loss_fn, params, analytic)
    assert a == b


def test_grad_check_flags_wrong_gradient():
    params, loss_fn, analytic = quadratic_setup()
    wrong = {"w": analytic["w"] + np.array([0.0, 1.0, 0.0])}
    report = grad_check(loss_fn, params, wrong, tol=1e-4)
    assert not report.passed
    assert report.worst_param == "w" and report.worst_index == 1


def test_grad_check_subsample_consistent_with_full():
    rng = np.random.default_rng(5)
    params = {"w": rng.standard_normal(30)}

    def loss_fn():
        w = params["w"]
        return float(np.sin(w).sum() + 0.5 * w @ w)

    analytic = {"w": np.cos(params["w"]) + params["w"]}
    full = grad_check(loss_fn, params, analytic, h=1e-6, tol=1e-6)
    sampled = grad_check(
        loss_fn, params, analytic, h=1e-6, tol=1e-6, sample=20, rng=np.random.default_rng(1)
    )
    assert sampled.checked == 20
    assert full.passed and sampled.passed
    assert sampled.max_rel_err <= full.max_rel_err + 1e-15


# -- Adam -------------------------------------------------------------------


def test_adam_zero_gradient_keeps_parameters():
    params = {"w": np.array([1.0, 2.0])}
    state = AdamState.for_params(params, lr=0.1)
    before = params["w"].copy()
    adam_step(state, params, {"w": np.zeros(2)})
    np.testing.assert_array_equal(params["w"], before)


def test_adam_first_step_matches_closed_form():
    # at t=1 the bias-corrected update is exactly -lr * g / (|g| + eps)
    g = np.array([0.3, -1.7, 0.0, 2.5])
    lr, eps = 0.05, 1e-8
    params = {"w": np.zeros(4)}
    state = AdamState.for_params(params, lr=lr, eps=eps)
    adam_step(state, params, {"w": g.copy()})
    expected = -lr * g / (np.abs(g) + eps)
    np.testing.assert_allclose(params["w"], expected, rtol=0, atol=1e-15)


def test_adam_matches_reference_formula_over_steps():
    # independent reference: textbook moment recursion in separate variables
    rng = np.random.default_rng(3)
    w = np.array([0.5, -0.5])
    params = {"w": w}
    state = AdamState.for_params(params, lr=0.01)
    ref = w.copy()
    m = np.zeros(2)
    v = np.zeros(2)
    for t in range(1, 6):
        g = rng.standard_normal(2)
        adam_step(state, params, {"w": g.copy()})
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref -= 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        np.testing.assert_allclose(params["w"], ref, atol=1e-14)


def test_adam_bit_deterministic():
    def run():
        params = {"w": np.array([1.0, -1.0, 0.25])}
        state = AdamState.for_params(params, lr=0.02)
        rng = np.random.default_rng(11)
        for _ in range(20):
            adam_step(state, params, {"w": rng.standard_normal(3)})
        return params["w"].tobytes()

    assert run() == run()


# -- the package computes gradients by hand only -----------------------------


def test_tape_stays_out_of_the_package():
    def defined_in(module):
        return {
            n for n, v in vars(module).items() if getattr(v, "__module__", None) == module.__name__
        }

    assert defined_in(autodiff) == {"NumericFault"}
    tape_names = defined_in(ad)
    assert {"Tensor", "backward", "grad_check", "GradCheckReport", "matmul"} <= tape_names
    for path in sorted(Path(autodiff.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        top_level = {
            node.name
            for node in tree.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        }
        assert not top_level & tape_names, (path.name, top_level & tape_names)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                assert node.name != "Tensor", path.name
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] not in ("tests", "tape", "oracles", "conftest"), (
                    path.name,
                    module,
                )

