import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mismatch_splitting.analysis import (
    error_bound,
    fixed_point_report,
    inclusion_residual,
    quadratic_reference,
)
from mismatch_splitting.operators import MatrixOperator, MismatchPair, ScaledIdentity
from mismatch_splitting.proximal import prox_scaled_quadratic
from mismatch_splitting.solvers import PDDRStepper, SaddleProblem, StoppingRule, run
from mismatch_splitting.stepsize import ConvexityProfile

from proximal_reference import prox_l1


def scalar_problem(v_scale):
    pair = MismatchPair(ScaledIdentity(1, 1.0), ScaledIdentity(1, v_scale))
    return SaddleProblem(
        prox_scaled_quadratic(1.0),
        prox_scaled_quadratic(1.0, shift=np.array([3.0])),
        pair,
    )


def test_inclusion_residual_scalar_fixed_point():
    problem = scalar_problem(-0.5)
    assert inclusion_residual(problem, [-3.0], [-6.0]) <= 1e-12
    assert inclusion_residual(problem, [-3.0], [-6.0], probe_tau=0.3) <= 1e-12
    assert inclusion_residual(problem, [-2.9], [-6.0]) > 1e-3


def test_inclusion_residual_matched_true_saddle():
    problem = scalar_problem(1.0)
    assert inclusion_residual(problem, [1.5], [-1.5]) <= 1e-12


def test_inclusion_residual_rejects_bad_tau():
    with pytest.raises(ValueError):
        inclusion_residual(scalar_problem(-0.5), [0.0], [0.0], probe_tau=0.0)


def test_error_bound_scaling():
    # G = x^2/4, F* = |y|, A = 1, V* = 1/2: bound is |y| itself
    pair = MismatchPair(ScaledIdentity(1, 1.0), ScaledIdentity(1, 0.5))
    problem = SaddleProblem(prox_scaled_quadratic(0.5), prox_l1(), pair)
    assert error_bound(problem, np.array([-1.0])) == pytest.approx(1.0)
    assert error_bound(problem, np.array([1.0])) == pytest.approx(1.0)
    assert error_bound(problem, np.array([0.0])) == 0.0


def test_error_bound_matched_is_zero():
    op = MatrixOperator(np.random.default_rng(0).standard_normal((4, 6)))
    pair = MismatchPair(op, op)
    problem = SaddleProblem(prox_scaled_quadratic(1.0), prox_scaled_quadratic(1.0), pair)
    assert error_bound(problem, np.ones(4)) == 0.0


@pytest.mark.parametrize("gamma_g", [0.0, np.inf, np.nan])
def test_error_bound_refuses_bad_gamma_g_by_name(gamma_g):
    problem = scalar_problem(-0.5)
    with pytest.raises(ValueError, match="gamma_g"):
        error_bound(problem, np.array([1.0]), gamma_g=gamma_g)


@pytest.mark.parametrize("probe_tau", [np.inf, np.nan])
def test_inclusion_residual_refuses_non_finite_probe_tau(probe_tau):
    with pytest.raises(ValueError, match="probe_tau must be positive and finite"):
        inclusion_residual(scalar_problem(-0.5), [0.0], [0.0], probe_tau=probe_tau)


def test_error_bound_requires_modulus():
    pair = MismatchPair(ScaledIdentity(1, 1.0), ScaledIdentity(1, 0.5))
    problem = SaddleProblem(prox_l1(), prox_l1(), pair)
    with pytest.raises(ValueError):
        error_bound(problem, np.array([1.0]))
    assert error_bound(problem, np.array([2.0]), gamma_g=0.5) == pytest.approx(2.0)


def test_quadratic_reference_matched_collapses():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 8))
    z = rng.standard_normal(5)
    x_hat, y_hat, x_star = quadratic_reference(a, a, 0.7, 1.2, z)
    assert np.allclose(x_hat, x_star, atol=1e-12)


def test_quadratic_reference_zero_data():
    a = np.random.default_rng(2).standard_normal((3, 4))
    x_hat, y_hat, x_star = quadratic_reference(a, a * 0.9, 1.0, 1.0, np.zeros(3))
    assert not np.any(x_hat) and not np.any(y_hat) and not np.any(x_star)


def test_quadratic_reference_scalar_example():
    x_hat, y_hat, x_star = quadratic_reference(
        np.array([[1.0]]), np.array([[-0.5]]), 1.0, 1.0, np.array([3.0]))
    assert x_hat[0] == pytest.approx(-3.0)
    assert y_hat[0] == pytest.approx(-6.0)
    assert x_star[0] == pytest.approx(1.5)


def test_quadratic_reference_satisfies_inclusion():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((20, 30)) / np.sqrt(30)
    v = a - 0.05 * rng.standard_normal((20, 30))
    z = rng.standard_normal(20)
    alpha, beta = 0.4, 1.1
    x_hat, y_hat, x_star = quadratic_reference(a, v, alpha, beta, z)
    pair = MismatchPair(MatrixOperator(a), MatrixOperator(v))
    problem = SaddleProblem(
        prox_scaled_quadratic(alpha), prox_scaled_quadratic(beta, shift=z), pair)
    assert inclusion_residual(problem, x_hat, y_hat) <= 1e-10
    matched = SaddleProblem(
        problem.prox_g, problem.prox_fstar, pair.matched())
    y_star = (a @ x_star - z) / beta
    assert inclusion_residual(matched, x_star, y_star) <= 1e-9


def test_quadratic_reference_singular_core():
    with pytest.raises(np.linalg.LinAlgError):
        quadratic_reference(np.array([[1.0]]), np.array([[-1.0]]), 1.0, 1.0,
                            np.array([1.0]))
    with pytest.raises(ValueError):
        quadratic_reference(np.eye(2), np.eye(2), 0.0, 1.0, np.zeros(2))


def test_fixed_point_report_serializable():
    problem = scalar_problem(-0.5)
    profile = ConvexityProfile(1.0, 1.0, 1.5)
    report = fixed_point_report(problem, profile, [-3.0], [-6.0],
                                x_true=[1.5])
    payload = json.dumps(report)
    back = json.loads(payload)
    assert back["exists_unique"] is True
    assert back["inclusion_residual"] <= 1e-12
    assert back["error_bound"] == pytest.approx(9.0)
    assert back["distance_to_true"] == pytest.approx(4.5)
    assert fixed_point_report(problem, profile, [-3.0], [-6.0])["distance_to_true"] is None


@given(st.integers(0, 10_000))
def test_converged_run_respects_error_bound(seed):
    rng = np.random.default_rng(seed)
    n, m = 12, 8
    a = rng.standard_normal((m, n)) / np.sqrt(n)
    e = rng.standard_normal((m, n))
    e *= 0.08 / np.linalg.svd(e, compute_uv=False)[0]
    z = rng.standard_normal(m)
    alpha, beta = 0.5, 1.0
    pair = MismatchPair(MatrixOperator(a), MatrixOperator(a - e))
    problem = SaddleProblem(
        prox_scaled_quadratic(alpha), prox_scaled_quadratic(beta, shift=z), pair)
    result = run(problem, PDDRStepper(problem, 0.2, 0.5), StoppingRule(20000, 1e-11))
    assert result.status == "converged"
    _, _, x_star = quadratic_reference(a, a - e, alpha, beta, z)
    bound = error_bound(problem, result.state.y, gamma_g=alpha)
    assert np.linalg.norm(result.state.x - x_star) <= bound + 1e-6
