import numpy as np
import pytest
from hypothesis import given, strategies as st

from mismatch_splitting.proximal import (
    prox_box_dual,
    prox_convex_shifted,
    prox_identity,
    prox_scaled_quadratic,
)

from linf2_reference import project_linf2, prox_linf2_ball
from proximal_reference import firm_nonexpansiveness_defect, prox_l1, soft_threshold


def shipped_proxes():
    return [
        prox_identity(),
        prox_scaled_quadratic(0.7),
        prox_scaled_quadratic(1.3, shift=np.linspace(-1, 1, 6)),
        prox_l1(),
        prox_box_dual(),
        prox_linf2_ball(0.8, field_shape=(3, 2)),
        prox_convex_shifted(prox_scaled_quadratic(2.0), 0.5),
    ]


def test_scaled_quadratic_small_alpha():
    p = np.array([2.0, -4.0])
    assert np.allclose(prox_scaled_quadratic(0.01)(p, 3.0), p / 1.03)


def test_scaled_quadratic_identity_limit():
    p = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(prox_scaled_quadratic(0.0)(p, 2.0), p)


def test_scaled_quadratic_with_shift():
    b = np.array([0.5, -1.0])
    y = np.array([3.0, 3.0])
    assert np.allclose(prox_scaled_quadratic(1.0, shift=b)(y, 1.0), (y - b) / 2.0)


def test_linf2_interior_identity():
    field = np.array([[0.1, 0.2], [-0.3, 0.1]])
    assert np.allclose(project_linf2(field, 1.0), field)


def test_linf2_radial_projection():
    assert np.allclose(project_linf2(np.array([[3.0, 4.0]]), 1.0), [[0.6, 0.8]])


def test_linf2_zero_radius_maps_to_zero():
    field = np.random.default_rng(0).standard_normal((5, 2))
    assert np.array_equal(project_linf2(field, 0.0), np.zeros_like(field))


@given(st.integers(0, 10_000), st.floats(0.1, 5.0))
def test_linf2_pixelwise_norm_oracle(seed, radius):
    field = np.random.default_rng(seed).standard_normal((8, 2)) * 3.0
    out = project_linf2(field, radius)
    in_norms = np.linalg.norm(field, axis=-1)
    out_norms = np.linalg.norm(out, axis=-1)
    assert np.all(out_norms <= radius + 1e-12)
    assert np.allclose(out_norms, np.minimum(in_norms, radius))


def test_prox_l1_basics():
    assert np.array_equal(prox_l1()(np.zeros(3), 1.0), np.zeros(3))
    assert np.allclose(prox_l1()(np.array([2.0, -0.5]), 1.0), [1.0, 0.0])


@given(st.integers(0, 10_000), st.floats(0.05, 3.0))
def test_moreau_identity_l1_box(seed, tau):
    # x = prox_{tau f}(x) + tau * prox_{f*/tau}(x/tau) for f = l1
    x = np.random.default_rng(seed).standard_normal(12) * 2.0
    recomposed = soft_threshold(x, tau) + tau * prox_box_dual()(x / tau, 1.0 / tau)
    assert np.allclose(recomposed, x, atol=1e-12)


def test_firm_nonexpansiveness_all_shipped(rng):
    for prox in shipped_proxes():
        dim = 6
        for _ in range(100):
            a = rng.standard_normal(dim)
            b = rng.standard_normal(dim)
            assert firm_nonexpansiveness_defect(prox, a, b, tau=0.8) <= 1e-9


@pytest.mark.parametrize("lam_frac", [0.01, 0.1, 0.9 * 0.5])
def test_shifted_prox_matches_direct_quadratic_formula(lam_frac):
    alpha, mu = 2.0, 0.5
    lam = lam_frac / mu
    shifted = prox_convex_shifted(prox_scaled_quadratic(alpha), mu)
    p = np.linspace(-2, 2, 9)
    direct = p / (1.0 + lam * (alpha - mu))
    assert np.allclose(shifted(p, lam), direct, atol=1e-12)


def test_shifted_prox_rejects_large_lambda():
    shifted = prox_convex_shifted(prox_scaled_quadratic(2.0), 0.5)
    with pytest.raises(ValueError, match="1/mu"):
        shifted(np.zeros(2), 2.0)


def test_shifted_prox_warns_on_nonconvex_shift():
    with pytest.warns(UserWarning):
        prox_convex_shifted(prox_l1(), 0.5)


@given(st.integers(0, 10_000), st.floats(0.05, 0.45), st.floats(0.1, 3.0))
def test_rescaling_identity_random_quadratics(seed, mu, alpha_extra):
    # prox_{lam(F - mu/2||.||^2)}(x) = prox_{lam/(1-lam mu) F}(x/(1-lam mu))
    alpha = mu + alpha_extra
    lam = 0.9 / mu * 0.5
    base = prox_scaled_quadratic(alpha)
    shifted = prox_convex_shifted(base, mu)
    x = np.random.default_rng(seed).standard_normal(5)
    denom = 1.0 - lam * mu
    expected = base(x / denom, lam / denom)
    assert np.allclose(shifted(x, lam), expected, atol=1e-12)
