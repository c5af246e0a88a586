import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mismatch_splitting.experiments import certified_plan
from mismatch_splitting.operators import (
    MatrixOperator,
    MismatchPair,
    ScaledIdentity,
    estimate_operator_norm,
    estimate_sigma_min,
)
from mismatch_splitting.stepsize import (
    CertificateError,
    ConvexityProfile,
    block_norm_upper_bound,
    certify_weak,
    compute_plan,
    monotonicity_c,
    plan as scalar_plan,
    rate_eta,
    select_mus,
    sigma_min_lower_bound,
)
from mismatch_splitting.tomo import ParallelGeometry, build_projector_pair
from operator_reference import skew_block


def scalar_block(profile):
    """Spectral inputs for a profile via the 1-d pair A = d, V = 0."""
    pair = MismatchPair(ScaledIdentity(1, profile.mismatch_norm),
                        ScaledIdentity(1, 0.0))
    _, mtg, _, mtf = select_mus(profile)
    return (estimate_sigma_min(pair, mtg, mtf),
            estimate_operator_norm(MatrixOperator(skew_block(pair, mtg, mtf))))


def test_select_mus_zero_mismatch():
    mu_g, mt_g, mu_f, mt_f = select_mus(ConvexityProfile(2.0, 0.8, 0.0))
    assert mt_g == 1.0 and mu_g == 1.5
    assert mt_f == pytest.approx(0.4) and mu_f == pytest.approx(0.6)


def test_select_mus_orders_and_admissibility():
    profile = ConvexityProfile(2.0, 0.1, 0.2945)
    mu_g, mt_g, mu_f, mt_f = select_mus(profile)
    assert 0 < mt_g < mu_g < profile.gamma_g
    assert 0 < mt_f < mu_f < profile.gamma_f
    assert mt_g * mt_f > 0.25 * profile.mismatch_norm**2


def test_select_mus_requires_existence():
    with pytest.raises(CertificateError):
        select_mus(ConvexityProfile(1.0, 1.0, 2.0))
    # the condition is strict: equality is excluded, just below passes
    with pytest.raises(CertificateError):
        select_mus(ConvexityProfile(1.0, 1.0, 2.0 + 1e-9))
    select_mus(ConvexityProfile(1.0, 1.0, 2.0 - 1e-6))


def test_compute_plan_zero_mismatch():
    profile = ConvexityProfile(1.0, 1.0, 0.0)
    plan = compute_plan(profile, 0.5, *scalar_block(profile))
    assert math.isfinite(plan.tau) and plan.tau > 0
    assert plan.eta > 0
    assert 0 < plan.rate < 1
    # independent recomputation of eta from the plan's own scalars
    eta = rate_eta(plan.tau, plan.delta, plan.upsilon, plan.sigma,
                   plan.b_sigma_norm, max(plan.mu_tilde_g, plan.mu_tilde_f))
    assert plan.eta == pytest.approx(eta, rel=1e-12)
    assert plan.rate == pytest.approx(1.0 / (1.0 + eta), rel=1e-12)


def test_compute_plan_frozen_scenario():
    # gamma_g = 2, gamma_f = 0.1, d = 0.2945, theta = 1/2: with a nearly
    # singular shifted block the rational branch has no real intersection
    # points and tau falls back to the maximizer zeta = 0.01965
    profile = ConvexityProfile(2.0, 0.1, 0.2945)
    plan = compute_plan(profile, 0.5, 1e-4, 12.705274315511454)
    assert plan.tau_plus is None and plan.tau_minus is None
    assert plan.tau == pytest.approx(plan.zeta)
    assert plan.tau == pytest.approx(0.01965, abs=5e-5)
    # a healthier sigma switches the minimum over to the monotone bound tau_s
    plan2 = compute_plan(profile, 0.5, 0.05, 12.705274315511454)
    assert plan2.tau == pytest.approx(plan2.tau_s)
    assert plan2.tau == pytest.approx(0.075782, abs=5e-5)
    assert plan2.tau_s == pytest.approx(plan.tau_s)


def test_certify_weak_membership():
    profile = ConvexityProfile(1.0, 1.0, 0.5)
    mus = select_mus(profile)
    c = monotonicity_c(*mus)
    assert certify_weak(profile, mus, 0.5 * c, 0.5) == (True, c)
    ok, _ = certify_weak(profile, mus, c, 0.5)
    assert not ok
    ok, _ = certify_weak(profile, mus, 1.5 * c, 0.5)
    assert not ok
    # theta cap shrinks to 2 - 2 tau / c
    ok, _ = certify_weak(profile, mus, 0.9 * c, 1.9)
    assert not ok


def test_plan_satisfies_weak_certificate():
    profile = ConvexityProfile(1.0, 1.0, 0.3)
    plan = compute_plan(profile, 0.5, *scalar_block(profile))
    ok, _ = certify_weak(profile, (plan.mu_g, plan.mu_tilde_g,
                                   plan.mu_f, plan.mu_tilde_f),
                         plan.tau, plan.theta)
    assert ok


@given(st.floats(0.2, 4.0), st.floats(0.2, 4.0), st.floats(0.0, 0.9),
       st.floats(0.15, 0.85))
def test_plan_invariants(gamma_g, gamma_f, d_frac, theta):
    d = d_frac * 2.0 * math.sqrt(gamma_g * gamma_f) * 0.999
    profile = ConvexityProfile(gamma_g, gamma_f, d)
    plan = compute_plan(profile, theta, *scalar_block(profile))

    assert 0 < plan.mu_tilde_g < plan.mu_g < gamma_g
    assert 0 < plan.mu_tilde_f < plan.mu_f < gamma_f
    assert plan.mu_tilde_g * plan.mu_tilde_f >= 0.25 * d**2
    assert 0 < plan.tau <= plan.tau_s
    if d > 0:
        assert plan.tau < 1.0 / d
    assert plan.upsilon > 0
    assert 0 < plan.rate < 1
    assert plan.alpha == pytest.approx(1.0 / theta - 1.0)
    # tau <= tau_s makes the shifted proxes firmly nonexpansive:
    # (alpha + g mu)(alpha - g mu_tilde) >= alpha^2 with g = delta tau
    g = plan.delta * plan.tau
    for mu, mt in ((plan.mu_g, plan.mu_tilde_g), (plan.mu_f, plan.mu_tilde_f)):
        lhs = (plan.alpha + g * mu) * (plan.alpha - g * mt)
        assert lhs >= plan.alpha**2 * (1.0 - 1e-9)


@pytest.mark.parametrize("gamma_g, gamma_f, d, theta", [
    (1.0, 1.0, 0.0, 0.5), (2.0, 0.1, 0.2945, 0.5), (0.15, 1.0, 0.15, 0.9),
    (3.0, 0.4, 2.0, 0.137),
])
def test_scalar_plan_equals_certified_plan_on_1d_pair(gamma_g, gamma_f, d, theta):
    # the 1-d pair A = d, V = 0 has ||A - V|| = ||A|| = d and ||V|| = 0
    pair = MismatchPair(ScaledIdentity(1, d), ScaledIdentity(1, 0.0))
    plan = scalar_plan(ConvexityProfile(gamma_g, gamma_f, d), theta, d, 0.0)
    assert plan.as_dict() == certified_plan(pair, gamma_g, gamma_f, theta).as_dict()
    assert (plan.norm_a, plan.norm_v) == (d, 0.0)


def test_validation_errors():
    profile = ConvexityProfile(1.0, 1.0, 0.2)
    with pytest.raises(ValueError):
        compute_plan(profile, 1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        compute_plan(profile, 0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        compute_plan(profile, 0.5, 0.5, 0.0)
    with pytest.raises(CertificateError):
        compute_plan(profile, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        ConvexityProfile(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        ConvexityProfile(1.0, 1.0, -0.1)


def test_existence_flag():
    assert not ConvexityProfile(1.0, 1.0, 2.0).exists_unique
    assert ConvexityProfile(1.0, 1.0, 1.5).exists_unique
    assert ConvexityProfile(1.0, 1.0, 0.0).exists_unique


@given(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.5, 2.0))
def test_exists_unique_flips_at_threshold(gamma_g, gamma_f, scale):
    d_crit = 2.0 * np.sqrt(gamma_g * gamma_f)
    profile = ConvexityProfile(gamma_g, gamma_f, scale * d_crit)
    assert profile.exists_unique == (scale < 1.0)


def dense_spectrum(pair, g, f):
    """(sigma_min, ||B||) of the shifted skew block [[g I, V*], [-A, f I]]."""
    svals = np.linalg.svd(skew_block(pair, g, f), compute_uv=False)
    return float(svals[-1]), float(svals[0])


def random_dense_pair(seed, m, n, mismatch):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) / math.sqrt(n)
    return MismatchPair(MatrixOperator(a),
                        MatrixOperator(a - mismatch * rng.standard_normal((m, n))))


def check_bounds_and_plan(pair, gamma_g, excess, theta):
    """The closed-form bounds bracket the dense-SVD values, and the plan
    built from them stays certified when evaluated with those exact values.

    gamma_f is chosen so that gamma_g gamma_f = d^2/4 (1 + excess), with d
    the exact ||A - V||; the midpoint shifts g, f then sit at about
    g f = d^2/4 (1 + excess/2).
    """
    d = float(np.linalg.norm(pair.forward.as_array() - pair.surrogate.as_array(), 2))
    norm_a = float(np.linalg.norm(pair.forward.as_array(), 2))
    norm_v = float(np.linalg.norm(pair.surrogate.as_array(), 2))
    gamma_f = 0.25 * d * d * (1.0 + excess) / gamma_g
    plan = certified_plan(pair, gamma_g, gamma_f, theta)
    g, f = plan.mu_tilde_g, plan.mu_tilde_f
    sigma, b_norm = dense_spectrum(pair, g, f)

    assert 0.0 < sigma_min_lower_bound(g, f, d) <= sigma * (1.0 + 1e-12)
    assert block_norm_upper_bound(g, f, norm_a, norm_v) >= b_norm * (1.0 - 1e-12)
    # the plan's own inputs, from the Lanczos norm estimates, as well
    assert 0.0 < plan.sigma <= sigma * (1.0 + 1e-12)
    assert plan.b_sigma_norm >= b_norm * (1.0 - 1e-12)

    eta_exact = rate_eta(plan.tau, plan.delta, plan.upsilon, sigma, b_norm, max(g, f))
    assert eta_exact >= plan.eta * (1.0 - 1e-12)
    mus = (plan.mu_g, plan.mu_tilde_g, plan.mu_f, plan.mu_tilde_f)
    ok, _ = certify_weak(ConvexityProfile(gamma_g, gamma_f, d), mus, plan.tau, plan.theta)
    assert ok


@given(st.integers(0, 10_000), st.integers(2, 8), st.integers(2, 8),
       st.floats(0.01, 1.0), st.floats(0.2, 4.0), st.floats(-6.0, 1.0),
       st.floats(0.15, 0.85))
def test_closed_form_bounds_random_dense_pairs(seed, m, n, mismatch, gamma_g,
                                               log_excess, theta):
    pair = random_dense_pair(seed, m, n, mismatch)
    check_bounds_and_plan(pair, gamma_g, 10.0**log_excess, theta)


@pytest.mark.parametrize("excess", [1e-6, 1e-3, 1.0])
@pytest.mark.parametrize("gamma_g", [0.5, 2.0])
def test_closed_form_bounds_projector_pair(excess, gamma_g):
    # the 8^2 tomography pair: ray-driven Radon and pixel-driven surrogate,
    # each stacked over the shared gradient
    pair = build_projector_pair(ParallelGeometry(8, 4, 8)).mismatch_pair()
    check_bounds_and_plan(pair, gamma_g, excess, 0.5)


def test_sigma_min_lower_bound_closed_forms():
    # no mismatch: the bound is min(g, f), the exact sigma_min
    assert sigma_min_lower_bound(0.7, 0.3, 0.0) == pytest.approx(0.3, rel=1e-15)
    # V = -A makes the block symmetric, and the bound is its exact sigma_min
    pair = MismatchPair(ScaledIdentity(1, 1.0), ScaledIdentity(1, -1.0))
    sigma, _ = dense_spectrum(pair, 1.5, 0.9)
    assert sigma_min_lower_bound(1.5, 0.9, 2.0) == pytest.approx(sigma, rel=1e-12)
    # the sign flips exactly at the existence limit g f = d^2/4
    assert sigma_min_lower_bound(1.0, 1.0, 2.0) == 0.0
    assert sigma_min_lower_bound(1.0, 1.0, 2.0 + 1e-9) < 0.0
    assert sigma_min_lower_bound(1.0, 1.0, 2.0 - 1e-9) > 0.0


def test_singular_block_has_no_certificate():
    # A = I, V* = -g f I: the shifted skew block is exactly singular; the
    # bound is not positive and no plan is certified, never sigma_min = 0
    g, f = 0.5, 0.8
    pair = MismatchPair(ScaledIdentity(3, 1.0), ScaledIdentity(3, -g * f))
    sigma, _ = dense_spectrum(pair, g, f)
    assert sigma <= 1e-15
    assert sigma_min_lower_bound(g, f, pair.mismatch_norm) <= 0.0
    with pytest.raises(CertificateError):
        certified_plan(pair, g, f, 0.5)
