"""Correctness checks the benchmark applies to every experiment it times.

Everything here is plain numpy on arrays handed in by the caller: the
references, proxes and objectives are written out again from the model's
definition and share no code with the library under test. Each check
returns a list of failure messages; an empty list means the outputs hold.
"""

from __future__ import annotations

import math

import numpy as np

# A run stopped at fixed-point residual 1e-12 sits ~1e-11 from its limit; a
# wrong answer at 1e-6 relative must still fail.
QUAD_REL_TOL = 1e-8
# The reported error bound is a closed-form number and must match ours.
BOUND_REL_TOL = 1e-8


def quadratic_instance(seed, n, m, mismatch_eta):
    """Forward map, surrogate and data of the quadratic study for a seed.

    A is Gaussian scaled by 1/sqrt(n); V = A - E with E Gaussian rescaled
    to spectral norm ``mismatch_eta``; z is standard Gaussian. The draws are
    made in that order from ``numpy.random.default_rng(seed)``.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) / math.sqrt(n)
    e = rng.standard_normal((m, n))
    e *= mismatch_eta / np.linalg.svd(e, compute_uv=False)[0]
    z = rng.standard_normal(m)
    return a, a - e, z


def quadratic_reference(a, v, z, alpha, beta):
    """(x_hat, y_hat, x_star) for G = alpha/2 |x|^2, F*(y) = beta/2 |y|^2 + <z, y>.

    x_hat = V^T (ab I + A V^T)^{-1} z and y_hat = -alpha (ab I + A V^T)^{-1} z
    solve the mismatched inclusion; x_star = A^T (ab I + A A^T)^{-1} z is the
    minimiser of alpha/2 |x|^2 + |Ax - z|^2 / (2 beta).
    """
    eye = np.eye(a.shape[0])
    s = np.linalg.solve(alpha * beta * eye + a @ v.T, z)
    x_star = a.T @ np.linalg.solve(alpha * beta * eye + a @ a.T, z)
    return v.T @ s, -alpha * s, x_star


def _far(x, ref, rel_tol):
    return float(np.linalg.norm(x - ref)) > rel_tol * max(1.0, float(np.linalg.norm(ref)))


def check_quadratic(a, v, z, alpha, beta, finals, reported_bound):
    """Final iterates of the quadratic study against the closed form.

    ``finals`` maps solver name to its final primal iterate. The matched
    run must reach x_star; the mismatched, adapted and surrogate-adjoint
    Chambolle-Pock runs must reach x_hat. The reported a-priori bound must
    equal (1/alpha) |(V - A)^T y_hat| and cover |x_hat - x_star|.
    """
    x_hat, y_hat, x_star = quadratic_reference(a, v, z, alpha, beta)
    failures = []
    targets = {"matched": x_star, "mismatched": x_hat, "adapted": x_hat, "cp": x_hat}
    for name, target in targets.items():
        if _far(finals[name], target, QUAD_REL_TOL):
            dist = float(np.linalg.norm(finals[name] - target))
            failures.append(f"quadratic {name}: distance {dist:.3e} to its closed-form limit")
    bound = float(np.linalg.norm((v - a).T @ y_hat)) / alpha
    if abs(reported_bound - bound) > BOUND_REL_TOL * bound:
        failures.append(f"quadratic: reported error bound {reported_bound:.12g} != {bound:.12g}")
    gap = float(np.linalg.norm(x_hat - x_star))
    if gap > bound:
        failures.append(f"quadratic: |x_hat - x_star| = {gap:.6g} exceeds the bound {bound:.6g}")
    return failures


class TomoModel:
    """The regularised reconstruction min_x G(x) + F(Kx), K = [R; D].

    G(x) = lam2/2 |x|^2. F splits into the data term lam0/2 |r - z|^2 on
    the sinogram part and Huber-smoothed isotropic TV on the gradient part,
    whose conjugate is eps/2 |p|^2 plus the indicator of the pixelwise
    2-norm ball of radius lam1. The gradient stacks the column differences
    of every pixel on top of the row differences.
    """

    def __init__(self, radon_a, radon_v, grad, z, lam0, lam1, lam2, eps):
        self.radon_a = radon_a
        self.radon_v = radon_v
        self.grad = grad
        self.z = np.asarray(z, dtype=float)
        self.lam0, self.lam1, self.lam2, self.eps = lam0, lam1, lam2, eps
        self.m = self.z.size
        self.n_pix = grad.shape[1]

    def forward(self, x):
        return np.concatenate([self.radon_a @ x, self.grad @ x])

    def surrogate_adjoint(self, y):
        return self.radon_v.T @ y[: self.m] + self.grad.T @ y[self.m:]

    def prox_g(self, u, tau):
        return u / (1.0 + tau * self.lam2)

    def prox_fstar(self, y, tau):
        q = (y[: self.m] - tau * self.z) / (1.0 + tau / self.lam0)
        field = y[self.m:].reshape(2, self.n_pix) / (1.0 + tau * self.eps)
        length = np.hypot(field[0], field[1])
        field = field * np.minimum(1.0, self.lam1 / np.maximum(length, 1e-300))
        return np.concatenate([q, field.ravel()])

    def inclusion_residual(self, x, y, tau=1.0):
        """|x - prox_G(x - tau V^T y)| + |y - prox_F*(y + tau K x)|."""
        rx = x - self.prox_g(x - tau * self.surrogate_adjoint(y), tau)
        ry = y - self.prox_fstar(y + tau * self.forward(x), tau)
        return float(np.linalg.norm(rx) + np.linalg.norm(ry))

    def objective(self, x):
        r = self.radon_a @ x - self.z
        g = (self.grad @ x).reshape(2, self.n_pix)
        s = np.hypot(g[0], g[1])
        knee = self.lam1 * self.eps
        huber = np.where(s <= knee, s * s / (2.0 * self.eps),
                         self.lam1 * s - 0.5 * self.lam1 * knee)
        return (0.5 * self.lam0 * float(r @ r) + float(np.sum(huber))
                + 0.5 * self.lam2 * float(x @ x))

    def error_bound(self, y):
        """(1/lam2) |(V - A)^T y|; only the Radon blocks differ."""
        q = y[: self.m]
        return float(np.linalg.norm(self.radon_v.T @ q - self.radon_a.T @ q)) / self.lam2


def contraction_rate(residuals, window=100):
    """Geometric-mean ratio of successive residuals over the last window."""
    res = np.asarray([r for r in residuals if r is not None and r > 0.0], dtype=float)
    w = min(window, res.size - 1)
    if w < 1:
        return 1.0
    return float((res[-1] / res[-1 - w]) ** (1.0 / w))


def check_tomo(model, finals, theta, reported_bound):
    """Final iterates of the tomography study against the model.

    ``finals`` maps solver name to ``(x, y, residuals)``, the final primal
    and dual iterate and the run's fixed-point residual trace. With rate rho
    read from the trace, each PDDR iterate lies within
    delta = theta * r_last / (1 - rho) of its limit; the slacks below are
    that distance carried through each check.

    - the mismatched (x, y) has a small inclusion residual;
    - |x_mm - x_matched| <= (1/lam2)|(V - A)^T y_mm| + slack (the paper's bound);
    - the adapted and mismatched runs reach the same point;
    - the matched point has the lowest objective of the four runs;
    - the reported bound equals ours.
    """
    failures = []

    def delta(name):
        residuals = finals[name][2]
        rho = contraction_rate(residuals)
        if not rho < 1.0:
            failures.append(f"tomo {name}: residuals do not contract (rate {rho:.6f})")
            return math.inf
        return theta * residuals[-1] / (1.0 - rho)

    x_mm, y_mm, _ = finals["mismatched"]
    x_ma, _, _ = finals["matched"]
    x_ad, _, _ = finals["adapted"]
    d_mm, d_ma, d_ad = delta("mismatched"), delta("matched"), delta("adapted")
    norm_k = math.sqrt(sum(float(np.sum(mat.multiply(mat)))
                           for mat in (model.radon_a, model.radon_v, model.grad)))
    diff_fro = math.sqrt(float(np.sum((model.radon_v - model.radon_a).power(2))))

    residual = model.inclusion_residual(x_mm, y_mm)
    # prox maps are nonexpansive, so a point whose x and y each lie within
    # delta of a solution has residual at most (4 + |K| + |V|) delta; the
    # Frobenius norm of all three blocks bounds both |K| and |V|
    limit = (4.0 + 2.0 * norm_k) * d_mm
    if not residual <= limit:
        failures.append(f"tomo: mismatched inclusion residual {residual:.3e} > {limit:.3e}")

    bound = model.error_bound(y_mm)
    if abs(reported_bound - bound) > BOUND_REL_TOL * bound:
        failures.append(f"tomo: reported error bound {reported_bound:.12g} != {bound:.12g}")
    dist = float(np.linalg.norm(x_mm - x_ma))
    slack = d_mm + d_ma + diff_fro / model.lam2 * d_mm
    if not dist <= bound + slack:
        failures.append(f"tomo: |x_mm - x_matched| = {dist:.6g} exceeds bound "
                        f"{bound:.6g} + slack {slack:.3g}")

    gap = float(np.linalg.norm(x_ad - x_mm))
    if not gap <= d_ad + d_mm:
        failures.append(f"tomo: adapted and mismatched differ by {gap:.3e} > {d_ad + d_mm:.3e}")

    j_matched = model.objective(x_ma)
    for name in ("mismatched", "adapted", "cp"):
        j = model.objective(finals[name][0])
        if j_matched > j + 1e-12 * abs(j):
            failures.append(f"tomo: matched objective {j_matched:.12g} above {name} {j:.12g}")
    return failures
