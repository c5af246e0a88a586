"""Reproducible experiment drivers: divergence counterexample, quadratic
saddle-point study with closed-form references, and desk-scale tomography.

Each driver returns a RunReport; emit_report serializes it to per-solver
trace CSVs, a summary JSON, and PGM images under deterministic filenames.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import analysis, solvers, stepsize, tomo
from .operators import (
    DENSE_DIM_LIMIT,
    MatrixOperator,
    MismatchPair,
    ScaledIdentity,
    estimate_operator_norm,
    estimate_sigma_min,
)
from .proximal import ProxFn, prox_box_dual, prox_identity, prox_scaled_quadratic


@dataclass
class QuadraticConfig:
    n: int = 400
    m: int = 200
    alpha: float = 0.15
    beta: float = 1.0
    mismatch_eta: float = 0.15
    theta: float = 0.5
    max_iters: int = 5000
    fixed_point_tol: float = 1e-12
    seed: int = 42


@dataclass
class TomoConfig:
    image_size: int = 64
    num_angles: int = 10
    num_bins: int = 0  # 0 means image_size
    lam0: float = 10.0
    lam1: float = 6.0
    lam2: float = 2.0
    eps: float = 0.1
    noise_rel: float = 0.01
    theta: float = 0.5
    max_iters: int = 5000
    fixed_point_tol: float = 1e-6
    seed: int = 42
    with_oracle: bool = False


@dataclass
class RunReport:
    experiment: str
    config: dict
    statuses: dict = field(default_factory=dict)
    plan: dict | None = None
    summary: dict = field(default_factory=dict)
    traces: dict = field(default_factory=dict)  # solver -> (columns, rows)
    images: dict = field(default_factory=dict)  # name -> 2d array
    timings: dict = field(default_factory=dict)  # wall times in s, kept out of summary

    @property
    def diverged(self):
        return any(s == "diverged" for s in self.statuses.values())


def certified_plan(pair, gamma_g, gamma_f, theta):
    """Certified step-size plan for ``pair`` and the moduli of G and F*.

    Estimates ||A - V|| (``pair.mismatch_norm``), ||A|| and ||V||, and hands
    them to stepsize.plan, which records the last two in the plan.  Raises
    CertificateError unless gamma_g * gamma_f > ||A-V||^2 / 4.
    """
    profile = stepsize.ConvexityProfile(gamma_g, gamma_f, pair.mismatch_norm)
    return stepsize.plan(profile, theta, estimate_operator_norm(pair.forward),
                         estimate_operator_norm(pair.surrogate))


def _plan_summary(pair, plan):
    """Summary entries of a certified plan.  Under ``spectral``: its
    closed-form bounds on sigma_min and ||B_sigma||, and, for a shifted skew
    block of at most DENSE_DIM_LIMIT rows, sigma_min = 1/||B_sigma^{-1}||
    from estimate_sigma_min and the ratio of the bound to it."""
    spectral = {"sigma_lower_bound": plan.sigma, "b_sigma_upper_bound": plan.b_sigma_norm}
    if pair.domain_dim + pair.codomain_dim <= DENSE_DIM_LIMIT:
        sigma = estimate_sigma_min(pair, plan.mu_tilde_g, plan.mu_tilde_f)
        spectral.update(sigma_min=sigma, sigma_bound_ratio=plan.sigma / sigma)
    return {"mismatch_norm": pair.mismatch_norm, "tau": plan.tau, "theta": plan.theta,
            "predicted_rate": plan.rate, "spectral": spectral}


def _run_suite(report, problem, plan, stopping, objective, x_ref, matched_ref,
               extra_metrics=None):
    """Matched, mismatched and adapted PDDR with the plan's step, then the
    surrogate-adjoint Chambolle-Pock baseline with step 0.95/sqrt(||A|| ||V||).

    The matched run is measured against ``matched_ref``, the others against
    ``x_ref`` and with ``extra_metrics``.  Statuses, traces and inner
    factorisation times go into ``report``.  Returns the results, the
    steppers and the summary entries ``cp_step`` and ``inner_backend``.
    """
    tau, theta = plan.tau, plan.theta
    step_cp = 0.95 / math.sqrt(plan.norm_a * plan.norm_v)
    steppers = {
        "matched": solvers.PDDRStepper(problem, tau, theta, mode="matched"),
        "mismatched": solvers.PDDRStepper(problem, tau, theta),
        "adapted": solvers.PDDRStepper(problem, tau, theta,
                                       mu_g=plan.mu_tilde_g, mu_f=plan.mu_tilde_f),
        "cp": solvers.CPStepper(problem, step_cp, step_cp),
    }
    runs = {}
    for name, stepper in steppers.items():
        matched = name == "matched"
        res = solvers.run(problem, stepper, stopping, x_ref=matched_ref if matched else x_ref,
                          objective=objective, extra_metrics=None if matched else extra_metrics)
        runs[name] = res
        report.statuses[name] = res.status
        report.traces[name] = (res.columns, res.trace)
    inner = {name: st.inner_solver for name, st in steppers.items() if name != "cp"}
    report.timings["inner_factor_s"] = {name: s.factor_s for name, s in inner.items()}
    return runs, steppers, {
        "cp_step": step_cp,
        "inner_backend": {name: {"backend": s.backend, "rcond": s.rcond}
                          for name, s in inner.items()},
    }


def _empirical_rate(values, window=100, floor=1e-14):
    """Geometric mean contraction factor over the trailing window."""
    vals = [v for v in values if v is not None and v > floor]
    if len(vals) < 2:
        return None
    w = min(window, len(vals) - 1)
    return (vals[-1] / vals[-1 - w]) ** (1.0 / w)


def run_counterexample(dim: int = 10, alpha_mm: float = 0.01, tau: float = 0.1, theta: float = 1.0,
                       seed: int = 7, max_iters: int = 10000, divergence_threshold: float = 1e6):
    """Identity forward map with surrogate adjoint -alpha_mm I.

    With G == 0 and F the l1 norm, the mismatched iteration runs away from
    generic starts for any positive alpha_mm; alpha_mm = -1 restores the
    matched method.  It does so in two phases.  While the dual is inside the
    box (every ``|q_i| <= 1``) the map is linear with spectral radius
    ``1/(1 - tau sqrt(alpha_mm))`` above one.  Once the box projection
    saturates the dual, the map is affine with eigenvalues {0, 1}: with
    ``theta = 1``, ``p - tau alpha_mm q`` moves by ``tau alpha_mm sign(q)``
    per step, and ``||x||`` drifts linearly at about
    ``tau alpha_mm sqrt(dim) / (1 - tau^2 alpha_mm)`` per step.  At the
    defaults that is ~3.2e-3 per step, so ``||x||`` is ~34 after 10,000
    steps and the default ``divergence_threshold`` is not reached.
    """
    pair = MismatchPair(ScaledIdentity(dim, 1.0), ScaledIdentity(dim, -alpha_mm))
    problem = solvers.SaddleProblem(prox_identity(), prox_box_dual(), pair)
    stepper = solvers.PDDRStepper(problem, tau, theta, mode="mismatched")
    stopping = solvers.StoppingRule(max_iters, fixed_point_tol=1e-12,
                                    divergence_threshold=divergence_threshold)
    state0 = solvers.gaussian_state(problem, seed=seed)
    result = solvers.run(problem, stepper, stopping, initial_state=state0,
                         extra_metrics={"primal_norm": lambda s: np.linalg.norm(s.x)})

    report = RunReport(
        experiment="counterexample",
        config={"dim": dim, "alpha_mm": alpha_mm, "tau": tau, "theta": theta,
                "seed": seed, "max_iters": max_iters,
                "divergence_threshold": divergence_threshold},
    )
    report.statuses["mismatched"] = result.status
    report.traces["mismatched"] = (result.columns, result.trace)
    norms = np.asarray(result.column("primal_norm"))
    half = norms[norms.size // 2:]
    slope = float(np.polyfit(np.arange(half.size), half, 1)[0]) if half.size > 1 else 0.0
    report.summary = {
        "iterations": result.iterations,
        "final_primal_norm": float(np.linalg.norm(result.state.x)),
        "final_governing_norm": float(np.linalg.norm(result.state.z)),
        "primal_norm_growth_slope": slope,
        "mismatch_norm": pair.mismatch_norm,
    }
    return report


def _quadratic_operators(config):
    if not 0.0 <= config.mismatch_eta < math.inf:
        raise ValueError(f"mismatch_eta must be finite and non-negative, got {config.mismatch_eta}")
    rng = np.random.default_rng(config.seed)
    a = rng.standard_normal((config.m, config.n)) / math.sqrt(config.n)
    e = rng.standard_normal((config.m, config.n))
    if config.mismatch_eta > 0:
        e *= config.mismatch_eta / estimate_operator_norm(MatrixOperator(e))
    else:
        e[:] = 0.0
    z = rng.standard_normal(config.m)
    return a, a - e, z


def run_quadratic(config=None):
    """Strongly convex quadratic study with closed-form references.

    Runs matched, mismatched, adapted, and a surrogate-adjoint
    Chambolle-Pock baseline with the certified step size, and records the
    a-priori primal error bound next to the realized distances.
    """
    config = config or QuadraticConfig()
    a_mat, v_mat, z = _quadratic_operators(config)
    pair = MismatchPair(MatrixOperator(a_mat), MatrixOperator(v_mat))
    plan = certified_plan(pair, config.alpha, config.beta, config.theta)
    plan_summary = _plan_summary(pair, plan)

    prox_g = prox_scaled_quadratic(config.alpha)
    prox_f = prox_scaled_quadratic(config.beta, shift=z)
    problem = solvers.SaddleProblem(prox_g, prox_f, pair)

    x_hat, y_hat, x_star = analysis.quadratic_reference(
        a_mat, v_mat, config.alpha, config.beta, z)
    bound = analysis.error_bound(problem, y_hat, gamma_g=config.alpha)

    def objective(x):
        r = a_mat @ x - z
        return 0.5 * config.alpha * float(x @ x) + 0.5 / config.beta * float(r @ r)

    stopping = solvers.StoppingRule(config.max_iters, config.fixed_point_tol)
    dist_true = {"dist_to_true": lambda s: np.linalg.norm(s.x - x_star)}

    report = RunReport(experiment="quadratic", config=asdict(config), plan=asdict(plan))
    runs, _, suite = _run_suite(report, problem, plan, stopping, objective,
                                x_hat, x_star, dist_true)
    mm = runs["mismatched"]
    report.summary = {
        **plan_summary,
        "empirical_rate": _empirical_rate(mm.column("dist_to_ref")),
        "error_bound": bound,
        "fixed_point_gap": float(np.linalg.norm(x_hat - x_star)),
        "terminal_dist_to_fixed_point": float(np.linalg.norm(mm.state.x - x_hat)),
        "terminal_dist_to_true": float(np.linalg.norm(mm.state.x - x_star)),
        **suite,
    }
    return report


def huber_tv_prox(lam0, lam1, eps, z, sino_size, n_pixels):
    """Prox of the stacked dual function for the reconstruction model.

    Dual layout is [data part (sino_size); gradient part (2 n_pixels)].
    The data block is a shifted quadratic; the gradient block is the
    Huber-smoothed dual, a rescale followed by the pixelwise radial
    projection onto the l_{inf,2} ball of radius lam1, written out on the
    (2, n_pixels) layout.
    """
    if not (0.0 < lam0 < math.inf and 0.0 <= lam1 < math.inf and 0.0 <= eps < math.inf):
        raise ValueError(f"need finite lam0 > 0, lam1 >= 0, eps >= 0; got {lam0}, {lam1}, {eps}")
    z = np.asarray(z, dtype=float)
    # lam1 / max(|g|, lam1) is lam1/|g| outside the ball and exactly 1 inside;
    # the 1e-300 floor keeps 0/0 out of the all-zero scale of lam1 = 0
    floor = max(lam1, 1e-300)

    def evaluate(dual, tau):
        out = np.empty(sino_size + 2 * n_pixels)
        np.divide(dual[:sino_size] - tau * z, 1.0 + tau / lam0, out=out[:sino_size])
        field = out[sino_size:].reshape(2, n_pixels)
        np.divide(dual[sino_size:].reshape(2, n_pixels), 1.0 + tau * eps, out=field)
        f0, f1 = field
        scale = f0 * f0
        scale += f1 * f1
        np.sqrt(scale, out=scale)
        np.divide(lam1, np.maximum(scale, floor, out=scale), out=scale)
        field *= scale
        return out

    return ProxFn(evaluate, strong_convexity=min(1.0 / lam0, eps))


def run_tomography(config=None):
    """Regularized reconstruction with a deliberately non-adjoint back end.

    Forward model: ray-driven projector; surrogate adjoint: transpose of a
    pixel-driven projector.  The objective couples a quadratic data term,
    Huber-smoothed isotropic total variation, and Tikhonov regularization,
    giving strong convexity on both sides of the saddle point.
    """
    config = config or TomoConfig()
    if not config.lam0 > 0:
        raise ValueError(f"lam0 must be positive, got {config.lam0}")
    if not 0.0 <= config.noise_rel < math.inf:
        raise ValueError(f"noise_rel must be finite and non-negative, got {config.noise_rel}")
    num_bins = config.num_bins or config.image_size
    geom = tomo.ParallelGeometry(config.image_size, config.num_angles, num_bins)
    proj = tomo.build_projector_pair(geom)
    pair = proj.mismatch_pair()
    # G = lam2/2 |x|^2; F* is 1/lam0-strongly convex on the data part and
    # eps-strongly convex on the gradient part
    plan = certified_plan(
        pair, config.lam2, min(1.0 / config.lam0, config.eps), config.theta)
    plan_summary = _plan_summary(pair, plan)

    n_pix = config.image_size ** 2
    phantom = tomo.shepp_logan_phantom(config.image_size)
    rng = np.random.default_rng(config.seed)
    z = tomo.make_sinogram(proj.radon_forward, phantom, config.noise_rel, rng)

    prox_g = prox_scaled_quadratic(config.lam2)
    prox_f = huber_tv_prox(config.lam0, config.lam1, config.eps, z,
                           geom.sinogram_size, n_pix)
    problem = solvers.SaddleProblem(prox_g, prox_f, pair)

    forward_mat = pair.forward.matrix  # [Radon; gradient], stacked once
    knee = config.lam1 * config.eps

    def objective(x):
        # the Huber-smoothed TV whose conjugate huber_tv_prox evaluates:
        # |g|^2 / (2 eps) up to |g| = lam1 eps, lam1 |g| - lam1^2 eps / 2 beyond
        kx = forward_mat @ x
        r = kx[:z.size] - z
        g = kx[z.size:].reshape(2, n_pix)
        s = np.hypot(g[0], g[1])
        huber = np.where(s <= knee, s * s / (2.0 * config.eps),
                         config.lam1 * s - 0.5 * config.lam1 * knee)
        return (0.5 * config.lam0 * float(r @ r) + float(np.sum(huber))
                + 0.5 * config.lam2 * float(x @ x))

    stopping = solvers.StoppingRule(config.max_iters, config.fixed_point_tol)

    report = RunReport(experiment="tomo", config=asdict(config), plan=asdict(plan))
    x_ref = phantom.ravel()
    runs, steppers, suite = _run_suite(report, problem, plan, stopping, objective,
                                       x_ref, x_ref)
    mm = runs["mismatched"]
    bound = analysis.error_bound(problem, mm.state.y, gamma_g=config.lam2)
    report.summary = {
        **plan_summary,
        "empirical_rate": _empirical_rate(mm.column("residual")),
        "error_bound": bound,
        # the matched run stands in for x*, the point the bound is about
        "dist_mismatched_to_matched": float(
            np.linalg.norm(mm.state.x - runs["matched"].state.x)),
        "final_residuals": {name: (res.column("residual") or [None])[-1]
                            for name, res in runs.items()},
        **suite,
    }

    shape = (config.image_size, config.image_size)
    report.images["phantom"] = phantom
    report.images["sinogram"] = z.reshape(config.num_angles, num_bins)
    for name, res in runs.items():
        report.images[f"recon_{name}"] = res.state.x.reshape(shape)

    if config.with_oracle:
        oracle_stop = solvers.StoppingRule(
            10 * config.max_iters,  # the oracle's budget
            max(config.fixed_point_tol * 1e-3, 1e-14))
        oracle = solvers.run(problem, steppers["mismatched"], oracle_stop,
                             x_ref=x_ref, objective=objective)
        report.statuses["oracle"] = oracle.status
        report.summary["oracle_dist"] = float(np.linalg.norm(mm.state.x - oracle.state.x))
        report.summary["oracle_error_bound"] = analysis.error_bound(
            problem, oracle.state.y, gamma_g=config.lam2)
        report.images["recon_oracle"] = oracle.state.x.reshape(shape)

    return report


def write_pgm(path, image):
    """Write a 2-d array as a binary 8-bit PGM (deterministic bytes), scaled
    on its finite pixels; NaN and -inf are written as 0 and +inf as 255."""
    img = np.asarray(image, dtype=float)
    finite = np.isfinite(img)
    lo = float(np.min(img, initial=np.inf, where=finite))
    hi = float(np.max(img, initial=-np.inf, where=finite))
    scaled = np.zeros_like(img)
    if hi > lo:
        scaled[finite] = (img[finite] - lo) / (hi - lo)
    scaled[img == np.inf] = 1.0
    data = np.clip(np.rint(scaled * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def write_json(out_dir, name, payload):
    """Write ``payload`` to ``out_dir/name`` as JSON with indent 2, sorted
    keys and a final newline, and return the path.  This is the only JSON
    writer: every result file goes through it."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def emit_report(report, out_dir):
    """Write trace CSVs, a summary JSON, and PGM images for a RunReport and
    return their paths.  This is the only writer of trace CSVs.

    Filenames are deterministic: {experiment}_{solver}.csv,
    {experiment}_summary.json, {experiment}_{image}.pgm.  Empty traces
    produce a header-only CSV; the summary is always valid JSON.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for solver in sorted(report.traces):
        columns, rows = report.traces[solver]
        path = os.path.join(out_dir, f"{report.experiment}_{solver}.csv")
        with open(path, "w", newline="") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join("" if c is None else repr(c) if isinstance(c, float) else str(c)
                                  for c in row) + "\n")
        paths.append(path)

    paths.append(write_json(out_dir, f"{report.experiment}_summary.json", {
        "experiment": report.experiment,
        "config": report.config,
        "statuses": report.statuses,
        "plan": report.plan,
        "summary": report.summary,
        "timings": report.timings,
    }))

    for name in sorted(report.images):
        path = os.path.join(out_dir, f"{report.experiment}_{name}.pgm")
        write_pgm(path, report.images[name])
        paths.append(path)
    return paths
