"""Command-line front end.

Exit codes: 0 on success, 2 when a run certifiably diverged, 1 on any
configuration or runtime error.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import click
import numpy as np

from . import analysis, experiments, solvers, stepsize
from .operators import MismatchPair, ScaledIdentity, load_operator_csv
from .proximal import prox_scaled_quadratic

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DIVERGED = 2


class DivergedError(RuntimeError):
    """A solver run crossed the divergence threshold."""


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise click.ClickException("config file must contain a JSON object")
    return data


def _fill(cls, data, seed=None):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise click.ClickException(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(data)
    if seed is not None:
        kwargs["seed"] = seed
    return cls(**kwargs)


def _finish(report, out_dir):
    paths = experiments.emit_report(report, out_dir)
    for p in paths:
        click.echo(p)
    if report.diverged:
        raise DivergedError(
            f"{report.experiment}: divergence threshold crossed "
            f"(statuses: {report.statuses})"
        )


@click.group()
def cli():
    """Saddle-point solvers robust to an inexact adjoint."""


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--seed", type=int, default=None)
def quadratic(config_path, out_dir, seed):
    """Quadratic saddle-point study with closed-form references."""
    config = _fill(experiments.QuadraticConfig, _load_config(config_path), seed)
    _finish(experiments.run_quadratic(config), out_dir)


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--seed", type=int, default=None)
def counterexample(config_path, out_dir, seed):
    """Identity-map divergence demonstration.

    The iterates drift away linearly, so exit code 2 needs a
    divergence_threshold the drift reaches within max_iters, e.g.
    {"max_iters": 50000, "divergence_threshold": 40}; the defaults exit 0.
    """
    data = _load_config(config_path)
    if seed is not None:
        data["seed"] = seed
    allowed = {"dim", "alpha_mm", "tau", "theta", "seed", "max_iters",
               "divergence_threshold"}
    unknown = set(data) - allowed
    if unknown:
        raise click.ClickException(f"unknown config keys: {sorted(unknown)}")
    _finish(experiments.run_counterexample(**data), out_dir)


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--seed", type=int, default=None)
@click.option("--full-scale", is_flag=True, default=False)
def tomo(config_path, out_dir, seed, full_scale):
    """Regularized tomographic reconstruction with a non-adjoint back end."""
    data = _load_config(config_path)
    if full_scale:
        data.setdefault("image_size", 128)
        data.setdefault("num_angles", 60)
        data.setdefault("max_iters", 20000)
    config = _fill(experiments.TomoConfig, data, seed)
    _finish(experiments.run_tomography(config), out_dir)


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def stepsize_cmd(config_path, out_dir):
    """Certified step-size plan from moduli and operators (or scalars).

    Config keys: gamma_g, gamma_f, theta, and either forward_csv plus
    surrogate_csv, or a scalar mismatch_norm (modeled as the 1-d pair
    A = d, V = 0 for the spectral quantities; d must be nonnegative).
    """
    data = _load_config(config_path)
    scalar = "forward_csv" not in data and "surrogate_csv" not in data
    try:
        gamma_g = float(data["gamma_g"])
        gamma_f = float(data["gamma_f"])
        theta = float(data.get("theta", 0.5))
        d = float(data["mismatch_norm"]) if scalar else None
    except KeyError as exc:
        raise click.ClickException(f"missing config key: {exc}") from exc

    if not scalar:
        try:
            fwd = load_operator_csv(data["forward_csv"])
            sur = load_operator_csv(data["surrogate_csv"])
        except KeyError as exc:
            raise click.ClickException(
                "forward_csv and surrogate_csv must be given together") from exc
        pair = MismatchPair(fwd, sur)
    elif not d >= 0:
        raise click.ClickException(f"mismatch_norm must be nonnegative, got {d}")
    else:
        pair = MismatchPair(ScaledIdentity(1, d), ScaledIdentity(1, 0.0))

    plan, _ = experiments.certified_plan(pair, gamma_g, gamma_f, theta)

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "stepsize_plan.json")
    payload = {"profile": {"gamma_g": gamma_g, "gamma_f": gamma_f,
                           "mismatch_norm": pair.mismatch_norm},
               "plan": plan.as_dict(),
               "predicted_rate": stepsize.predicted_rate(plan)}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for key, value in plan.as_dict().items():
        click.echo(f"{key:>14}  {value}")
    click.echo(f"{'rate':>14}  {stepsize.predicted_rate(plan)}")
    click.echo(path)


cli.add_command(stepsize_cmd, name="stepsize")


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def analyze(config_path, out_dir):
    """Fixed-point report for a candidate point of a quadratic problem.

    Config keys: forward_csv, surrogate_csv, alpha, beta, z (list), and
    optionally x, y (candidate point; defaults to the closed-form fixed
    point) and probe_tau.
    """
    data = _load_config(config_path)
    try:
        fwd = load_operator_csv(data["forward_csv"])
        sur = load_operator_csv(data["surrogate_csv"])
        alpha = float(data["alpha"])
        beta = float(data["beta"])
        z = np.asarray(data["z"], dtype=float)
    except KeyError as exc:
        raise click.ClickException(f"missing config key: {exc}") from exc

    pair = MismatchPair(fwd, sur)
    problem = solvers.SaddleProblem(
        prox_scaled_quadratic(alpha), prox_scaled_quadratic(beta, shift=z), pair)
    profile = stepsize.ConvexityProfile(alpha, beta, pair.mismatch_norm)
    x_hat, y_hat, x_star = analysis.quadratic_reference(
        fwd.as_array(), sur.as_array(), alpha, beta, z)
    x = np.asarray(data.get("x", x_hat), dtype=float)
    y = np.asarray(data.get("y", y_hat), dtype=float)
    report = analysis.fixed_point_report(
        problem, profile, x, y,
        probe_tau=float(data.get("probe_tau", 1.0)), x_true=x_star)

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "analyze_report.json")
    with open(path, "w") as fh:
        json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    click.echo(path)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except DivergedError as exc:
        click.echo(f"diverged: {exc}", err=True)
        return EXIT_DIVERGED
    except click.ClickException as exc:
        exc.show()
        return EXIT_ERROR
    except click.Abort:
        return EXIT_ERROR
    except (OSError, ValueError, KeyError, RuntimeError, json.JSONDecodeError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
