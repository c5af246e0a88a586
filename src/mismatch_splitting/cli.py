"""Command-line front end.

Exit codes: 0 on success, 2 when a run certifiably diverged, 1 on any
configuration or runtime error.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import sys
import typing

import click
import numpy as np

from . import analysis, experiments, solvers, stepsize
from .operators import MismatchPair, load_operator_csv
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


def _type_ok(value, kind):
    """A bool only for a bool field; an int, not a bool, for an int field;
    an int or a float, not a bool, for a float field."""
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _fill(target, data, seed=None):
    """Call ``target``, a config dataclass or a keyword function, with the
    config keys, which must name its parameters and give every parameter
    without a default.  A dataclass's values must match its field types."""
    params = inspect.signature(target).parameters
    unknown = set(data) - set(params)
    if unknown:
        raise click.ClickException(f"unknown config keys: {sorted(unknown)}")
    missing = [name for name, p in params.items()
               if p.default is p.empty and name not in data]
    if missing:
        raise click.ClickException(f"missing config key: {', '.join(map(repr, missing))}")
    if dataclasses.is_dataclass(target):
        for key, kind in typing.get_type_hints(target).items():
            if key in data and not _type_ok(data[key], kind):
                raise click.ClickException(
                    f"config key {key!r} must be {kind.__name__}, got {data[key]!r}")
    kwargs = dict(data)
    if seed is not None:
        kwargs["seed"] = seed
    return target(**kwargs)


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
def counterexample(config_path, out_dir):
    """Identity-map divergence demonstration.

    The iterates drift away linearly, so exit code 2 needs a
    divergence_threshold the drift reaches within max_iters, e.g.
    {"max_iters": 50000, "divergence_threshold": 40}; the defaults exit 0.
    """
    _finish(_fill(experiments.run_counterexample, _load_config(config_path)), out_dir)


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


def _stepsize_payload(gamma_g, gamma_f, theta=0.5, mismatch_norm=None,
                      forward_csv=None, surrogate_csv=None):
    """The plan file of ``stepsize``: profile, certified plan and rate."""
    csvs = (forward_csv, surrogate_csv)
    if mismatch_norm is not None and csvs != (None, None):
        raise click.ClickException(
            "give either mismatch_norm or forward_csv and surrogate_csv, not both")
    gamma_g, gamma_f, theta = float(gamma_g), float(gamma_f), float(theta)
    if csvs == (None, None):
        if mismatch_norm is None:
            raise click.ClickException("missing config key: 'mismatch_norm'")
        d = float(mismatch_norm)
        if not d >= 0:
            raise click.ClickException(f"mismatch_norm must be nonnegative, got {d}")
        plan = stepsize.plan(stepsize.ConvexityProfile(gamma_g, gamma_f, d), theta, d, 0.0)
    elif None in csvs:
        raise click.ClickException("forward_csv and surrogate_csv must be given together")
    else:
        pair = MismatchPair(load_operator_csv(forward_csv), load_operator_csv(surrogate_csv))
        plan = experiments.certified_plan(pair, gamma_g, gamma_f, theta)
        d = pair.mismatch_norm
    return {"profile": {"gamma_g": gamma_g, "gamma_f": gamma_f, "mismatch_norm": d},
            "plan": plan.as_dict(),
            "predicted_rate": plan.rate}


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def stepsize_cmd(config_path, out_dir):
    """Certified step-size plan from moduli and operators (or scalars).

    Config keys: gamma_g, gamma_f, theta, and either forward_csv plus
    surrogate_csv, or a scalar mismatch_norm d >= 0, which gives the plan
    with ||A|| = d and ||V|| = 0, the numbers of the 1-d pair A = d, V = 0.
    """
    payload = _fill(_stepsize_payload, _load_config(config_path))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "stepsize_plan.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for key, value in payload["plan"].items():
        click.echo(f"{key:>14}  {value}")
    click.echo(path)


cli.add_command(stepsize_cmd, name="stepsize")


def _analyze_report(forward_csv, surrogate_csv, alpha, beta, z, x=None, y=None,
                    probe_tau=1.0):
    """The fixed-point report of ``analyze`` for the config's problem."""
    fwd, sur = load_operator_csv(forward_csv), load_operator_csv(surrogate_csv)
    alpha, beta = float(alpha), float(beta)
    z = np.asarray(z, dtype=float)
    pair = MismatchPair(fwd, sur)
    problem = solvers.SaddleProblem(
        prox_scaled_quadratic(alpha), prox_scaled_quadratic(beta, shift=z), pair)
    profile = stepsize.ConvexityProfile(alpha, beta, pair.mismatch_norm)
    x_hat, y_hat, x_star = analysis.quadratic_reference(
        fwd.as_array(), sur.as_array(), alpha, beta, z)
    x = np.asarray(x_hat if x is None else x, dtype=float)
    y = np.asarray(y_hat if y is None else y, dtype=float)
    return analysis.fixed_point_report(problem, profile, x, y,
                                       probe_tau=float(probe_tau), x_true=x_star)


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def analyze(config_path, out_dir):
    """Fixed-point report for a candidate point of a quadratic problem.

    Config keys: forward_csv, surrogate_csv, alpha, beta, z (list), and
    optionally x, y (candidate point; defaults to the closed-form fixed
    point) and probe_tau.
    """
    report = _fill(_analyze_report, _load_config(config_path))
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
    except (OSError, ValueError, TypeError, KeyError, RuntimeError,
            json.JSONDecodeError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
