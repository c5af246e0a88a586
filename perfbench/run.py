"""Benchmark of the mismatch-splitting experiments, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload quadratic --seed 1 --seconds 30 --trace 0

Each workload calls one public experiment function and then ``emit_report``
into a scratch directory, as ``mismatch-splitting quadratic|tomo --out DIR``
does, in whole rounds until ``--seconds`` is spent. Every experiment's
outputs are checked against references computed here (see checks.py). The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer metrics, from spans recorded around the
library's public names, with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

PDDR_RUNS = ("matched", "mismatched", "adapted")
ALL_RUNS = PDDR_RUNS + ("cp",)


@dataclass(frozen=True)
class Workload:
    kind: str  # "quadratic" or "tomo"
    params: dict = field(default_factory=dict)
    # problem instances per round, drawn from the run's seed; more than one
    # where the instance changes the iteration count, so a run's figures do
    # not hang on one draw
    instances: int = 1


WORKLOADS = {
    # the paper's tomography example at 32^2 with 10 angles: the 64^2 default
    # takes ~220 s per experiment, longer than one benchmark run may last
    "tomo": Workload("tomo", {"image_size": 32, "num_angles": 10}),
    # the paper's academic example at its default size (n=400, m=200)
    "quadratic": Workload("quadratic", {}, instances=4),
    # dense operators whose skew block (n+m = 2100) is past DENSE_DIM_LIMIT;
    # run by hand only, not listed in BENCHMARK.json: at 12-16 s an experiment,
    # a run holds too few of them for a median steady on a shared host
    "quadratic-large": Workload("quadratic", {"n": 1400, "m": 700}),
}


def import_library():
    """Import mismatch_splitting from this checkout's src/, nowhere else."""
    src = ROOT / "src"
    if not (src / "mismatch_splitting" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source under {src}")
    sys.path.insert(0, str(src))
    lib = importlib.import_module("mismatch_splitting")
    if not Path(lib.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: imported {lib.__file__}, not the checkout's source")
    return {name: importlib.import_module(f"mismatch_splitting.{name}")
            for name in ("analysis", "experiments", "operators", "proximal",
                         "solvers", "stepsize", "tomo")}


class Capture:
    """Keeps (problem, stepper, result) of every ``solvers.run`` call."""

    def __init__(self, solvers):
        self.runs = []
        self._solvers = solvers
        self._original = original = solvers.run

        def run(problem, stepper, *args, **kwargs):
            result = original(problem, stepper, *args, **kwargs)
            self.runs.append((problem, stepper, result))
            return result

        solvers.run = run

    def restore(self):
        self._solvers.run = self._original

    def by_name(self):
        named = {}
        for problem, stepper, result in self.runs:
            if isinstance(stepper, self._solvers.CPStepper):
                name = "cp"
            elif stepper.mode == "matched":
                name = "matched"
            elif stepper.mu_g > 0 or stepper.mu_f > 0:
                name = "adapted"
            else:
                name = "mismatched"
            if name in named:
                raise RuntimeError(f"two {name} runs in one experiment")
            named[name] = (problem, result)
        return named


def install_spans(lib, tracer):
    """Wrap the public names each per-layer metric is read from."""
    ops, exp = lib["operators"], lib["experiments"]
    tracer.wrap([exp], "run_quadratic", "experiments.run")
    tracer.wrap([exp], "run_tomography", "experiments.run")
    tracer.wrap([exp], "emit_report", "experiments.emit")
    tracer.wrap([ops, exp], "estimate_operator_norm", "operators.norm")
    tracer.wrap([ops, exp], "estimate_sigma_min", "operators.sigma_min")
    tracer.wrap_property(ops.MismatchPair, "mismatch_norm", "operators.mismatch_norm")
    tracer.wrap([ops.InnerSystemSolver], "__init__", "operators.factor")
    tracer.wrap([ops.InnerSystemSolver], "solve", "operators.inner_solve")
    tracer.wrap([ops.MatrixOperator], "apply", "operators.apply")
    tracer.wrap([ops.MatrixOperator], "apply_adjoint", "operators.apply_adjoint")
    tracer.wrap([lib["proximal"].ProxFn], "__call__", "proximal.prox")
    tracer.wrap([lib["solvers"].PDDRStepper], "step", "solvers.step")
    tracer.wrap([lib["solvers"].CPStepper], "step", "solvers.step")
    tracer.wrap([lib["solvers"]], "run", "solvers.run")
    tracer.wrap([lib["stepsize"]], "select_mus", "stepsize.plan")
    tracer.wrap([lib["stepsize"]], "compute_plan", "stepsize.plan")
    tracer.wrap([lib["analysis"]], "quadratic_reference", "analysis.reference")
    tracer.wrap([lib["analysis"]], "error_bound", "analysis.error_bound")


def layer_metrics(tracer):
    """Per-layer times (s) and counts of the one experiment in ``tracer``."""
    per_name = tracer.layer_totals()

    def total(*names):
        return sum(sum(per_name.get(name, ())) for name in names)

    def count(name):
        return len(per_name.get(name, ()))

    run_start = tracer.first_start("experiments.run")
    return {
        "experiments.assembly_s": tracer.first_start("operators.mismatch_norm") - run_start,
        "operators.mismatch_norm_s": total("operators.mismatch_norm"),
        "operators.norm_s": total("operators.norm"),
        "operators.norm_calls": count("operators.norm"),
        "operators.sigma_min_s": total("operators.sigma_min"),
        "operators.factor_s": total("operators.factor"),
        "operators.factor_calls": count("operators.factor"),
        "operators.inner_solve_s": total("operators.inner_solve"),
        "operators.inner_solves": count("operators.inner_solve"),
        "operators.apply_s": total("operators.apply"),
        "operators.applies": count("operators.apply"),
        "operators.apply_adjoint_s": total("operators.apply_adjoint"),
        "operators.adjoint_applies": count("operators.apply_adjoint"),
        "proximal.prox_s": total("proximal.prox"),
        "proximal.prox_calls": count("proximal.prox"),
        "solvers.step_s": total("solvers.step"),
        "solvers.steps": count("solvers.step"),
        "solvers.loop_self_s": total("solvers.run")
        - tracer.children_time("solvers.run", "solvers.step"),
        "stepsize.plan_s": total("stepsize.plan"),
        "analysis.reference_s": total("analysis.reference", "analysis.error_bound"),
        "analysis.error_bound_s": total("analysis.error_bound"),
        "experiments.emit_s": total("experiments.emit"),
    }, per_name.get("operators.inner_solve", [])


def trace_column(report, solver, column):
    columns, rows = report.traces[solver]
    idx = columns.index(column)
    return [row[idx] for row in rows]


class TomoChecker:
    """Checks tomography outputs against operators assembled apart from the run."""

    def __init__(self, lib, params):
        config = lib["experiments"].TomoConfig(**params)
        size = config.image_size
        geom = lib["tomo"].ParallelGeometry(size, config.num_angles, config.num_bins or size)
        proj = lib["tomo"].build_projector_pair(geom)
        self.config = config
        self.mats = (proj.radon_forward.matrix.tocsr(), proj.radon_surrogate.matrix.tocsr(),
                     proj.gradient.matrix.tocsr())

    def __call__(self, report, named):
        c = self.config
        model = checks.TomoModel(*self.mats, report.images["sinogram"].ravel(),
                                 c.lam0, c.lam1, c.lam2, c.eps)
        finals = {name: (result.state.x, result.state.y,
                         trace_column(report, name, "residual")[1:])
                  for name, (_, result) in named.items()}
        return checks.check_tomo(model, finals, report.plan["theta"],
                                 report.summary["error_bound"])


class QuadraticChecker:
    """Checks quadratic outputs against the closed form computed here."""

    def __call__(self, report, named):
        c = report.config
        a, v, z = checks.quadratic_instance(c["seed"], c["n"], c["m"], c["mismatch_eta"])
        problem = named["mismatched"][0]
        failures = []
        if not (np.allclose(problem.pair.forward.matrix, a, rtol=1e-12, atol=1e-15)
                and np.allclose(problem.pair.surrogate.matrix, v, rtol=1e-12, atol=1e-15)):
            failures.append("quadratic: the study ran on other operators than its seed gives")
        finals = {name: result.state.x for name, (_, result) in named.items()}
        failures += checks.check_quadratic(a, v, z, c["alpha"], c["beta"], finals,
                                           report.summary["error_bound"])
        return failures


def run_one(lib, workload, seed, tracer, capture, checker):
    """One experiment plus emit; returns (end-to-end figures, layer figures, failures)."""
    exp = lib["experiments"]
    if workload.kind == "tomo":
        config = exp.TomoConfig(**workload.params, seed=seed)
        experiment = "run_tomography"
    else:
        config = exp.QuadraticConfig(**workload.params, seed=seed)
        experiment = "run_quadratic"
    capture.runs.clear()
    if tracer is not None:
        tracer.clear()
    # the previous experiment's operators and factorisations sit in reference
    # cycles; free them now so they neither overlap this one in memory nor
    # get collected inside its timed region
    gc.collect()
    OUT_DIR.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="emit-", dir=OUT_DIR)
    try:
        t0 = time.perf_counter()
        report = getattr(exp, experiment)(config)
        exp.emit_report(report, out_dir)
        wall = time.perf_counter() - t0
        with open(Path(out_dir) / f"{report.experiment}_summary.json") as fh:
            emitted = json.load(fh)["statuses"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failures = [f"{name}: status {report.statuses.get(name)}" for name in ALL_RUNS
                if report.statuses.get(name) != "converged"]
    if emitted != report.statuses:
        failures.append("emitted summary disagrees with the report")
    named = capture.by_name()
    if sorted(named) != sorted(ALL_RUNS):
        failures.append(f"solver runs {sorted(named)}")
    if failures:
        return None, None, failures
    failures = checker(report, named)

    stamps = {name: np.asarray(trace_column(report, name, "wall_time_ms")) for name in ALL_RUNS}
    solve_s = sum(float(s[-1]) for s in stamps.values()) / 1e3
    iterations = sum(len(s) - 1 for s in stamps.values())
    if iterations != sum(result.iterations for _, result in named.values()):
        failures.append("trace rows disagree with the iteration counts")
    iter_ms = np.concatenate([np.diff(stamps[name]) for name in PDDR_RUNS])
    e2e = {
        "wall_s": wall,
        "setup_s": wall - solve_s,
        "iterations": iterations,
        "iter_ms.p50": float(np.percentile(iter_ms, 50)),
        "iter_ms.p90": float(np.percentile(iter_ms, 90)),
    }
    layers = layer_metrics(tracer) if tracer is not None else None
    return e2e, layers, failures


def round_means(rounds, key):
    """Per-round mean over the round's instances."""
    return [statistics.fmean(fig[key] for fig in r) for r in rounds]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = import_library()
    workload = WORKLOADS[args.workload]
    checker = (TomoChecker(lib, workload.params) if workload.kind == "tomo"
               else QuadraticChecker())
    capture = Capture(lib["solvers"])
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_spans(lib, tracer)
    seeds = [int(s) for s in np.random.SeedSequence(args.seed).generate_state(workload.instances)]

    start = time.perf_counter()
    attempted = failed = 0
    correct = True
    rounds, layer_rounds, inner_solve_s = [], [], []
    while True:
        round_start = time.perf_counter()
        figures, layer_figures = [], []
        for seed in seeds:
            attempted += 1
            try:
                e2e, layers, failures = run_one(lib, workload, seed, tracer, capture, checker)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            if e2e is None:
                print(f"perfbench: seed {seed} failed: {failures}", file=sys.stderr)
                failed += 1
                continue
            if failures:
                print(f"perfbench: seed {seed} incorrect: {failures}", file=sys.stderr)
                correct = False
            figures.append(e2e)
            if layers is not None:
                layer_figures.append(layers[0])
                inner_solve_s.extend(layers[1])
        if figures:
            rounds.append(figures)
            print("perfbench: round " + " ".join(
                f"wall {fig['wall_s']:.4f} setup {fig['setup_s']:.4f}" for fig in figures),
                file=sys.stderr)
        if layer_figures:
            layer_rounds.append(layer_figures)
        now = time.perf_counter()
        if now + (now - round_start) > start + args.seconds:
            break
    if not rounds:
        raise SystemExit("perfbench: every experiment failed")

    wall = statistics.median(round_means(rounds, "wall_s"))
    if tracer is None:
        # every figure but memory is the median over rounds, so that a burst
        # of the shared host's load that slows a minority of a run's
        # experiments does not move it
        units = {"wall_s": "s", "setup_s": "s", "iter_ms.p50": "ms", "iter_ms.p90": "ms",
                 "iterations": "count"}
        metrics = {name: (statistics.median(round_means(rounds, name)), unit)
                   for name, unit in units.items()}
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    else:
        metrics = {}
        for name in layer_rounds[0][0]:
            unit = "s" if name.endswith("_s") else "count"
            metrics[name] = (statistics.median(round_means(layer_rounds, name)), unit)
        solve_ms = np.asarray(inner_solve_s) * 1e3
        metrics["operators.inner_solve_ms.p50"] = (float(np.percentile(solve_ms, 50)), "ms")
        metrics["operators.inner_solve_ms.p99"] = (float(np.percentile(solve_ms, 99)), "ms")
        tracer.restore()
        dump = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(dump)
        print(f"perfbench: spans of the last experiment in {dump.relative_to(ROOT)}",
              file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {sum(map(len, rounds))} experiments "
          f"in {len(rounds)} rounds, wall_s median {wall:.4f}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
