"""The benchmark's correctness checks pass real outputs and reject wrong ones.

Each check runs on a small experiment of the library, once as produced and
once with one fault planted: a closed-form fixed point moved by 1e-6
relative, a reported error bound scaled by 0.9, the matched and mismatched
results swapped, or a run whose surrogate was swapped for the forward map.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

import run

LIB = run.import_library()
QUAD = {"n": 40, "m": 20}
TOMO = {"image_size": 8, "num_angles": 4}


def experiment(kind, params):
    capture = run.Capture(LIB["solvers"])
    try:
        exp = LIB["experiments"]
        if kind == "tomo":
            report = exp.run_tomography(exp.TomoConfig(**params, seed=3))
        else:
            report = exp.run_quadratic(exp.QuadraticConfig(**params, seed=3))
        return report, capture.by_name()
    finally:
        capture.restore()


def checker(kind):
    return run.TomoChecker(LIB, TOMO) if kind == "tomo" else run.QuadraticChecker()


def swap_surrogate(monkeypatch, kind):
    """Make the experiment pair the forward map with itself."""
    pair_cls = LIB["operators"].MismatchPair
    if kind == "tomo":
        monkeypatch.setattr(LIB["tomo"].ProjectorPair, "mismatch_pair",
                            lambda self: pair_cls(self.forward, self.forward))
    else:
        monkeypatch.setattr(LIB["experiments"], "MismatchPair",
                            lambda forward, surrogate: pair_cls(forward, forward))


def moved(named, name, rel):
    """``named`` with ``name``'s final x moved by ``rel`` of its norm."""
    problem, result = named[name]
    x = result.state.x
    step = np.ones_like(x) / np.sqrt(x.size)
    out = dict(named)
    out[name] = (problem, replace(result, state=replace(result.state,
                                                         x=x + rel * np.linalg.norm(x) * step)))
    return out


def scaled_bound(report, factor):
    out = copy.copy(report)
    out.summary = dict(report.summary, error_bound=factor * report.summary["error_bound"])
    return out


def swapped(named, a, b):
    out = dict(named)
    out[a], out[b] = named[b], named[a]
    return out


@pytest.fixture(scope="module", params=["quadratic", "tomo"])
def case(request):
    kind = request.param
    report, named = experiment(kind, QUAD if kind == "quadratic" else TOMO)
    return kind, report, named


def test_outputs_pass(case):
    kind, report, named = case
    assert checker(kind)(report, named) == []


def test_scaled_error_bound_fails(case):
    kind, report, named = case
    failures = checker(kind)(scaled_bound(report, 0.9), named)
    assert any("error bound" in f for f in failures), failures


def test_swapped_matched_and_mismatched_fail(case):
    kind, report, named = case
    assert checker(kind)(report, swapped(named, "matched", "mismatched"))


def test_moved_fixed_point_fails(case):
    kind, report, named = case
    # the quadratic runs stop ~1e-12 from the closed form; tomography stops
    # at residual 1e-6, so its checks resolve ~1e-3 relative
    rel = 1e-6 if kind == "quadratic" else 1e-3
    failures = checker(kind)(report, moved(named, "mismatched", rel))
    assert any("mismatched" in f for f in failures), failures


@pytest.mark.parametrize("kind", ["quadratic", "tomo"])
def test_swapped_surrogate_fails(kind, monkeypatch):
    check = checker(kind)
    swap_surrogate(monkeypatch, kind)
    report, named = experiment(kind, QUAD if kind == "quadratic" else TOMO)
    assert all(status == "converged" for status in report.statuses.values())
    assert check(report, named)
