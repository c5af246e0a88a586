"""The names the benchmark's per-layer spans wrap still exist, and its
counters mean what they say: the benchmark harness installs its spans on the
library, a small quadratic study runs through the wrapped plan and sigma_min
paths, and each tomography step encloses the spans it should."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(monkeypatch, name):
    """Import perfbench/<name>.py by path, registered (for its dataclasses)
    under a name of its own until the test ends."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def traced(monkeypatch, experiment):
    """Call ``experiment(experiments)`` under the benchmark's spans; returns
    the tracer and what the call returned."""
    # run.py imports its sibling modules checks and spans by plain name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run, spans = load(monkeypatch, "run"), load(monkeypatch, "spans")
    lib = run.import_library()
    tracer = spans.Tracer()
    run.install_spans(lib, tracer)
    try:
        return tracer, experiment(lib["experiments"])
    finally:
        tracer.restore()


def test_benchmark_spans_install_and_record(monkeypatch):
    tracer, _ = traced(monkeypatch,
                       lambda exp: exp.run_quadratic(exp.QuadraticConfig(n=40, m=20, seed=3)))
    assert {"stepsize.plan", "operators.sigma_min"} <= set(tracer.layer_totals())


def test_tomography_step_spans_enclose_one_solve_and_two_proxes(monkeypatch):
    # the per-layer counters read the same way before and after a change to
    # the step: a PDDR step is one inner solve and two proxes, the solve one
    # D product each way, and a Chambolle-Pock step two proxes and two products
    tracer, report = traced(monkeypatch,
                            lambda exp: exp.run_tomography(exp.TomoConfig(16, 4, seed=3)))
    names, parents = tracer.names, tracer.parents
    children = [Counter() for _ in names]
    for name, parent in zip(names, parents):
        if parent >= 0:
            children[parent][name] += 1
    steps = [i for i, name in enumerate(names) if name == "solvers.step"]
    pddr = {i for i in steps if "operators.inner_solve" in children[i]}
    iterations = {name: len(rows) - 1 for name, (_, rows) in report.traces.items()}
    assert len(pddr) == sum(iterations[name] for name in ("matched", "mismatched", "adapted"))
    assert len(steps) - len(pddr) == iterations["cp"] > 0
    products = {"operators.apply": 1, "operators.apply_adjoint": 1}
    for i in steps:
        expected = {"operators.inner_solve": 1, "proximal.prox": 2} if i in pddr else {
            "proximal.prox": 2, **products}
        assert children[i] == expected
    solves = [i for i, p in enumerate(parents) if p in pddr and names[i] == "operators.inner_solve"]
    assert len(solves) == len(pddr)
    assert all(children[i] == products for i in solves)
