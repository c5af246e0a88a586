"""The names the benchmark's per-layer spans wrap still exist: the benchmark
harness installs its spans on the library and a small quadratic study runs
through the wrapped plan and sigma_min paths."""

import importlib.util
import sys
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


def test_benchmark_spans_install_and_record(monkeypatch):
    # run.py imports its sibling modules checks and spans by plain name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run, spans = load(monkeypatch, "run"), load(monkeypatch, "spans")
    lib = run.import_library()
    tracer = spans.Tracer()
    run.install_spans(lib, tracer)
    try:
        exp = lib["experiments"]
        exp.run_quadratic(exp.QuadraticConfig(n=40, m=20, seed=3))
        assert {"stepsize.plan", "operators.sigma_min"} <= set(tracer.layer_totals())
    finally:
        tracer.restore()
