import json
import math
import os
import warnings

import numpy as np
import pytest

from mismatch_splitting.cli import main as cli_main
from mismatch_splitting.experiments import (
    QuadraticConfig,
    RunReport,
    TomoConfig,
    run_counterexample,
    run_quadratic,
    run_tomography,
    emit_report,
    huber_tv_prox,
    write_pgm,
)
from mismatch_splitting.operators import InnerSystemSolver

from linf2_reference import project_linf2


def test_counterexample_matched_control_contracts():
    # alpha_mm = -1 makes the surrogate the true adjoint: no divergence
    report = run_counterexample(alpha_mm=-1.0, max_iters=5000)
    assert report.statuses["mismatched"] in ("converged", "max_iters")
    assert report.summary["final_primal_norm"] <= 1e-8
    assert report.summary["primal_norm_growth_slope"] <= 1e-10


def test_counterexample_zero_mismatch_bounded():
    report = run_counterexample(alpha_mm=0.0, max_iters=2000)
    assert not report.diverged
    assert report.summary["final_primal_norm"] <= 100.0


def test_counterexample_positive_mismatch_grows():
    report = run_counterexample(max_iters=3000)
    assert report.summary["primal_norm_growth_slope"] > 0.0
    assert report.summary["mismatch_norm"] == pytest.approx(1.01)


def test_counterexample_divergence_threshold():
    report = run_counterexample(max_iters=50000, divergence_threshold=40.0)
    assert report.diverged
    assert report.statuses["mismatched"] == "diverged"


def small_quadratic(**overrides):
    kwargs = dict(n=40, m=20, max_iters=4000, seed=11)
    kwargs.update(overrides)
    return QuadraticConfig(**kwargs)


def test_run_quadratic_small_instance():
    report = run_quadratic(small_quadratic())
    assert set(report.statuses) == {"matched", "mismatched", "adapted", "cp"}
    assert all(s == "converged" for s in report.statuses.values())
    s = report.summary
    assert s["terminal_dist_to_fixed_point"] <= 1e-8
    assert s["terminal_dist_to_true"] <= s["error_bound"] + 1e-8
    assert abs(s["terminal_dist_to_true"] - s["fixed_point_gap"]) <= 1e-8
    assert 0 < s["empirical_rate"] < 1
    assert report.plan["tau"] == pytest.approx(s["tau"])


def test_run_quadratic_summary_reads_the_plan():
    report = run_quadratic(small_quadratic())
    plan = report.plan
    assert report.summary["predicted_rate"] == plan["rate"]
    assert report.summary["cp_step"] == 0.95 / np.sqrt(plan["norm_a"] * plan["norm_v"])


def test_run_quadratic_deterministic():
    r1 = run_quadratic(small_quadratic())
    r2 = run_quadratic(small_quadratic())
    assert r1.summary == r2.summary
    cols1, rows1 = r1.traces["mismatched"]
    cols2, rows2 = r2.traces["mismatched"]
    assert cols1 == cols2
    skip = cols1.index("wall_time_ms")  # the only nondeterministic column
    for a, b in zip(rows1, rows2):
        assert a[:skip] == b[:skip] and a[skip + 1:] == b[skip + 1:]


def test_run_quadratic_records_inner_backend():
    report = run_quadratic(small_quadratic())
    backends = report.summary["inner_backend"]
    assert sorted(backends) == ["adapted", "matched", "mismatched"]
    for name, info in backends.items():
        assert info["backend"] == "dense"
        assert 0.0 < info["rcond"] <= 1.0
        assert report.timings["inner_factor_s"][name] > 0.0


def test_each_run_factors_its_inner_system_once(monkeypatch):
    # one factorisation per PDDR stepper, however many steps it takes, plus
    # one for the sigma_min diagnostic; the tomography oracle run reuses the
    # mismatched stepper
    calls = []
    init = InnerSystemSolver.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(InnerSystemSolver, "__init__", counting_init)
    run_quadratic(QuadraticConfig(n=40, m=20, max_iters=4000, seed=11))
    assert len(calls) == 4
    calls.clear()
    run_tomography(TomoConfig(16, 4, max_iters=300, with_oracle=True))
    assert len(calls) == 4
    calls.clear()
    run_counterexample(max_iters=300)
    assert len(calls) == 1


def test_tomography_objective_is_the_smoothed_one_solved():
    # the matched run minimises the model, so its Huber-TV objective is the
    # lowest; plain TV ranked the mismatched point lower on this instance
    report = run_tomography(TomoConfig(image_size=16, num_angles=4, seed=3))
    finals = {}
    for name in ("matched", "mismatched", "adapted"):
        columns, rows = report.traces[name]
        finals[name] = rows[-1][columns.index("objective")]
        assert report.summary["inner_backend"][name]["backend"] == "woodbury"
        assert report.timings["inner_factor_s"][name] > 0.0
    assert finals["matched"] < min(finals["mismatched"], finals["adapted"])


def test_huber_tv_prox_matches_transposed_projection_bitwise():
    sino, n_pix, lam0, lam1, eps = 40, 64, 10.0, 0.8, 0.1
    rng = np.random.default_rng(11)
    z = rng.standard_normal(sino)

    def check(lam1, dual, tau):
        # the former composition: (n_pix, 2) field, project_linf2, concatenate
        q_new = (dual[:sino] - tau * z) / (1.0 + tau / lam0)
        field = (dual[sino:] / (1.0 + tau * eps)).reshape(2, n_pix).T
        ref = np.concatenate([q_new, project_linf2(field, lam1).T.ravel()])
        got = huber_tv_prox(lam0, lam1, eps, z, sino, n_pix)(dual, tau)
        if lam1 == 0.0:  # the reference writes +0.0 where the prox keeps the sign
            assert not got[sino:].any() and got[:sino].tobytes() == ref[:sino].tobytes()
        else:
            assert got.tobytes() == ref.tobytes()
        return np.linalg.norm(field, axis=1)

    for tau in (1e-3, 0.05, 0.7, 3.0):
        dual = rng.standard_normal(sino + 2 * n_pix)
        lengths = check(lam1, dual, tau)
        assert (lengths > lam1).any() and (lengths <= lam1).any()
        check(float(lengths[0]), dual, tau)  # pixel 0 exactly on the ball
        check(0.0, dual, tau)  # lam1 = 0: the gradient part is exactly zero
        zero_field = np.concatenate([dual[:sino], np.zeros(2 * n_pix)])
        assert not check(lam1, zero_field, tau).any()


@pytest.mark.parametrize("lam0, lam1, eps", [
    (0.0, 0.8, 0.1), (-1.0, 0.8, 0.1), (np.inf, 0.8, 0.1), (np.nan, 0.8, 0.1),
    (10.0, np.inf, 0.1), (10.0, np.nan, 0.1),
    (10.0, 0.8, -0.5), (10.0, 0.8, np.inf), (10.0, 0.8, np.nan),
])
def test_huber_tv_prox_refuses_invalid_moduli(lam0, lam1, eps):
    # lam0 = 0 raised ZeroDivisionError; lam0 = -1 returned inf and eps = -0.5
    # NaN; an infinite or NaN radius would give inf/inf scales
    with pytest.raises(ValueError, match="lam0 > 0"):
        huber_tv_prox(lam0, lam1, eps, np.zeros(4), 4, 8)


def test_tomography_reports_empirical_rate():
    report = run_tomography(TomoConfig(image_size=16, num_angles=4, seed=3))
    rate = report.summary["empirical_rate"]
    assert 0.0 < rate <= report.summary["predicted_rate"] + 0.02


def test_tomography_reports_spectral_bounds_and_guarantee():
    report = run_tomography(TomoConfig(image_size=16, num_angles=4, seed=3))
    s = report.summary
    # the matched run stands in for x*: the a-priori bound must cover it
    assert 0.0 < s["dist_mismatched_to_matched"] <= s["error_bound"]
    spectral = s["spectral"]
    assert spectral["sigma_lower_bound"] == report.plan["sigma"]
    assert spectral["b_sigma_upper_bound"] == report.plan["b_sigma_norm"]
    # a 16^2 block (832 rows) is within DENSE_DIM_LIMIT for the sigma_min diagnostic
    assert 0.0 < spectral["sigma_bound_ratio"] <= 1.0
    assert spectral["sigma_min"] * spectral["sigma_bound_ratio"] == pytest.approx(
        spectral["sigma_lower_bound"], rel=1e-12)


def test_tomography_without_existence_raises_certificate_error():
    from mismatch_splitting.stepsize import CertificateError

    with pytest.raises(CertificateError, match="existence condition"):
        run_tomography(TomoConfig(image_size=16, num_angles=4, lam2=1e-4))


def test_tomography_with_two_angles_converges():
    # the two projectors agree to rounding at 0 and 90 degrees, so ||A - V||
    # is rounding noise and must come back as a number, not an error
    report = run_tomography(TomoConfig(16, 2, seed=3))
    assert report.statuses == dict.fromkeys(("matched", "mismatched", "adapted", "cp"),
                                            "converged")
    assert report.summary["mismatch_norm"] <= 1e-15


@pytest.mark.parametrize("lam0", [0.0, -1.0])
def test_tomography_refuses_non_positive_lam0_before_assembly(monkeypatch, lam0):
    def refuse(geom):
        raise AssertionError("the projectors were assembled")

    monkeypatch.setattr("mismatch_splitting.tomo.build_projector_pair", refuse)
    with pytest.raises(ValueError, match="lam0"):
        run_tomography(TomoConfig(image_size=8, num_angles=2, lam0=lam0))


@pytest.mark.parametrize("noise_rel", [-1.0, float("nan"), float("inf")])
def test_tomography_refuses_bad_noise_rel_before_assembly(monkeypatch, noise_rel):
    def refuse(geom):
        raise AssertionError("the projectors were assembled")

    monkeypatch.setattr("mismatch_splitting.tomo.build_projector_pair", refuse)
    with pytest.raises(ValueError, match="noise_rel"):
        run_tomography(TomoConfig(image_size=8, num_angles=2, noise_rel=noise_rel))


def test_run_quadratic_reports_spectral_slack():
    spectral = run_quadratic(small_quadratic()).summary["spectral"]
    assert 0.0 < spectral["sigma_lower_bound"] <= spectral["sigma_min"]
    assert spectral["sigma_bound_ratio"] == spectral["sigma_lower_bound"] / spectral["sigma_min"]
    assert spectral["b_sigma_upper_bound"] > 0.0


def test_run_quadratic_adapted_agrees_with_mismatched():
    report = run_quadratic(small_quadratic())
    # both converge to the same fixed point of the mismatched inclusion
    t_mm = report.traces["mismatched"]
    t_ad = report.traces["adapted"]
    dist_col = t_mm[0].index("dist_to_ref")
    assert t_mm[1][-1][dist_col] <= 1e-6
    assert t_ad[1][-1][dist_col] <= 1e-6


def test_emit_report_files(tmp_path):
    report = run_quadratic(small_quadratic(max_iters=50, fixed_point_tol=1e-16))
    paths = emit_report(report, tmp_path)
    names = sorted(os.path.basename(p) for p in paths)
    assert names == [
        "quadratic_adapted.csv",
        "quadratic_cp.csv",
        "quadratic_matched.csv",
        "quadratic_mismatched.csv",
        "quadratic_summary.json",
    ]
    with open(tmp_path / "quadratic_summary.json") as fh:
        payload = json.load(fh)
    assert payload["experiment"] == "quadratic"
    assert payload["statuses"]["mismatched"] == "max_iters"
    lines = (tmp_path / "quadratic_mismatched.csv").read_text().splitlines()
    assert lines[0].startswith("iter,dist_to_ref,objective,residual,wall_time_ms")
    assert len(lines) == len(report.traces["mismatched"][1]) + 1 == 50 + 2
    # the objective is written on every 10th row and the final one, else left empty
    cells = [line.split(",") for line in lines[1:]]
    assert all((row[2] == "") == (int(row[0]) % 10 != 0) for row in cells[:-1])
    assert cells[-1][2] != ""


def test_emit_report_empty_trace_and_images(tmp_path):
    report = RunReport(experiment="toy", config={},
                       traces={"solo": (("iter", "residual"), [])},
                       images={"img": np.outer(np.arange(4.0), np.ones(3))})
    paths = emit_report(report, tmp_path)
    csv_path = tmp_path / "toy_solo.csv"
    assert csv_path.read_text() == "iter,residual\n"
    with open(tmp_path / "toy_summary.json") as fh:
        json.load(fh)
    assert (tmp_path / "toy_img.pgm").exists()
    assert len(paths) == 3


def test_write_pgm_deterministic_bytes(tmp_path):
    img = np.random.default_rng(0).random((5, 7))
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(p1, img)
    write_pgm(p2, img)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    assert b1.startswith(b"P5\n7 5\n255\n")
    assert len(b1) == len(b"P5\n7 5\n255\n") + 35


def test_write_pgm_flat_image(tmp_path):
    path = tmp_path / "flat.pgm"
    write_pgm(path, np.full((2, 2), 3.0))
    body = path.read_bytes().split(b"255\n", 1)[1]
    assert body == bytes(4)


def test_write_pgm_scales_on_finite_pixels(tmp_path):
    path = tmp_path / "nan.pgm"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_pgm(path, np.array([[0.0, 1.0], [np.nan, 0.5]]))
        write_pgm(tmp_path / "inf.pgm", np.array([[-np.inf, 2.0], [np.inf, 4.0]]))
    assert path.read_bytes().split(b"255\n", 1)[1] == bytes([0, 255, 0, 128])
    assert (tmp_path / "inf.pgm").read_bytes().split(b"255\n", 1)[1] == bytes([0, 0, 255, 255])


def test_cli_quadratic_exit_zero(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 40, "m": 20, "max_iters": 4000}))
    code = cli_main(["quadratic", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "quadratic_summary.json").exists()


def test_cli_counterexample_exit_two(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_iters": 50000, "divergence_threshold": 40.0}))
    code = cli_main(["counterexample", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert (tmp_path / "out" / "counterexample_summary.json").exists()


def test_cli_stepsize_plan(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma_g": 2.0, "gamma_f": 0.1,
                               "mismatch_norm": 0.2945, "theta": 0.5}))
    out = tmp_path / "out"
    assert cli_main(["stepsize", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "stepsize_plan.json") as fh:
        payload = json.load(fh)
    assert payload["plan"]["tau"] > 0
    assert 0 < payload["predicted_rate"] < 1


def test_cli_stepsize_prints_one_rate_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma_g": 2.0, "gamma_f": 0.1,
                               "mismatch_norm": 0.2945, "theta": 0.5}))
    assert cli_main(["stepsize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines].count("rate") == 1


def test_cli_stepsize_rejects_negative_mismatch_norm(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma_g": 2.0, "gamma_f": 0.1,
                               "mismatch_norm": -0.5, "theta": 0.5}))
    out = tmp_path / "out"
    assert cli_main(["stepsize", "--config", str(cfg), "--out", str(out)]) == 1
    assert "mismatch_norm must be nonnegative" in capsys.readouterr().err
    assert not (out / "stepsize_plan.json").exists()


def test_cli_stepsize_rejects_infinite_modulus(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma_g": math.inf, "gamma_f": 1.0, "mismatch_norm": 0.0}))
    out = tmp_path / "out"
    assert cli_main(["stepsize", "--config", str(cfg), "--out", str(out)]) == 1
    assert "gamma_g must be positive and finite" in capsys.readouterr().err
    assert not (out / "stepsize_plan.json").exists()


def test_quadratic_refuses_infinite_alpha():
    with pytest.raises(ValueError, match="gamma_g must be positive and finite"):
        run_quadratic(QuadraticConfig(alpha=math.inf))


def test_emit_report_writes_each_run_table(tmp_path, monkeypatch):
    from mismatch_splitting import solvers

    results, original = [], solvers.run

    def capture(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(solvers, "run", capture)
    report = run_quadratic(small_quadratic(max_iters=60))
    emit_report(report, tmp_path)
    assert len(results) == len(report.traces) == 4
    for name, result in zip(("matched", "mismatched", "adapted", "cp"), results):
        columns, rows = report.traces[name]
        assert columns == result.columns and rows is result.trace
        lines = (tmp_path / f"quadratic_{name}.csv").read_text().splitlines()
        assert lines[0] == ",".join(result.columns)
        assert len(lines) == 1 + len(result.trace)
    assert results[0].columns[-1] == "wall_time_ms" and results[1].columns[-1] == "dist_to_true"


def test_cli_stepsize_missing_mismatch_norm(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma_g": 2.0, "gamma_f": 0.1, "theta": 0.5}))
    assert cli_main(["stepsize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "missing config key: 'mismatch_norm'" in capsys.readouterr().err


def test_cli_stepsize_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma_g": 2.0, "gamma_f": 0.1,
                               "mismatch_norm": 0.2945, "thetta": 0.9}))
    out = tmp_path / "out"
    assert cli_main(["stepsize", "--config", str(cfg), "--out", str(out)]) == 1
    assert "thetta" in capsys.readouterr().err
    assert not out.exists()


def _write_csv_pair(tmp_path, rng):
    from mismatch_splitting.operators import MatrixOperator
    from operator_reference import save_operator_csv

    a = rng.standard_normal((4, 6))
    v = a - 0.05 * rng.standard_normal((4, 6))
    save_operator_csv(MatrixOperator(a), tmp_path / "a.csv")
    save_operator_csv(MatrixOperator(v), tmp_path / "v.csv")
    return {"forward_csv": str(tmp_path / "a.csv"), "surrogate_csv": str(tmp_path / "v.csv")}


def test_cli_stepsize_rejects_mismatch_norm_with_csvs(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_write_csv_pair(tmp_path, np.random.default_rng(0)),
                               "gamma_g": 2.0, "gamma_f": 0.1, "mismatch_norm": 0.2945}))
    out = tmp_path / "out"
    assert cli_main(["stepsize", "--config", str(cfg), "--out", str(out)]) == 1
    assert "mismatch_norm" in capsys.readouterr().err
    assert not out.exists()


def test_cli_analyze_rejects_unknown_key(tmp_path, capsys):
    rng = np.random.default_rng(0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_write_csv_pair(tmp_path, rng), "alpha": 0.5,
                               "beta": 1.0, "z": list(rng.standard_normal(4)),
                               "probe_taus": 2.0}))
    out = tmp_path / "out"
    assert cli_main(["analyze", "--config", str(cfg), "--out", str(out)]) == 1
    assert "probe_taus" in capsys.readouterr().err
    assert not out.exists()


def test_cli_wrongly_typed_config_value_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": "abc"}))
    out = tmp_path / "out"
    assert cli_main(["quadratic", "--config", str(cfg), "--out", str(out)]) == 1
    assert "Error: config key 'n' must be int" in capsys.readouterr().err
    assert not out.exists()


def test_cli_non_bool_config_flag_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"with_oracle": "no"}))
    out = tmp_path / "out"
    assert cli_main(["tomo", "--config", str(cfg), "--out", str(out)]) == 1
    assert "config key 'with_oracle' must be bool" in capsys.readouterr().err
    assert not out.exists()


def test_cli_tomo_zero_lam0_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"image_size": 8, "num_angles": 2, "lam0": 0}))
    out = tmp_path / "out"
    assert cli_main(["tomo", "--config", str(cfg), "--out", str(out)]) == 1
    assert "lam0" in capsys.readouterr().err
    assert not out.exists()


def test_cli_tomo_negative_noise_rel_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"image_size": 8, "num_angles": 2, "noise_rel": -1}))
    out = tmp_path / "out"
    assert cli_main(["tomo", "--config", str(cfg), "--out", str(out)]) == 1
    assert "noise_rel" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config, key", [
    ("quadratic", {"fixed_point_tol": math.nan, "n": 40, "m": 20, "max_iters": 300},
     "fixed_point_tol"),
    ("counterexample", {"divergence_threshold": math.nan, "max_iters": 300},
     "divergence_threshold"),
    ("counterexample", {"theta": math.nan, "max_iters": 300}, "theta"),
    ("counterexample", {"max_iters": 2.5}, "max_iters"),
])
def test_cli_nan_or_fractional_run_setting_exits_one(tmp_path, capsys, command, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))  # NaN, which Python's json reads back
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_cli_int_for_float_config_value_runs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 40, "m": 20, "max_iters": 4000, "alpha": 1}))
    out = tmp_path / "out"
    assert cli_main(["quadratic", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "quadratic_summary.json").exists()


def test_cli_analyze_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_write_csv_pair(tmp_path, rng), "alpha": 0.5,
                               "beta": 1.0, "z": list(rng.standard_normal(4))}))
    out = tmp_path / "out"
    assert cli_main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "analyze_report.json") as fh:
        payload = json.load(fh)
    assert payload["exists_unique"] is True
    assert payload["inclusion_residual"] <= 1e-9


def test_cli_error_exits(tmp_path):
    assert cli_main(["quadratic", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path)]) == 1
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    assert cli_main(["quadratic", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1
    cfg.write_text("not json")
    assert cli_main(["quadratic", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1
    assert cli_main(["no-such-command"]) == 1


def test_cli_counterexample_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert cli_main(["counterexample", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
    assert "bogus" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_counterexample_has_no_seed_flag(tmp_path):
    # the seed is set through --config
    assert cli_main(["counterexample", "--out", str(tmp_path), "--seed", "3"]) == 1


def test_cli_quadratic_has_no_full_scale_flag(tmp_path):
    # max_iters is set through --config; only tomo keeps --full-scale
    assert cli_main(["quadratic", "--out", str(tmp_path), "--full-scale"]) == 1


@pytest.mark.parametrize("command, config, key", [
    ("counterexample", {"tau": True, "max_iters": 50}, "tau"),
    ("stepsize", {"gamma_g": "2", "gamma_f": True, "mismatch_norm": 0.5}, "gamma_g"),
    ("analyze", {"alpha": True, "beta": 1.0, "z": [0.1, -0.2, 0.3, 0.4]}, "alpha"),
])
def test_cli_wrongly_typed_value_exits_one_for_every_command(tmp_path, capsys, command,
                                                             config, key):
    if command == "analyze":
        config = {**_write_csv_pair(tmp_path, np.random.default_rng(0)), **config}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert f"config key {key!r} must be" in capsys.readouterr().err
    assert not out.exists()


def test_cli_null_only_where_the_default_is_none(tmp_path, capsys):
    pair = _write_csv_pair(tmp_path, np.random.default_rng(0))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**pair, "gamma_g": 2.0, "gamma_f": 0.1, "mismatch_norm": None}))
    assert cli_main(["stepsize", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    cfg.write_text(json.dumps({**pair, "gamma_g": None, "gamma_f": 0.1}))
    assert cli_main(["stepsize", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 1
    assert "config key 'gamma_g' must be float, got None" in capsys.readouterr().err


@pytest.mark.parametrize("command, config", [
    ("quadratic", {"n": 0}),
    ("counterexample", {"dim": 0}),
])
def test_cli_zero_dimension_exits_one_naming_it(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert "matrix has a zero dimension" in capsys.readouterr().err
    assert not out.exists()


def test_cli_stepsize_refuses_a_non_finite_operator_entry(tmp_path, capsys):
    pair = _write_csv_pair(tmp_path, np.random.default_rng(0))
    lines = (tmp_path / "a.csv").read_text().splitlines()
    lines[1] = "nan," + lines[1].split(",", 1)[1]
    (tmp_path / "a.csv").write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**pair, "gamma_g": 2.0, "gamma_f": 0.1}))
    out = tmp_path / "out"
    assert cli_main(["stepsize", "--config", str(cfg), "--out", str(out)]) == 1
    assert "matrix has a non-finite entry" in capsys.readouterr().err
    assert not out.exists()


def test_counterexample_refuses_nan_mismatch():
    with pytest.raises(ValueError, match="non-finite entry"):
        run_counterexample(alpha_mm=math.nan)


@pytest.mark.parametrize("eta", [-0.3, math.nan, math.inf])
def test_quadratic_refuses_negative_or_non_finite_mismatch_eta(eta):
    with pytest.raises(ValueError, match="mismatch_eta"):
        run_quadratic(small_quadratic(mismatch_eta=eta))


def test_quadratic_zero_mismatch_eta_is_the_matched_pair():
    report = run_quadratic(small_quadratic(mismatch_eta=0.0, max_iters=100))
    assert report.summary["mismatch_norm"] == 0.0
    assert report.summary["error_bound"] == 0.0


def test_tomo_oracle_budget_is_ten_times_max_iters(monkeypatch):
    from mismatch_splitting import solvers

    budgets, original = [], solvers.run

    def capture(problem, stepper, stopping, **kwargs):
        budgets.append(stopping.max_iters)
        return original(problem, stepper, stopping, **kwargs)

    monkeypatch.setattr(solvers, "run", capture)
    report = run_tomography(TomoConfig(8, 2, max_iters=30, with_oracle=True))
    assert budgets == [30] * 4 + [300]
    assert "oracle_factor" not in report.config


def test_cli_tomo_refuses_oracle_factor(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"image_size": 8, "num_angles": 2, "oracle_factor": 0}))
    out = tmp_path / "out"
    assert cli_main(["tomo", "--config", str(cfg), "--out", str(out)]) == 1
    assert "unknown config keys: ['oracle_factor']" in capsys.readouterr().err
    assert not out.exists()


def test_every_json_file_comes_from_the_one_writer(tmp_path):
    import mismatch_splitting

    pair = _write_csv_pair(tmp_path, np.random.default_rng(0))
    runs = {
        "quadratic": {"n": 40, "m": 20, "max_iters": 300},
        "stepsize": {"gamma_g": 2, "gamma_f": 0.1, "mismatch_norm": 0.2945},
        "analyze": {**pair, "alpha": 0.5, "beta": 1.0, "z": [0.1, -0.2, 0.3, 0.4]},
    }
    out = tmp_path / "out"
    for command, config in runs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(config))
        assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 0
    written = sorted(out.glob("*.json"))
    assert [p.name for p in written] == [
        "analyze_report.json", "quadratic_summary.json", "stepsize_plan.json"]
    for path in written:
        with open(path) as fh:
            canonical = json.dumps(json.load(fh), indent=2, sort_keys=True) + "\n"
        assert path.read_text() == canonical
    # an int modulus is written as the float it is coerced to
    assert '"gamma_g": 2.0' in (out / "stepsize_plan.json").read_text()
    src = os.path.dirname(mismatch_splitting.__file__)
    sources = [open(os.path.join(src, name)).read()
               for name in os.listdir(src) if name.endswith(".py")]
    assert sum(text.count("json.dump") for text in sources) == 1
