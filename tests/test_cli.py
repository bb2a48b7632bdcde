import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ive, kve

import critspec
from critspec.cli import (EXPERIMENTS, ExperimentConfig, emit_plotdata, main,
                          run_experiment)
from critspec.errors import InvalidArgumentError, ResourceLimitError
from critspec.spectra import Spectrum


def small_config(experiment, **kw):
    base = dict(experiment=experiment, n=128, window=(2, 14), seed=1)
    base.update(kw)
    return ExperimentConfig.from_dict(base)


def test_circle_weyl_small_run(tmp_path):
    config = small_config("circle-weyl", out_dir=str(tmp_path))
    report = run_experiment(config)
    assert report.expected["c_plus"] == pytest.approx(1.0, rel=1e-12)
    assert "c_plus" in report.measured
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "spectrum.csv").exists()
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["config_hash"] == config.hash()


def test_unknown_experiment_is_usage_error(tmp_path, capsys):
    with pytest.raises(InvalidArgumentError):
        run_experiment(small_config("no-such-thing"))
    code = main(["run", "--experiment", "no-such-thing"])
    assert code == 2
    assert not list(tmp_path.iterdir())


def test_resource_limit_exit_code(tmp_path):
    config = small_config("circle-weyl", n=4096, max_matrix_n=512)
    with pytest.raises(ResourceLimitError):
        run_experiment(config)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "circle-weyl", "n": 4096,
                               "max_matrix_n": 512}))
    assert main(["run", "--config", str(cfg)]) == 3


@pytest.mark.parametrize("config", [
    # 48248 unknowns; the grid's bounding box alone has 62500 cells
    {"experiment": "mixed-ac-singular", "params": {"delta": 0.008}},
    {"experiment": "polygon-weyl", "n": 400000},
], ids=["fine-cell-grid", "large-polygon"])
def test_size_caps_are_checked_before_allocating(config, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    tracemalloc.start()
    try:
        code = main(["run", "--config", str(cfg)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr().err.startswith("resource limit: ")
    assert peak < 2 * 2 ** 20


def test_spectrum_command_applies_the_matrix_cap(tmp_path, capsys):
    code = main(["spectrum", "--n", "4202", "--out", str(tmp_path)])
    assert code == 3
    assert "exceeds the cap 4200" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("text", [
    '{"n": 128}',
    '{"experiment": "circle-weyl", "tolerance": {"coefficient": 0.5}}',
    '{"experiment": "circle-weyl", "n": 128',
    '["circle-weyl"]',
    '{"experiment": "circle-weyl", "n": "abc"}',
    '{"experiment": "signed-weight", "n": 64,'
    ' "params": {"weight": {"kind": "tabulated"}}}',
    '{"experiment": "polygon-weyl", "n": 64, "params": {"vertices": "abc"}}',
    '{"experiment": "polygon-weyl", "n": 64,'
    ' "params": {"vertices": [[0, 0], [1, 0]]}}',
    '{"experiment": "polygon-weyl", "n": 64,'
    ' "params": {"vertices": [[0, 0], [1, 0], [1, "y"]]}}',
    '{"experiment": "two-surfaces", "n": 64, "params": {"center_2": [1, "x"]}}',
    '{"experiment": "two-surfaces", "n": 64, "params": {"center_2": 5}}',
    '{"experiment": "lower-order-decay", "params": {"n": 32}}',
], ids=["no-experiment", "unknown-key", "malformed-json", "not-an-object",
        "n-not-a-number", "tabulated-without-values", "vertices-not-a-list",
        "vertices-too-few", "vertex-not-a-number", "center-not-a-number",
        "center-not-a-pair", "lower-order-below-40-eigenvalues"])
def test_bad_config_is_usage_error(tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg)]) == 2


def test_signed_weight_with_one_signed_weight_checks_c_plus_only():
    report = run_experiment(small_config(
        "signed-weight", params={"weight": {"kind": "constant",
                                            "value": 1.0}}))
    assert [c["name"] for c in report.criteria] == ["c_plus"]
    assert report.expected["c_minus"] == 0.0


def test_circle_weyl_with_signed_weight_checks_both_sides():
    report = run_experiment(small_config(
        "circle-weyl", params={"weight": {"kind": "angular"}}))
    assert [c["name"] for c in report.criteria] == ["c_plus", "c_minus"]
    assert report.expected["c_minus"] > 0.0


def test_predicted_side_without_a_fit_fails_its_criterion():
    # one slightly negative node: c_minus is predicted but the window holds
    # too few negative eigenvalues to fit it
    values = np.ones(128)
    values[0] = -1e-3
    report = run_experiment(small_config(
        "signed-weight", params={"weight": {"kind": "tabulated",
                                            "values": values.tolist()}}))
    minus = [c for c in report.criteria if c["name"] == "c_minus"]
    assert minus and minus[0]["value"] is None and not minus[0]["passed"]
    assert not report.passed


def test_reports_are_deterministic():
    a = run_experiment(small_config("circle-weyl"))
    b = run_experiment(small_config("circle-weyl"))
    assert a.hash() == b.hash()
    assert a.runtime_seconds != b.runtime_seconds or True  # runtime excluded
    c = run_experiment(small_config("circle-weyl", seed=2))
    assert c.config_hash != a.config_hash


def test_coefficient_table_experiment(tmp_path):
    config = ExperimentConfig(experiment="coefficient-table",
                              params={"max_dim": 4}, out_dir=str(tmp_path))
    report = run_experiment(config)
    assert report.passed
    rows = json.loads((tmp_path / "coefficient_table.json").read_text())
    assert {(r["N"], r["d"]) for r in rows} == {(2, 1), (3, 1), (3, 2),
                                                (4, 1), (4, 2), (4, 3)}
    assert all(r["agree"] for r in rows)


def test_lower_order_decay_experiment():
    report = run_experiment(small_config("lower-order-decay",
                                         params={"n": 128}))
    assert report.passed
    assert report.measured["ratio"] <= 0.5


def test_two_surfaces_writes_three_counting_tables(tmp_path):
    config = ExperimentConfig.from_dict(
        dict(experiment="two-surfaces", n=144, window=(2, 14), seed=0,
             out_dir=str(tmp_path)))
    run_experiment(config)
    names = {p.name for p in tmp_path.iterdir()}
    assert {"counting_combined.csv", "counting_surface_1.csv",
            "counting_surface_2.csv"} <= names


def test_emit_plotdata_columns(tmp_path):
    sp = Spectrum.from_eigenvalues([1.0 / k for k in range(1, 40)]
                                   + [-0.5 / k for k in range(1, 10)])
    paths = emit_plotdata(sp, tmp_path)
    lines = open(paths[0]).read().strip().split("\n")
    assert lines[0] == "k,lambda_k,k_lambda_k"
    clines = open(paths[1]).read().strip().split("\n")
    assert clines[0] == "lambda,n_plus,n_minus,lambda_times_n"
    nplus = [int(l.split(",")[1]) for l in clines[1:]]
    assert all(a >= b for a, b in zip(nplus, nplus[1:]))


def test_emit_plotdata_empty_spectrum(tmp_path):
    sp = Spectrum.from_eigenvalues([])
    paths = emit_plotdata(sp, tmp_path)
    for p in paths:
        lines = open(p).read().strip().split("\n")
        assert len(lines) == 1  # header only


def test_cli_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert sorted(EXPERIMENTS) == out


def test_cli_run_with_config_file(tmp_path, capsys):
    cfg = {"experiment": "circle-weyl", "n": 128, "window": [2, 14],
           "seed": 0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code in (0, 1)
    assert (tmp_path / "out" / "report.json").exists()
    printed = json.loads(capsys.readouterr().out)
    assert printed["config"]["n"] == 128


def test_cli_orlicz_norm_command(capsys):
    for value in (2.0, 1e300, 1e-300):
        assert main(["orlicz-norm", "--shape", "cantor", "--depth", "4",
                     "--value", repr(value)]) == 0
        data = json.loads(capsys.readouterr().out)
        # constant weight on unit mass: value = c * t*
        assert data["value"] == pytest.approx(value * 1.1461932206205825,
                                              rel=1e-9)


def test_cli_covering_command(tmp_path, capsys):
    code = main(["covering", "--measure", "uniform", "--grid-n", "8",
                 "--lam", "0.9", "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "covering.txt").read_text()
    assert text.startswith("# covering")


def test_cli_spectrum_command(tmp_path):
    code = main(["spectrum", "--shape", "cantor", "--depth", "5",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "spectrum.csv").exists()


def test_cli_spectrum_of_a_large_circle_matches_closed_form(tmp_path):
    code = main(["spectrum", "--shape", "circle", "--radius", "20",
                 "--n", "1024", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "spectrum.csv").read_text().split("\n")
    assert rows[0] == "k,lambda_k,k_lambda_k"
    top = float(rows[1].split(",")[1])
    want = 20.0 * ive(0, 20.0) * kve(0, 20.0)
    assert abs(top - want) <= 1e-8 * want


def test_under_resolved_signed_mesh_exits_2(tmp_path, capsys):
    # node spacing 0.49 on a radius-5 circle: the kernel matrix is not
    # positive definite, and the sign fold refuses it
    code = main(["spectrum", "--shape", "circle", "--radius", "5", "--n",
                 "64", "--weight", "angular", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "node spacing 0.4909" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_under_resolved_unsigned_mesh_exits_2(tmp_path, capsys):
    # node spacing 0.98 on a radius-10 circle with a constant weight: the
    # operator is indefinite, and the eigensolve refuses it
    code = main(["spectrum", "--shape", "circle", "--radius", "10", "--n",
                 "64", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: under-resolved mesh: ")
    assert "least eigenvalue -" in err and "refine the mesh" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_failed_internal_check_exits_4(tmp_path, capsys, monkeypatch):
    true_eigvalsh = np.linalg.eigvalsh

    def one_shifted(m):
        vals = true_eigvalsh(m)
        vals[0] += 1e-6 * np.max(np.abs(vals))
        return vals

    monkeypatch.setattr(np.linalg, "eigvalsh", one_shifted)
    code = main(["spectrum", "--shape", "circle", "--n", "64",
                 "--out", str(tmp_path)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: internal check failed: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_cli_usage_without_command(capsys):
    assert main([]) == 2


_NO_SCIPY_SCRIPT = """
import sys
from critspec.cli import ExperimentConfig, run_experiment
for experiment, params in (("circle-weyl", {}),
                           ("mixed-ac-singular", {"delta": 0.2})):
    run_experiment(ExperimentConfig.from_dict(dict(
        experiment=experiment, n=128, window=(2, 14), params=params)))
print(sorted(m for m in sys.modules
             if m == "scipy" or m.startswith("scipy.")))
"""


def test_runtime_loads_no_scipy():
    # a fresh process: circle-weyl reaches the r_symbol cross-check and
    # mixed-ac-singular the square self-cell constant, on NumPy alone
    src = str(Path(critspec.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
