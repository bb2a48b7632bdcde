import importlib
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
from critspec import asymptotics, assemble, cli, geometry, spectra
from critspec.assemble import WeightFn
from critspec.cli import (EXPERIMENTS, ExperimentConfig, emit_plotdata, main,
                          run_experiment)
from critspec.errors import InvalidArgumentError, ResourceLimitError
from critspec.geometry import (Circle, Ellipse, Star, make_cantor_measure,
                               make_smooth_curve)
from critspec.kernels import reference_kernel
from critspec.spectra import Spectrum


def small_config(experiment, **kw):
    base = dict(experiment=experiment, n=128, window=(2, 14))
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


def test_a_side_predicted_empty_passes_when_the_window_holds_none(tmp_path):
    # a weight of -1 has no positive eigenvalue: c_plus, target 0, passes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "circle-weyl", "params": {
        "weight": {"kind": "constant", "value": -1.0}}}))
    assert main(["run", "--config", str(cfg)]) == 0
    report = run_experiment(ExperimentConfig.from_dict(json.loads(
        cfg.read_text())))
    plus, minus = report.criteria
    assert plus["target"] == 0.0 and plus["value"] is None and plus["passed"]
    assert minus["target"] == pytest.approx(1.0) and minus["passed"]
    # a window that holds a few positive eigenvalues, too few to fit, fails
    # a side predicted empty
    assert not cli._criterion("c_plus", None, 0.0, 0.05, held=3)["passed"]
    assert cli._criterion("c_plus", None, 0.0, 0.05, held=0)["passed"]
    assert not cli._criterion("c_plus", None, 1.0, 0.05, held=0)["passed"]


def _parent_rule(criterion: dict) -> bool:
    """Whether a criterion passed under the rule before sides predicted
    empty were judged by the window: a missing value always failed."""
    value, target = criterion["value"], criterion["target"]
    if value is None:
        return False
    if criterion["relative"]:
        return abs(value - target) <= criterion["tolerance"] * abs(target)
    return abs(value - target) <= criterion["tolerance"]


def test_no_default_report_changes_its_criteria():
    for name in EXPERIMENTS:
        report = run_experiment(ExperimentConfig(experiment=name))
        for criterion in report.criteria:
            if criterion["name"].startswith("c_"):
                assert criterion["passed"] == _parent_rule(criterion), name
        assert report.passed, name


def test_reports_are_deterministic():
    a = run_experiment(small_config("circle-weyl"))
    b = run_experiment(small_config("circle-weyl"))
    assert a.hash() == b.hash()
    assert a.runtime_seconds != b.runtime_seconds or True  # runtime excluded
    c = run_experiment(small_config("circle-weyl", n=136))
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
        dict(experiment="two-surfaces", n=144, window=(2, 14),
             out_dir=str(tmp_path)))
    run_experiment(config)
    names = {p.name for p in tmp_path.iterdir()}
    assert {"counting_combined.csv", "counting_surface_1.csv",
            "counting_surface_2.csv"} <= names


def test_two_surfaces_without_trusted_positives_writes_header_only_tables(
        tmp_path, capsys):
    # a negative weight leaves no positive eigenvalue to lay levels on
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "two-surfaces", "n": 144, "window": [2, 14],
        "params": {"weight": {"kind": "constant", "value": -1.0}}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    c_plus, c_minus = report["criteria"]
    # c_plus, predicted empty, passes with no positive eigenvalue in the
    # window; n = 144 is too coarse for c_minus, which fails the run
    assert c_plus["name"] == "c_plus" and c_plus["value"] is None
    assert c_plus["passed"] and not c_minus["passed"]
    for name in ("combined", "surface_1", "surface_2"):
        text = (out / ("counting_%s.csv" % name)).read_text()
        assert text.split() == ["lambda,n_plus,n_minus,lambda_times_n"]


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
    cfg = {"experiment": "circle-weyl", "n": 128, "window": [2, 14]}
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
    true_eigvalsh = spectra._eigvalsh_upper

    def one_shifted(m):
        vals = true_eigvalsh(m)
        vals[0] += 1e-6 * np.max(np.abs(vals))
        return vals

    monkeypatch.setattr(spectra, "_eigvalsh_upper", one_shifted)
    # a square, since a constant weight on a circle takes the circulant solve
    code = main(["spectrum", "--shape", "square", "--n", "64",
                 "--out", str(tmp_path)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: internal check failed: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_failed_circulant_check_exits_4(tmp_path, capsys, monkeypatch):
    # the circle's character sums, one real FFT over its group axis
    true_rfft = np.fft.rfft

    def one_shifted(*args, **kwargs):
        half = true_rfft(*args, **kwargs)
        half[:, 1] += 1e-6 * np.max(np.abs(half))
        return half

    monkeypatch.setattr(np.fft, "rfft", one_shifted)
    code = main(["spectrum", "--shape", "circle", "--n", "64",
                 "--out", str(tmp_path)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: internal check failed: eigenvalues "
                          "violate the matrix invariants: trace error ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def _eigenvalues(out_dir) -> np.ndarray:
    return np.loadtxt(out_dir / "spectrum.csv", delimiter=",",
                      skiprows=1)[:, 1]


@pytest.mark.parametrize("shape", ["circle", "square", "cantor"])
def test_spectrum_scales_with_a_huge_weight(shape, tmp_path):
    # the squares of the invariant check overflowed at 1e156 (Frobenius
    # error nan, exit 4); they are summed in units of the largest entry
    args = ["spectrum", "--shape", shape, "--n", "64", "--out"]
    assert main(args + [str(tmp_path / "one")]) == 0
    base = _eigenvalues(tmp_path / "one")
    for value in ("1e156", "1e300"):
        assert main(args + [str(tmp_path / value), "--value", value]) == 0
        got = _eigenvalues(tmp_path / value) / float(value)
        assert len(got) == len(base)
        assert np.max(np.abs(got - base) / np.abs(base)) <= 1e-12, value


@pytest.mark.parametrize("shape", ["circle", "square", "cantor"])
def test_a_subnormal_operator_exits_2_naming_the_underflow(shape, tmp_path,
                                                          capsys):
    # at 1e-315 every entry is subnormal: the tolerance underflowed to 0
    # (trace error inf, exit 4); at 1e-322 and 5e-324 every V w flushes to
    # 0 on 256 nodes (and on the Cantor measure of depth 8), which read as
    # the zero operator (header-only CSVs, exit 0)
    for n, value in (("64", "1e-315"), ("256", "1e-322"), ("256", "5e-324")):
        code = main(["spectrum", "--shape", shape, "--n", n, "--value",
                     value, "--out", str(tmp_path)])
        assert code == 2, value
        err = capsys.readouterr().err
        assert err.startswith("error: operator entries underflow: the "
                              "largest |entry| is subnormal")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("shape", ["circle", "square", "cantor"])
def test_tiny_weights_keep_the_scaling_law_or_name_the_underflow(shape):
    # between the normal and the subnormal range: either the eigenvalues
    # scale with the weight, or the operator is refused by name
    if shape == "circle":
        support = make_smooth_curve(Circle(), 64)
    elif shape == "square":
        support = cli._polygon_mesh(cli._UNIT_SQUARE, 64, 3.0)
    else:
        support = make_cantor_measure(8)
    kern = reference_kernel()
    base = cli._spectrum_of([(support, WeightFn.constant(1.0))], kern,
                            4200).positives
    refused = 0
    for value in np.geomspace(1e-312, 1e-300, 25):
        try:
            got = cli._spectrum_of([(support, WeightFn.constant(value))],
                                   kern, 4200).positives
        except InvalidArgumentError as exc:
            assert str(exc).startswith("operator entries underflow")
            refused += 1
            continue
        assert len(got) == len(base)
        assert np.max(np.abs(got / value - base) / base) <= 1e-12, value
    assert 0 < refused < 25


def _benchmark_two_surfaces(n: int = 2048):
    """The benchmark's kind of two-surfaces layout: radii 0.93 and 2.02, a
    gap of 3 between the circles at a random angle, and the split of n that
    the experiment makes."""
    n1 = (n // 3) & ~1
    d = 0.93 + 2.02 + 3.0
    one = WeightFn.constant(1.0)
    return [(make_smooth_curve(Circle(radius=0.93), n1), one),
            (make_smooth_curve(Circle(center=(d * np.cos(4.1),
                                              d * np.sin(4.1)),
                                      radius=2.02), n - n1), one)]


def test_only_an_equispaced_circle_skips_the_dense_solve(monkeypatch):
    # which path runs: the orders of the dsyevd solves, none for the 1 x 1
    # blocks of an equispaced circle of a constant weight (the group C_n),
    # one per real block of a reflection group, one of order n for a dense
    # operator; and the orders of the dsbevd solves, one of order n for a
    # circle whose weight carries a few Fourier modes, whatever map keeps it
    solves, bands = [], []
    true_eigvalsh = spectra._eigvalsh_upper
    true_band = spectra._band_eigenvalues

    def counted(m):
        solves.append(len(m))
        return true_eigvalsh(m)

    def counted_band(ab):
        bands.append(len(ab))
        return true_band(ab)

    monkeypatch.setattr(spectra, "_eigvalsh_upper", counted)
    monkeypatch.setattr(spectra, "_band_eigenvalues", counted_band)
    one = WeightFn.constant(1.0)
    circle = make_smooth_curve(Circle(), 64)
    t = circle.param_values
    # modes up to n/2, even under t -> -t (node j -> node -j), and not
    rng = np.random.default_rng(1)
    even = rng.uniform(-0.2, 0.2, 33)
    wide_even = 1.5 + np.cos(t) + np.concatenate([even, even[1:32][::-1]])
    wide = 1.5 + np.cos(t - 0.3) + rng.uniform(-0.2, 0.2, 64)
    small = make_smooth_curve(Circle(center=(0.3, 0.0), radius=0.25), 32)
    cases = {
        "circle": ([(circle, one)], []),
        "equal tabulated values": (
            [(circle, WeightFn.tabulated(np.full(64, 2.0)))], []),
        "circle off the origin": (
            [(make_smooth_curve(Circle(center=(7.0, -3.0)), 64), one)], []),
        "negative constant": ([(circle, WeightFn.constant(-1.0))], []),
        # the near circles keep only their exact reflections: t -> -t fixes
        # two nodes, which join the even block
        "nearly a circle, ellipse": (
            [(make_smooth_curve(Ellipse(a=1.0, b=1.0 + 1e-9), 64), one)],
            [15, 16, 16, 17]),
        "nearly a circle, star": (
            [(make_smooth_curve(Star(amplitude=1e-9), 64), one)], [31, 33]),
        "tabulated weight": (
            [(circle, WeightFn.tabulated(1.5 + np.cos(t)))], [], [64]),
        "wide-band tabulated weight": (
            [(circle, WeightFn.tabulated(wide_even))], [31, 33]),
        "two circles": ([(circle, one), (make_smooth_curve(
            Circle(center=(4.0, 0.0)), 64), one)], [62, 66]),
        "cell grid and circle": ([(assemble.make_cell_grid(
            (0.0, 0.0), 1.0, 0.2, exclude_meshes=[small]), one),
            (small, one)], [44, 46]),
        "tabulated weight off the axes": (
            [(circle, WeightFn.tabulated(1.5 + np.cos(t - 0.3)))], [], [64]),
        "wide-band tabulated weight off the axes": (
            [(circle, WeightFn.tabulated(wide))], [64]),
        "two circles off the axes, one weight varying": (
            [(circle, one), (make_smooth_curve(Circle(center=(3.0, 2.0)), 64),
                             WeightFn.tabulated(wide))], [128]),
    }
    for name, (supports, *want) in cases.items():
        solves.clear()
        bands.clear()
        cli._spectrum_of(supports, reference_kernel(), 4200)
        assert sorted(solves) == want[0], name
        assert bands == (want[1] if len(want) > 1 else []), name
    # circles that share no symmetry, of constant weights: one coupled
    # block of their low Fourier modes, no solve of order n; the
    # benchmark's two-surfaces at a random angle keeps under n / 16
    for supports, order in (
            ([(circle, one), (make_smooth_curve(Circle(center=(3.0, 2.0)),
                                                64), one)], 128),
            (_benchmark_two_surfaces(), 2048)):
        solves.clear()
        cli._spectrum_of(supports, reference_kernel(), 4200)
        assert len(solves) == 1 and solves[0] < order, solves
    assert solves[0] < 2048 // 16 and bands == []
    # a negative constant weight keeps the fold and its refusal
    with pytest.raises(InvalidArgumentError, match="node spacing"):
        cli._spectrum_of([(make_smooth_curve(Circle(radius=5.0), 64),
                           WeightFn.constant(-1.0))], reference_kernel(),
                         4200)


def test_a_weight_the_half_turn_negates_skips_the_dense_solve(monkeypatch):
    # the benchmark's signed-weight operation, cos(t - phi) at a random
    # phase, at its smoke size, and the default cos t, which keeps its
    # reflection t -> -t: both carry the modes |m| = 1 of C_n alone, and
    # each is one half-turn band of order n, B of order n/2 solved by its
    # singular values, with no dsyevd, no dsbevd and no fold.  An odd
    # weight on a rectangle, which the half turn negates and no map keeps,
    # does not skip it: the trivial group's one folded block, one dsyevd of
    # order n
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    workloads = importlib.import_module("workloads")
    op, = [op for op in workloads.build("curve-weyl", 0, smoke=True)
           if op.name == "signed-weight"]
    solves = {"dsyevd": [], "fold": [], "dsbevd": [], "split": []}
    counted = [(spectra, "dsyevd", "_eigvalsh_upper"),
               (assemble, "fold", "_cholesky_fold"),
               (spectra, "dsbevd", "_band_eigenvalues"),
               (spectra, "split", "_half_turn_eigenvalues")]
    for module, name, attr in counted:
        def solve(m, *rest, name=name, true=getattr(module, attr)):
            solves[name].append(len(m))
            return true(m, *rest)

        monkeypatch.setattr(module, attr, solve)
    assert op.run().passed
    assert solves == {"dsyevd": [], "fold": [], "dsbevd": [],
                      "split": [op.config["n"] // 2]}
    solves["split"].clear()
    assert run_experiment(ExperimentConfig.from_dict(
        {"experiment": "signed-weight", "n": 512})).passed
    assert solves == {"dsyevd": [], "fold": [], "dsbevd": [], "split": [256]}
    solves["split"].clear()
    vertices = [[0.0, 0.0], [1.3, 0.0], [1.3, 0.7], [0.0, 0.7]]
    mesh = cli._polygon_mesh(vertices, 256, 3.0)
    x, y = (mesh.nodes - [0.65, 0.35]).T
    report = run_experiment(ExperimentConfig.from_dict(
        {"experiment": "polygon-weyl", "n": 256, "window": [5, 30],
         "params": {"vertices": vertices,
                    "weight": {"kind": "tabulated",
                               "values": (x + 0.4 * y - 0.7 * x ** 3)
                               .tolist()}}}))
    assert report.passed and report.measured["n_nodes"] == mesh.n_nodes
    assert solves == {"dsyevd": [mesh.n_nodes], "fold": [mesh.n_nodes],
                      "dsbevd": [], "split": []}


def test_the_benchmark_operations_take_the_structured_blocks(monkeypatch):
    # every operation of the benchmark at its smoke size and seed 0, and the
    # blocks of each operator it solves: C_n's singles alone, one half-turn
    # band, a symmetry group's blocks (Z2 x Z2 on the rectangle, Z2 on the
    # Cantor set at two depths and on the grid and circle), or the two
    # circles' one coupled block of low modes and a single per other mode.  No
    # operator takes the trivial group's Cholesky fold, and the bound side
    # solves none
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    workloads = importlib.import_module("workloads")
    solved, folds = [], []
    true_eigensolve = spectra.eigensolve
    true_fold = assemble._cholesky_fold

    def recorded(op):
        solved.append(([(type(b), b.n) for b in op.blocks], len(op.singles),
                       op.n))
        return true_eigensolve(op)

    def counted_fold(kernel_matrix, *rest):
        folds.append(len(kernel_matrix))
        return true_fold(kernel_matrix, *rest)

    monkeypatch.setattr(spectra, "eigensolve", recorded)
    monkeypatch.setattr(assemble, "_cholesky_fold", counted_fold)
    group = assemble.OperatorMatrix
    want = {"circle-weyl": [[]], "signed-weight": [[assemble.HalfTurnBand]],
            "polygon-weyl": [[group] * 4],
            "cantor-estimate": [[group] * 2, [group] * 2],
            "two-surfaces": [[group]], "mixed-ac-singular": [[group] * 2],
            "lower-order-decay": [[]], "covering-uniform": [],
            "covering-cantor": [], "covering-dyadic": []}
    names = []
    for workload in workloads.WORKLOADS:
        for op in workloads.build(workload, 0, smoke=True):
            solved.clear()
            assert op.check(op.run(), None) == [], op.name
            assert [[kind for kind, _ in blocks]
                    for blocks, _, _ in solved] == want[op.name], op.name
            for blocks, singles, n in solved:
                # every mode counted once, each group block below n
                assert sum(order for _, order in blocks) + singles == n
                assert all(order < n for kind, order in blocks
                           if kind is group), op.name
            assert (solved[0][1] > 0 if op.name in (
                "circle-weyl", "two-surfaces", "lower-order-decay")
                else all(singles == 0 for _, singles, _ in solved)), op.name
            names.append(op.name)
    assert sorted(names) == sorted(want) and folds == []


def _reports_info_1(*args):
    # dsyevd's arguments: jobz, uplo, n, a, lda, w, work, lwork, iwork,
    # liwork, info, and the two character lengths
    args[10].contents.value = 1


def _no_convergence(m, UPLO):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@pytest.mark.parametrize("path", ["dsyevd", "fallback"])
def test_failed_eigensolve_exits_4(path, tmp_path, capsys, monkeypatch):
    if path == "dsyevd":
        monkeypatch.setattr(spectra, "_lapack", lambda name: _reports_info_1)
        named = "LAPACK dsyevd info = 1"
    else:
        monkeypatch.setattr(spectra, "_lapack", lambda name: None)
        monkeypatch.setattr(np.linalg, "eigvalsh", _no_convergence)
        named = "Eigenvalues did not converge"
    code = main(["spectrum", "--shape", "square", "--n", "64",
                 "--out", str(tmp_path)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: internal check failed: symmetric "
                          "eigensolve failed: ")
    assert named in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_a_perturbed_fold_eigenvalue_exits_4(tmp_path, capsys, monkeypatch):
    # a signed-weight config at n = 128 whose weight the half turn negates,
    # cos(t - 1.234) plus an odd square wave, with modes up to n/2 and no
    # map that keeps it: its one folded block's largest eigenvalue solved
    # wrong fails the invariant check
    true_eigvalsh = spectra._eigvalsh_upper

    def last_shifted(m):
        vals = true_eigvalsh(m)
        vals[-1] *= 1.0 + 1e-6
        return vals

    monkeypatch.setattr(spectra, "_eigvalsh_upper", last_shifted)
    t = 2.0 * np.pi * np.arange(128) / 128
    square = np.sign(np.sin(t)) * (np.abs(np.sin(t)) > 1e-9)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "signed-weight", "n": 128, "window": [2, 14],
        "params": {"weight": {"kind": "tabulated",
                              "values": (np.cos(t - 1.234)
                                         + 0.5 * square).tolist()}}}))
    assert main(["run", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: internal check failed: eigenvalues "
                          "violate the matrix invariants: trace error ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_supports_that_share_an_atom_exit_2_naming_it(tmp_path, capsys):
    # two unit circles about the origin share every node, where K_0(0) is
    # infinite: refused before any path is taken, naming the atom, and so
    # are two measures that share their atoms
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "two-surfaces",
        "params": {"radius_1": 1.0, "radius_2": 1.0, "center_2": [0.0, 0.0]}}))
    assert main(["run", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: two supports share an atom: supports 1 "
                          "and 2 at (")
    assert "kernel between them is infinite" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    cantor = make_cantor_measure(3)
    with pytest.raises(InvalidArgumentError,
                       match=r"supports 1 and 3 at \(0\.0185185, 0\)"):
        assemble.assemble_mixed(
            [(cantor, WeightFn.constant(1.0)),
             (make_smooth_curve(Circle(center=(0.5, 5.0)), 16),
              WeightFn.constant(1.0)),
             (cantor, WeightFn.constant(2.0))], reference_kernel())


def test_a_perturbed_band_eigenvalue_exits_4(tmp_path, capsys, monkeypatch):
    # the benchmark's kind of signed-weight config at n = 128, cos(t - phi):
    # one half-turn band of order n, whose largest eigenvalue solved wrong
    # fails the invariant check
    true_band = spectra._half_turn_eigenvalues

    def last_shifted(ab):
        vals = true_band(ab)
        vals[0] *= 1.0 + 1e-6
        return vals

    monkeypatch.setattr(spectra, "_half_turn_eigenvalues", last_shifted)
    t = 2.0 * np.pi * np.arange(128) / 128
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "signed-weight", "n": 128, "window": [2, 14],
        "params": {"weight": {"kind": "tabulated",
                              "values": np.cos(t - 1.234).tolist()}}}))
    assert main(["run", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: internal check failed: eigenvalues "
                          "violate the matrix invariants: trace error ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_a_perturbed_coupled_eigenvalue_exits_4(tmp_path, capsys,
                                               monkeypatch):
    # two-surfaces at a random angle, n = 256: one coupled block of the low
    # Fourier modes, whose largest eigenvalue solved wrong fails the
    # invariant check
    true_eigvalsh = spectra._eigvalsh_upper
    orders = []

    def last_shifted(m):
        orders.append(len(m))
        vals = true_eigvalsh(m)
        vals[-1] *= 1.0 + 1e-6
        return vals

    monkeypatch.setattr(spectra, "_eigvalsh_upper", last_shifted)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "two-surfaces", "n": 256, "window": [2, 14],
        "params": {"radius_1": 0.93, "radius_2": 2.02,
                   "center_2": [5.95 * np.cos(4.1), 5.95 * np.sin(4.1)]}}))
    assert main(["run", "--config", str(cfg)]) == 4
    assert len(orders) == 1 and orders[0] < 256
    err = capsys.readouterr().err
    assert err.startswith("error: internal check failed: eigenvalues "
                          "violate the matrix invariants: trace error ")
    assert err.count("\n") == 1 and "Traceback" not in err


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


def _source_env() -> dict:
    """The environment with the package's source first on PYTHONPATH."""
    src = str(Path(critspec.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path
                                               else ""))


def test_runtime_loads_no_scipy():
    # a fresh process: circle-weyl reaches the r_symbol cross-check and
    # mixed-ac-singular the square self-cell constant, on NumPy alone
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT],
                          env=_source_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_python_m_critspec_runs_the_command_line(tmp_path):
    # a weight whose V w all flush to 0 is refused with exit 2, one error
    # line and no traceback
    proc = subprocess.run(
        [sys.executable, "-m", "critspec", "spectrum", "--shape", "circle",
         "--n", "256", "--value", "5e-324", "--out", str(tmp_path)],
        env=_source_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: operator entries underflow")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert proc.stdout == "" and not list(tmp_path.iterdir())


# each bad input as a config (run --config) or as a command line, the exit
# code it must give and the text that names the value
_BAD_INPUTS = {
    "decade-points-0": (
        {"experiment": "covering-count", "params": {"decade_points": 0}},
        2, '"decade_points" must be at least 2, got 0'),
    "decade-points-1": (
        {"experiment": "covering-count", "params": {"decade_points": 1}},
        2, '"decade_points" must be at least 2, got 1'),
    "kappa-0": (
        {"experiment": "covering-count", "params": {"kappa": 0}},
        2, '"kappa" must be at least 1, got 0'),
    "max-dim-344": (
        {"experiment": "coefficient-table", "params": {"max_dim": 344}},
        2, '"max_dim" must be in the range [2, 343], got 344'),
    "max-dim-1": (
        {"experiment": "coefficient-table", "params": {"max_dim": 1}},
        2, "got 1"),
    "coeff-max-dim-400": (["coeff", "--max-dim", "400"], 2, "got 400"),
    "cantor-estimate-depth-20000": (
        {"experiment": "cantor-estimate", "params": {"depth": 20000}},
        3, "2^20000 atoms exceed the cap of 32768"),
    "spectrum-cantor-depth-20000": (
        ["spectrum", "--shape", "cantor", "--depth", "20000"],
        3, "2^20000 atoms exceed the cap of 32768"),
    "orlicz-norm-cantor-depth-20000": (
        ["orlicz-norm", "--shape", "cantor", "--depth", "20000"],
        3, "2^20000 atoms exceed the cap"),
    "circle-radius-negative": (
        {"experiment": "circle-weyl", "params": {"radius": -2.5}},
        2, "circle radius must be positive and finite, got -2.5"),
    "circle-radius-zero": (
        {"experiment": "circle-weyl", "params": {"radius": 0}},
        2, "circle radius must be positive and finite, got 0.0"),
    "circle-radius-nan": (
        {"experiment": "circle-weyl", "params": {"radius": float("nan")}},
        2, "circle radius must be positive and finite, got nan"),
    "spectrum-radius-negative": (
        ["spectrum", "--radius", "-1"],
        2, "circle radius must be positive and finite, got -1.0"),
    "disk-radius-negative": (
        {"experiment": "mixed-ac-singular", "n": 640,
         "params": {"disk_radius": -1, "n_curve": 640}},
        2, "disk radius must be positive and finite, got -1.0"),
    "cell-size-infinite": (
        {"experiment": "mixed-ac-singular", "params": {"delta": float("inf")}},
        2, "cell size must be positive and finite, got inf"),
    "cell-size-subnormal": (
        {"experiment": "mixed-ac-singular", "params": {"delta": 1e-310}},
        3, "cell grid of inf x inf cells exceeds the atom cap"),
    "no-cell-left": (
        {"experiment": "mixed-ac-singular",
         "params": {"disk_radius": 0.01, "circle_radius": 0.5}},
        2, "no cell of size 0.035 is left"),
    "spectrum-value-inf": (
        ["spectrum", "--value", "inf"],
        2, "weight values must be finite, got inf"),
    "spectrum-value-nan": (
        ["spectrum", "--value", "nan"],
        2, "weight values must be finite, got nan"),
    "circle-weight-value-nan": (
        {"experiment": "circle-weyl",
         "params": {"weight": {"kind": "constant", "value": float("nan")}}},
        2, "weight values must be finite, got nan"),
    "orlicz-norm-value-nan": (
        ["orlicz-norm", "--value", "nan"],
        2, "weight values must be finite, got nan"),
    "orlicz-norm-value-inf": (
        ["orlicz-norm", "--value", "inf"],
        2, "weight values must be finite, got inf"),
    "covering-lam-nan": (
        ["covering", "--lam", "nan"], 2, "lambda must be positive, got nan"),
    "orlicz-norm-circle-n-1e14": (
        ["orlicz-norm", "--shape", "circle", "--n", "100000000000000"],
        3, "100000000000000 nodes exceed the cap of 32768"),
    "center-nan": (
        {"experiment": "two-surfaces",
         "params": {"center_2": [float("nan"), 0.0]}},
        2, '"center_2" must be a pair of finite numbers, got [nan, 0.0]'),
    "center-infinite": (
        {"experiment": "two-surfaces",
         "params": {"center_2": [float("inf"), 0.0]}},
        2, '"center_2" must be a pair of finite numbers, got [inf, 0.0]'),
    "polygon-vertex-nan": (
        {"experiment": "polygon-weyl",
         "params": {"vertices": [[0, 0], [1, 0], [1, float("nan")],
                                 [0, 1]]}},
        2, '"vertices" must be a pair of finite numbers, got [1, nan]'),
    "config-seed": (
        {"experiment": "circle-weyl", "seed": 0},
        2, "unknown config keys: seed"),
    "params-and-tolerances-misspelled": (
        {"experiment": "circle-weyl", "params": {"raduis": 3.0},
         "tolerances": {"coeficient": 1e-9}},
        2, "unknown params keys for circle-weyl: raduis"),
    "constant-weight-key-misspelled": (
        {"experiment": "circle-weyl",
         "params": {"weight": {"kind": "constant", "vlaue": -1.0}}},
        2, "unknown constant weight keys: vlaue"),
    "angular-weight-with-a-value": (
        {"experiment": "signed-weight",
         "params": {"weight": {"kind": "angular", "value": 5.0}}},
        2, "unknown angular weight keys: value"),
    "window-reversed": (
        {"experiment": "circle-weyl", "window": [60, 20]},
        2, "window must satisfy 1 <= k_min < k_max"),
    "window-from-0": (
        {"experiment": "circle-weyl", "window": [0, 20]},
        2, "window must satisfy 1 <= k_min < k_max"),
}


@pytest.mark.parametrize("name", list(_BAD_INPUTS))
def test_bad_inputs_exit_without_traceback_and_name_the_value(
        name, tmp_path, capsys):
    args, code, named = _BAD_INPUTS[name]
    if isinstance(args, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(args))
        args = ["run", "--config", str(cfg)]
    elif args[0] == "spectrum":
        args = args + ["--out", str(tmp_path / "out")]
    assert main(args) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "out").exists()


# each path that cannot be used as given: what sits at PATH (a directory, or
# a file of these bytes) and the command line that names it
_BAD_PATHS = {
    "config-is-a-directory": (None, ["run", "--config", "PATH"]),
    "config-is-not-utf-8": (b'{"experiment": "circle-weyl\xff"}',
                            ["run", "--config", "PATH"]),
    "spectrum-out-is-a-file": (b"", ["spectrum", "--n", "64",
                                     "--out", "PATH"]),
    "covering-out-is-a-file": (b"", ["covering", "--grid-n", "4", "--lam",
                                     "0.9", "--out", "PATH"]),
    "coeff-out-is-a-file": (b"", ["coeff", "--max-dim", "3",
                                  "--out", "PATH"]),
}


@pytest.mark.parametrize("name", list(_BAD_PATHS))
def test_unusable_paths_exit_2_naming_the_path(name, tmp_path, capsys):
    content, args = _BAD_PATHS[name]
    path = tmp_path / "taken"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main([str(path) if a == "PATH" else a for a in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err and err.count("\n") == 1
    assert (list(path.iterdir()) == [] if content is None
            else path.read_bytes() == content)


@pytest.fixture
def built(monkeypatch):
    """The names of the support builders, quadratures and eigensolves
    called, each replaced by a stub that records its name."""
    calls = []
    for module in (cli, geometry, assemble):
        for name in ("make_smooth_curve", "make_polygon_curve",
                     "make_cantor_measure", "make_uniform_square_measure",
                     "make_cell_grid"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    lambda *a, name=name, **k: calls.append(
                                        name))
    monkeypatch.setattr(asymptotics, "r_symbol_quadrature",
                        lambda *a, **k: calls.append("quadrature"))
    monkeypatch.setattr(spectra, "eigensolve",
                        lambda *a, **k: calls.append("eigensolve"))
    return calls


@pytest.mark.parametrize("args", [
    ["run", "--experiment", "polygon-weyl", "--n", "2048", "--out", "PATH"],
    ["run", "--experiment", "mixed-ac-singular", "--out", "PATH/below"],
    ["spectrum", "--shape", "square", "--n", "2048", "--out", "PATH"],
    ["coeff", "--max-dim", "40", "--out", "PATH"],
    ["covering", "--grid-n", "64", "--lam", "0.01", "--out", "PATH"],
], ids=["run", "run-below-a-file", "spectrum", "coeff", "covering"])
def test_an_out_path_that_is_a_file_exits_before_any_support(
        args, tmp_path, capsys, built):
    path = tmp_path / "taken"
    path.write_bytes(b"")
    assert main([a.replace("PATH", str(path)) for a in args]) == 2
    assert built == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err and err.count("\n") == 1
    assert path.read_bytes() == b""


def _refused_before_any_work(config, tmp_path, capsys, built, *flags):
    """The stderr line of ``run --config`` on ``config``, which must exit
    2 without a traceback before any support is built."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), *flags]) == 2
    assert built == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


# every key each experiment's table declares, so that a key added later is
# covered too
_DECLARED = [(name, section, key) for name, experiment in EXPERIMENTS.items()
             for section in ("params", "tolerances")
             for key in getattr(experiment, section)]


@pytest.mark.parametrize("name", list(EXPERIMENTS))
@pytest.mark.parametrize("section", ["params", "tolerances"])
def test_an_undeclared_key_exits_2_before_any_support(
        name, section, tmp_path, capsys, built):
    err = _refused_before_any_work(
        {"experiment": name, section: {"undeclared_key": 1.0}},
        tmp_path, capsys, built)
    assert "unknown %s keys for %s: undeclared_key" % (section, name) in err


@pytest.mark.parametrize("name,section,key", _DECLARED,
                         ids=["-".join(case) for case in _DECLARED])
def test_a_declared_key_given_a_string_exits_2_naming_it(
        name, section, key, tmp_path, capsys, built):
    err = _refused_before_any_work({"experiment": name, section: {key: "x"}},
                                   tmp_path, capsys, built)
    assert '"%s"' % key in err


_WEIGHT_CASES = [(kind, key) for kind, keys in cli._WEIGHT_KEYS.items()
                 for key in [*keys, "undeclared_key"]]


@pytest.mark.parametrize("kind,key", _WEIGHT_CASES,
                         ids=["-".join(case) for case in _WEIGHT_CASES])
def test_a_weight_key_exits_2_naming_it_when_undeclared_or_a_string(
        kind, key, tmp_path, capsys, built):
    err = _refused_before_any_work(
        {"experiment": "circle-weyl",
         "params": {"weight": {"kind": kind, key: "x"}}},
        tmp_path, capsys, built)
    if key in cli._WEIGHT_KEYS[kind]:
        assert '"%s"' % key in err
    else:
        assert "unknown %s weight keys: %s" % (kind, key) in err


def test_a_flag_that_changes_the_experiment_validates_the_merged_config(
        tmp_path, capsys, built):
    err = _refused_before_any_work(
        {"experiment": "circle-weyl", "params": {"radius": 2.0}},
        tmp_path, capsys, built, "--experiment", "coefficient-table")
    assert "unknown params keys for coefficient-table: radius" in err


def test_readme_lists_every_declared_key_with_its_default():
    readme = (Path(__file__).resolve().parent.parent
              / "README.md").read_text()
    rows = {line.split("|")[1].strip(" `"): line
            for line in readme.splitlines() if line.startswith("| `")}
    for name, section, key in _DECLARED:
        kind, default = getattr(EXPERIMENTS[name], section)[key]
        row = rows[name]
        assert "`%s`" % key in row, (name, key)
        if isinstance(default, (int, float)):
            assert "`%s` %r" % (key, default) in row, (name, key)
    weights = readme[readme.index("A weight is an object"):].split("\n\n")[0]
    for kind, keys in cli._WEIGHT_KEYS.items():
        assert '`"%s"`' % kind in weights
        for key in keys:
            assert '`"%s"`' % key in weights


@pytest.mark.parametrize("args", [
    ["run", "--config", "CONFIG"],
    ["spectrum", "--shape", "cantor", "--depth", str(10 ** 8)],
    ["orlicz-norm", "--shape", "cantor", "--depth", str(10 ** 8)],
], ids=["cantor-estimate", "spectrum", "orlicz-norm"])
def test_huge_cantor_depth_is_refused_without_building_2_to_the_depth(
        args, tmp_path, capsys):
    # 2 ** 10**8 alone is a 12.5 MB integer
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "cantor-estimate",
                               "params": {"depth": 10 ** 8}}))
    args = [str(cfg) if a == "CONFIG" else a for a in args]
    if args[0] == "spectrum":
        args += ["--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        code = main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "2^100000000" in capsys.readouterr().err
    assert peak < 2 ** 20


def test_cantor_estimate_over_the_matrix_cap_is_refused_before_any_eigensolve(
        tmp_path, capsys, monkeypatch):
    # depth 13 has 8192 atoms: under the atom cap, over the matrix cap
    calls = []
    monkeypatch.setattr(spectra, "eigensolve",
                        lambda *args: calls.append(args))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "cantor-estimate",
                               "params": {"depth": 13}}))
    assert main(["run", "--config", str(cfg)]) == 3
    assert "matrix size 8192 exceeds the cap 4200" in capsys.readouterr().err
    assert calls == []


def test_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    # the tracer looks each name up with vars(module)[name]: a name it wraps
    # that the package no longer has raises KeyError here
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    tracer = importlib.import_module("tracer")
    restore = tracer.instrument(tracer.Tracer())
    restore()
    assert cli.assemble_mixed is assemble.assemble_mixed
