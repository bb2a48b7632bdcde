"""Experiment runner and command-line interface.

Each experiment builds a configuration of supports and weights, assembles
the operator, solves the spectrum, and compares measured quantities (fit
coefficients, counts, covering statistics) against the predicted values.
Reports are deterministic given configuration and seed: the report hash is
taken over everything except the wall-clock runtime.

Exit codes: 0 all criteria pass, 1 a criterion failed, 2 usage error,
3 resource limit, 4 an internal check failed (for instance computed
eigenvalues that miss the trace or the Frobenius norm of their matrix).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import numbers
import sys
import time
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import asymptotics, covering, orlicz, spectra
from .assemble import (WeightFn, assemble_curve_operator,
                       assemble_measure_operator, assemble_mixed,
                       make_cell_grid)
from .errors import (InsufficientDataError, InternalError,
                     InvalidArgumentError, OutOfRangeError, ResourceLimitError)
from .geometry import (Circle, make_cantor_measure, make_polygon_curve,
                       make_smooth_curve, make_uniform_square_measure)
from .kernels import lower_order_kernel, reference_kernel

DEFAULT_WINDOW = (20, 60)
DEFAULT_MAX_MATRIX = 4200
_UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: int = 512
    seed: int = 0
    window: tuple[int, int] = DEFAULT_WINDOW
    params: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    out_dir: str | None = None
    max_matrix_n: int = DEFAULT_MAX_MATRIX

    def to_dict(self) -> dict:
        # where the artifacts go is not part of what the report describes
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "out_dir"}
        out["window"] = list(self.window)
        return out

    def hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise InvalidArgumentError("a config must be a JSON object")
        unknown = set(data) - {f.name for f in fields(ExperimentConfig)}
        if unknown:
            raise InvalidArgumentError(
                "unknown config keys: %s" % ", ".join(sorted(unknown)))
        if "experiment" not in data:
            raise InvalidArgumentError('a config needs an "experiment" key')
        c = ExperimentConfig(**data)
        if not isinstance(c.experiment, str):
            raise InvalidArgumentError('"experiment" must be a string')
        if c.out_dir is not None and not isinstance(c.out_dir, str):
            raise InvalidArgumentError('"out_dir" must be a string')
        for key in ("params", "tolerances"):
            if not isinstance(getattr(c, key), dict):
                raise InvalidArgumentError('"%s" must be an object' % key)
        if not isinstance(c.window, (list, tuple)) or len(c.window) != 2:
            raise InvalidArgumentError('"window" must be a pair of integers')
        return replace(c, n=_as_number(c.n, "n", int),
                       seed=_as_number(c.seed, "seed", int),
                       window=tuple(_as_number(k, "window", int)
                                    for k in c.window),
                       params=dict(c.params), tolerances=dict(c.tolerances),
                       max_matrix_n=_as_number(c.max_matrix_n, "max_matrix_n",
                                               int))


def _as_number(value, what: str, kind=float):
    """A JSON number as ``kind``; an int must be integral (512 or 512.0).

    Strings, booleans and fractional integers are usage errors, so a
    mistyped value never reaches the numerics.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if kind is float:
            return float(value)
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise InvalidArgumentError("%s must be %s, got %r" % (
        what, "an integer" if kind is int else "a number", value))


def _param(mapping: dict, key: str, default, kind=float):
    """A numeric entry of ``params`` or ``tolerances``, validated."""
    return _as_number(mapping.get(key, default), '"%s"' % key, kind)


def _point(value, what: str) -> tuple[float, float]:
    """A plane point given as a pair of JSON numbers, validated."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InvalidArgumentError(
            "%s must be a pair of numbers, got %r" % (what, value))
    return tuple(_as_number(c, what) for c in value)


def _points(value, what: str, min_count: int) -> list[tuple[float, float]]:
    """A list of at least ``min_count`` plane points, validated."""
    if not isinstance(value, (list, tuple)) or len(value) < min_count:
        raise InvalidArgumentError("%s must be a list of at least %d points"
                                   % (what, min_count))
    return [_point(v, what) for v in value]


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    config_hash: str
    measured: dict
    expected: dict
    criteria: tuple[dict, ...]
    passed: bool
    runtime_seconds: float

    def payload(self) -> dict:
        from . import __version__
        return {
            "version": __version__,
            "config": self.config,
            "config_hash": self.config_hash,
            "measured": self.measured,
            "expected": self.expected,
            "criteria": list(self.criteria),
            "passed": self.passed,
        }

    def hash(self) -> str:
        blob = json.dumps(self.payload(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def to_dict(self) -> dict:
        out = self.payload()
        out["report_hash"] = self.hash()
        out["runtime_seconds"] = self.runtime_seconds
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _criterion(name: str, value: float | None, target: float,
               tolerance: float, relative: bool = True) -> dict:
    if value is None:
        # a predicted side with too few eigenvalues in the window to fit
        passed = False
    elif relative:
        passed = abs(value - target) <= tolerance * abs(target)
    else:
        passed = abs(value - target) <= tolerance
    return {"name": name, "value": value, "target": target,
            "tolerance": tolerance, "relative": relative,
            "passed": bool(passed)}


def _bound_criterion(name: str, value: float, bound: float) -> dict:
    return {"name": name, "value": value, "target": bound,
            "tolerance": 0.0, "relative": False,
            "passed": bool(value <= bound)}


def _check_matrix_budget(n: int, cap: int) -> None:
    if n > cap:
        raise ResourceLimitError("matrix size %d exceeds the cap %d" % (n, cap))


def _weight_from_params(params: dict) -> WeightFn:
    entry = params.get("weight", {"kind": "constant", "value": 1.0})
    if not isinstance(entry, dict):
        raise InvalidArgumentError('"weight" must be an object')
    kind = entry.get("kind", "constant")
    if kind == "constant":
        return WeightFn.constant(_param(entry, "value", 1.0))
    if kind == "angular":
        return WeightFn.angular()
    if kind == "tabulated":
        values = entry.get("values")
        if not isinstance(values, list):
            raise InvalidArgumentError(
                'a tabulated weight needs a list of numbers as "values"')
        return WeightFn.tabulated([_as_number(v, "a tabulated weight value")
                                   for v in values])
    raise InvalidArgumentError("unknown weight kind %r" % (kind,))


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _trusted_grid(spectrum: spectra.Spectrum):
    """40 log-spaced levels across the trusted positive eigenvalues, or None
    when fewer than two of them are trusted."""
    pos = spectrum.side("+")[:spectrum.trusted_k_max]
    if len(pos) < 2:
        return None
    return np.geomspace(pos[-1], pos[0], 40)


def _write_plotdata(spectrum: spectra.Spectrum, grid, out_dir) -> list[str]:
    """Write spectrum.csv and, unless ``grid`` is None, spectrum_counting.csv
    on that level grid; returns the paths."""
    out = _out_dir(out_dir)
    paths = [str(out / "spectrum.csv")]
    spectra.write_spectrum_csv(spectrum, paths[0])
    if grid is not None:
        paths.append(str(out / "spectrum_counting.csv"))
        spectra.write_counting_csv(spectrum, grid, paths[1])
    return paths


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _weyl(config: ExperimentConfig, op, expected: asymptotics.AsymCoeff,
          default_tol: float = 0.10, report_minus: bool = False, **extra):
    """Eigensolve ``op``, fit it on the configured window and check the fit
    against the prediction: c_plus always, c_minus whenever a negative side
    is predicted.  ``extra`` joins the measured fields; ``report_minus``
    reports the negative side even where none is predicted.  Returns the
    experiment's (measured, expected, criteria, spectrum)."""
    spectrum = spectra.eigensolve(op)
    fit = spectra.weyl_fit(spectrum, config.window)
    tol = _param(config.tolerances, "coefficient", default_tol)
    criteria = [_criterion("c_plus", fit.c_plus, expected.c_plus, tol)]
    if expected.c_minus:
        criteria.append(
            _criterion("c_minus", fit.c_minus, expected.c_minus, tol))
    measured = {"c_plus": fit.c_plus, "dispersion": fit.dispersion, **extra}
    predicted = {"c_plus": expected.c_plus}
    if report_minus:
        measured["c_minus"] = fit.c_minus
        predicted["c_minus"] = expected.c_minus
    return measured, predicted, criteria, spectrum


def _exp_circle(default_weight: dict, default_tol: float,
                config: ExperimentConfig):
    """circle-weyl and signed-weight: one circle, both sides reported."""
    params = {"weight": default_weight, **config.params}
    radius = _param(params, "radius", 1.0)
    _check_matrix_budget(config.n, config.max_matrix_n)
    mesh = make_smooth_curve(Circle(radius=radius), config.n)
    weight = _weight_from_params(params)
    op = assemble_curve_operator(mesh, weight, reference_kernel())
    expected = asymptotics.coefficient_surface(mesh, weight, label="circle")
    return _weyl(config, op, expected, default_tol, report_minus=True)


def _polygon_mesh(vertices, n: int, grading: float, cap: int):
    """Graded polygon with about n nodes: an even panel count per side."""
    panels = max(2, n // len(vertices))
    panels += panels % 2
    _check_matrix_budget(panels * len(vertices), cap)
    return make_polygon_curve(vertices, panels, grading)


def _exp_polygon_weyl(config: ExperimentConfig):
    params = config.params
    vertices = _points(params.get("vertices", _UNIT_SQUARE), '"vertices"', 3)
    mesh = _polygon_mesh(vertices, config.n,
                         _param(params, "grading_exponent", 3.0),
                         config.max_matrix_n)
    weight = _weight_from_params(params)
    op = assemble_curve_operator(mesh, weight, reference_kernel())
    expected = asymptotics.coefficient_surface(mesh, weight, label="polygon")
    return _weyl(config, op, expected, n_nodes=mesh.n_nodes)


def _exp_two_surfaces(config: ExperimentConfig):
    params = config.params
    r1 = _param(params, "radius_1", 1.0)
    r2 = _param(params, "radius_2", 2.0)
    center_2 = _point(params.get("center_2", (5.0, 0.0)), '"center_2"')
    n1 = max(8, (config.n // 3) & ~1)
    n2 = max(8, (config.n - n1) & ~1)
    _check_matrix_budget(n1 + n2, config.max_matrix_n)
    mesh1 = make_smooth_curve(Circle(radius=r1), n1)
    mesh2 = make_smooth_curve(Circle(center=center_2, radius=r2), n2)
    weight = _weight_from_params(params)
    kern = reference_kernel()
    op = assemble_mixed(None, [(mesh1, weight), (mesh2, weight)], kern)
    expected = asymptotics.coefficient_total([
        asymptotics.coefficient_surface(mesh1, weight, label="circle_1"),
        asymptotics.coefficient_surface(mesh2, weight, label="circle_2"),
    ])
    result = _weyl(config, op, expected)
    if config.out_dir is not None:
        out = _out_dir(config.out_dir)
        parts = {"combined": result[3]}
        for i, mesh in enumerate((mesh1, mesh2), start=1):
            parts["surface_%d" % i] = spectra.eigensolve(
                assemble_curve_operator(mesh, weight, kern))
        grid = _trusted_grid(result[3])
        for name, sp in parts.items():
            spectra.write_counting_csv(sp, grid, out / ("counting_%s.csv" % name))
    return result


def _exp_mixed_ac_singular(config: ExperimentConfig):
    params = config.params
    disk_radius = _param(params, "disk_radius", 1.0)
    circle_radius = _param(params, "circle_radius", 0.5)
    delta = _param(params, "delta", 0.035)
    n_curve = _param(params, "n_curve", 192, int)
    v0 = _param(params, "v0", 1.0)
    _check_matrix_budget(n_curve, config.max_matrix_n)
    mesh = make_smooth_curve(Circle(radius=circle_radius), n_curve)
    weight = _weight_from_params(params)
    grid = make_cell_grid(("disk", (0.0, 0.0), disk_radius), delta, v0=v0,
                          exclude_meshes=[mesh])
    _check_matrix_budget(grid.n_cells + n_curve, config.max_matrix_n)
    op = assemble_mixed(grid, [(mesh, weight)], reference_kernel())
    expected = asymptotics.coefficient_total([
        asymptotics.coefficient_ac(np.pi * disk_radius ** 2, v0, label="disk"),
        asymptotics.coefficient_surface(mesh, weight, label="circle"),
    ])
    return _weyl(config, op, expected, n_cells=grid.n_cells,
                 resolved_area=grid.n_cells * delta ** 2)


def _exp_cantor_estimate(config: ExperimentConfig):
    params = config.params
    depth = _param(params, "depth", 10, int)
    _check_matrix_budget(2 ** depth, config.max_matrix_n)
    weight = _weight_from_params(params)
    kern = reference_kernel()
    sups = {}
    for d in (depth - 1, depth):
        measure = make_cantor_measure(d)
        spectrum = spectra.eigensolve(
            assemble_measure_operator(measure, weight, kern))
        norm = orlicz.surface_norm(weight, measure)
        grid = spectrum.side("+")[4:spectrum.trusted_k_max]
        sups[d] = covering.empirical_estimate_constant(spectrum, norm, grid)
    variation = abs(sups[depth] / sups[depth - 1] - 1.0)
    tol = _param(config.tolerances, "stability", 0.25)
    criteria = [
        _bound_criterion("sup_variation_on_refinement", variation, tol),
    ]
    measured = {"sup_constant": sups[depth],
                "sup_constant_coarse": sups[depth - 1],
                "variation": variation}
    # the loop ends on depth d: its spectrum is the one the report shows
    return measured, {"finite_constant": "bounded"}, criteria, spectrum


def _exp_covering_count(config: ExperimentConfig):
    params = config.params
    grid_n = _param(params, "grid_n", 16, int)
    depth = _param(params, "cantor_depth", 8, int)
    kappa = _param(params, "kappa", 4, int)
    decade_points = _param(params, "decade_points", 8, int)
    weight = WeightFn.constant(1.0)

    measures = {
        "uniform_square": make_uniform_square_measure(grid_n),
        "cantor": make_cantor_measure(depth),
    }
    measured = {}
    criteria = []
    ladders = {}
    ratio_tol = _param(config.tolerances, "ratio", 2.0)
    for name, measure in measures.items():
        vals = weight.values_on(measure)
        rho_inf = orlicz.surface_norm(vals, measure)
        lams = kappa * rho_inf / 4.0 / (10.0 ** np.linspace(0.0, 1.0, decade_points))
        ladders[name] = [covering.build_covering(measure, vals, float(lam),
                                                 kappa_config=kappa)
                         for lam in lams]
        products = [rep.cube_count * lam
                    for rep, lam in zip(ladders[name], lams)]
        ratio = float(max(products) / min(products))
        measured[name] = {"count_times_lambda": [float(p) for p in products],
                          "ratio": ratio}
        criteria.append(_bound_criterion("%s_count_law_ratio" % name, ratio,
                                         ratio_tol))

    # dyadic quartering: at the top of the ladder, lambda = kappa rho / 4, a
    # constant weight splits the global functional in four
    rep4 = ladders["uniform_square"][0]
    measured["dyadic_cube_count"] = rep4.cube_count
    criteria.append(_criterion("dyadic_cube_count", rep4.cube_count, 4.0,
                               0.0, relative=False))
    if config.out_dir is not None:
        (_out_dir(config.out_dir) / "covering_dyadic.txt").write_text(
            rep4.to_text())
    return measured, {"dyadic_cube_count": 4}, criteria, None


def _exp_lower_order_decay(config: ExperimentConfig):
    params = config.params
    radius = _param(params, "radius", 1.0)
    n = _param(params, "n", min(config.n, 256), int)
    _check_matrix_budget(n, config.max_matrix_n)
    mesh = make_smooth_curve(Circle(radius=radius), n)
    weight = _weight_from_params(params)
    op = assemble_curve_operator(mesh, weight, lower_order_kernel())
    spectrum = spectra.eigensolve(op)
    pos = spectrum.side("+")
    if len(pos) < 40:
        raise InsufficientDataError(
            "lower-order-decay needs 40 positive eigenvalues, got %d; "
            "raise params.n" % len(pos))
    k10 = 10 * pos[9]
    k40 = 40 * pos[39]
    ratio = float(k40 / k10)
    tol = _param(config.tolerances, "decay_ratio", 0.5)
    criteria = [_bound_criterion("k_lambda_k_decay_ratio", ratio, tol)]
    measured = {"k_lambda_10": float(k10), "k_lambda_40": float(k40),
                "ratio": ratio}
    return measured, {"decay": "k lambda_k -> 0"}, criteria, spectrum


def _exp_coefficient_table(config: ExperimentConfig):
    max_dim = _param(config.params, "max_dim", 6, int)
    tol = _param(config.tolerances, "agreement", 1e-8)
    rows = []
    worst = 0.0
    for n_dim in range(2, max_dim + 1):
        for d in range(1, n_dim):
            closed = asymptotics.r_symbol_closed_form(n_dim, d)
            quad_val = asymptotics.r_symbol_quadrature(n_dim, d)
            diff = abs(closed - quad_val) / max(1.0, abs(closed))
            worst = max(worst, diff)
            rows.append({"N": n_dim, "d": d, "closed": closed,
                         "quadrature": quad_val, "agree": bool(diff <= tol)})
    criteria = [_bound_criterion("worst_disagreement", worst, tol)]
    measured = {"rows": rows, "worst_disagreement": worst}
    if config.out_dir is not None:
        with open(_out_dir(config.out_dir) / "coefficient_table.json",
                  "w") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return measured, {"agreement_tol": tol}, criteria, None


EXPERIMENTS = {
    "circle-weyl": partial(_exp_circle, {"kind": "constant", "value": 1.0},
                           0.05),
    "polygon-weyl": _exp_polygon_weyl,
    "signed-weight": partial(_exp_circle, {"kind": "angular"}, 0.10),
    "two-surfaces": _exp_two_surfaces,
    "mixed-ac-singular": _exp_mixed_ac_singular,
    "cantor-estimate": _exp_cantor_estimate,
    "covering-count": _exp_covering_count,
    "lower-order-decay": _exp_lower_order_decay,
    "coefficient-table": _exp_coefficient_table,
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute one experiment and return its report (writing artifacts
    when an output directory is configured)."""
    if config.experiment not in EXPERIMENTS:
        raise InvalidArgumentError(
            "unknown experiment %r; see list-experiments" % (config.experiment,))
    start = time.perf_counter()
    measured, expected, criteria, spectrum = EXPERIMENTS[config.experiment](config)
    runtime = time.perf_counter() - start
    report = ExperimentReport(
        config=config.to_dict(),
        config_hash=config.hash(),
        measured=measured,
        expected=expected,
        criteria=tuple(criteria),
        passed=all(c["passed"] for c in criteria),
        runtime_seconds=runtime,
    )
    if config.out_dir is not None:
        report.write(_out_dir(config.out_dir) / "report.json")
        if spectrum is not None:
            _write_plotdata(spectrum, _trusted_grid(spectrum), config.out_dir)
    return report


def emit_plotdata(spectrum: spectra.Spectrum, out_dir) -> list[str]:
    """Write the plot-ready CSV pair for a spectrum, counting on 40 levels
    across all eigenvalue magnitudes; returns the paths."""
    mags = np.concatenate([spectrum.side("+"), spectrum.side("-")])
    grid = np.geomspace(mags.min(), mags.max(), 40) if mags.size else []
    return _write_plotdata(spectrum, grid, out_dir)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critspec",
        description="spectral experiments for weighted singular-measure operators")
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("--experiment", required=False)
    run.add_argument("--config", type=str, default=None,
                     help="JSON config file (overridden by flags)")
    run.add_argument("--out", type=str, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--n", type=int, default=None)

    sub.add_parser("list-experiments", help="list experiment names")

    coeff = sub.add_parser("coeff", help="emit the coefficient table")
    coeff.add_argument("--max-dim", type=int, default=6)
    coeff.add_argument("--out", type=str, default=None)

    spectrum_cmd = sub.add_parser("spectrum", help="spectrum of a single support")
    spectrum_cmd.add_argument("--shape", choices=["circle", "square", "cantor"],
                          default="circle")
    spectrum_cmd.add_argument("--radius", type=float, default=1.0)
    spectrum_cmd.add_argument("--depth", type=int, default=8)
    spectrum_cmd.add_argument("--n", type=int, default=256)
    spectrum_cmd.add_argument("--weight", choices=["constant", "angular"],
                          default="constant")
    spectrum_cmd.add_argument("--value", type=float, default=1.0)
    spectrum_cmd.add_argument("--out", type=str, default=".")

    norm_cmd = sub.add_parser("orlicz-norm",
                              help="averaged norm of a weight on a support")
    norm_cmd.add_argument("--shape", choices=["circle", "cantor", "square-grid"],
                          default="cantor")
    norm_cmd.add_argument("--depth", type=int, default=8)
    norm_cmd.add_argument("--n", type=int, default=64)
    norm_cmd.add_argument("--value", type=float, default=1.0)

    cov_cmd = sub.add_parser("covering", help="build a covering report")
    cov_cmd.add_argument("--measure", choices=["uniform", "cantor"],
                         default="uniform")
    cov_cmd.add_argument("--grid-n", type=int, default=16)
    cov_cmd.add_argument("--depth", type=int, default=8)
    cov_cmd.add_argument("--lam", type=float, required=True)
    cov_cmd.add_argument("--kappa", type=int, default=4)
    cov_cmd.add_argument("--out", type=str, default=None)
    return parser


def _cmd_run(args) -> int:
    if args.config:
        with open(args.config) as fh:
            config = ExperimentConfig.from_dict(json.load(fh))
    elif args.experiment:
        config = ExperimentConfig(experiment=args.experiment)
    else:
        print("run needs --experiment or --config", file=sys.stderr)
        return 2
    flags = {"experiment": args.experiment, "seed": args.seed, "n": args.n,
             "out_dir": args.out}
    return _run_and_print(
        replace(config, **{k: v for k, v in flags.items() if v is not None}))


def _run_and_print(config: ExperimentConfig) -> int:
    report = run_experiment(config)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0 if report.passed else 1


def _cmd_spectrum(args) -> int:
    weight = (WeightFn.constant(args.value) if args.weight == "constant"
              else WeightFn.angular())
    kern = reference_kernel()
    if args.shape == "circle":
        _check_matrix_budget(args.n, DEFAULT_MAX_MATRIX)
        mesh = make_smooth_curve(Circle(radius=args.radius), args.n)
        op = assemble_curve_operator(mesh, weight, kern)
    elif args.shape == "square":
        mesh = _polygon_mesh(_UNIT_SQUARE, args.n, 3.0, DEFAULT_MAX_MATRIX)
        op = assemble_curve_operator(mesh, weight, kern)
    else:
        _check_matrix_budget(2 ** args.depth, DEFAULT_MAX_MATRIX)
        measure = make_cantor_measure(args.depth)
        op = assemble_measure_operator(measure, weight, kern)
    spectrum = spectra.eigensolve(op)
    paths = emit_plotdata(spectrum, args.out)
    print("\n".join(paths))
    return 0


def _cmd_orlicz_norm(args) -> int:
    if args.shape == "circle":
        obj = make_smooth_curve(Circle(radius=1.0), args.n)
    elif args.shape == "cantor":
        obj = make_cantor_measure(args.depth)
    else:
        obj = make_uniform_square_measure(args.n)
    value = orlicz.surface_norm(WeightFn.constant(args.value), obj)
    print(json.dumps({"shape": args.shape, "value": value}, sort_keys=True))
    return 0


def _cmd_covering(args) -> int:
    if args.measure == "uniform":
        measure = make_uniform_square_measure(args.grid_n)
    else:
        measure = make_cantor_measure(args.depth)
    weight = WeightFn.constant(1.0)
    rep = covering.build_covering(measure, weight.values_on(measure),
                                  args.lam, kappa_config=args.kappa)
    text = rep.to_text()
    if args.out:
        (_out_dir(args.out) / "covering.txt").write_text(text)
    print(text, end="")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list-experiments":
            print("\n".join(sorted(EXPERIMENTS)))
            return 0
        if args.command == "coeff":
            return _run_and_print(ExperimentConfig(
                experiment="coefficient-table",
                params={"max_dim": args.max_dim}, out_dir=args.out))
        if args.command == "spectrum":
            return _cmd_spectrum(args)
        if args.command == "orlicz-norm":
            return _cmd_orlicz_norm(args)
        if args.command == "covering":
            return _cmd_covering(args)
        parser.print_help()
        return 2
    except (InvalidArgumentError, InsufficientDataError, OutOfRangeError,
            json.JSONDecodeError, FileNotFoundError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print("resource limit: %s" % exc, file=sys.stderr)
        return 3
    except InternalError as exc:
        print("error: internal check failed: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
