"""Experiment runner and command-line interface.

Each experiment builds a configuration of supports and weights, solves
the spectrum of its operator in one step (``_spectrum_of``, which refuses
a matrix above the cap before assembling it), and compares measured
quantities (fit coefficients, counts, covering statistics) against the
predicted values.  Reports are deterministic given the configuration and
the BLAS thread count: the report hash is taken over everything except
the wall-clock runtime.  Each experiment declares its params and
tolerances in one table (``EXPERIMENTS``), checked before any work.

Exit codes: 0 all criteria pass, 1 a criterion failed, 2 usage error,
3 resource limit (a support above the atom cap, an operator above the
matrix cap), 4 an internal check failed (for instance computed
eigenvalues that miss the trace or the Frobenius norm of their matrix).
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import numbers
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import asymptotics, covering, orlicz, spectra
# assemble_curve_operator and assemble_measure_operator are not called here;
# perfbench/tracer.py wraps them by name in this module
from .assemble import (WeightFn, assemble_curve_operator,
                       assemble_measure_operator, assemble_mixed,
                       make_cell_grid)
from .errors import (InsufficientDataError, InternalError,
                     InvalidArgumentError, OutOfRangeError, ResourceLimitError)
from .geometry import (Circle, make_cantor_measure, make_polygon_curve,
                       make_smooth_curve, make_uniform_square_measure,
                       support_atoms)
from .kernels import lower_order_kernel, reference_kernel

DEFAULT_WINDOW = (20, 60)
DEFAULT_MAX_MATRIX = 4200
_UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
# two-surfaces' center_2 in units of radius_2, at most, on each axis
_CENTER_REACH = 2.0 ** 26


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: int = 512
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
        window = tuple(_as_number(k, "window", int) for k in c.window)
        if not 1 <= window[0] < window[1]:
            raise InvalidArgumentError("window must satisfy 1 <= k_min < k_max")
        return replace(c, n=_as_number(c.n, "n", int), window=window,
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


# the keys a weight object takes besides its "kind", in the form of an
# experiment's table
_WEIGHT_KEYS = {
    "constant": {"value": (float, 1.0)},
    "angular": {},
    "tabulated": {"values": ("numbers", None)},
}


def _validated(table: dict, given: dict, what: str, config=None) -> dict:
    """Each key ``table`` declares as (kind, default), given or defaulted,
    read as its kind; a given key it does not declare is a usage error
    naming the key.  A default that is a function is one of ``config``."""
    unknown = sorted(set(given) - set(table))
    if unknown:
        raise InvalidArgumentError("unknown %s: %s" % (what, ", ".join(unknown)))
    resolved = {}
    for key, (kind, default) in table.items():
        value = (given[key] if key in given
                 else default(config) if callable(default) else default)
        resolved[key] = _checked(value, kind, '"%s"' % key)
    return resolved


def _checked(value, kind, what: str):
    """``value`` read as ``kind``, or a usage error naming ``what``: float,
    int, a range of integers (lo, hi) (hi None for no upper end), "point"
    (a pair of finite numbers), "points" (at least three), "numbers" (a
    list) or "weight", an object of a "kind" ("constant" by default) and the
    keys ``_WEIGHT_KEYS`` declares for it, read as a ``WeightFn``."""
    if kind is float or kind is int:
        return _as_number(value, what, kind)
    if isinstance(kind, tuple):
        lo, hi = kind
        value = _as_number(value, what, int)
        if value < lo or (hi is not None and value > hi):
            span = ("at least %s" % lo if hi is None
                    else "in the range [%s, %s]" % (lo, hi))
            raise InvalidArgumentError("%s must be %s, got %r"
                                       % (what, span, value))
        return value
    if kind == "point":
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise InvalidArgumentError(
                "%s must be a pair of numbers, got %r" % (what, value))
        point = tuple(_as_number(c, what) for c in value)
        if not np.all(np.isfinite(point)):
            raise InvalidArgumentError(
                "%s must be a pair of finite numbers, got %r" % (what, value))
        return point
    if kind == "points":
        if not isinstance(value, (list, tuple)) or len(value) < 3:
            raise InvalidArgumentError(
                "%s must be a list of at least 3 points" % what)
        return [_checked(v, "point", what) for v in value]
    if kind == "numbers":
        if not isinstance(value, list):
            raise InvalidArgumentError("%s must be a list of numbers" % what)
        # JSON numbers, ints and floats alone, in one pass; any other type
        # value by value, which names the first value refused
        if set(map(type, value)) <= {float, int}:
            return list(map(float, value))
        return [_as_number(v, what) for v in value]
    # a weight
    if not isinstance(value, dict):
        raise InvalidArgumentError("%s must be an object" % what)
    shape = value.get("kind", "constant")
    if not isinstance(shape, str) or shape not in _WEIGHT_KEYS:
        raise InvalidArgumentError("unknown weight kind %r" % (shape,))
    args = _validated(_WEIGHT_KEYS[shape],
                      {k: v for k, v in value.items() if k != "kind"},
                      "%s weight keys" % shape)
    if shape == "constant":
        return WeightFn.constant(args["value"])
    if shape == "tabulated":
        return WeightFn.tabulated(args["values"])
    return WeightFn.angular()


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
               tolerance: float, relative: bool = True,
               held: int | None = None) -> dict:
    """``value`` against ``target``; ``held``, for a fitted side, counts
    that side's eigenvalues in the fit window.  A side predicted empty
    (target 0) passes when the window holds none of them and fails when it
    holds any; any other side without a fit fails."""
    if held is not None and target == 0.0:
        passed = held == 0
    elif value is None:
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


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_out(path) -> None:
    """Refuse, before any work, an output path that ``_out_dir`` could not
    make a directory: an existing file, or a path below one.  Nothing is
    created, so a run refused later for a bad value leaves nothing
    behind."""
    out = Path(path)
    if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR),
                                 str(out))


def _trusted_grid(spectrum: spectra.Spectrum) -> np.ndarray:
    """40 log-spaced levels across the trusted positive eigenvalues; no
    level when fewer than two of them are trusted."""
    pos = spectrum.side("+")[:spectrum.trusted_k_max]
    if len(pos) < 2:
        return np.empty(0)
    return np.geomspace(pos[-1], pos[0], 40)


def _write_plotdata(spectrum: spectra.Spectrum, grid, out_dir) -> list[str]:
    """Write spectrum.csv and spectrum_counting.csv on the level grid (a
    header only without levels); returns the paths."""
    out = _out_dir(out_dir)
    paths = [str(out / "spectrum.csv"), str(out / "spectrum_counting.csv")]
    spectra.write_spectrum_csv(spectrum, paths[0])
    spectra.write_counting_csv(spectrum, grid, paths[1])
    return paths


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _spectrum_of(supports, kernel, cap: int) -> spectra.Spectrum:
    """Spectrum of the operator over the (support, weight) blocks; an
    operator of more than ``cap`` unknowns is refused before assembly.

    The operator is assembled and solved as one block per character of
    its symmetry group (``assemble_mixed``), one block of order n where it
    has none, and dropped after its solve, which consumes it."""
    n = sum(len(support_atoms(support)[0]) for support, _ in supports)
    if n > cap:
        raise ResourceLimitError("matrix size %d exceeds the cap %d" % (n, cap))
    return spectra.eigensolve(assemble_mixed(supports, kernel))


def _weyl(config: ExperimentConfig, supports,
          expected: asymptotics.AsymCoeff, tol: float,
          report_minus: bool = False, **extra):
    """Eigensolve ``supports`` on the reference kernel, fit on the configured
    window and check the fit against the prediction within ``tol``: c_plus
    always, c_minus whenever a negative side is predicted.  ``extra`` joins
    the measured fields; ``report_minus`` reports the negative side even
    where none is predicted.  Returns the experiment's (measured, expected,
    criteria, spectrum)."""
    spectrum = _spectrum_of(supports, reference_kernel(), config.max_matrix_n)
    fit = spectra.weyl_fit(spectrum, config.window)
    k_min, k_max = fit.window
    held = {sign: max(0, min(k_max, len(spectrum.side(sign))) - k_min + 1)
            for sign in "+-"}
    criteria = [_criterion("c_plus", fit.c_plus, expected.c_plus, tol,
                           held=held["+"])]
    if expected.c_minus:
        criteria.append(_criterion("c_minus", fit.c_minus, expected.c_minus,
                                   tol, held=held["-"]))
    measured = {"c_plus": fit.c_plus, "dispersion": fit.dispersion, **extra}
    predicted = {"c_plus": expected.c_plus}
    if report_minus:
        measured["c_minus"] = fit.c_minus
        predicted["c_minus"] = expected.c_minus
    return measured, predicted, criteria, spectrum


def _exp_circle(config: ExperimentConfig, params, tols):
    """circle-weyl and signed-weight: one circle, both sides reported."""
    mesh = make_smooth_curve(Circle(radius=params["radius"]), config.n)
    weight = params["weight"]
    expected = asymptotics.coefficient_surface(mesh, weight)
    return _weyl(config, [(mesh, weight)], expected, tols["coefficient"],
                 report_minus=True)


def _polygon_mesh(vertices, n: int, grading: float):
    """Graded polygon with about n nodes: an even panel count per side."""
    panels = max(2, n // len(vertices))
    panels += panels % 2
    return make_polygon_curve(vertices, panels, grading)


def _exp_polygon_weyl(config: ExperimentConfig, params, tols):
    mesh = _polygon_mesh(params["vertices"], config.n,
                         params["grading_exponent"])
    weight = params["weight"]
    expected = asymptotics.coefficient_surface(mesh, weight)
    return _weyl(config, [(mesh, weight)], expected, tols["coefficient"],
                 n_nodes=mesh.n_nodes)


def _exp_two_surfaces(config: ExperimentConfig, params, tols):
    n1 = max(8, (config.n // 3) & ~1)
    n2 = max(8, (config.n - n1) & ~1)
    mesh1 = make_smooth_curve(Circle(radius=params["radius_1"]), n1)
    reach = _CENTER_REACH * params["radius_2"]
    if reach > 0.0 and not max(map(abs, params["center_2"])) <= reach:
        # farther out, the nodes of the second circle round to fewer
        # digits about its center, and to one point at 2^52 radius_2
        raise InvalidArgumentError(
            '"center_2" must lie within 2^26 radius_2 = %.4g of the origin '
            "on each axis, where the second circle's nodes keep half their "
            "digits, got %r" % (reach, list(params["center_2"])))
    mesh2 = make_smooth_curve(Circle(center=params["center_2"],
                                     radius=params["radius_2"]), n2)
    weight = params["weight"]
    expected = asymptotics.coefficient_total([
        asymptotics.coefficient_surface(mesh1, weight),
        asymptotics.coefficient_surface(mesh2, weight),
    ])
    result = _weyl(config, [(mesh1, weight), (mesh2, weight)], expected,
                   tols["coefficient"])
    if config.out_dir is not None:
        out = _out_dir(config.out_dir)
        parts = {"combined": result[3]}
        for i, mesh in enumerate((mesh1, mesh2), start=1):
            parts["surface_%d" % i] = _spectrum_of(
                [(mesh, weight)], reference_kernel(), config.max_matrix_n)
        grid = _trusted_grid(result[3])
        for name, sp in parts.items():
            spectra.write_counting_csv(sp, grid, out / ("counting_%s.csv" % name))
    return result


def _exp_mixed_ac_singular(config: ExperimentConfig, params, tols):
    disk_radius, delta, v0 = (params["disk_radius"], params["delta"],
                              params["v0"])
    mesh = make_smooth_curve(Circle(radius=params["circle_radius"]),
                             params["n_curve"])
    weight = params["weight"]
    grid = make_cell_grid((0.0, 0.0), disk_radius, delta,
                          exclude_meshes=[mesh])
    expected = asymptotics.coefficient_total([
        asymptotics.coefficient_ac(np.pi * disk_radius ** 2, v0),
        asymptotics.coefficient_surface(mesh, weight),
    ])
    return _weyl(config, [(grid, WeightFn.constant(v0)), (mesh, weight)],
                 expected, tols["coefficient"], n_cells=grid.n_atoms,
                 resolved_area=grid.n_atoms * delta ** 2)


def _exp_cantor_estimate(config: ExperimentConfig, params, tols):
    depth, weight = params["depth"], params["weight"]
    sups = {}
    # finer depth first: a matrix over the cap is refused before any eigensolve
    for d in (depth, depth - 1):
        measure = make_cantor_measure(d)
        spectrum = _spectrum_of([(measure, weight)], reference_kernel(),
                                config.max_matrix_n)
        if d == depth:
            shown = spectrum
        norm = orlicz.surface_norm(weight, measure)
        grid = spectrum.side("+")[4:spectrum.trusted_k_max]
        sups[d] = covering.empirical_estimate_constant(spectrum, norm, grid)
    variation = abs(sups[depth] / sups[depth - 1] - 1.0)
    criteria = [
        _bound_criterion("sup_variation_on_refinement", variation,
                         tols["stability"]),
    ]
    measured = {"sup_constant": sups[depth],
                "sup_constant_coarse": sups[depth - 1],
                "variation": variation}
    # the report shows the spectrum at depth
    return measured, {"finite_constant": "bounded"}, criteria, shown


def _exp_covering_count(config: ExperimentConfig, params, tols):
    kappa = params["kappa"]
    weight = WeightFn.constant(1.0)

    measures = {
        "uniform_square": make_uniform_square_measure(params["grid_n"]),
        "cantor": make_cantor_measure(params["cantor_depth"]),
    }
    measured = {}
    criteria = []
    ladders = {}
    for name, measure in measures.items():
        vals = weight.values_on(measure)
        rho_inf = orlicz.surface_norm(vals, measure)
        lams = kappa * rho_inf / 4.0 / (10.0 ** np.linspace(
            0.0, 1.0, params["decade_points"]))
        ladders[name] = [covering.build_covering(measure, vals, float(lam),
                                                 kappa_config=kappa)
                         for lam in lams]
        products = [rep.cube_count * lam
                    for rep, lam in zip(ladders[name], lams)]
        ratio = float(max(products) / min(products))
        measured[name] = {"count_times_lambda": [float(p) for p in products],
                          "ratio": ratio}
        criteria.append(_bound_criterion("%s_count_law_ratio" % name, ratio,
                                         tols["ratio"]))

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


def _exp_lower_order_decay(config: ExperimentConfig, params, tols):
    mesh = make_smooth_curve(Circle(radius=params["radius"]), params["n"])
    spectrum = _spectrum_of([(mesh, params["weight"])],
                            lower_order_kernel(), config.max_matrix_n)
    pos = spectrum.side("+")
    if len(pos) < 40:
        raise InsufficientDataError(
            "lower-order-decay needs 40 positive eigenvalues, got %d; "
            "raise params.n" % len(pos))
    k10 = 10 * pos[9]
    k40 = 40 * pos[39]
    ratio = float(k40 / k10)
    criteria = [_bound_criterion("k_lambda_k_decay_ratio", ratio,
                                 tols["decay_ratio"])]
    measured = {"k_lambda_10": float(k10), "k_lambda_40": float(k40),
                "ratio": ratio}
    return measured, {"decay": "k lambda_k -> 0"}, criteria, spectrum


def _exp_coefficient_table(config: ExperimentConfig, params, tols):
    tol = tols["agreement"]
    rows = []
    worst = 0.0
    for n_dim in range(2, params["max_dim"] + 1):
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


@dataclass(frozen=True)
class _Experiment:
    """An experiment's one table: each key of its params and of its
    tolerances as (kind, default), the kinds of ``_checked``, and the body
    ``run(config, params, tolerances)`` that reads them resolved.  Ranges
    a support constructor checks (radii, cell size, node counts, depths)
    are left to it."""
    run: object
    params: dict
    tolerances: dict


_COEFFICIENT = {"coefficient": (float, 0.10)}

EXPERIMENTS = {
    "circle-weyl": _Experiment(
        _exp_circle, {"radius": (float, 1.0), "weight": ("weight", {})},
        {"coefficient": (float, 0.05)}),
    "polygon-weyl": _Experiment(
        _exp_polygon_weyl,
        {"vertices": ("points", _UNIT_SQUARE),
         "grading_exponent": (float, 3.0), "weight": ("weight", {})},
        _COEFFICIENT),
    "signed-weight": _Experiment(
        _exp_circle,
        {"radius": (float, 1.0), "weight": ("weight", {"kind": "angular"})},
        _COEFFICIENT),
    "two-surfaces": _Experiment(
        _exp_two_surfaces,
        {"radius_1": (float, 1.0), "radius_2": (float, 2.0),
         "center_2": ("point", (5.0, 0.0)), "weight": ("weight", {})},
        _COEFFICIENT),
    "mixed-ac-singular": _Experiment(
        _exp_mixed_ac_singular,
        {"disk_radius": (float, 1.0), "circle_radius": (float, 0.5),
         "delta": (float, 0.035), "n_curve": (int, 192), "v0": (float, 1.0),
         "weight": ("weight", {})},
        _COEFFICIENT),
    "cantor-estimate": _Experiment(
        _exp_cantor_estimate, {"depth": (int, 10), "weight": ("weight", {})},
        {"stability": (float, 0.25)}),
    "covering-count": _Experiment(
        _exp_covering_count,
        {"grid_n": (int, 16), "cantor_depth": (int, 8),
         "kappa": ((1, None), 4),
         # a count law needs at least two rungs on the ladder
         "decade_points": ((2, None), 8)},
        {"ratio": (float, 2.0)}),
    "lower-order-decay": _Experiment(
        _exp_lower_order_decay,
        {"radius": (float, 1.0),
         "n": (int, lambda config: min(config.n, 256)),
         "weight": ("weight", {})},
        {"decay_ratio": (float, 0.5)}),
    "coefficient-table": _Experiment(
        _exp_coefficient_table,
        # Gamma(N / 2) overflows a double from N = 344 on
        {"max_dim": ((2, 343), 6)},
        {"agreement": (float, 1e-8)}),
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute one experiment and return its report (writing artifacts
    when an output directory is configured).  Its params and tolerances
    are checked against its table before any work."""
    if config.experiment not in EXPERIMENTS:
        raise InvalidArgumentError(
            "unknown experiment %r; see list-experiments" % (config.experiment,))
    experiment = EXPERIMENTS[config.experiment]
    params = _validated(experiment.params, config.params,
                        "params keys for %s" % config.experiment, config)
    tols = _validated(experiment.tolerances, config.tolerances,
                      "tolerances keys for %s" % config.experiment)
    if config.out_dir is not None:
        _check_out(config.out_dir)
    start = time.perf_counter()
    measured, expected, criteria, spectrum = experiment.run(config, params,
                                                            tols)
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
        with open(args.config, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                # neither error names the file
                raise InvalidArgumentError(
                    "%s: %s" % (args.config, exc)) from None
        config = ExperimentConfig.from_dict(data)
    elif args.experiment:
        config = ExperimentConfig(experiment=args.experiment)
    else:
        print("run needs --experiment or --config", file=sys.stderr)
        return 2
    flags = {"experiment": args.experiment, "n": args.n, "out_dir": args.out}
    return _run_and_print(
        replace(config, **{k: v for k, v in flags.items() if v is not None}))


def _run_and_print(config: ExperimentConfig) -> int:
    report = run_experiment(config)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0 if report.passed else 1


def _cmd_spectrum(args) -> int:
    _check_out(args.out)
    weight = (WeightFn.constant(args.value) if args.weight == "constant"
              else WeightFn.angular())
    if args.shape == "circle":
        support = make_smooth_curve(Circle(radius=args.radius), args.n)
    elif args.shape == "square":
        support = _polygon_mesh(_UNIT_SQUARE, args.n, 3.0)
    else:
        support = make_cantor_measure(args.depth)
    spectrum = _spectrum_of([(support, weight)], reference_kernel(),
                            DEFAULT_MAX_MATRIX)
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
    if args.out:
        _check_out(args.out)
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
            OSError) as exc:
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
