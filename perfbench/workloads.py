"""Seeded inputs, operations and output checks for the benchmark workloads.

Each workload is a fixed list of operations.  The seed draws only geometry
and weights, never a size (n, depth, atom count, ladder length), so the work
of a run and the meaning of ``wall_s`` are the same on every seed.  Ranges
and the seeds they were checked on are recorded in perfbench/README.md; in
short:

* curve radii stay in [0.85, 1.05] so that every pair distance on a circle
  (at most 2.1) stays below the 2.2 switch of ``bessel_k`` and the whole
  curve block runs the K_0 series branch;
* the rectangle has unit area and aspect ratio in [1, 2], diagonal at most
  1.59, so it stays on the series branch too;
* in two-surfaces the second circle has radius in [1.95, 2.05] and a gap of
  [2.5, 3.5] to the first, so the whole cross block runs the cosh-integral
  band branch (distance 2.2 to 15) and the share of the second circle's own
  block on that branch moves by at most about 1%;
* the Cantor weight constant only rescales the operator; the mixed a.c.
  density v0 stays in [0.5, 1.0] because the fitted a.c. part runs low at
  delta 0.035 (-9% of the target at v0 = 1.25, -10.4% and a failed
  criterion at v0 = 2);
* covering weights are log-normal with sigma 0.5.

The program receives only the generated configs and weight tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("curve-weyl", "measure-mixed", "covering-bound")

REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("reference.json")
# relative agreement with the committed reference values: eigenvalue-based
# values at the 1e-8 the circle-diagonalization criterion pins, Orlicz norms
# at the 1e-9 the Orlicz-property criterion pins; cube counts match exactly
SPECTRAL_RTOL = 1e-8
ORLICZ_RTOL = 1e-9
# a cube of the covering must reach the target up to the covering's own
# first-crossing slack
CROSSING_RTOL = 1e-12
KAPPA = 4
MIXED_CURVE_N = 192


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; fixed for a workload, independent of the seed."""

    curve_n: int = 2048
    cantor_depth: int = 10
    two_surfaces_n: int = 2048
    mixed_delta: float = 0.035
    lower_order_n: int = 256
    cover_grid: int = 16
    cover_depth: int = 8
    ladder: int = 4


FULL = Sizes()
# the self-test's smoke run: same operations and code paths, small sizes
SMOKE = Sizes(curve_n=512, cantor_depth=7, two_surfaces_n=768,
              mixed_delta=0.07, lower_order_n=128, cover_grid=8,
              cover_depth=6, ladder=2)


def _close(got, want, rtol) -> bool:
    if got is None or want is None:
        return got is want
    return abs(got - want) <= rtol * abs(want)


class ExperimentOp:
    """One ``cli.run_experiment`` call on a generated config."""

    def __init__(self, config: dict, size):
        self.name = config["experiment"]
        self.config = config
        self._size = size

    def run(self):
        from critspec import cli
        return cli.run_experiment(cli.ExperimentConfig.from_dict(self.config))

    def matrix_size(self, report) -> int:
        return self._size(report)

    def outputs(self, report) -> dict:
        keys = ("c_plus", "c_minus", "sup_constant", "ratio")
        return {k: report.measured[k] for k in keys if k in report.measured}

    def check(self, report, reference) -> list[str]:
        problems = ["criterion %s failed: %r (target %r)"
                    % (c["name"], c["value"], c["target"])
                    for c in report.criteria if not c["passed"]]
        for key, want in (reference or {}).items():
            got = report.measured.get(key)
            if not _close(got, want, SPECTRAL_RTOL):
                problems.append("%s = %r, reference %r" % (key, got, want))
        return problems


class CoveringOp:
    """Averaged norm plus a one-decade ladder of greedy coverings.

    ``expected_count`` pins the cube count of every covering (the dyadic
    quartering of a constant weight gives exactly 4).
    """

    def __init__(self, name: str, measure: tuple, weights: np.ndarray,
                 ladder: int, expected_count: int | None = None):
        self.name = name
        self.measure = measure
        self.weights = weights
        self.ladder = ladder
        self.expected_count = expected_count

    def run(self):
        from critspec import covering, geometry, orlicz
        kind, size = self.measure
        if kind == "uniform":
            measure = geometry.make_uniform_square_measure(size)
        else:
            measure = geometry.make_cantor_measure(size)
        rho = orlicz.surface_norm(self.weights, measure)
        lams = KAPPA * rho / 4.0 / 10.0 ** np.linspace(0.0, 1.0, self.ladder)
        reports = [covering.build_covering(measure, self.weights, float(lam),
                                           kappa_config=KAPPA)
                   for lam in lams]
        return measure, rho, reports

    def matrix_size(self, outcome) -> int:
        return outcome[0].n_atoms

    def outputs(self, outcome) -> dict:
        _, rho, reports = outcome
        return {"norm": rho, "cube_counts": [r.cube_count for r in reports]}

    def check(self, outcome, reference) -> list[str]:
        from critspec.orlicz import j_functional
        measure, rho, reports = outcome
        points = measure.atoms
        problems = []
        for rep in reports:
            covered = np.zeros(len(points), dtype=bool)
            for cube in rep.cubes:
                covered |= cube.contains(points)
            if not covered.all():
                problems.append("lambda %r leaves %d atoms uncovered"
                                % (rep.lam, int((~covered).sum())))
            if rep.target < rho * (1.0 - CROSSING_RTOL):   # not the global cube
                floor = rep.target * (1.0 - CROSSING_RTOL)
                low = [j for j in (j_functional(self.weights, measure, cube)
                                   for cube in rep.cubes) if j < floor]
                if low:
                    problems.append("lambda %r: %d cubes below the target"
                                    % (rep.lam, len(low)))
            if (self.expected_count is not None
                    and rep.cube_count != self.expected_count):
                problems.append("lambda %r: %d cubes, expected %d"
                                % (rep.lam, rep.cube_count,
                                   self.expected_count))
        if reference:
            if not _close(rho, reference["norm"], ORLICZ_RTOL):
                problems.append("norm %r, reference %r"
                                % (rho, reference["norm"]))
            counts = [r.cube_count for r in reports]
            if counts != reference["cube_counts"]:
                problems.append("cube counts %r, reference %r"
                                % (counts, reference["cube_counts"]))
        return problems


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _curve_weyl(rng, sz: Sizes):
    n = sz.curve_n
    radius = float(rng.uniform(0.85, 1.05))
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    aspect = float(rng.uniform(1.0, 2.0))
    t = 2.0 * np.pi * np.arange(n) / n
    a, b = np.sqrt(aspect), 1.0 / np.sqrt(aspect)
    return [
        ExperimentOp({"experiment": "circle-weyl", "n": n,
                      "params": {"radius": radius}}, lambda rep: n),
        ExperimentOp({"experiment": "signed-weight", "n": n,
                      "params": {"radius": radius,
                                 "weight": {"kind": "tabulated",
                                            "values": np.cos(t - phase).tolist()}}},
                     lambda rep: n),
        ExperimentOp({"experiment": "polygon-weyl", "n": n,
                      "params": {"vertices": [[0.0, 0.0], [a, 0.0], [a, b],
                                              [0.0, b]]}},
                     lambda rep: rep.measured["n_nodes"]),
    ]


def _measure_mixed(rng, sz: Sizes):
    depth = sz.cantor_depth
    cantor_value = float(rng.uniform(0.5, 2.0))
    r1 = float(rng.uniform(0.85, 1.05))
    r2 = float(rng.uniform(1.95, 2.05))
    theta = float(rng.uniform(0.0, 2.0 * np.pi))
    dist = r1 + r2 + float(rng.uniform(2.5, 3.5))
    v0 = float(rng.uniform(0.5, 1.0))
    lo_radius = float(rng.uniform(0.85, 1.05))
    n = sz.two_surfaces_n
    # the split two-surfaces makes between its circles
    n1 = max(8, (n // 3) & ~1)
    n_pair = n1 + max(8, (n - n1) & ~1)
    return [
        ExperimentOp({"experiment": "cantor-estimate",
                      "params": {"depth": depth,
                                 "weight": {"kind": "constant",
                                            "value": cantor_value}}},
                     lambda rep: 2 ** depth),
        ExperimentOp({"experiment": "two-surfaces", "n": n,
                      "params": {"radius_1": r1, "radius_2": r2,
                                 "center_2": [dist * np.cos(theta),
                                              dist * np.sin(theta)]}},
                     lambda rep: n_pair),
        ExperimentOp({"experiment": "mixed-ac-singular",
                      "params": {"v0": v0, "delta": sz.mixed_delta,
                                 "n_curve": MIXED_CURVE_N}},
                     lambda rep: rep.measured["n_cells"] + MIXED_CURVE_N),
        ExperimentOp({"experiment": "lower-order-decay",
                      "params": {"n": sz.lower_order_n, "radius": lo_radius}},
                     lambda rep: sz.lower_order_n),
    ]


def _covering_bound(rng, sz: Sizes):
    n_grid = sz.cover_grid ** 2
    n_cantor = 2 ** sz.cover_depth
    return [
        CoveringOp("covering-uniform", ("uniform", sz.cover_grid),
                   np.exp(rng.normal(0.0, 0.5, n_grid)), sz.ladder),
        CoveringOp("covering-cantor", ("cantor", sz.cover_depth),
                   np.exp(rng.normal(0.0, 0.5, n_cantor)), sz.ladder),
        CoveringOp("covering-dyadic", ("uniform", sz.cover_grid),
                   np.ones(n_grid), 1, expected_count=4),
    ]


_BUILDERS = {"curve-weyl": _curve_weyl, "measure-mixed": _measure_mixed,
             "covering-bound": _covering_bound}


def build(workload: str, seed: int, smoke: bool = False) -> list:
    """The operations of ``workload`` with inputs drawn from ``seed``."""
    return _BUILDERS[workload](_rng(seed, workload), SMOKE if smoke else FULL)


def reference_for(seed: int, smoke: bool) -> dict:
    """Committed per-op reference outputs, for the reference seed only."""
    if smoke or seed != REFERENCE_SEED:
        return {}
    return json.loads(REFERENCE_FILE.read_text())["ops"]
