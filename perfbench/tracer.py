"""Span tracer for the benchmark's traced run.

The tracer wraps the public function of each critspec layer at the name its
caller resolves: the package imports by name (``from .bessel import
bessel_k``), so a wrapper on ``critspec.bessel.bessel_k`` alone would miss
every call made from ``critspec.kernels``.  Each wrapped call records one
span (name, start, end, parent span, op id) in memory; the spans are written
out when the worker ends.  A layer's self time is the duration of its spans
minus the part of each span that its child spans cover.

``orlicz.phi`` and ``covering.j_functional`` are counted, not timed: phi runs
millions of times per covering run and a timed wrapper on it would dominate
the overhead it is meant to measure.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# span layer = the first dotted component of the span name; these are the
# critspec modules, in pipeline order
LAYERS = ("geometry", "bessel", "kernels", "assemble", "spectra",
          "asymptotics", "orlicz", "covering", "cli")

# experiments whose run_experiment span gets its own cli.op.<name>.s metric
EXPERIMENT_OPS = ("circle-weyl", "signed-weight", "polygon-weyl",
                  "cantor-estimate", "two-surfaces", "mixed-ac-singular",
                  "lower-order-decay")

WARNING_KINDS = ("multiplicity_cap", "k_underflow", "other")


class Tracer:
    """In-memory span recorder; one per traced worker process."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []      # [name, start, end, parent, op]
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._clock = clock

    def timed(self, name: str, fn, count=None):
        """Wrap ``fn`` so that each call records a span called ``name``.

        ``count(counts, args, kwargs, result)``, when given, adds the call's
        work counters after the call returns.
        """
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Wrap ``fn`` so that each call only bumps ``<name>.calls``."""
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its children's coverage.

    Children are the spans whose parent index points at the span; their
    intervals are clipped to the parent and merged before subtracting, so
    overlapping or out-of-range children are never counted twice.
    """
    children = defaultdict(list)
    for rec in spans:
        if rec[3] >= 0:
            children[rec[3]].append((rec[1], rec[2]))
    out = []
    for index, rec in enumerate(spans):
        start, end = rec[1], rec[2]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# work counters
# ---------------------------------------------------------------------------

def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _count_points(key):
    """Counter for f(n, x) / method(self, r): the number of points in arg 1."""
    def count(counts, args, kwargs, result):
        counts[key] += _size(args[1])
    return count


def _count_eigensolve(counts, args, kwargs, result):
    matrix = args[0]
    n = int(getattr(matrix, "n", None) or len(matrix))
    counts["spectra.eigensolve.n3_sum"] += float(n) ** 3
    window = result.trusted_k_max
    counts["spectra.eigensolve.returned"] += len(result.positives) + len(
        result.negatives)
    counts["spectra.eigensolve.trusted"] += (
        min(len(result.positives), window) + min(len(result.negatives), window))


def _count_atoms(counts, args, kwargs, result):
    counts["orlicz.averaged_norm.atoms"] += _size(args[0])


def _count_cubes(counts, args, kwargs, result):
    counts["covering.build_covering.cubes"] += result.cube_count


def instrument(tracer: Tracer):
    """Install the wrappers; returns a function that removes them again."""
    from critspec import (assemble, asymptotics, cli, covering, geometry,
                          kernels, orlicz, spectra)

    undo = []   # (namespace the caller resolves the name in, name, original)

    def wrap(owners, attr, make):
        for owner in owners:
            # read __dict__ so that undo restores a class's plain function,
            # not a bound method
            original = vars(owner)[attr]
            undo.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def span(owners, attr, name, count=None):
        wrap(owners, attr, lambda fn: tracer.timed(name, fn, count))

    for attr in ("make_smooth_curve", "make_polygon_curve",
                 "make_cantor_measure", "make_uniform_square_measure"):
        span((cli, geometry), attr, "geometry." + attr)
    for attr in ("bessel_k", "bessel_i"):
        span((kernels,), attr, "bessel." + attr,
             _count_points("bessel.%s.points" % attr))
    for attr in ("profile", "log_factor"):
        span((kernels._ReferenceKernel, kernels._LowerOrderKernel), attr,
             "kernels." + attr, _count_points("kernels.%s.points" % attr))
    span((assemble,), "self_cell_coefficient", "kernels.self_cell_coefficient")
    for attr in ("assemble_curve_operator", "assemble_measure_operator",
                 "assemble_mixed", "make_cell_grid"):
        span((cli,), attr, "assemble." + attr)
    span((spectra,), "eigensolve", "spectra.eigensolve", _count_eigensolve)
    span((spectra,), "weyl_fit", "spectra.fit")
    for attr in ("coefficient_surface", "coefficient_ac", "coefficient_total"):
        span((asymptotics,), attr, "asymptotics." + attr)
    span((orlicz, covering), "averaged_norm", "orlicz.averaged_norm",
         _count_atoms)
    span((orlicz,), "surface_norm", "orlicz.surface_norm")
    wrap((orlicz,), "phi", lambda fn: tracer.counted("orlicz.phi", fn))
    span((covering,), "build_covering", "covering.build_covering",
         _count_cubes)
    span((covering,), "solve_t", "covering.solve_t")
    span((covering,), "empirical_estimate_constant",
         "covering.empirical_estimate_constant")
    wrap((covering,), "j_functional",
         lambda fn: tracer.counted("covering.j_functional", fn))
    span((cli,), "run_experiment", "cli.run_experiment")

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counts, op_names, passes: int,
                  traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run, each per pass of the workload.

    A layer that does no work on the workload reports 0 for its metrics,
    ratios included, so every workload emits the same metric names.
    """
    selfs = self_times(spans)
    layer_self = defaultdict(float)
    name_self = defaultdict(float)
    calls = defaultdict(int)
    op_seconds = defaultdict(float)
    for rec, own in zip(spans, selfs):
        name = rec[0]
        layer_self[name.split(".", 1)[0]] += own
        name_self[name] += own
        calls[name] += 1
        if name == "cli.run_experiment":
            op_seconds[op_names[rec[4]]] += rec[2] - rec[1]

    norm_calls = calls["orlicz.averaged_norm"]
    solves = calls["covering.solve_t"]
    out = {
        "geometry.self_s": layer_self["geometry"],
        "bessel.bessel_k.self_s": name_self["bessel.bessel_k"],
        "bessel.bessel_k.points": counts["bessel.bessel_k.points"],
        "bessel.bessel_i.self_s": name_self["bessel.bessel_i"],
        "bessel.bessel_i.points": counts["bessel.bessel_i.points"],
        "kernels.self_s": layer_self["kernels"],
        "kernels.profile.points": counts["kernels.profile.points"],
        "kernels.log_factor.points": counts["kernels.log_factor.points"],
        "assemble.self_s": layer_self["assemble"],
        "spectra.eigensolve.self_s": name_self["spectra.eigensolve"],
        "spectra.eigensolve.calls": calls["spectra.eigensolve"],
        "spectra.eigensolve.n3_sum": counts["spectra.eigensolve.n3_sum"],
        "spectra.fit.self_s": name_self["spectra.fit"],
        "asymptotics.self_s": layer_self["asymptotics"],
        "orlicz.averaged_norm.calls": norm_calls,
        "orlicz.averaged_norm.atoms": counts["orlicz.averaged_norm.atoms"],
        "orlicz.averaged_norm.self_s": name_self["orlicz.averaged_norm"],
        "orlicz.phi.calls": counts["orlicz.phi.calls"],
        "covering.solve_t.calls": solves,
        "covering.solve_t.self_s": name_self["covering.solve_t"],
        "covering.build_covering.self_s": name_self["covering.build_covering"],
        "covering.j_functional.calls": counts["covering.j_functional.calls"],
        "cli.run_experiment.self_s": name_self["cli.run_experiment"],
    }
    out = {k: v / passes for k, v in out.items()}
    out["spectra.eigensolve.trusted_ratio"] = _ratio(
        counts["spectra.eigensolve.trusted"],
        counts["spectra.eigensolve.returned"])
    out["covering.norms_per_solve"] = _ratio(norm_calls, solves)
    out["covering.useful_ratio"] = _ratio(
        counts["covering.build_covering.cubes"], solves)
    for exp in EXPERIMENT_OPS:
        out["cli.op.%s.s" % exp] = op_seconds[exp] / passes
    out["trace.self_share"] = _ratio(sum(selfs) / passes, traced_wall_s)
    return out


def layer_units() -> dict[str, str]:
    """Unit of every metric ``layer_metrics`` emits, plus the run-level ones."""
    units = {}
    for name in layer_metrics([], defaultdict(float), [], 1, 1.0):
        if name.endswith((".self_s", ".s")):
            units[name] = "s"
        elif name.endswith(("_ratio", "_share", "_per_solve")):
            units[name] = "ratio"
        else:
            units[name] = "count"
    units["trace.overhead_s"] = "s"
    for kind in WARNING_KINDS:
        units["trace.warnings.%s" % kind] = "count"
    return units
