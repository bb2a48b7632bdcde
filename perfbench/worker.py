"""One workload process of the benchmark; started by perfbench/run.py.

The process imports critspec from the checkout's ``src``, warms BLAS up,
reports its set-up time (from the moment the parent spawned it), then runs
the workload's operations back to back, one at a time, in passes: a new
pass starts only while it is expected to end within ``--seconds``.  Output
checks run after the timed passes and outside them.  With ``--trace 1`` every
layer's public function is wrapped (see tracer.py) for the passes only.

The last line of standard output is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def _setup(spawned_at: float) -> float:
    """Import critspec from the checkout and warm BLAS up; returns set-up s."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import critspec
    from critspec import cli  # noqa: F401  (imports every layer)
    if Path(critspec.__file__).resolve().parent != src / "critspec":
        raise ImportError("critspec imported from %s, not from %s"
                          % (critspec.__file__, src))
    import numpy as np
    # the first symmetric eigensolve of a process loads and initialises the
    # LAPACK/BLAS kernels; users pay it once per process, so it is set-up
    a = np.add.outer(np.arange(256.0), np.arange(256.0)) % 7.0
    np.linalg.eigh(a)
    return time.perf_counter() - spawned_at


def _environment(ops, outcomes) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "op_n": {op.name: op.matrix_size(out)
                 for op, out in zip(ops, outcomes) if out is not None},
        "peak_rss": "ru_maxrss of this workload process (RUSAGE_SELF); "
                    "no system-wide tracing was used",
    }


def _warning_kind(message: str) -> str:
    if "multiplicity" in message:
        return "multiplicity_cap"
    if "underflow" in message:
        return "k_underflow"
    return "other"


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    setup_s = _setup(args.spawned_at)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads
    import tracer as tracing
    ops = workloads.build(args.workload, args.seed, smoke=args.smoke)
    reference = workloads.reference_for(args.seed, args.smoke)

    tracer = tracing.Tracer() if args.trace else None
    restore = tracing.instrument(tracer) if tracer else None
    outcomes = [None] * len(ops)
    errors = [None] * len(ops)
    op_walls = [[] for _ in ops]
    warned = dict.fromkeys(tracing.WARNING_KINDS, 0)
    pass_walls = []
    start = time.perf_counter()
    try:
        while True:
            for index, op in enumerate(ops):
                if tracer:
                    tracer.op = index
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    op_start = time.perf_counter()
                    try:
                        outcomes[index] = op.run()
                    except Exception:   # an op failure is a result, not a crash
                        errors[index] = traceback.format_exc()
                    op_walls[index].append(time.perf_counter() - op_start)
                for w in caught:
                    warned[_warning_kind(str(w.message))] += 1
            pass_walls.append(sum(w[-1] for w in op_walls))
            elapsed = time.perf_counter() - start
            if any(errors) or elapsed + elapsed / len(pass_walls) > args.seconds:
                break
    finally:
        if restore:
            restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    results = []
    for op, outcome, error, walls in zip(ops, outcomes, errors, op_walls):
        if error is not None:
            problems = [error]
            outputs = {}
        else:
            problems = op.check(outcome, reference.get(op.name))
            outputs = op.outputs(outcome)
        results.append({"op": op.name, "seconds": statistics.median(walls),
                        "problems": problems, "outputs": outputs})
    passes = len(pass_walls)
    record = {
        "setup_s": setup_s,
        "wall_s": statistics.median(pass_walls),
        "pass_walls": pass_walls,
        "peak_rss_mb": peak_rss_mb,
        "ops": results,
        "attempted": passes * len(ops),
        "failed": sum(1 for r in results if r["problems"]) * passes,
        "warnings": {k: v / passes for k, v in warned.items()},
        "environment": _environment(ops, outcomes),
    }
    if tracer:
        names = [op.name for op in ops]
        record["layers"] = tracing.layer_metrics(
            tracer.spans, tracer.counts, names, passes,
            record["wall_s"])
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / ("spans-%s-seed%d.json"
                                % (args.workload, args.seed))
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "ops": names, "spans": tracer.spans}, fh)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
