"""critspec benchmark: end-to-end and per-layer metrics of three workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload curve-weyl --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, untraced

Each workload runs in a fresh worker process (perfbench/worker.py) with one
client sending one operation at a time, back to back (a closed loop).  BLAS
threads are pinned to min(2, nproc) through OPENBLAS_NUM_THREADS.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median wall time of
one pass over the workload's operations), ``setup_s`` (median over three
fresh processes of the time from spawn until critspec is imported and BLAS
is warm) and ``peak_rss_mb`` (the worker's own ru_maxrss).  ``--trace 1``
runs the workload once untraced and once traced, each in a fresh process,
and reports the per-layer metrics of the traced run plus
``trace.overhead_s``, the traced minus the untraced pass time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` /
``attempted`` is the error rate.  An operation fails if it raises, if one of
its experiment criteria fails or if an output check fails.  Every result,
with its environment record, is also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKER = HERE / "worker.py"

BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
# set-up is measured in this many fresh processes per run; the worker's own
# set-up is one of them
SETUP_SAMPLES = 3
# every process of one run must end within this many seconds
RUN_BUDGET_S = 170.0

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def _spawn(args: argparse.Namespace, deadline: float, trace: int = 0,
           setup_only: bool = False) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS))
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    # perf_counter is CLOCK_MONOTONIC on Linux: the child reads the same clock
    cmd += ["--spawned-at", repr(time.perf_counter())]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise WorkerError("run budget of %gs exhausted" % RUN_BUDGET_S)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError("worker exceeded the run budget") from None
    if proc.returncode != 0:
        raise WorkerError("worker exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args: argparse.Namespace) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full record)."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    if args.trace:
        workers = [_spawn(args, deadline), _spawn(args, deadline, trace=1)]
        base, traced = workers
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
        for kind, count in traced["warnings"].items():
            metrics["trace.warnings.%s" % kind] = count
        import tracer
        units = tracer.layer_units()
    else:
        setup_runs = [_spawn(args, deadline, setup_only=True)
                      for _ in range(SETUP_SAMPLES - 1)]
        worker = _spawn(args, deadline)
        workers = [worker]
        setups = [w["setup_s"] for w in setup_runs + workers]
        metrics = {"wall_s": worker["wall_s"],
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": worker["peak_rss_mb"]}
        units = E2E_UNITS
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "blas_threads": BLAS_THREADS, "result": line,
              "workers": workers}
    return line, record


def _print_table(workload: str, line: dict, record: dict) -> None:
    print("== %s (seed %d, trace %d)" % (workload, record["seed"],
                                         record["trace"]))
    for name, m in line["metrics"].items():
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-36s %14.6g (%d of %d ops failed)"
          % ("error_rate", line["failed"] / line["attempted"],
             line["failed"], line["attempted"]))
    for worker in record["workers"]:
        for op in worker["ops"]:
            for problem in op["problems"]:
                print("  FAILED %s: %s" % (op["op"], problem.strip()),
                      file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small problem sizes, for the self-test")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "critspec" / "__init__.py").is_file():
        print("error: no critspec sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    OUT_DIR.mkdir(exist_ok=True)
    for name in names:
        args.workload = name
        try:
            line, record = run_workload(args)
        except WorkerError as exc:
            print("error: %s: %s" % (name, exc), file=sys.stderr)
            return 1
        out = OUT_DIR / ("result-%s-seed%d-trace%d.json"
                         % (name, args.seed, args.trace))
        out.write_text(json.dumps(record, indent=1) + "\n")
        _print_table(name, line, record)
        print(json.dumps({"environment": record["workers"][-1]["environment"]}))
        lines[name] = line
    if len(lines) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {"%s.%s" % (w, k): m for w, l in lines.items()
                        for k, m in l["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
