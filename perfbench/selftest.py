"""Self-tests of the benchmark.

Run from the root of a checkout:

    python3 -m pytest perfbench/selftest.py

The smoke tests run every workload at small sizes (``--smoke``), untraced and
traced, and take about half a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_of_nested_spans():
    # root [0, 10] has children a [1, 4] and b [3, 6] that overlap, c [8, 9]
    # and e [9.5, 12] that outlives it; d [2, 3] is a's child
    spans = [["root", 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 0],
             ["b", 3.0, 6.0, 0, 0], ["c", 8.0, 9.0, 0, 0],
             ["d", 2.0, 3.0, 1, 0], ["e", 9.5, 12.0, 0, 0]]
    assert tracer.self_times(spans) == pytest.approx(
        [10.0 - (5.0 + 1.0 + 0.5), 2.0, 3.0, 1.0, 1.0, 2.5])


def test_tracer_spans_and_layer_metrics():
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 10.0])
    tr = tracer.Tracer(clock=lambda: next(ticks))
    tr.op = 0
    inner = tr.timed("bessel.bessel_k", lambda n, x: len(x),
                     tracer._count_points("bessel.bessel_k.points"))
    middle = tr.timed("kernels.profile", lambda x: inner(0, x))
    outer = tr.timed("cli.run_experiment", lambda: middle([1.0, 2.0, 3.0]))
    assert outer() == 3
    assert [s[0] for s in tr.spans] == [
        "cli.run_experiment", "kernels.profile", "bessel.bessel_k"]
    assert [s[3] for s in tr.spans] == [-1, 0, 1]
    m = tracer.layer_metrics(tr.spans, tr.counts, ["circle-weyl"], 1, 10.0)
    assert m["cli.run_experiment.self_s"] == 5.0
    assert m["kernels.self_s"] == 2.0
    assert m["bessel.bessel_k.self_s"] == 3.0
    assert m["cli.op.circle-weyl.s"] == 10.0
    assert m["trace.self_share"] == 1.0


def test_counted_wrapper_counts_without_spans():
    tr = tracer.Tracer()
    phi = tr.counted("orlicz.phi", lambda t: t + 1)
    assert [phi(1), phi(2)] == [2, 3]
    assert tr.counts["orlicz.phi.calls"] == 2
    assert tr.spans == []


def test_instrument_wraps_at_the_caller_and_restores():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from critspec import cli, kernels, orlicz
    originals = (kernels.bessel_k, vars(kernels._ReferenceKernel)["profile"],
                 orlicz.phi, cli.run_experiment)
    tr = tracer.Tracer()
    restore = tracer.instrument(tr)
    try:
        kernels.reference_kernel().profile(np.array([0.5, 1.0, 3.0]))
    finally:
        restore()
    assert [(s[0], s[3]) for s in tr.spans] == [
        ("kernels.profile", -1), ("bessel.bessel_k", 0)]
    assert tr.counts["kernels.profile.points"] == 3
    assert tr.counts["bessel.bessel_k.points"] == 3
    assert (kernels.bessel_k, vars(kernels._ReferenceKernel)["profile"],
            orlicz.phi, cli.run_experiment) == originals


def test_metric_names():
    spec = declared()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + list(tracer.layer_units()):
        assert METRIC_NAME.fullmatch(name), name
        assert len(name) <= 64, name
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        tracer.layer_units()


def test_layer_metrics_cover_every_name_without_spans():
    m = tracer.layer_metrics([], defaultdict(float), [], 1, 1.0)
    assert all(v == 0 for v in m.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_declared_metrics(workload, trace):
    spec = declared()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", run.WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
