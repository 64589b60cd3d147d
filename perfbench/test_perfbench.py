"""Self-test of the study benchmark, on two-level versions of the workloads.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ncrt2d-p1-L8", "ncrt3d-p2-L5", "cr-p1-L5")


def bench(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
           "--levels", "2", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace,
                                                        kind):
    out = bench(workload, trace)
    assert out["correct"] is True
    assert out["attempted"] >= 2 and out["failed"] == 0
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == declared(kind)
    for m in out["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_forced_breakdown_is_counted_as_failed_levels():
    out = bench("ncrt2d-p1-L8", 0, "--inject-breakdown", "1")
    assert out["failed"] == out["attempted"] // 2
    assert out["metrics"]["levels_ok_ratio"]["value"] == 0.5

    traced = bench("ncrt2d-p1-L8", 1, "--inject-breakdown", "1")
    metrics = {k: m["value"] for k, m in traced["metrics"].items()}
    assert metrics["sparse_solve.breakdowns"] == 1
    assert metrics["sparse_solve.dense_fallbacks"] == 0
    assert metrics["analysis.levels_failed_ratio"] == 0.5


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_children_fit_inside_the_study(workload):
    out = bench(workload, 1)
    with open(HERE / "out" / f"trace-{workload}-seed3.json",
              encoding="utf-8") as fh:
        trace = json.load(fh)
    top = sum(s["end"] - s["start"] for s in trace["spans"]
              if s["parent"] is None)
    wall = out["metrics"]["trace.study_s"]["value"]
    assert 0.0 < top <= wall
    for level in trace["levels"]:
        assert level["analysis.self_s"] >= 0.0
    # every span lies inside its parent, on the parent's level
    spans = trace["spans"]
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
            assert span["level"] == parent["level"]
    # every layer time is measured on every workload
    times = [m for m in trace["totals"]
             if m.endswith("_s") and not m.startswith("trace.")]
    assert all(trace["totals"][m] > 0.0 for m in times)
