"""Self-test of the benchmark runner at tiny sizes.

    python3 -m pytest -q perfbench

Runs every workload through run.py as the benchmark command does, with
tracing off and on, and checks the output contract against
BENCHMARK.json.  Takes about half a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace, seed=0, cwd=ROOT, run=RUN):
    proc = subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_end_to_end_metrics(workload):
    res = _result(_run(workload, 0))
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {m: (v["unit"]) for m, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_runs_report_every_layer():
    layers = {}
    for w in SPEC["workloads"]:
        res = _result(_run(w["name"], 1))
        assert res["correct"] and res["failed"] == 0
        assert {m: v["unit"] for m, v in res["metrics"].items()} == \
            {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        layers[w["name"]] = {m: v["value"] for m, v in res["metrics"].items()}
    for solver_metric in ("hodge.d_inverse_s", "hodge.operator_s",
                          "hodge.cg_iterations"):
        assert layers["no-solve"][solver_metric] == 0
        assert layers["hopf-l3"][solver_metric] > 0
        assert layers["scaling-sweeps"][solver_metric] > 0
    # tiny sweeps: circle d=1..3 and Hopf d=1..2, one level each
    assert layers["scaling-sweeps"]["geometry.mesh.builds"] == 5
    assert layers["scaling-sweeps"]["geometry.mesh.distinct"] == 2
    assert layers["hopf-l3"]["geometry.mesh.builds"] == 1
    assert layers["hopf-l3"]["geometry.mesh.distinct"] == 1


def test_checks_pass_on_another_seed():
    for w in ("scaling-sweeps", "no-solve"):
        res = _result(_run(w, 0, seed=3))
        assert res["correct"] and res["failed"] == 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("no-solve", 0, cwd=tmp_path,
                run=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_children():
    sys.path.insert(0, HERE)
    import tracing
    t = tracing.Tracer()
    t.start_op(0)
    inner = t.wrap("hodge.operator", lambda: sum(range(200_000)))
    outer = t.wrap("hodge.d_inverse", lambda: inner() + sum(range(100_000)))
    outer()
    layers, calls = t.op_metrics(0, cpu_s=1.0, wall_s=1.0, overhead_s=0.0)
    spans = {s["name"]: s["end"] - s["start"] for s in t.spans}
    assert calls == {"hodge.d_inverse": 1, "hodge.operator": 1}
    assert layers["hodge.operator_s"] == pytest.approx(spans["hodge.operator"])
    assert layers["hodge.d_inverse_s"] == pytest.approx(
        spans["hodge.d_inverse"] - spans["hodge.operator"])
