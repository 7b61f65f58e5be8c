"""Tests of the benchmark itself: the correctness gate, the refusal to run
outside a checkout, and that the tracer reaches every layer it names and
that each workload loads the layer it was chosen for.

    PYTHONPATH=src python3 -m pytest -q perfbench

The layer tests run every workload once traced (about a minute on two
cores).
"""

import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layers
import run

ROOT = Path(__file__).resolve().parent.parent


def _result(code=0, stdout=b"", stderr=""):
    return {"code": code, "stdout": stdout, "stderr": stderr}


def test_gate_accepts_only_the_reference_output():
    cmd = ["isogeny", "--p", "7"]
    good = json.dumps({"ok": True}).encode()
    reference = {"isogeny --p 7": hashlib.sha256(good).hexdigest()}
    assert run.gate(cmd, _result(stdout=good), reference) is None
    assert "exit code 1" in run.gate(cmd, _result(1, good), reference)
    assert "not a JSON" in run.gate(cmd, _result(stdout=b"boom"), reference)
    bad_ok = json.dumps({"ok": False}).encode()
    assert '"ok"' in run.gate(cmd, _result(stdout=bad_ok), reference)
    other = json.dumps({"ok": True, "x": 1}).encode()
    assert "digest" in run.gate(cmd, _result(stdout=other), reference)


def test_reference_covers_every_command():
    reference = json.loads(run.REFERENCE.read_text())
    commands = {" ".join(c) for cmds in run.WORKLOADS.values() for c in cmds}
    assert commands == set(reference)


def test_yardstick_samples_until_closed():
    with run.Yardstick() as yard:
        time.sleep(0.6)
        proc = yard.proc
    assert proc.returncode == 0
    assert len(yard.samples) >= 3
    start = yard.samples[1][0]
    assert yard.scale(start, start) > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "group_law", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    traced = set(layers.Tracer().metrics()) | {
        "trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead"}
    assert set(per_layer) == traced
    assert all(unit == run.layer_unit(name) for name, unit in per_layer.items())
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "cpu_s", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


@pytest.fixture(scope="module")
def traced():
    """Layer metrics of one traced pass of every workload."""
    out = {}
    for name in run.WORKLOADS:
        bench = run.Run(name)
        totals = bench.one_pass(traced=True)
        assert totals is not None, bench.failures
        out[name] = totals["layers"]
    return out


def test_every_layer_is_reached(traced):
    names = [n for n in layers.Tracer().metrics() if n.endswith(".calls")]
    missed = [n for n in names if not any(m[n] > 0 for m in traced.values())]
    assert missed == []


def _ratfunc_self_s(metrics, bucket):
    return sum(metrics["ratfunc.%s.%s.self_s" % (op, bucket)]
               for op in ("poly_mul", "poly_divmod"))


def test_each_workload_loads_its_layer(traced):
    heights, group = traced["heights_d10"], traced["group_law"]
    assert heights["heights.canonical_height.total_s"] > 0.5 * heights["cli.main.total_s"]
    assert group["heights.canonical_height.calls"] == 0
    assert _ratfunc_self_s(group, "small") > _ratfunc_self_s(group, "large")
    assert _ratfunc_self_s(heights, "large") > _ratfunc_self_s(heights, "small")


def test_counts_repeat(traced):
    def counts(metrics):
        return {k: v for k, v in metrics.items()
                if k.endswith(".calls") or k == "ratfunc.poly_rows.max"}
    again = run.Run("group_law").one_pass(traced=True)["layers"]
    assert counts(again) == counts(traced["group_law"])
