"""Smoke test for the benchmark at tiny size; not part of the tier-1 suite.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_prints_every_metric_with_its_unit(workload):
    out = _run(ROOT, workload, trace=1)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for m in SPEC["end_to_end"]:
        assert any(line.startswith(f"end_to_end {m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    assert any(line.startswith("per_layer trace.overhead ") for line in lines)


def test_untraced_run_reports_end_to_end_metrics():
    out = _run(ROOT, SPEC["workloads"][0]["name"], trace=0)
    assert out.returncode == 0, out.stderr
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no src/, so no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, SPEC["workloads"][0]["name"], trace=0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_self_time_subtracts_children():
    tr = Tracer()

    class Mod:
        pass

    mod = Mod()
    mod.inner = lambda: sum(range(1000))
    mod.outer = lambda: [mod.inner() for _ in range(3)]
    tr.wrap(mod, "inner", "inner")
    tr.wrap(mod, "outer", "outer")
    tr.begin_run("r")
    mod.outer()
    tr.end_run()
    mod.outer()  # inactive: no spans
    tr.unwrap_all()
    assert [s.name for s in tr.spans] == ["outer", "inner", "inner", "inner"]
    assert all(s.parent == 0 for s in tr.spans[1:])
    own = tr.self_times()
    children = sum(s.duration for s in tr.spans[1:])
    assert own[0] == pytest.approx(tr.spans[0].duration - children)
    assert tr.counts_per_run("inner.calls", ["r"]) == [3.0]
    assert tr.per_run(["outer"], ["r"], self_time=True) == [own[0]]
