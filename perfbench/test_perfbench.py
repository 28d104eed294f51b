"""Smoke tests of the benchmark: every workload at level 3, in fresh processes."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# The accept ratios each workload's layers must report; the others read 0.
RATIOS = {
    "round": {"inequalities.line_search_accept_ratio", "flow.accept_ratio"},
    "background": {"solver.line_search_accept_ratio"},
}


def _run(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = _result(_run(workload, trace=0))["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (_result(_run(workload, trace=1))["metrics"] for _ in range(2))
    assert {n: m["unit"] for n, m in first.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    counts = [n for n, m in first.items() if m["unit"] == "count"]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert first["mesh.build_calls"]["value"] > 0
    for name in set.union(*RATIOS.values()):
        value = first[name]["value"]
        assert (0.0 < value <= 1.0) if name in RATIOS[workload] else value == 0.0, name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
