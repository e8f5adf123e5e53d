"""Smoke test of the benchmark itself.

Runs every workload at tiny size on two seeds, with and without tracing,
and checks that each metric BENCHMARK.json names is printed with its unit
and that every output check passes. Run from the repository root:

    python -m pytest perfbench/test_smoke.py
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("dataset.take_calls", "clustering.lloyd_iters", "clustering.split_attempts", "mlp.objective_calls")


def _invoke(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@functools.lru_cache(maxsize=None)
def _run(workload: str, seed: int, trace: int) -> tuple[list[str], dict]:
    proc = _invoke(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, seed, trace, kind):
    lines, result = _run(workload, seed, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if not line.startswith("#")}
    for name, unit in expected.items():
        assert printed.get(name) == unit, name
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload != "csv-pipeline":
        # In-process calls are covered by spans; the CLI's start-up is not.
        assert result["metrics"]["trace.coverage"]["value"] > 0.9


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    _, first = _run(workload, 1, 1)
    again = _invoke(ROOT, workload, 1, 1)
    assert again.returncode == 0, again.stderr
    second = json.loads(again.stdout.strip().splitlines()[-1])
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _invoke(tmp_path, WORKLOADS[0], 1, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
