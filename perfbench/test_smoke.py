"""Smoke test of the benchmark at reduced input sizes.

    python3 -m pytest -q perfbench/test_smoke.py

For each workload: traced and untraced passes produce identical checked
outputs, a run emits exactly the metric names of BENCHMARK.json, and the
per-layer call counts repeat between two traced passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _last_json(cmd: list[str]) -> dict:
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _worker(workload: str, trace: int) -> dict:
    return _last_json(
        [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload",
            workload,
            "--seed",
            "3",
            "--size",
            "smoke",
            "--trace",
            str(trace),
        ]
    )


def _run(workload: str, trace: int) -> dict:
    return _last_json(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--size",
            "smoke",
        ]
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_outputs_unchanged(workload):
    plain = _worker(workload, 0)
    first = _worker(workload, 1)
    second = _worker(workload, 1)
    assert plain["failed"] == first["failed"] == 0
    assert plain["output_digest"] == first["output_digest"] == second["output_digest"]
    calls = {k: v for k, v in first["layers"].items() if k.endswith(".calls")}
    assert calls == {k: second["layers"][k] for k in calls}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_run_emits_the_declared_metrics(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_missing_sources_exit_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
