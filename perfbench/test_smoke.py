"""Smoke test of the benchmark itself, at tiny input sizes.

Checks that every metric ``BENCHMARK.json`` declares is emitted with its
unit, that the oracles and declared cache states pass, and that the
traced run's self times add up to the op time it covers.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LEDGER = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in LEDGER["workloads"]]


def _run(workload: str, trace: int):
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _assert_declared(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in declared}


def test_end_to_end_metrics_are_emitted_with_units():
    lines, result = _run("adhoc-join", trace=0)
    _assert_declared(result, LEDGER["end_to_end"])
    assert any(line.startswith("error_rate ") for line in lines)
    assert any(line.startswith("# host ") for line in lines)
    assert any(line.startswith("# config ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_attributes_op_time(workload):
    lines, result = _run(workload, trace=1)
    _assert_declared(result, LEDGER["per_layer"])
    (attribution,) = [
        json.loads(line[len("# attribution "):])
        for line in lines
        if line.startswith("# attribution ")
    ]
    self_total = sum(attribution["self_seconds"].values())
    unattributed = result["metrics"]["unattributed_share"]["value"] * attribution["op_seconds"]
    assert self_total + unattributed == pytest.approx(attribution["op_seconds"], rel=1e-9, abs=1e-9)
    assert 0.0 <= result["metrics"]["unattributed_share"]["value"] < 1.0
