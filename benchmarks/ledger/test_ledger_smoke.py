"""Smoke test of the ledger (not part of tier-1: 2 s windows, ~2 min).

    python -m pytest benchmarks/ledger/test_ledger_smoke.py -q

Runs every workload untraced and traced through the command
``BENCHMARK.json`` names, and holds the output to the contract: every
named metric present with its unit, nothing failed, and the result cache
used exactly where the workloads say it is.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        SPEC["command"] + [
            "--workload", workload, "--seed", "3", "--smoke",
            "--trace", str(trace),
        ],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result = run(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    expected = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    value = {name: m["value"] for name, m in result["metrics"].items()}
    assert value["failed_frac"] == 0
    if workload.startswith("adhoc"):
        assert value["result_cache.hit_ratio"] == 0
    if workload == "dashboard_cached":
        assert value["result_cache.hit_ratio"] > 0.95
        assert value["engine.execute_calls"] == 0
    if workload == "adhoc_base":
        assert value["rewrite.decide_calls"] == 0
    if workload == "ingest_mixed":
        assert value["write_qps"] > 0
        assert value["asts.maintain_ms.total"] > 0
