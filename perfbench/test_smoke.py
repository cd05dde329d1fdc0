"""Smoke test of the benchmark: one small unit of each workload, untraced and traced.

    python3 -m pytest -q perfbench/test_smoke.py

It sits outside ``tests/``, so the tier-1 suite does not collect it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
from tracer import per_layer_spec

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = _run(workload, 0)
    assert result["failed"] == 0 and result["correct"], result
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = _run(workload, 1)
    assert result["failed"] == 0 and result["correct"], result
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace_overhead_ratio"]["value"] > 0


def test_per_layer_list_matches_tracer():
    listed = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert listed == per_layer_spec()


def test_every_drawn_cli_call_has_a_golden_entry():
    golden = corpus.load_golden("cli")
    for seed in range(200):
        for round_index in range(6):
            for kind, argv, key in corpus.cli_round(seed, round_index):
                assert key in golden, (seed, round_index, kind, argv)
