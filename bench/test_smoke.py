"""Smoke test of the benchmark itself: every workload once at reduced size.

    python3 -m pytest -q bench/test_smoke.py

Checks that each metric named in BENCHMARK.json is printed with its unit,
that the outputs pass their checks, and that in a traced pass the layer
self times add up to the pass wall time.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Share of a traced pass's wall time that may fall outside every layer span
# (the benchmark's own loop between operations).
SELF_TIME_GAP = 0.05


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_prints_end_to_end_metrics(workload):
    lines, result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    for name in ("setup_s", "first_pass_s", "pass_s", "peak_rss_mb", "fail_frac",
                 "bad_input_escapes"):
        assert any(line.startswith(name + " ") for line in lines), name


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_prints_per_layer_metrics_and_self_times_add_up(workload):
    lines, result = bench(workload, 1)
    assert result["correct"]
    assert {m["name"] for m in SPEC["per_layer"]} == set(result["metrics"])
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert any(line.startswith("tracing overhead ") for line in lines)

    report = json.loads((ROOT / ".bench_out" / workload / "report.json").read_text())
    for traced_pass in report["traced"]:
        covered = sum(traced_pass["layer_self_s"].values())
        assert 1.0 - SELF_TIME_GAP <= covered / traced_pass["wall_s"] <= 1.0 + 1e-9
