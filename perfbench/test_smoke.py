"""Self-test of the benchmark: every workload at smoke size, untraced and traced.

Run from the repository root (the tier-1 suite does not collect it)::

    python3 -m pytest perfbench/test_smoke.py -q

Each case launches ``run.py --smoke``, which finishes in a few seconds, and
checks the printed result against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def units(result: dict) -> dict:
    return {name: item["unit"] for name, item in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = result_of(run(workload, 0))
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(item["value"] > 0 for item in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up_to_the_program_clock(workload):
    proc = run(workload, 1)
    result = result_of(proc)
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    check = re.search(r"^trace_check accounted=(\S+) clock=(\S+) ", proc.stdout, re.M)
    accounted, clock = float(check.group(1)), float(check.group(2))
    assert clock > 0 and abs(accounted - clock) <= 0.03 * clock
    assert "tracing overhead" in proc.stdout
    spans = ROOT / ".bench_build" / "perfbench" / f"spans-{workload}-{SEED}-traced.json"
    assert json.loads(spans.read_text())["spans"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("serve-plate", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
