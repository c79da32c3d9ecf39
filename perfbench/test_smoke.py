"""Smoke test of the benchmark itself: every workload at tiny size.

Run with ``python3 -m pytest perfbench/test_smoke.py -q`` from the repo
root (about three minutes on two cores). Seed 0 is the seed used while
writing the benchmark; seed 977 is held out.
"""

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
#: The workloads ``BENCHMARK.json`` names, plus ``field_sweep``, which
#: ``run.py`` still runs by name.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["field_sweep"]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("seed", [0, 977])
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace, seed):
    proc = _run(
        ROOT,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", "1",
        "--trace", str(trace),
        "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
        if not trace:
            assert entry["value"] > 0, metric["name"]
    assert "FAILED" not in proc.stdout


def test_fails_without_the_program(tmp_path):
    """Only the benchmark's own files: non-zero exit and no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out")
        )
    proc = _run(
        tmp_path, "--workload", WORKLOADS[0], "--seed", "0",
        "--seconds", "1", "--trace", "0",
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
