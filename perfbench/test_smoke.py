"""Smoke test of the benchmark: one short run of every workload, in both modes.

Run from the root of a checkout (it is not part of the tier-1 suite):

    python3 -m pytest -q perfbench/test_smoke.py

Each run does its set-up, one warm-up operation and the fewest measured
operations a run allows, so the whole file takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [*BENCHMARK["command"], "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace)]
    argv[0] = sys.executable
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert lines[0].endswith("failed_frac=0")

    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace == 0:
        assert all(v > 0 for v in values.values())
    else:
        assert values["check.failed_frac"] == 0
        assert values["op.wall_s"] > 0 and values["import.wall_s"] > 0
    if trace and workload == "ks-cli":
        assert values["library.calls"] == 3


def test_refuses_a_checkout_without_the_package():
    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
