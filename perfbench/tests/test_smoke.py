"""Smoke test of the benchmark: every workload at a one-second length.

    python3 -m pytest perfbench/tests -q

Each workload runs timed and traced on seed 0, whose item outputs are
pinned in ``pins.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=175,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_and_passes_its_checks(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}

    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    for m in line["metrics"].values():
        assert isinstance(m["value"], (int, float))
        if not trace:
            assert m["value"] > 0

    record = json.loads(
        (BENCH_DIR / "results" / f"{workload}-seed0-trace{trace}.json").read_text()
    )
    assert line["correct"] and line["failed"] == 0 and record["fail_frac"] == 0
    # every item had a pinned digest, and a mismatch would have failed it
    assert record["pinned_checked"] == line["attempted"] >= 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run(tmp_path, "paper-grid", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
