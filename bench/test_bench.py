"""Smoke test: every workload at tiny sizes, so the benchmark cannot rot.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_reports_every_metric(workload, trace):
    line, report = run.run(workload, 3, 0.1, trace, workloads.TINY)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, report["errors"]
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    assert got == declared("per_layer" if trace else "end_to_end")
    if trace:
        assert report["trace"]["unwrapped"] == []


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_counts(workload):
    first = run.run(workload, 5, 0.1, False, workloads.TINY)[1]
    again = run.run(workload, 5, 0.1, False, workloads.TINY)[1]
    assert first["counts_digest"] == again["counts_digest"]
    traced = run.run(workload, 5, 0.1, True, workloads.TINY)[1]["trace"]
    traced_again = run.run(workload, 5, 0.1, True, workloads.TINY)[1]["trace"]
    assert traced["counts_digest"] == traced_again["counts_digest"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "differential", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
