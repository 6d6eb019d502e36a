"""Tiny-size runs of every workload, the traced layer run, and the NaN control.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402

TINY = {
    "verify_all": {"quick": True, "tail": 50},
    "clone_cold": {"cells": [(2, 1, 3), (3, 2, 4)], "tail": 50},
    "clone_warm": {"cells": [(2, 1, 3), (3, 2, 4)], "inputs": 2, "children": 2, "tail": 95},
    "cli_clone": {"requests": [(2, 1, 3, True), (3, 1, 4, False)], "probes": 2, "tail": 75},
}

DECLARED = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def check_result_line(result: dict, kind: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared(kind)
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_workload_reports_every_metric_and_no_failure(workload, tmp_path):
    result, detail = run.run(workload, TINY, seed=0, seconds=0.2, trace=False, workdir=tmp_path)
    check_result_line(result, "end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["fail_ratio"] == 0
    assert detail["problems"] == []
    assert result["correct"] and result["failed"] == 0


def test_declared_workloads_are_the_runners():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


def test_tiny_traced_layer_run_reports_every_per_layer_metric(tmp_path):
    result, detail = run.run("clone_cold", TINY, seed=0, seconds=0.0, trace=True, workdir=tmp_path)
    check_result_line(result, "per_layer")
    assert detail["problems"] == []
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["verify.cases"]["value"] > 0
    assert metrics["symspace.reduce_one.calls"]["value"] > 0
    assert metrics["serialize.bytes_written"]["value"] > 0
    assert metrics["cli.main.self_s"]["value"] > 0


NAN_CHANNEL = '''

_exact_clone_channel = clone_channel


def clone_channel(op, l):
    out = _exact_clone_channel(op, l)
    entries = out.entries.copy()
    entries[0, 0] = float("nan")
    return SymOperator(out.basis, entries)
'''


@pytest.mark.parametrize("workload", ["clone_cold", "clone_warm"])
def test_nan_injecting_channel_makes_ops_fail(workload, tmp_path, monkeypatch):
    # a patched copy of the sources stands in for the checkout's src/
    src = tmp_path / "src"
    shutil.copytree(REPO / "src" / "symclone", src / "symclone",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "symclone" / "cloner.py", "a", encoding="utf-8") as fh:
        fh.write(NAN_CHANNEL)
    monkeypatch.setattr(run, "SRC", src)
    result, detail = run.run(workload, TINY, seed=0, seconds=0.2, trace=False, workdir=tmp_path)
    assert detail["fail_ratio"] > 0
    assert result["failed"] > 0 and not result["correct"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_all", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_percentile_interpolates_between_ranks():
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 75) == 4.0
    assert run.percentile([7.0], 95) == 7.0
