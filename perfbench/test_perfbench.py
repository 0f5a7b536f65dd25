"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Each workload's quick mode (one pass, no heavy rungs) must check out
correct, the traced run must emit exactly the per-layer metrics named in
``BENCHMARK.json`` with counts that repeat, and the command must refuse
to run where the trokit sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_mode_checks_outputs(workload):
    result = result_of(run("--workload", workload, "--seed", "7", "--seconds", "1",
                           "--trace", "0", "--quick"))
    assert result["correct"]
    # the tol 1e-3 certification of span{E12, E21} fails once per pass
    assert result["failed"] == (1 if workload == "closure" else 0)
    # quick mode leaves the top rung out
    want = {m["name"] for m in SPEC["end_to_end"]} - {"top_op_s"}
    assert set(result["metrics"]) == want


def traced_counts(workload: str) -> dict:
    result = result_of(run("--workload", workload, "--seed", "7", "--seconds", "1",
                           "--trace", "1", "--quick"))
    assert result["correct"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload):
    traced_counts(workload)


def test_traced_counts_repeat():
    assert traced_counts("lattice") == traced_counts("lattice")


def test_checks_reject_a_wrong_output(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    from common import Cli
    from workloads import closure

    ops = {op.name: op for op in closure.build(np.random.default_rng(0),
                                               np.random.default_rng(1), Cli(HERE))}
    m3 = ops["closure M3"].run()
    assert ops["closure M3"].check(m3)
    assert not ops["closure M4"].check(m3)
    assert not ops["closure corner4"].check(m3)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "closure", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
