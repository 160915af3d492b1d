"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the repository:

    python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import expect
import run
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNTS = (".calls", "spheres_enumerated", "cells_tabulated",
          "tabulations_per_certify", "morphisms_built", "levels_checked",
          "scan_overflows")


def bench(workload, trace=0, seconds=0, cwd=ROOT, seed=7):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_passes(workload):
    proc = bench(workload)
    assert proc.returncode == 0, proc.stderr
    out = result(proc)
    assert out["correct"] is True
    assert set(out["metrics"]) == {"setup_s", "ops_per_s", "op_p50_ms",
                                   "op_tail_ms", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in out["metrics"].values())
    if workload == "cli-files":
        # one op of the nine fails until cli.main catches BudgetError
        assert out["attempted"] == 9 and out["failed"] == 1
        assert "BudgetError" in proc.stderr
    else:
        assert out["failed"] == 0


@pytest.mark.parametrize("workload, target, wrong", [
    ("certify-sweep", "bound_window", lambda shape, n: (0, 99)),
    ("dense-scan", "loop_level",
     lambda shape, m, k: {"cells": 1 + m * k, "spheres": 1, "unfilled": 0, "multi": 0}),
    ("cli-files", "canonical_simplicial", lambda cod, table: "d0"),
])
def test_wrong_expected_value_fails(workload, target, wrong, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(expect, target, wrong)
    rc = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                   "--size", "tiny"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1 and out["correct"] is False


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_counts_repeat(workload):
    one_round, many_rounds = bench(workload, trace=1), bench(workload, trace=1, seconds=1)
    a, b = result(one_round)["metrics"], result(many_rounds)["metrics"]
    assert result(many_rounds)["attempted"] > result(one_round)["attempted"]
    counts = [name for name in a if name.endswith(COUNTS)]
    assert counts and {n: a[n] for n in counts} == {n: b[n] for n in counts}
    assert set(a) == set(spans.UNITS)


def test_fails_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("dense-scan", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
