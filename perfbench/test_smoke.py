"""Smoke tests of the benchmark: every workload at a tiny size, untraced and traced.

Run from the root of the repository with ``python3 -m pytest perfbench``.
The repository's own suite collects only ``tests/``, so these stay out of it.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args: str, cwd: str = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_and_is_correct(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace and workload != "cli-table":
        # the timed phase reaches the recurrence only through matrix-form at ab = -4
        assert result["metrics"]["sequences.term_recurrence.calls"]["value"] == 0


def test_deep_term_counts_results_the_formatter_refuses():
    run.import_program()
    import workloads
    from biperiodic.sequences import SeqParams

    w = workloads.DeepTerm(0)
    request = (workloads.FIB, SeqParams(Fraction(5, 3), Fraction(-4, 3)), 20_000)
    assert w.check(request, w.run(request)[0]) == []
    assert w.refused == {request}


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""
