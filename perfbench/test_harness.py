"""Smoke test of the benchmark harness at toy sizes; asserts nothing about timings.

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_schema(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], float) and np.isfinite(m["value"])
    record = json.loads((HERE / "results" / f"{workload}-seed3-trace{trace}.json").read_text())
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "git_commit", "seed"):
        assert key in record["context"]
    assert record["counts"]


def test_fails_without_the_library(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tablec_counts_a_shifted_cell():
    w = workloads.ReproduceTableC("tiny", 3)
    w.setup()
    out = w.run()
    clean = oracles.Checks()
    w.check(out, clean)
    assert clean.failed == 0

    table = out.tables[0]
    row = table.rows[1]
    rows = list(table.rows)
    rows[1] = replace(row, w_b=row.w_b + 10.0 * row.stderr)
    corrupt = replace(out, tables=(replace(table, rows=tuple(rows)), *out.tables[1:]))
    checks = oracles.Checks()
    w.check(corrupt, checks)
    assert (checks.attempted, checks.failed) == (clean.attempted, 1)


@pytest.mark.parametrize("workload", ["netsim_dense", "netsim_sparse"])
def test_slot_check_counts_a_flipped_link(workload):
    w = workloads.WORKLOADS[workload]("tiny", 3)
    w.setup()
    config = w.config if workload == "netsim_dense" else w._config("multi", "none")
    out = workloads.netsim.run_slot(w.state, config, np.random.SeedSequence([config.seed, 1, 0]))
    links = np.arange(len(out.tx))
    clean = oracles.Checks()
    workloads.check_slot(w.state, config, out, links, clean, "clean")
    assert clean.failed == 0

    flipped = out.success.copy()
    flipped[0] = not flipped[0]
    checks = oracles.Checks()
    workloads.check_slot(w.state, config, replace(out, success=flipped), links, checks, "flip")
    assert checks.attempted == clean.attempted
    assert checks.failed >= 1


@pytest.mark.parametrize("field", ["eta_tt", "bins"])
def test_dense_counts_a_corrupted_throughput(field):
    w = workloads.NetsimDense("tiny", 3)
    w.setup()
    out = w.run()
    clean = oracles.Checks()
    w.check(out, clean)
    assert clean.failed == 0

    if field == "eta_tt":
        corrupt = replace(out, eta_tt=out.eta_tt + 1.0)
    else:
        corrupt = replace(out, bins=(replace(out.bins[0], links=out.bins[0].links + 1),
                                     *out.bins[1:]))
    checks = oracles.Checks()
    w.check(corrupt, checks)
    assert (checks.attempted, checks.failed) == (clean.attempted, 1)


def test_sparse_counts_a_shifted_fixed_link():
    w = workloads.NetsimSparse("tiny", 3)
    w.setup()
    out = w.run()
    clean = oracles.Checks()
    w.check(out, clean)
    assert clean.failed == 0

    trials = w.p["link_trials"]
    se = np.sqrt(out.prediction * (1.0 - out.prediction) / trials)
    corrupt = replace(out, link=(out.link[0] + 10.0 * se, out.link[1]))
    checks = oracles.Checks()
    w.check(corrupt, checks)
    assert (checks.attempted, checks.failed) == (clean.attempted, 1)
