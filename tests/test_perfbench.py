"""The benchmark under ``perfbench/`` still runs correctly on this checkout.

perfbench calls tensorpoly functions by name and counts some of them
(``training.adam_step`` once per mini-batch, ``baselines.fm_forward``
once per FM forward pass), so a refactor that renames or bypasses one
breaks the benchmark without failing any unit test. Each tiny traced run
also probes the cli, io, metrics, baselines and benchmark modules through
their tiny workloads; the cli-reference run goes through the CSV read,
fit and predict round trip itself, the sweep-degree run through the sweep
runner, cross-validation and every baseline, and the fit-layered-wide run
through the block-deflation loop and a trained Q.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload",
                         ["cli-reference", "fit-joint-reference", "fit-layered-wide", "sweep-degree"])
def test_tiny_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--size", "tiny", "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0
    assert result["metrics"]["training.batches"]["value"] > 0


def test_bench_pairs_writes_both_sides_and_every_metric(tmp_path):
    # one checkout on both sides: the file's layout is checked, no timing value is
    out = tmp_path / "BENCH.json"
    proc = subprocess.run(
        [sys.executable, "tools/bench_pairs.py", ".", ".", "fit-joint-reference",
         "--seeds", "2", "--size", "tiny", "--seconds", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    bench = json.loads(out.read_text())
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert set(bench) == {"workload", "seconds", "size", "trace", "seeds", "order", "pairs",
                          "parent", "change", "metrics"}
    assert (bench["workload"], bench["seeds"], bench["pairs"]) == ("fit-joint-reference", [1, 2], 2)
    for side in ("parent", "change"):
        record = bench[side]
        assert {"commit", "src_sha256", "nproc", "blas_threads", "numpy_config"} <= set(record)
        assert record["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert [run["seed"] for run in record["runs"]] == [1, 2]
        assert all(set(names) <= set(run["metrics"]) for run in record["runs"])
        assert all(set(record["summary"][name]) == {"median", "q1", "q3"} for name in names)
    assert set(bench["metrics"]) == set(names)
    assert all(set(m) == {"better", "bound", "change_won_share", "median_move", "beyond_bound"}
               for m in bench["metrics"].values())
