"""The benchmark under ``perfbench/`` still runs correctly on this checkout.

perfbench calls tensorpoly functions by name and counts some of them
(``training.adam_step`` once per mini-batch), so a refactor that renames
or bypasses one breaks the benchmark without failing any unit test. One
tiny traced run also probes the cli, io, metrics, baselines and
benchmark modules through their tiny workloads.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tiny_traced_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-joint-reference",
         "--size", "tiny", "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0
    assert result["metrics"]["training.batches"]["value"] > 0
