"""``tools/seeded_outputs.py`` hashes every seeded output; two runs must print the same lines."""

import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_two_runs_print_identical_hashes():
    start = time.perf_counter()
    runs = [subprocess.run([sys.executable, "tools/seeded_outputs.py"], cwd=ROOT,
                           capture_output=True, text=True, timeout=60) for _ in range(2)]
    elapsed = time.perf_counter() - start
    for proc in runs:
        assert proc.returncode == 0, proc.stderr[-2000:]
    lines = runs[0].stdout.splitlines()
    assert lines == runs[1].stdout.splitlines()
    assert all(len(line.split()) == 2 and len(line.split()[1]) == 64 for line in lines)
    labels = [line.split()[0] for line in lines]
    assert len(set(labels)) == len(labels)
    assert {label.split("/")[0] for label in labels} == {"fit", "cli", "sweep", "krr"}
    assert {f"sweep/rows/{learner}" for learner in ("ltr", "lr", "krr", "fm")} <= set(labels)
    assert "krr/dual/predict" in labels
    assert elapsed < 15
