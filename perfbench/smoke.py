"""Smoke self-test of the benchmark; exits 0 when every check passes.

    python3 perfbench/smoke.py

Checks that BENCHMARK.json lists the metrics of catalog.py, runs every
workload at its tiny size with ``--trace 0`` and ``--trace 1`` and checks
that each run is correct and names every metric with its unit, and checks
that run.py refuses to run, printing no result, in a directory holding
only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import catalog  # noqa: E402


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    if [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] != catalog.END_TO_END:
        failures.append("BENCHMARK.json end_to_end differs from catalog.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] != [r[:3] for r in catalog.PER_LAYER]:
        failures.append("BENCHMARK.json per_layer differs from catalog.PER_LAYER")
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in listed}
            if got != want:
                failures.append(f"{label}: metrics {sorted(set(got) ^ set(want))} missing or extra")
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: not correct: {result['failed']} of {result['attempted']} failed")
            print(f"ok {label}: {len(got)} metrics, {result['attempted']} operations", flush=True)

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, bench["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("run.py without the package sources exited 0 or printed a result")
    else:
        print(f"ok without sources: exit {proc.returncode}, {proc.stderr.strip()}")

    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
