"""Run one tensorpoly benchmark workload in a fresh process and check its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size tiny]

Run from the root of a checkout. The workload process imports tensorpoly
from the checkout's own ``src/`` (as the tier-1 tests do) with every BLAS
thread pool pinned to one thread. The last stdout line is the result
object ``{"correct", "attempted", "failed", "metrics"}``; it is printed
only when it names every metric of BENCHMARK.json for the chosen trace
mode, each with its unit and a finite value.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import catalog  # noqa: E402


def trace_flag(argv):
    return "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]


def main(argv):
    if not (ROOT / "src" / "tensorpoly" / "__init__.py").is_file():
        print(f"error: no tensorpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # A new process group, so a timeout stops the CLI subprocesses it started too.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"error: workload did not finish in {TIMEOUT_S} s", file=sys.stderr)
        return 1
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"error: last line is not a result object: {lines[-1]!r}", file=sys.stderr)
        return 1
    expected = catalog.units(trace_flag(argv))
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    values = [v.get("value") for v in result.get("metrics", {}).values()]
    if (
        set(result) != {"correct", "attempted", "failed", "metrics"}
        or got != expected
        or not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
        or not result["attempted"] >= 1
    ):
        print(f"error: result does not match BENCHMARK.json: {lines[-1]}", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
