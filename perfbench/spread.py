"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json's bounds.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--seconds S] [WORKLOAD ...]

Runs each workload once per seed through run.py, with `--runs` seeds
drawn from [0, 2**31) by a generator seeded with `--first-seed`, and
prints, per metric, the median and the distance between the first and
third quartile as a share of the median. A spread
at or above a third of the metric's bound is marked; setup_s is exempt
from the spread rule but shown.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        walls = []
        seeds = random.Random(args.first_seed).sample(range(2**31), args.runs)
        for seed in seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: not correct: {result}", file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {args.runs} runs, wall per run median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med)
            steady = name == "setup_s" or spread < bounds[name] / 3
            ok = ok and steady
            print(f"  {name:18s} median {med:12.6g}  spread {spread:7.2%}  bound {bounds[name]:.0%}"
                  f"{'' if steady else '  <-- above a third of the bound'}")
            print(f"  {'':18s} runs {' '.join(f'{v:.4g}' for v in vals)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
