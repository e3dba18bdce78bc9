"""Alternating before/after runs of one perfbench workload, written as ``BENCH_<workload>.json``.

    python tools/bench_pairs.py PARENT CHANGE WORKLOAD [--seeds 5] [--seconds 25]
                                [--size tiny] [--out BENCH_<workload>.json]

PARENT and CHANGE are two checkouts (one directory may be both, to measure
the noise). For each seed 1..N, ``perfbench/run.py --trace 0`` runs once in each
checkout, from that checkout's own ``perfbench/`` and ``src/``, the parent
first on odd seeds and the change first on even ones, so that a drift of the
machine's speed over the runs falls on both sides alike. Each run's last
stdout line (the result object) and its ``# provenance`` line are parsed.

The file holds, per side, the commit, the per-seed metrics, the median and
quartiles of each metric, the BLAS thread variables, ``nproc`` and numpy's
build configuration; and per end-to-end metric of CHANGE's ``BENCHMARK.json``,
the share of pairs in which the change was better, the relative move of the
median in the metric's better direction, and whether the median moved beyond
the metric's bound. A run that fails is recorded with its exit code and the
end of its stderr, left out of the statistics, and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout, workload, seed, args):
    """``(result, provenance, error)`` of one ``perfbench/run.py`` run in ``checkout``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    argv += ["--size", args.size] if args.size else []
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None, None, {"exit": proc.returncode, "stderr": proc.stderr[-2000:]}
    prov = next((json.loads(line.split(" ", 2)[2]) for line in lines
                 if line.startswith("# provenance ")), {})
    return json.loads(lines[-1]), prov, None


def summary(values):
    """Median and quartiles of a metric's values on one side."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(parent, change, better, bound):
    """The change's pairwise wins, median move (positive is better) and bound verdict."""
    sign = 1.0 if better == "higher" else -1.0
    wins = [sign * (c - p) > 0 for p, c in zip(parent, change)]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    move = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    return {"better": better, "bound": bound, "change_won_share": sum(wins) / len(wins),
            "median_move": move,
            "beyond_bound": "better" if move > bound else "worse" if move < -bound else None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("workload")
    parser.add_argument("--seeds", type=int, default=5, help="pairs to run (at least 2)")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--size", choices=["tiny"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    sides = {side: {"commit": None, "runs": []} for side in SIDES}
    seeds = list(range(1, args.seeds + 1))
    for seed in seeds:
        for side in SIDES if seed % 2 else SIDES[::-1]:
            result, prov, error = run_once(checkouts[side], args.workload, seed, args)
            run = {"seed": seed, **(error or {})}
            if result is not None:
                sides[side].update(commit=prov.get("git_commit"),
                                   src_sha256=prov.get("src_sha256"), nproc=prov.get("nproc"),
                                   blas_threads=prov.get("env"), numpy=prov.get("numpy"),
                                   numpy_config=prov.get("numpy_config"))
                run.update(correct=result["correct"], attempted=result["attempted"],
                           failed=result["failed"],
                           metrics={k: v["value"] for k, v in result["metrics"].items()})
            sides[side]["runs"].append(run)
            print(f"{args.workload} seed {seed} {side}: "
                  f"{'exit ' + str(error['exit']) if error else run['metrics']}", file=sys.stderr)
    # pairs whose two runs both finished, in seed order
    pairs = [(p, c) for p, c in zip(sides["parent"]["runs"], sides["change"]["runs"])
             if "metrics" in p and "metrics" in c]
    metrics = {}
    if pairs:
        for side, i in zip(SIDES, (0, 1)):
            sides[side]["summary"] = {name: summary([pair[i]["metrics"][name] for pair in pairs])
                                      for name in pairs[0][i]["metrics"]}
        metrics = {m["name"]: compare([p["metrics"][m["name"]] for p, _ in pairs],
                                      [c["metrics"][m["name"]] for _, c in pairs],
                                      m["better"], m["bound"])
                   for m in bench["end_to_end"]}
    out = args.out or Path(f"BENCH_{args.workload}.json")
    out.write_text(json.dumps({
        "workload": args.workload, "seconds": args.seconds, "size": args.size or "full",
        "trace": 0, "seeds": seeds,
        "order": "parent first on odd seeds, change first on even seeds",
        "pairs": len(pairs), **sides, "metrics": metrics,
    }, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    failed = len(pairs) < args.seeds or not all(r.get("correct") for p in pairs for r in p)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
