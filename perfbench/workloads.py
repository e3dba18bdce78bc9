"""The tensorpoly benchmark workloads; one invocation runs one workload.

Started by run.py in a fresh process with the BLAS thread pools pinned
and ``PYTHONPATH`` set to the checkout's ``src/``:

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 [--size tiny]

With ``--trace 0`` it times repeated operations for S seconds and prints
the end-to-end metrics; with ``--trace 1`` it alternates untraced
operations with operations that run with every public function of the
package wrapped (see spans.py), and prints the per-layer metrics. The last stdout line is
the result object; the lines before it, prefixed ``#``, hold provenance,
sample counts and the span summary.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io as stdio
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tensorpoly
from tensorpoly import benchmark, cli, datagen, metrics, training
from tensorpoly import io as tio
from tensorpoly import model as tmodel

import catalog
from spans import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
TEST_SEED_OFFSET = 1_000_003  # the offset `tensorpoly generate` uses for the test split
STARTUP_REPS = 7
SETUP_REPS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

REFERENCE_TRAIN = {
    "mode": "joint", "n_d": 3, "n_t": 3, "batch_size": 500, "epochs": 10, "learning_rate": 0.05,
}
REFERENCE = {"n": 10, "degree": 3, "rank": 3, "n_y": 1, "m": 100_000, "train": REFERENCE_TRAIN}

# Pearson floors sit well below the lowest Pearson over many random seeds
# in [0, 2**31), so a correct fitter meets them on any seed and a broken
# one does not. Fits at these sizes stop before they converge, so the
# Pearson has a long low tail. Lowest (and 1% quantile) at full size:
# 0.972 (0.990) over 950 seeds at the reference shape, 0.902 (0.950)
# over 400 seeds on fit-layered-wide, and 0.943 (0.963) over 2500 seeds
# for the ltr learner at degree 3 on sweep-degree (degrees 1 and 2 stay
# above 0.999). At the tiny sizes, in the same order: 0.877 (0.942) over
# 4600 seeds, 0.467 (0.708) over 4600 and 0.961 (0.986) over 2100.
SPECS = {
    "cli-reference": {"kind": "cli", **REFERENCE, "floor": 0.9},
    "fit-joint-reference": {"kind": "fit", **REFERENCE, "floor": 0.9},
    "fit-layered-wide": {
        "kind": "fit", "n": 64, "degree": 3, "rank": 16, "n_y": 4, "m": 50_000,
        "train": {
            "mode": "layered", "n_d": 3, "n_t": 16, "rank_blocks": [4, 4, 4, 4],
            "batch_size": 2000, "epochs": 5, "learning_rate": 0.05,
        },
        "floor": 0.75,
    },
    "sweep-degree": {
        "kind": "sweep", "n": 6, "rank": 3, "n_y": 1, "m": 4000, "degrees": [1, 2, 3],
        "learners": ["ltr", "lr", "krr", "fm"], "folds": 2,
        "train": {"mode": "rank_wise", "batch_size": 100, "epochs": 10, "learning_rate": 0.05},
        "fm": {"steps": 30, "restarts": 1}, "threads": 2, "floor": 0.9,
    },
}

# Tiny sizes for the smoke test and for the traced run's probes.
TINY = {
    "cli-reference": {"m": 5000, "floor": 0.75},
    "fit-joint-reference": {"m": 5000, "floor": 0.75},
    "fit-layered-wide": {
        "n": 8, "rank": 4, "m": 4000, "floor": 0.25,
        "train": {
            "mode": "layered", "n_d": 3, "n_t": 4, "rank_blocks": [2, 2],
            "batch_size": 500, "epochs": 5, "learning_rate": 0.05,
        },
    },
    "sweep-degree": {
        "m": 400, "degrees": [1, 2], "fm": {"steps": 2, "restarts": 1}, "floor": 0.9,
        "train": {"mode": "rank_wise", "batch_size": 20, "epochs": 10, "learning_rate": 0.05},
    },
}

# Probes for modules a workload's own operation never calls, in order.
PROBES = ("cli-reference", "sweep-degree", "fit-layered-wide")


def spec_for(name, size):
    spec = dict(SPECS[name])
    if size == "tiny":
        spec.update(TINY[name])
    return spec


def median(values):
    return float(statistics.median(values))


class Tally:
    """Operations attempted and failed; an operation fails when any of its checks does."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")


def mean_pearson(Y, Yhat):
    return float(np.mean([metrics.pearson(Y[:, j], Yhat[:, j]) for j in range(Y.shape[1])]))


# Child processes are waited for without a timeout: `Popen.wait(timeout)`
# polls in sleeps of up to 50 ms, which would quantize the times. run.py
# bounds the whole process group instead.


def startup_seconds():
    """Median wall time of a fresh interpreter importing tensorpoly.cli."""
    times = []
    for _ in range(STARTUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import tensorpoly.cli"], check=True)
        times.append(time.perf_counter() - t0)
    return median(times)


def make_data(spec, seed):
    gen = datagen.GeneratorSpec(n=spec["n"], n_d=spec["degree"], n_t=spec["rank"], m=spec["m"], seed=seed)
    true = datagen.generate_model(gen)
    if spec["n_y"] > 1:
        Q = np.random.default_rng([seed, 1]).standard_normal((spec["rank"], spec["n_y"]))
        true = tmodel.LtrModel(P=true.P, Q=Q, lam=true.lam)
    train = datagen.sample_dataset(true, spec["m"], 0.0, seed=seed)
    test = datagen.sample_dataset(true, spec["m"], 0.0, seed=seed + TEST_SEED_OFFSET)
    return train, test


def train_config(spec, seed):
    return training.TrainConfig(**spec["train"], seed=seed)


def _gemm(r, k, c):
    return 2 * r * k * c, r * k + k * c + r * c


def _elem(size, inputs=2):
    return size, (inputs + 1) * size


def _forward_ops(b, n, d, t, y):
    return [_gemm(b, n, t)] * d + [_elem(b * t)] * d + [_gemm(b, t, y), _elem(b * y)]


def _backward_ops(b, n, d, t, y):
    ops = [_gemm(b, y, t), _elem(b * t), _elem(b * t, 1)]  # E Q^T, g_lam
    ops += [_elem(b * t)] * (3 * d)  # leave-one-out partials, weighting
    ops += [_elem(b * t), _gemm(t, b, n)] * d + [_gemm(t, b, y)]  # g_P, g_Q
    return ops


def fit_cost(m, n, d, t, y, B, epochs):
    """Computed FLOPs and bytes of one `_fit_block` phase.

    Counts each numpy operation of the batch gather, forward pass,
    gradient and ADAM update, and of the per-epoch full-data loss, at 8
    bytes per operand element read or written. The bytes ignore cache
    reuse: they are computed from array shapes, not measured.
    """
    n_params = t + d * t * n + (t * y if y > 1 else 0)
    ops = []
    for start in range(0, m, B):
        b = min(B, m - start)
        ops += [(0, 2 * d * b * n + 2 * b * y)]  # gather: one copy per factor, plus Y
        ops += _forward_ops(b, n, d, t, y) + _backward_ops(b, n, d, t, y)
        ops += [(12 * n_params, 14 * n_params)]  # ADAM
    ops += _forward_ops(m, n, d, t, y) + [_elem(m * y)]  # full-data loss
    return epochs * sum(f for f, _ in ops), epochs * 8 * sum(e for _, e in ops)


class Calibration:
    """A fixed task, independent of tensorpoly, timed around each timed call.

    The machine's speed drifts by tens of percent over tens of seconds
    (see README.md). Scaling a timed call by REFERENCE_S over the mean of
    the calibration times just before and just after it cancels most of
    that drift; the work mixes interpreter bytecode, small numpy calls and
    a GEMM, like the workloads. The task runs on each CPU the process is
    pinned to, in turn, and the mean is taken, so for the two-thread sweep
    it covers both CPUs its workers run on.
    """

    REFERENCE_S = 0.036  # median of `seconds()` on a 2.1 GHz 2-vCPU VM, numpy 2.4 with OpenBLAS

    def __init__(self):
        rng = np.random.default_rng(0)
        self.A = rng.standard_normal((500, 10))
        self.B = rng.standard_normal((10, 3))
        self.C = rng.standard_normal((300, 300))

    def once(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i
        for _ in range(400):
            Z = self.A @ self.B
            Z *= Z
            Z.sum()
        for _ in range(10):
            self.C @ self.C
        return time.perf_counter() - t0

    def seconds(self):
        cpus = os.sched_getaffinity(0)
        per_cpu = []
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                per_cpu.append(sum(self.once() for _ in range(3)))
        finally:
            os.sched_setaffinity(0, cpus)
        return sum(per_cpu) / len(per_cpu)


class Workload:
    """One workload: `setup` builds inputs, `op` runs and checks one timed operation."""

    def __init__(self, spec, seed, workdir, tally):
        self.spec, self.seed, self.workdir, self.tally = spec, seed, workdir, tally
        self.sweep_rows = None
        self.calibration = None  # set for untraced runs
        self.last_calibration = None

    def timed(self, fn, *args):
        """Call fn(*args); return its result, wall seconds and reference seconds.

        Without a calibration the reference seconds are the wall seconds.
        The calibration after one call serves as the one before the next.
        """
        if self.calibration and self.last_calibration is None:
            self.last_calibration = self.calibration.seconds()
        t0 = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - t0
        if not self.calibration:
            return result, seconds, seconds
        before, self.last_calibration = self.last_calibration, self.calibration.seconds()
        return result, seconds, seconds * Calibration.REFERENCE_S * 2 / (before + self.last_calibration)

    def setup(self, tracer=None):
        return 0.0

    def phases(self):
        """(rows, width, n_d, n_t, n_y, batch, epochs) of every fit phase in one operation."""
        tr = self.spec["train"]
        if tr["mode"] == "layered":
            blocks = tr["rank_blocks"]
        else:
            blocks = [tr["n_t"]]
        return [(self.spec["m"], self.spec["n"], tr["n_d"], t, self.spec["n_y"], tr["batch_size"], tr["epochs"])
                for t in blocks]

    def replay_data(self):
        return make_data(self.spec, self.seed)[0]

    def samples_per_op(self):
        """Training samples x epochs x phases of one operation's fits."""
        return sum(rows * epochs for rows, *_, epochs in self.phases())

    def expected_batches(self):
        return sum(epochs * math.ceil(rows / batch) for rows, *_, batch, epochs in self.phases())

    def expected_fm_calls(self):
        return 0


class CliWorkload(Workload):
    """generate -> train -> predict -> evaluate as `python -m tensorpoly` steps."""

    STEPS = ("generate", "train", "predict", "evaluate")

    def __init__(self, *a, in_process=False):
        super().__init__(*a)
        self.in_process = in_process
        s = self.spec
        self.config = self.workdir / "run.json"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config.write_text(json.dumps({
            "generator": {"type": "random", "n": s["n"], "degree": s["degree"], "rank": s["rank"],
                          "m": s["m"], "test_m": s["m"], "seed": self.seed},
            "train": {**s["train"], "seed": self.seed},
        }))
        w = str(self.workdir)
        self.argv = {
            "generate": ["generate", "--config", str(self.config), "--out", f"{w}/data"],
            "train": ["train", "--config", str(self.config), "--data", f"{w}/data/train.csv", "--out", f"{w}/fit"],
            "predict": ["predict", "--model", f"{w}/fit/model.json", "--input", f"{w}/data/test.csv",
                        "--out", f"{w}/pred"],
            "evaluate": ["evaluate", "--predictions", f"{w}/pred/predictions.csv", "--truth",
                         f"{w}/data/test.csv", "--out", f"{w}/eval"],
        }

    def run_step(self, step, tracer):
        if not self.in_process:
            proc = subprocess.run([sys.executable, "-m", "tensorpoly", *self.argv[step]],
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            return proc.returncode, proc.stderr.strip()
        err = stdio.StringIO()
        span = tracer.begin(f"cli.{step}") if tracer else None
        try:
            with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(self.argv[step])
        except Exception:  # counted as a failed step, like a traceback from the subprocess
            code = 1
            err.write(traceback.format_exc())
        finally:
            if span:
                tracer.end(span)
        return code, err.getvalue().strip()

    def op(self, tracer=None):
        for sub in ("data", "fit", "pred", "eval"):
            shutil.rmtree(self.workdir / sub, ignore_errors=True)
        codes, raw, ref = {}, 0.0, 0.0
        with tracer or contextlib.nullcontext():
            for step in self.STEPS:
                codes[step], step_raw, step_ref = self.timed(self.run_step, step, tracer)
                raw += step_raw
                ref += step_ref
        return {"op_s": ref, "raw_op_s": raw, **self.check(codes)}

    def check(self, codes):
        w, m = self.workdir, self.spec["m"]
        problems = {step: [f"exit {code}: {err}"] if code else [] for step, (code, err) in codes.items()}

        def rows(path):
            with open(path, "rb") as fh:
                return fh.read().count(b"\n") - 1

        out = {}
        for f in ("train.csv", "test.csv"):
            try:
                if rows(w / "data" / f) != m:
                    problems["generate"].append(f"{f} does not have {m} rows")
            except OSError as exc:
                problems["generate"].append(str(exc))
        try:
            report = json.loads((w / "fit" / "report.json").read_text())
            traces = [v for tr in report["loss_traces"] for v in tr]
            if not all(v is not None and math.isfinite(v) for v in traces):
                problems["train"].append("non-finite loss trace")
        except (OSError, KeyError, ValueError) as exc:
            problems["train"].append(f"report.json: {exc}")
        try:
            if rows(w / "pred" / "predictions.csv") != m:
                problems["predict"].append(f"predictions.csv does not have {m} rows")
            X = np.loadtxt(w / "data" / "test.csv", delimiter=",", skiprows=1, ndmin=2)[:, : self.spec["n"]]
            written = np.loadtxt(w / "pred" / "predictions.csv", delimiter=",", skiprows=1, ndmin=2)
            reloaded = tmodel.predict(tio.load_model(w / "fit" / "model.json"), X)
            if not np.array_equal(reloaded, written):
                problems["predict"].append("model.json does not reproduce predictions.csv")
        except (OSError, ValueError) as exc:
            problems["predict"].append(str(exc))
        try:
            out["test_pearson"] = json.loads((w / "eval" / "metrics.json").read_text())["pearson"]
            if not out["test_pearson"] >= self.spec["floor"]:
                problems["evaluate"].append(f"pearson {out['test_pearson']} below {self.spec['floor']}")
        except (OSError, KeyError, ValueError, TypeError) as exc:
            problems["evaluate"].append(f"metrics.json: {exc}")
        for step in self.STEPS:
            self.tally.record(f"cli {step}", problems[step])
        return out


class FitWorkload(Workload):
    """In-memory `fit` on generated data, evaluated on a held-out split."""

    def setup(self, tracer=None):
        times = []
        for _ in range(1 if tracer else SETUP_REPS):
            t0 = time.perf_counter()
            with tracer or contextlib.nullcontext():
                self.train, self.test = make_data(self.spec, self.seed)
            times.append(time.perf_counter() - t0)
        self.config = train_config(self.spec, self.seed)
        self.first = None
        return median(times)

    def replay_data(self):
        return self.train

    def op(self, tracer=None):
        problems = []
        with tracer or contextlib.nullcontext():
            try:
                (fitted, _), raw, seconds = self.timed(training.fit, self.train, self.config)
            except training.TrainingDivergedError as exc:
                self.tally.record("fit", [str(exc)])
                return {}
            yhat = tmodel.predict(fitted, self.test.views)
        pearson = mean_pearson(self.test.Y, yhat)
        if not pearson >= self.spec["floor"]:
            problems.append(f"pearson {pearson} below {self.spec['floor']}")
        copy = tio.model_from_dict(json.loads(json.dumps(tio.model_to_dict(fitted))))
        if not np.array_equal(tmodel.predict(copy, self.test.views), yhat):
            problems.append("model JSON round trip changed the predictions")
        if self.first is None:
            self.first = yhat
        elif not np.array_equal(self.first, yhat):
            problems.append("a repeated fit with the same seed gave other predictions")
        self.tally.record("fit", problems)
        return {"op_s": seconds, "raw_op_s": raw, "test_pearson": pearson}


class SweepWorkload(Workload):
    """`run_benchmark` over degree with the LTR learner and the three baselines."""

    def __init__(self, *a):
        super().__init__(*a)
        s = self.spec
        self.cfg = {
            "base": {"n": s["n"], "m": s["m"], "degree": s["degrees"][0], "rank": s["rank"],
                     "noise": 0.0, "seed": self.seed},
            "sweep": {"variable": "degree", "values": s["degrees"]},
            "learners": s["learners"],
            "folds": s["folds"],
            "train": {**s["train"], "seed": self.seed},
            "fm": s["fm"],
        }
        self.first = None

    def train_rows(self):
        return self.spec["m"] * (self.spec["folds"] - 1) // self.spec["folds"]

    def phases(self):
        s, tr = self.spec, self.spec["train"]
        return [(self.train_rows(), s["n"], d, 1, 1, tr["batch_size"], tr["epochs"])
                for d in s["degrees"] for _ in range(s["folds"] * s["rank"])]

    def replay_data(self):
        spec = {**self.spec, "degree": max(self.spec["degrees"]), "m": self.train_rows()}
        return make_data(spec, self.seed)[0]

    def expected_fm_calls(self):
        s = self.spec
        per_fit = s["fm"]["restarts"] * (s["fm"]["steps"] * 2 * s["rank"] * s["n"] + 1)
        return len(s["degrees"]) * s["folds"] * (per_fit + 1)

    def op(self, tracer=None):
        s = self.spec
        os.environ[benchmark.THREADS_ENV] = str(s["threads"])
        try:
            with tracer or contextlib.nullcontext():
                (rows, _), raw, seconds = self.timed(benchmark.run_benchmark, self.cfg)
        finally:
            os.environ.pop(benchmark.THREADS_ENV)
        self.sweep_rows = rows
        by_key = {(r[0], r[2], r[3]): r for r in rows}
        if len(rows) != len(s["learners"]) * len(s["degrees"]) * 3:
            self.tally.record("sweep rows", [f"{len(rows)} rows"])
        accuracy = sorted(r[:5] for r in rows if r[3] != "train_seconds")
        pearsons = []
        for learner in s["learners"]:
            for degree in s["degrees"]:
                point = [by_key.get((learner, degree, metric)) for metric in ("pearson", "rmse", "train_seconds")]
                problems = [f"missing {learner} row" for r in point if r is None]
                problems += [f"status {r[6]}" for r in point if r is not None and r[6] != "ok"]
                if learner == "ltr" and not problems:
                    pearsons.append(point[0][4])
                    if not point[0][4] >= s["floor"]:
                        problems.append(f"ltr pearson {point[0][4]} below {s['floor']} at degree {degree}")
                self.tally.record(f"sweep {learner} degree={degree}", problems)
        if self.first is None:
            self.first = accuracy
        elif accuracy != self.first:
            self.tally.record("sweep rerun", ["accuracy columns differ from the first sweep"])
        out = {"op_s": seconds, "raw_op_s": raw}
        if len(pearsons) == len(s["degrees"]):
            out["test_pearson"] = float(np.mean(pearsons))
        return out


OPERATION = {
    "cli": "the four CLI steps (pipeline_s)",
    "fit": "one fit (1/throughput)",
    "sweep": "one run_benchmark (sweep_s)",
}


def build(spec, seed, workdir, tally, in_process=False):
    if spec["kind"] == "cli":
        return CliWorkload(spec, seed, workdir, tally, in_process=in_process)
    cls = FitWorkload if spec["kind"] == "fit" else SweepWorkload
    return cls(spec, seed, workdir, tally)


def peak_rss_mb(kind):
    who = resource.RUSAGE_CHILDREN if kind == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(work, seconds, startup):
    """Untraced run: medians over the operations repeated for `seconds`.

    Times are in reference seconds (see `Calibration`). The peak RSS is
    taken after the first operation, as a process that runs one operation
    sees it: in the two-thread sweep, later sweeps raise the process peak
    by 0-60 MB depending on how the workers' kernel solves interleave with
    memory the heap kept from earlier sweeps.
    """
    setup_s = startup + work.setup()
    if work.spec["kind"] == "fit":
        work.op()  # warm-up, checked but not timed
    work.calibration = Calibration()
    start = time.perf_counter()
    samples = [work.op()]
    values = {"peak_rss_mb": peak_rss_mb(work.spec["kind"])}
    while time.perf_counter() - start < seconds:
        samples.append(work.op())
    keys = ("op_s", "test_pearson", "raw_op_s")
    for key in keys:
        got = [s[key] for s in samples if key in s]
        if got:
            values[key] = median(got)
    if "op_s" in values:
        values["fit_samples_per_s"] = work.samples_per_op() / values["op_s"]
    values["setup_s"] = setup_s
    tally = work.tally
    values["success_rate"] = (tally.attempted - tally.failed) / max(tally.attempted, 1)
    counts = {key: sum(key in s for s in samples) for key in keys}
    counts["fit_samples_per_s"] = counts["op_s"]
    counts["setup_s"] = STARTUP_REPS if work.spec["kind"] != "fit" else f"{STARTUP_REPS}+{SETUP_REPS}"
    counts["success_rate"] = tally.attempted
    for key in ("raw_op_s", "op_s"):
        counts[f"{key}_values"] = [float(f"{s[key]:.4g}") for s in samples if key in s]
    counts["raw_op_s_median"] = values.pop("raw_op_s")
    return values, counts


SPAN_TOTALS = {
    "cli.generate_s": "cli.generate",
    "cli.train_s": "cli.train",
    "cli.predict_s": "cli.predict",
    "cli.evaluate_s": "cli.evaluate",
    "io.write_dataset_csv_s": "io.write_dataset_csv",
    "io.read_dataset_csv_s": "io.read_dataset_csv",
    "io.write_predictions_csv_s": "io.write_predictions_csv",
    "io.save_model_s": "io.save_model",
    "io.load_model_s": "io.load_model",
    "datagen.generate_model_s": "datagen.generate_model",
    "datagen.sample_dataset_s": "datagen.sample_dataset",
    "training.fit_s": "training.fit",
    "model.z_factors_s": "model.z_factors",
    "model.hadamard_partials_s": "model.hadamard_partials",
    "metrics.cross_validate_s": "metrics.cross_validate",
    "metrics.correlation_ratio_s": "metrics.correlation_ratio",
    "baselines.krr_fit_s": "baselines.krr_fit",
    "baselines.krr_predict_s": "baselines.krr_predict",
    "baselines.linreg_fit_s": "baselines.linreg_fit",
    "baselines.fm_fit_gd_s": "baselines.fm_fit_gd",
    "benchmark.run_benchmark_s": "benchmark.run_benchmark",
}


def span_metrics(summary, work):
    """Per-layer metrics of one traced operation; its exact counts are checked."""
    out = {k: summary[v]["total_s"] for k, v in SPAN_TOTALS.items() if summary.get(v, {}).get("calls")}

    def size(name):
        return summary.get(name, {}).get("size", 0)

    read = size("io.read_dataset_csv")
    written = size("io.write_dataset_csv") + size("io.write_predictions_csv")
    if read and written:
        out["io.csv_bytes"] = read + written
        out["io.read_MBps"] = read / 1e6 / summary["io.read_dataset_csv"]["total_s"]
        write_s = sum(summary.get(n, {}).get("total_s", 0.0)
                      for n in ("io.write_dataset_csv", "io.write_predictions_csv"))
        out["io.write_MBps"] = written / 1e6 / write_s
    if size("model.predict"):
        out["model.predict_rows_per_s"] = size("model.predict") / summary["model.predict"]["total_s"]
    counts = {
        "training.batches": ("training.adam_step", work.expected_batches()),
        "baselines.fm_forward_calls": ("baselines.fm_forward", work.expected_fm_calls()),
    }
    for key, (span, expected) in counts.items():
        calls = summary.get(span, {}).get("calls", 0)
        if calls or expected:
            out[key] = calls
            if calls != expected:
                work.tally.record(f"count {key}", [f"{calls} calls, expected {expected}"])
    if work.sweep_rows is not None:
        rows = work.sweep_rows
        busy = sum(r[4] * work.spec["folds"] for r in rows if r[3] == "train_seconds" and r[6] == "ok")
        out["benchmark.learner_busy_s"] = busy
        wall = summary["benchmark.run_benchmark"]["total_s"]
        out["benchmark.parallel_efficiency"] = busy / (work.spec["threads"] * wall)
        out["benchmark.failed_rows"] = sum(r[6] != "ok" for r in rows)
    return out


REPLAYED = (
    "training.gather_s", "training.gradients_s", "training.adam_step_s", "training.epoch_loss_s",
    "training.epoch_loss_share", "training.flops", "training.bytes", "training.flops_per_byte",
    "training.gflops_achieved",
)


def replay_training(work):
    """Replay one epoch of the last fit phase through the public API.

    Times `Dataset.take` (the fit's inline gather), `gradients` and
    `adam_step` per batch, and `loss` on the full data, at the shapes the
    workload's fit uses; adds the computed FLOPs and bytes of one operation.
    """
    rows, n, d, t, y, B, _ = work.phases()[-1]
    data = work.replay_data().take(np.arange(rows))
    config = train_config(work.spec, work.seed)
    rng = np.random.default_rng(work.seed)
    mdl = tmodel.LtrModel(
        P=[rng.standard_normal((t, n)) / np.sqrt(n) for _ in range(d)],
        Q=np.ones((t, 1)) if y == 1 else rng.standard_normal((t, y)) / np.sqrt(y),
        lam=np.ones(t),
    )
    state = training.AdamState.zeros(mdl.lam, mdl.P, mdl.Q)
    order = rng.permutation(rows)
    gather, grads, adam = [], [], []
    for start in range(0, rows, B):
        t0 = time.perf_counter()
        batch = data.take(order[start:start + B])
        t1 = time.perf_counter()
        g = training.gradients(mdl, batch, config)
        t2 = time.perf_counter()
        training.adam_step(state, (mdl.lam, mdl.P, mdl.Q), g, config.learning_rate,
                           beta1=config.adam_beta1, beta2=config.adam_beta2, eps=config.adam_eps,
                           update_q=y > 1)
        t3 = time.perf_counter()
        gather.append(t1 - t0)
        grads.append(t2 - t1)
        adam.append(t3 - t2)
    losses = []
    for _ in range(3):
        t0 = time.perf_counter()
        training.loss(mdl, data, config)
        losses.append(time.perf_counter() - t0)
    costs = [fit_cost(*p) for p in work.phases()]
    flops, bytes_ = sum(c[0] for c in costs), sum(c[1] for c in costs)
    return {
        "training.gather_s": median(gather),
        "training.gradients_s": median(grads),
        "training.adam_step_s": median(adam),
        "training.epoch_loss_s": median(losses),
        "training.flops": flops,
        "training.bytes": bytes_,
        "training.flops_per_byte": flops / bytes_,
    }


def traced_op(work, tracer):
    work.setup(tracer)
    t0 = time.perf_counter()
    work.op(tracer)
    return time.perf_counter() - t0


def per_layer(name, work, seconds, startup, workdir):
    """Traced run: untraced and traced operations in turn, then probes and a replay.

    Span metrics are medians over the traced operations. A module that the
    workload's operation never calls is measured on the tiny size of a
    workload that does (`PROBES`); the replay gives the per-batch costs.
    """
    if work.spec["kind"] == "fit":
        work.op()  # warm-up
    untraced, traced, per_op = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        work.op()
        untraced.append(time.perf_counter() - t0)
        tracer = Tracer()
        traced.append(traced_op(work, tracer))
        summary = summarize(tracer.spans)
        per_op.append(span_metrics(summary, work))
    values = {}
    for key in per_op[0]:
        got = [op[key] for op in per_op if key in op]
        values[key] = got[0] if len(set(got)) == 1 else median(got)
    values["cli.startup_s"] = startup
    values["tracing.overhead_ratio"] = median(traced) / median(untraced)
    source = dict.fromkeys(values, f"op, median of {len(traced)}")
    spans_out = {"op": summary}

    for probe in PROBES:
        missing = [row[0] for row in catalog.PER_LAYER if row[0] not in values and row[0] not in REPLAYED]
        if not missing:
            break
        if probe == name:
            continue
        pwork = build(spec_for(probe, "tiny"), work.seed, workdir / f"probe-{probe}", work.tally,
                      in_process=True)
        ptracer = Tracer()
        traced_op(pwork, ptracer)
        psummary = summarize(ptracer.spans)
        for k, v in span_metrics(psummary, pwork).items():
            if k not in values:
                values[k] = v
                source[k] = f"probe {probe} tiny"
        spans_out[f"probe {probe}"] = psummary

    values.update(replay_training(work))
    loss_evals = sum(p[6] for p in work.phases())
    values["training.epoch_loss_share"] = values["training.epoch_loss_s"] * loss_evals / values["training.fit_s"]
    values["training.gflops_achieved"] = values["training.flops"] / values["training.fit_s"] / 1e9
    source.update(dict.fromkeys(REPLAYED, "replay"))
    return values, source, spans_out, {"untraced_s": untraced, "traced_s": traced}


def provenance(args, spec):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tensorpoly").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "spec": spec,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "tensorpoly_path": str(Path(tensorpoly.__file__).resolve()),
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": np.__version__,
        "numpy_config": np.show_config(mode="dicts"),
        "env": {k: os.environ.get(k) for k in BLAS_ENV},
        "tensorpoly_threads": spec.get("threads", "unset"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
    }


def emit(tag, obj):
    print(f"# {tag} {json.dumps(obj, default=str, sort_keys=True)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(tensorpoly.__file__).resolve().parents:
        sys.exit(f"tensorpoly resolved to {tensorpoly.__file__}, not under {src}")
    os.environ.pop(benchmark.THREADS_ENV, None)
    spec = spec_for(args.workload, args.size)
    # One CPU for the workload and its CLI children (two for the two-thread
    # sweep), so the calibration runs at the speed of the cores that do the work.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, set(cpus[: spec.get("threads", 1)]))
    emit("provenance", provenance(args, spec))

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    tally = Tally()
    try:
        startup = startup_seconds()
        work = build(spec, args.seed, workdir / "op", tally, in_process=bool(args.trace))
        if args.trace:
            work.setup()
            values, source, spans_out, walls = per_layer(args.workload, work, args.seconds, startup, workdir)
            emit("tracing", walls)
            emit("spans", spans_out)
            emit("layer_sources", source)
            counts = {}
        else:
            values, counts = end_to_end(work, args.seconds, startup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = catalog.units(args.trace)
    moves = {row[0]: row[3] for row in catalog.PER_LAYER}
    emit("samples", {"per_metric": counts, "attempted": tally.attempted, "failed": tally.failed,
                     "m": spec["m"]})
    for problem in tally.problems:
        print(f"# failed {problem}")
    for key in units:
        if key in values:
            note = f"moves {moves[key]}" if args.trace else f"n={counts.get(key, 1)}"
            if key == "op_s":
                note += f", one operation is {OPERATION[spec['kind']]}"
            print(f"# {args.workload} {key} = {values[key]:.6g} {units[key]} ({note})")
    if not args.trace:
        error_rate = tally.failed / max(tally.attempted, 1)
        print(f"# {args.workload} error_rate = {error_rate:.6g} ratio (n={tally.attempted})")
    result = {
        "correct": tally.failed == 0 and all(k in values for k in units),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
