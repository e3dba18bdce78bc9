"""Print one ``label sha256`` line per seeded output of tensorpoly.

Run it from a checkout as ``python tools/seeded_outputs.py``; it takes no
flags and imports tensorpoly from the checkout's ``src/``. Two checkouts
whose outputs should be bit-identical print the same lines, so ``diff``
of two runs names every output that moved. The outputs are:

- in-memory fits in all three modes, with both links, 1 and 3 outputs,
  on shared, multi-view and homogenized data: the fitted parameters,
  each `FitReport` field and the predictions on held-out rows;
- the CLI pipeline ``generate -> train -> predict -> evaluate``: every
  file it writes;
- a four-learner sweep over degrees 1-3: the rows and the plot data;
- a KRR fit with more polynomial features than rows, so that it takes the
  dual path, which no sweep point takes: the predictions on held-out rows.

Wall-clock fields (`FitReport.seconds`, ``train_seconds`` rows) are left
out, since they differ from run to run. Reruns are exact at a fixed BLAS
thread count (the KRR dual-path prediction moves between 1 and 2 OpenBLAS
threads), so stderr names the BLAS thread variables and the CPU count.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tensorpoly import Dataset, TrainConfig, fit, predict  # noqa: E402
from tensorpoly.baselines import krr_fit, krr_predict  # noqa: E402
from tensorpoly.benchmark import run_benchmark  # noqa: E402
from tensorpoly.cli import main as cli_main  # noqa: E402
from tensorpoly.io import jsonable  # noqa: E402

TIMING_KEYS = ("seconds", "train_seconds")


def digest(obj):
    """sha256 of ``obj`` as canonical JSON (arrays as nested lists, floats at full precision)."""
    text = json.dumps(jsonable(obj), sort_keys=True, allow_nan=False, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def fit_data(kind, n_y, link):
    """Train and test datasets of one kind (shared, multiview, homogenized) with ``n_y``
    outputs, binary labels for the logistic link."""
    rng = np.random.default_rng(["shared", "multiview", "homogenized"].index(kind) * 10 + n_y)
    m = 240
    views = [rng.standard_normal((m, 3))]
    if kind == "multiview":
        views.append(rng.standard_normal((m, 2)))
    signal = views[0][:, :1] * views[-1][:, -1:] + 0.5 * views[0][:, 1:2]
    Y = signal * rng.standard_normal((1, n_y)) + 0.1 * rng.standard_normal((m, n_y))
    if link == "logistic":
        Y = (Y > 0).astype(float)
    cut = 200
    return (Dataset(views=[V[:cut] for V in views], Y=Y[:cut]),
            Dataset(views=[V[cut:] for V in views], Y=Y[cut:]))


def fit_outputs():
    for kind in ("shared", "multiview", "homogenized"):
        for n_y in (1, 3):
            for link in ("identity", "logistic"):
                train, test = fit_data(kind, n_y, link)
                for mode, blocks in (("joint", None), ("layered", [1, 2]), ("rank_wise", None)):
                    config = TrainConfig(n_d=2, n_t=3, epochs=4, batch_size=40, mode=mode,
                                         rank_blocks=blocks, link=link, seed=5,
                                         homogenize=kind == "homogenized")
                    model, report = fit(train, config)
                    label = f"fit/{kind}/n_y={n_y}/{link}/{mode}"
                    yield f"{label}/model", [model.P, model.Q, model.lam]
                    for key, value in vars(report).items():
                        if key not in TIMING_KEYS:
                            yield f"{label}/report.{key}", value
                    yield f"{label}/predict", predict(model, test.views)


def cli_outputs():
    config = {"generator": {"n": 3, "degree": 2, "rank": 2, "m": 300, "test_m": 100,
                            "noise": 0.1, "seed": 3},
              "train": {"n_d": 2, "n_t": 2, "epochs": 3, "batch_size": 50, "mode": "joint",
                        "seed": 1}}
    steps = [["generate", "--config", "cfg.json", "--out", "data"],
             ["train", "--config", "cfg.json", "--data", "data/train.csv", "--out", "fit"],
             ["predict", "--model", "fit/model.json", "--input", "data/test.csv",
              "--out", "pred"],
             ["evaluate", "--predictions", "pred/predictions.csv", "--truth", "data/test.csv",
              "--out", "eval"]]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # relative paths, so the manifest does not name the temp directory
        try:
            Path("cfg.json").write_text(json.dumps(config))
            for argv in steps:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(argv)
                yield f"cli/{argv[0]}/exit", code
            for path in sorted(Path(".").rglob("*")):
                if path.is_file() and path.name != "cfg.json":
                    if path.suffix == ".json":
                        content = json.loads(path.read_text())
                        for key in TIMING_KEYS:
                            content.pop(key, None)
                        yield f"cli/{path}", content
                    else:
                        yield f"cli/{path}", path.read_text()
        finally:
            os.chdir(cwd)


def sweep_outputs():
    rows, plot = run_benchmark({
        "sweep": {"variable": "degree", "values": [1, 2, 3]},
        "base": {"n": 3, "degree": 2, "rank": 2, "m": 60, "noise": 0.1, "seed": 4},
        "train": {"epochs": 3, "batch_size": 20},
        "learners": ["ltr", "lr", "krr", "fm"], "folds": 2,
        "fm": {"steps": 4, "restarts": 1}})
    for learner in dict.fromkeys(row[0] for row in rows):
        yield f"sweep/rows/{learner}", [row for row in rows
                                        if row[0] == learner and row[3] not in TIMING_KEYS]
    for metrics in plot["series"].values():
        for key in TIMING_KEYS:
            metrics.pop(key, None)
    yield "sweep/plot", plot


def krr_outputs():
    # 20 inputs at degree 3 have C(23, 3) = 1,771 features against 200 rows
    rng = np.random.default_rng(8)
    X = rng.standard_normal((240, 20))
    y = X[:, 0] * X[:, 1] * X[:, 2] + 0.5 * X[:, 3] + 0.1 * rng.standard_normal(240)
    model = krr_fit(Dataset(views=[X[:200]], Y=y[:200]), n_d=3)
    yield "krr/dual/predict", krr_predict(model, X[200:])


def main():
    # a rerun is exact at a fixed BLAS thread count, so stderr names the one of this run
    threads = [f"{key}={os.environ.get(key, 'unset')}"
               for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")]
    print(*threads, f"nproc={len(os.sched_getaffinity(0))}", file=sys.stderr)
    for outputs in (fit_outputs, cli_outputs, sweep_outputs, krr_outputs):
        for label, value in outputs():
            print(label, digest(value))


if __name__ == "__main__":
    main()
