"""Benchmark sweeps: generate data, cross-validate learners, tabulate.

One sweep varies exactly one of degree / rank / noise / variables /
sample-size over a grid while everything else stays fixed; each grid
point gets its own derived seeds so reruns reproduce the accuracy
columns exactly (timing columns are wall-clock and exempt).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import baselines
from .datagen import GeneratorSpec, generate_model, sample_dataset
from .metrics import _stderr, cross_validate
from .model import integral, predict
from .training import TrainConfig, fit

# sweep variable -> the base key it sets; "sample_size" is an alias of "sample-size"
SWEEP_KEYS = {"degree": "degree", "rank": "rank", "noise": "noise", "variables": "n",
              "sample-size": "m", "sample_size": "m"}

LEARNERS = ("ltr", "lr", "krr", "fm")
DEFAULT_LEARNERS = ("ltr", "lr")

THREADS_ENV = "TENSORPOLY_THREADS"


def _timed_learner(train_fn, predict_fn, fit_seconds):
    """Learner closure around ``train_fn(train)`` and ``predict_fn(fitted, test)``.

    Each fit's seconds are appended to ``fit_seconds`` unless it is None.
    """

    def learn(train):
        t0 = time.perf_counter()
        fitted = train_fn(train)
        if fit_seconds is not None:
            fit_seconds.append(time.perf_counter() - t0)
        return lambda test: predict_fn(fitted, test)

    return learn


def ltr_learner(config, fit_seconds=None):
    """Learner closure over a TrainConfig; optionally records fit times."""
    return _timed_learner(lambda train: fit(train, config)[0],
                          lambda model, test: predict(model, test.views), fit_seconds)


def krr_learner(b=1.0, n_d=2, ridge=1e-8, fit_seconds=None):
    return _timed_learner(lambda train: baselines.krr_fit(train, b=b, n_d=n_d, ridge=ridge),
                          lambda model, test: baselines.krr_predict(model, test.X), fit_seconds)


def linreg_learner(fit_seconds=None):
    return _timed_learner(baselines.linreg_fit,
                          lambda w, test: baselines.linreg_predict(w, test.X), fit_seconds)


def fm_learner(n_d=2, n_t=2, steps=300, learning_rate=0.05, restarts=3, seed=0, fit_seconds=None):
    def train_fn(train):
        return baselines.fm_fit_gd(train.X, train.Y[:, 0], n_d=n_d, n_t=n_t, steps=steps,
                                   learning_rate=learning_rate, restarts=restarts, seed=seed)

    return _timed_learner(train_fn, lambda P, test: baselines.fm_forward(test.X, P, n_d),
                          fit_seconds)


def _point_params(base, variable, value):
    return base | {SWEEP_KEYS[variable]: value}


def _point_seeds(seed, index):
    state = np.random.SeedSequence(entropy=(int(seed), int(index))).generate_state(3)
    return int(state[0]), int(state[1]), int(state[2])


def _build_learner(name, params, cfg, fit_seconds):
    if name == "ltr":
        train_cfg = cfg.get("train", {}) | {"n_d": params["degree"], "n_t": params["rank"]}
        return ltr_learner(TrainConfig(**train_cfg), fit_seconds)
    if name == "lr":
        return linreg_learner(fit_seconds)
    if name == "krr":
        krr_cfg = cfg.get("krr", {})
        return krr_learner(
            b=float(krr_cfg.get("bias", 1.0)),
            n_d=params["degree"],
            ridge=float(krr_cfg.get("ridge", 1e-8)),
            fit_seconds=fit_seconds,
        )
    fm_cfg = cfg.get("fm", {})  # the last of LEARNERS, which run_benchmark checked
    return fm_learner(
        n_d=params["degree"],
        n_t=params["rank"],
        steps=fm_cfg.get("steps", 300),
        learning_rate=float(fm_cfg.get("learning_rate", 0.05)),
        restarts=fm_cfg.get("restarts", 3),
        seed=fm_cfg.get("seed", 0),
        fit_seconds=fit_seconds,
    )


def _run_point(index, value, cfg):
    base = cfg["base"]
    variable = cfg["sweep"]["variable"]
    params = _point_params(base, variable, value)
    model_seed, data_seed, fold_seed = _point_seeds(base.get("seed", 0), index)
    rows = []
    spec = GeneratorSpec(
        n=params["n"],
        n_d=params["degree"],
        n_t=params["rank"],
        m=params["m"],
        noise_level=float(params.get("noise", 0.0)),
        seed=model_seed,
    )
    true_model = generate_model(spec)
    dataset = sample_dataset(true_model, spec.m, spec.noise_level, seed=data_seed)
    folds = cfg.get("folds", 2)
    for name in cfg.get("learners", DEFAULT_LEARNERS):
        fit_seconds = []
        try:
            learner = _build_learner(name, params, cfg, fit_seconds)
            result = cross_validate(dataset, learner, folds, seed=fold_seed)
            stats = [(result.mean_pearson, result.stderr_pearson),
                     (result.mean_rmse, result.stderr_rmse),
                     (float(np.mean(fit_seconds)), _stderr(fit_seconds))]
            status = "ok"
        except Exception as exc:  # keep sweeping, record the failure in-row
            stats, status = [(float("nan"), float("nan"))] * 3, f"failed: {exc}"
        rows += [(name, variable, value, metric, mean, stderr, status)
                 for metric, (mean, stderr) in zip(("pearson", "rmse", "train_seconds"), stats)]
    return rows


def run_benchmark(cfg):
    """Execute a sweep config; returns (rows, plot_data).

    Rows are (learner, variable, value, metric, mean, stderr, status).
    """
    sweep = cfg.get("sweep")
    if not sweep or "variable" not in sweep or "values" not in sweep:
        raise ValueError("benchmark config needs sweep.variable and sweep.values")
    variable = sweep["variable"]
    if not isinstance(variable, str) or variable not in SWEEP_KEYS:
        raise ValueError(f"sweep variable must be one of {tuple(SWEEP_KEYS)}")
    if not isinstance(cfg.get("base"), dict):
        raise ValueError("benchmark config needs a base section")
    missing = {"n", "degree", "rank", "m"} - set(_point_params(cfg["base"], variable, None))
    if missing:
        raise ValueError(f"benchmark base section is missing {sorted(missing)}")
    values = sweep["values"]
    if not isinstance(values, (list, tuple)) or not values:
        raise ValueError(f"benchmark sweep.values must be a non-empty list, got {values!r}")
    values = list(values)
    learners = cfg.get("learners", DEFAULT_LEARNERS)
    if not isinstance(learners, (list, tuple)) or not learners or not all(
            name in LEARNERS for name in learners):
        raise ValueError(f"benchmark learners must be a non-empty list of names from "
                         f"{LEARNERS}, got {learners!r}")
    for value in values:  # every point's sizes are counts; none is truncated
        params = _point_params(cfg["base"], variable, value)
        for key in ("n", "degree", "rank", "m"):
            integral(f"benchmark {key} at {variable}={value!r}", params[key])
    fm = cfg.get("fm", {})
    for name, value, low in (  # counts and seeds outside the sweep; none is truncated
        ("base.seed", cfg["base"].get("seed", 0), 0),
        ("folds", cfg.get("folds", 2), 2),
        ("fm.steps", fm.get("steps", 300), 1),
        ("fm.restarts", fm.get("restarts", 3), 1),
        ("fm.seed", fm.get("seed", 0), 0),
    ):
        integral(f"benchmark {name}", value, low)
    workers = max(1, int(os.environ.get(THREADS_ENV, "1")))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        per_point = list(pool.map(lambda iv: _run_point(*iv, cfg), enumerate(values)))
    rows = [row for point in per_point for row in point]

    series = {}
    for name, _, value, metric, mean, _, status in rows:
        series.setdefault(name, {}).setdefault(metric, []).append(
            mean if status == "ok" else None
        )
    plot_data = {"variable": variable, "values": values, "series": series}
    return rows, plot_data
