"""Benchmark sweeps: generate data, cross-validate learners, tabulate.

One sweep varies exactly one of degree / rank / noise / variables /
sample-size over a grid while everything else stays fixed; each grid
point gets its own derived seeds so reruns reproduce the accuracy
columns exactly (timing columns are wall-clock and exempt).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import baselines
from .datagen import generate_model, sample_dataset
from .io import RUN_CONFIG, check_config, generator_spec
from .metrics import cross_validate
from .model import integral, one_of, predict
from .training import TrainConfig, fit

# sweep variable -> the base key it sets
SWEEP_KEYS = {"degree": "degree", "rank": "rank", "noise": "noise", "variables": "n",
              "sample-size": "m"}

LEARNERS = ("ltr", "lr", "krr", "fm")
DEFAULT_LEARNERS = ("ltr", "lr")

THREADS_ENV = "TENSORPOLY_THREADS"


def ltr_learner(config):
    """Learner closure over a TrainConfig."""
    def learn(train):
        model = fit(train, config)[0]
        return lambda test: predict(model, test.views)

    return learn


def krr_learner(**options):
    """Learner closure over `baselines.krr_fit`'s keywords (``n_d``, ``ridge``)."""
    def learn(train):
        model = baselines.krr_fit(train, **options)
        return lambda test: baselines.krr_predict(model, test.X)

    return learn


def linreg_learner():
    def learn(train):
        weights = baselines.linreg_fit(train)
        return lambda test: baselines.linreg_predict(weights, test.X)

    return learn


def fm_learner(n_d, n_t, **options):
    """Learner closure over `baselines.fm_fit_gd`'s keywords (``steps``, ``restarts``)."""
    def learn(train):
        P = baselines.fm_fit_gd(train.X, train.Y[:, 0], n_d=n_d, n_t=n_t, **options)
        return lambda test: baselines.fm_forward(test.X, P, n_d)

    return learn


def _point_params(base, variable, value):
    return base | {SWEEP_KEYS[variable]: value}


def _point_seeds(seed, index):
    state = np.random.SeedSequence(entropy=(int(seed), int(index))).generate_state(3)
    return int(state[0]), int(state[1]), int(state[2])


def _build_learner(name, params, cfg):
    if name == "ltr":
        train_cfg = cfg.get("train", {}) | {"n_d": params["degree"], "n_t": params["rank"]}
        return ltr_learner(TrainConfig(**train_cfg))
    if name == "lr":
        return linreg_learner()
    if name == "krr":
        return krr_learner(n_d=params["degree"])
    # fm is the last of LEARNERS; run_benchmark checked the counts its section sets
    return fm_learner(params["degree"], params["rank"], **cfg.get("fm", {}))


def _run_point(point, variable, folds):
    """The rows of every learner at one grid point, built by `run_benchmark`."""
    value, spec, data_seed, fold_seed, learners = point
    dataset = sample_dataset(generate_model(spec), spec.m, spec.noise_level, seed=data_seed)
    rows = []
    for name, learner in learners:
        try:
            result = cross_validate(dataset, learner, folds, seed=fold_seed)
            stats = [(float(np.mean(v)), float(np.std(v, ddof=1) / np.sqrt(len(v))))  # folds >= 2
                     for v in (result.fold_pearson, result.fold_rmse, result.fit_seconds)]
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
    check_config(cfg, RUN_CONFIG)
    sweep = cfg.get("sweep")
    if not sweep or "variable" not in sweep or "values" not in sweep:
        raise ValueError("benchmark config needs sweep.variable and sweep.values")
    variable = one_of("sweep variable", sweep["variable"], SWEEP_KEYS)
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
    seed = integral("benchmark base.seed", cfg["base"].get("seed", 0), 0)
    folds = integral("benchmark folds", cfg.get("folds", 2), 2)
    threads = os.environ.get(THREADS_ENV, "1")
    if not threads.isdigit() or int(threads) < 1:
        raise ValueError(f"{THREADS_ENV} must be an integer >= 1, got {threads!r}")
    for key, value in cfg.get("fm", {}).items():  # steps and restarts: counts, none truncated
        integral(f"benchmark fm.{key}", value, 1)
    points = []  # every point's data spec and learners, built before the first fit
    for index, value in enumerate(values):
        params = _point_params(cfg["base"], variable, value)
        model_seed, data_seed, fold_seed = _point_seeds(seed, index)
        try:
            spec = generator_spec(params, model_seed)
            if spec.m < folds:
                raise ValueError(f"folds={folds} is more than the m={spec.m} examples")
            built = [(name, _build_learner(name, params, cfg)) for name in learners]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"benchmark config at {variable}={value!r}: {exc}") from exc
        points.append((value, spec, data_seed, fold_seed, built))
    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        per_point = list(pool.map(lambda point: _run_point(point, variable, folds), points))
    rows = [row for point in per_point for row in point]

    series = {}
    for name, _, value, metric, mean, _, status in rows:
        series.setdefault(name, {}).setdefault(metric, []).append(mean if status == "ok" else None)
    plot_data = {"variable": variable, "values": values, "series": series}
    return rows, plot_data
