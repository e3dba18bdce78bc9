"""Command-line interface.

Subcommands: generate, train, predict, evaluate, benchmark, gradcheck.
Every run is driven by a JSON config file plus a few override flags;
exit codes are 0 (success), 1 (check failure), 2 (usage or I/O error).
"""

from __future__ import annotations

import argparse
import csv
import io as _stdio
import json
import os
import sys

import numpy as np

from . import gradcheck as gradcheck_mod
from . import io as tio
from .benchmark import run_benchmark
from .datagen import GeneratorSpec, generate_model, sample_dataset, quadratics_dataset, QUADRATIC_FUNCTIONS
from .metrics import accuracy, f1_multilabel, pearson, rmse, top_k_binarize
from .model import Dataset, predict
from .training import TrainConfig, TrainingDivergedError, fit


class CliError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def _load_config(path, sections=()):
    """The JSON object in ``path``; each named section, if present, must be an object too."""
    if path is None:
        return {}
    try:
        cfg = tio.read_json(path)
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise CliError(f"config file {path} must hold a JSON object, got {type(cfg).__name__}")
    for name in sections:
        if not isinstance(cfg.get(name, {}), dict):
            raise CliError(f"config section {name!r} in {path} must be a JSON object")
    return cfg


def _apply_overrides(section, args, mapping):
    out = dict(section)
    for flag, key in mapping.items():
        value = getattr(args, flag, None)
        if value is not None:
            out[key] = value
    return out


TRAIN_OVERRIDES = {
    "seed": "seed",
    "degree": "n_d",
    "rank": "n_t",
    "epochs": "epochs",
    "batch": "batch_size",
    "lr": "learning_rate",
}


def _out_path(args, name):
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def cmd_generate(args):
    cfg = _load_config(args.config, ("generator",))
    gen = _apply_overrides(
        cfg.get("generator", {}),
        args,
        {"seed": "seed", "degree": "degree", "rank": "rank"},
    )
    gtype = gen.get("type", "random")
    m = int(gen.get("m", 1000))
    test_m = int(gen.get("test_m", m))
    seed = int(gen.get("seed", 0))
    test_seed = seed + 1_000_003

    true_model_file = None
    if gtype == "random":
        spec = GeneratorSpec(
            n=int(gen.get("n", 2)),
            n_d=int(gen.get("degree", 2)),
            n_t=int(gen.get("rank", 2)),
            m=m,
            noise_level=float(gen.get("noise", 0.0)),
            seed=seed,
        )
        model = generate_model(spec)
        train = sample_dataset(model, m, spec.noise_level, seed=seed)
        test = sample_dataset(model, test_m, spec.noise_level, seed=test_seed)
        true_model_file = _out_path(args, "true_model.json")
        tio.save_model(true_model_file, model)
    elif gtype == "quadratics":
        fn = gen.get("function", "xy")
        if fn not in QUADRATIC_FUNCTIONS:
            raise CliError(f"unknown quadratics function {fn!r}")
        train = quadratics_dataset(fn, m, seed=seed)
        test = quadratics_dataset(fn, test_m, seed=test_seed)
    else:
        raise CliError(f"unknown generator type {gtype!r}")

    train_file = _out_path(args, "train.csv")
    test_file = _out_path(args, "test.csv")
    tio.write_dataset_csv(train_file, train.X, train.Y)
    tio.write_dataset_csv(test_file, test.X, test.Y)
    manifest = {
        "schema_version": 1,
        "generator": gen | {"type": gtype, "m": m, "test_m": test_m, "seed": seed},
        "files": {"train": train_file, "test": test_file},
        "true_model": true_model_file,
    }
    tio.write_json(_out_path(args, "manifest.json"), manifest)
    print(f"wrote {train_file} ({train.m} rows), {test_file} ({test.m} rows)")
    return 0


def _read_training_data(args, cfg):
    data_cfg = cfg.get("data", {})
    data_path = args.data or data_cfg.get("train")
    view_paths = args.views or data_cfg.get("views")
    labels_path = args.labels or data_cfg.get("labels")
    if data_path:
        X, Y = _read_csv_checked(data_path)
        if X is None or Y is None:
            raise CliError(f"{data_path}: need both x* and y* columns for training")
        return Dataset(views=[X], Y=Y)
    if view_paths:
        if not labels_path:
            raise CliError("multi-view training needs --labels with the shared outputs")
        views = []
        for p in view_paths:
            X, _ = _read_csv_checked(p)
            if X is None:
                raise CliError(f"{p}: view file has no x* columns")
            views.append(X)
        _, Y = _read_csv_checked(labels_path)
        if Y is None:
            raise CliError(f"{labels_path}: labels file has no y* columns")
        return Dataset(views=views, Y=Y)
    raise CliError("no training data: pass --data or --views/--labels (or set them in the config)")


def _read_csv_checked(path):
    if not os.path.exists(path):
        raise CliError(f"dataset file not found: {path}")
    return tio.read_dataset_csv(path)


def cmd_train(args):
    cfg = _load_config(args.config, ("data", "train"))
    dataset = _read_training_data(args, cfg)
    train_cfg = _apply_overrides(cfg.get("train", {}), args, TRAIN_OVERRIDES)
    try:
        config = TrainConfig(**train_cfg)
    except TypeError as exc:
        raise CliError(f"bad train config: {exc}")
    try:
        model, report = fit(dataset, config)
    except TrainingDivergedError as exc:
        print(f"training diverged at epoch {exc.epoch}", file=sys.stderr)
        return 1
    model_file = _out_path(args, "model.json")
    report_file = _out_path(args, "report.json")
    tio.save_model(model_file, model)
    tio.write_json(report_file, report.to_dict())
    print(f"wrote {model_file} and {report_file}")
    return 0


def cmd_predict(args):
    if not os.path.exists(args.model):
        raise CliError(f"model file not found: {args.model}")
    model = tio.load_model(args.model)
    if args.views:
        views = []
        for p in args.views:
            X, _ = _read_csv_checked(p)
            views.append(X)
    else:
        if not args.input:
            raise CliError("predict needs --input or --views")
        X, _ = _read_csv_checked(args.input)
        if X is None:
            raise CliError(f"{args.input}: no x* columns")
        views = [X]
    if views[0].shape[0] == 0:
        yhat = np.zeros((0, model.n_y))
    else:
        try:
            yhat = predict(model, views)
        except ValueError as exc:
            raise CliError(f"prediction input mismatch: {exc}")
    out_file = _out_path(args, "predictions.csv")
    tio.write_predictions_csv(out_file, yhat)
    print(f"wrote {out_file} ({yhat.shape[0]} rows)")
    return 0


def cmd_evaluate(args):
    _, yhat = _read_csv_checked(args.predictions)
    if yhat is None:
        raise CliError(f"{args.predictions}: no y* columns")
    _, ytrue = _read_csv_checked(args.truth)
    if ytrue is None:
        raise CliError(f"{args.truth}: no y* columns")
    if yhat.shape[0] != ytrue.shape[0]:
        raise CliError(
            f"row mismatch: predictions have {yhat.shape[0]}, truth has {ytrue.shape[0]}"
        )
    if args.task == "regression":
        cols_p = [pearson(ytrue[:, j], yhat[:, j]) for j in range(ytrue.shape[1])]
        cols_r = [rmse(ytrue[:, j], yhat[:, j]) for j in range(ytrue.shape[1])]
        metrics = {"pearson": float(np.mean(cols_p)), "rmse": float(np.mean(cols_r))}
    elif args.task == "classification":
        metrics = {
            "accuracy": accuracy(ytrue.reshape(-1), yhat.reshape(-1)),
            "micro_f1": f1_multilabel(
                ytrue.astype(int), (yhat >= 0.5).astype(int)
            ),
        }
    else:  # multilabel
        if args.topk:
            pred_bin = top_k_binarize(yhat, args.topk)
        else:
            pred_bin = (yhat >= 0.5).astype(int)
        metrics = {"micro_f1": f1_multilabel(ytrue.astype(int), pred_bin)}
    out_file = _out_path(args, "metrics.json")
    tio.write_json(out_file, metrics)
    print(json.dumps(tio.jsonable(metrics)))
    return 0


def cmd_benchmark(args):
    cfg = _load_config(args.config, ("base", "sweep", "train", "krr", "fm"))
    base = _apply_overrides(
        cfg.get("base", {}), args, {"seed": "seed", "degree": "degree", "rank": "rank"}
    )
    if base:  # an absent base stays absent, so run_benchmark names it
        cfg["base"] = base
    cfg["train"] = _apply_overrides(
        cfg.get("train", {}), args, {"epochs": "epochs", "batch": "batch_size", "lr": "learning_rate"}
    )
    try:
        rows, plot_data = run_benchmark(cfg)
    except ValueError as exc:
        raise CliError(str(exc))
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["learner", "variable", "value", "metric", "mean", "stderr", "status"])
    for learner, variable, value, metric, mean, stderr, status in rows:
        writer.writerow(
            [learner, variable, repr(value), metric, repr(float(mean)), repr(float(stderr)), status]
        )
    results_file = _out_path(args, "results.csv")
    tio._atomic_write(results_file, buf.getvalue())
    tio.write_json(_out_path(args, "plot.json"), plot_data)
    print(f"wrote {results_file} ({len(rows)} rows)")
    return 0


def cmd_gradcheck(args):
    cfg = _load_config(args.config)
    grid = cfg.get("grid")
    if grid is not None:
        grid = [(int(n_d), int(n_y), bool(mv)) for n_d, n_y, mv in grid]
    records = gradcheck_mod.run_suite(
        grid=grid, h=float(cfg.get("h", 1e-5)), corrupt=args.corrupt
    )
    worst = {}
    failed = []
    for rec in records:
        shape = f"n_d={rec['n_d']} n_y={rec['n_y']} multiview={rec['multiview']}"
        for group, err in rec["errors"].items():
            worst[group] = max(worst.get(group, 0.0), err)
            if err > gradcheck_mod.TOLERANCE:
                failed.append((shape, group, err, rec["indices"][group]))
    for group in ("lambda", "P", "Q"):
        print(f"{group}: max relative error {worst.get(group, 0.0):.3e}")
    if failed:
        for shape, group, err, index in failed:
            print(
                f"FAIL {group}{list(index)} at {shape}: {err:.3e}",
                file=sys.stderr,
            )
        return 1
    print(f"all {len(records)} shapes within {gradcheck_mod.TOLERANCE:g}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tensorpoly",
        description="Polynomial function learning via rank-one tensor terms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run config")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory (default: current)")
        p.add_argument("--degree", type=int, help="override polynomial degree")
        p.add_argument("--rank", type=int, help="override rank (number of terms)")
        p.add_argument("--epochs", type=int, help="override epoch count")
        p.add_argument("--batch", type=int, help="override mini-batch size")
        p.add_argument("--lr", type=float, help="override learning rate")

    p = sub.add_parser("generate", help="write synthetic train/test CSVs plus a manifest")
    common(p)

    p = sub.add_parser("train", help="fit a model and write model/report JSON")
    common(p)
    p.add_argument("--data", help="single CSV with x* and y* columns")
    p.add_argument("--views", nargs="+", help="one CSV per view (multi-view)")
    p.add_argument("--labels", help="shared outputs CSV for multi-view training")

    p = sub.add_parser("predict", help="write predictions for an input CSV")
    common(p)
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--input", help="input CSV (x* columns)")
    p.add_argument("--views", nargs="+", help="one CSV per view (multi-view)")

    p = sub.add_parser("evaluate", help="compare predictions against ground truth")
    common(p)
    p.add_argument("--predictions", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument(
        "--task",
        choices=["regression", "classification", "multilabel"],
        default="regression",
    )
    p.add_argument("--topk", type=int, help="top-k binarization for multilabel")

    p = sub.add_parser("benchmark", help="run a one-variable sweep with cross-validation")
    common(p)

    p = sub.add_parser("gradcheck", help="finite-difference check of the analytic gradients")
    common(p)
    p.add_argument(
        "--corrupt",
        choices=["flip-q"],
        help="negate the analytic Q gradient first (detector self-test)",
    )
    return parser


COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "benchmark": cmd_benchmark,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
