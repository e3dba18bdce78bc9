"""Command-line interface.

Subcommands: generate, train, predict, evaluate, benchmark, gradcheck.
Every run is driven by a JSON config file plus a few override flags;
exit codes are 0 (success), 1 (check failure), 2 (usage or I/O error).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import gradcheck as gradcheck_mod
from . import io as tio
from .benchmark import run_benchmark
from .datagen import GeneratorSpec, generate_model, sample_dataset, quadratics_dataset
from .metrics import accuracy, column_scores, f1_multilabel, top_k_binarize
from .model import Dataset, integral, predict
from .training import TrainConfig, TrainingDivergedError, fit


class CliError(Exception):
    """A usage or input error: `main` prints its one-line message and returns 2."""


def _load_config(path, schema=tio.RUN_CONFIG):
    """The JSON object in ``path``, checked against ``schema`` by `io.check_config`."""
    if path is None:
        return {}
    try:
        cfg = tio.read_json(path)
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path} is not valid JSON: {exc}")
    tio.check_config(cfg, schema)
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
    cfg = _load_config(args.config)
    gen = _apply_overrides(
        cfg.get("generator", {}),
        args,
        {"seed": "seed", "degree": "degree", "rank": "rank"},
    )
    gtype = gen.get("type", "random")
    if not isinstance(gtype, str) or gtype not in tio.GENERATOR_KEYS:
        raise CliError(f"unknown generator type {gtype!r}")
    tio.check_config(gen, dict.fromkeys(tio.GENERATOR_KEYS[gtype]), f"{gtype} generator")
    m = integral("m", gen.get("m", 1000))
    test_m = integral("test_m", gen.get("test_m", m))
    seed = integral("seed", gen.get("seed", 0), 0)
    test_seed = seed + 1_000_003

    true_model_file = None
    if gtype == "random":
        spec = GeneratorSpec(
            n=integral("n", gen.get("n", 2)),
            n_d=integral("degree", gen.get("degree", 2)),
            n_t=integral("rank", gen.get("rank", 2)),
            m=m,
            noise_level=gen.get("noise", 0.0),
            seed=seed,
        )
        model = generate_model(spec)
        train = sample_dataset(model, m, spec.noise_level, seed=seed)
        test = sample_dataset(model, test_m, spec.noise_level, seed=test_seed)
        true_model_file = _out_path(args, "true_model.json")
        tio.save_model(true_model_file, model)
    else:
        fn = gen.get("function", "xy")
        train = quadratics_dataset(fn, m, seed=seed)
        test = quadratics_dataset(fn, test_m, seed=test_seed)

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
    for key, value in data_cfg.items():
        paths = value if key == "views" else [value]
        if not isinstance(paths, list) or not paths or not all(isinstance(p, str) for p in paths):
            kind = "a non-empty list of paths" if key == "views" else "a path"
            raise CliError(f"data.{key} must be {kind}, got {value!r}")
    data_path = args.data or data_cfg.get("train")
    view_paths = args.views or data_cfg.get("views")
    labels_path = args.labels or data_cfg.get("labels")
    if data_path:
        X, Y = _read_csv_checked(data_path, "xy")
        return Dataset(views=[X], Y=Y)
    if view_paths:
        if not labels_path:
            raise CliError("multi-view training needs --labels with the shared outputs")
        views = [_read_csv_checked(p, "x")[0] for p in view_paths]
        return Dataset(views=views, Y=_read_csv_checked(labels_path, "y")[1])
    raise CliError("no training data: pass --data or --views/--labels (or set them in the config)")


def _read_csv_checked(path, need):
    """``(X, Y)`` of the CSV at ``path``; each column group in ``need`` ("x", "y") must be present."""
    X, Y = tio.read_dataset_csv(path)
    for group, A in zip("xy", (X, Y)):
        if group in need and A is None:
            raise CliError(f"{path}: no {group}* columns")
    return X, Y


def cmd_train(args):
    cfg = _load_config(args.config)
    dataset = _read_training_data(args, cfg)
    config = TrainConfig(**_apply_overrides(cfg.get("train", {}), args, TRAIN_OVERRIDES))
    try:
        model, report = fit(dataset, config)
    except TrainingDivergedError as exc:
        print(f"training diverged at epoch {exc.epoch} in phase {exc.phase}", file=sys.stderr)
        return 1
    model_file = _out_path(args, "model.json")
    report_file = _out_path(args, "report.json")
    tio.save_model(model_file, model)
    tio.write_json(report_file, vars(report))
    print(f"wrote {model_file} and {report_file}")
    return 0


def cmd_predict(args):
    model = tio.load_model(args.model)
    views = [_read_csv_checked(p, "x")[0] for p in args.views]
    try:
        yhat = predict(model, views)
    except ValueError as exc:
        raise CliError(f"prediction input mismatch: {exc}")
    out_file = _out_path(args, "predictions.csv")
    tio.write_predictions_csv(out_file, yhat)
    print(f"wrote {out_file} ({yhat.shape[0]} rows)")
    return 0


def cmd_evaluate(args):
    yhat = _read_csv_checked(args.predictions, "y")[1]
    ytrue = _read_csv_checked(args.truth, "y")[1]
    if yhat.shape != ytrue.shape:
        raise CliError(f"shape mismatch: predictions are {yhat.shape}, truth is {ytrue.shape}")
    if args.task == "regression":
        metrics = dict(zip(("pearson", "rmse"), column_scores(ytrue, yhat)))
    elif args.task == "classification":
        metrics = {
            "accuracy": accuracy(ytrue.reshape(-1), yhat.reshape(-1)),
            "micro_f1": f1_multilabel(
                ytrue.astype(int), (yhat >= 0.5).astype(int)
            ),
        }
    else:  # multilabel
        if args.topk is None:
            pred_bin = (yhat >= 0.5).astype(int)
        else:
            pred_bin = top_k_binarize(yhat, integral("--topk", args.topk, 1))
        metrics = {"micro_f1": f1_multilabel(ytrue.astype(int), pred_bin)}
    out_file = _out_path(args, "metrics.json")
    tio.write_json(out_file, metrics)
    print(json.dumps(tio.jsonable(metrics)))
    return 0


def cmd_benchmark(args):
    cfg = _load_config(args.config)
    base = _apply_overrides(
        cfg.get("base", {}), args, {"seed": "seed", "degree": "degree", "rank": "rank"}
    )
    if base:  # an absent base stays absent, so run_benchmark names it
        cfg["base"] = base
    cfg["train"] = _apply_overrides(
        cfg.get("train", {}), args, {"epochs": "epochs", "batch": "batch_size", "lr": "learning_rate"}
    )
    rows, plot_data = run_benchmark(cfg)
    results_file = _out_path(args, "results.csv")
    tio.write_results_csv(results_file, rows)
    tio.write_json(_out_path(args, "plot.json"), plot_data)
    print(f"wrote {results_file} ({len(rows)} rows)")
    return 0


def _flag(name, value):
    """``value`` as a bool; a CliError unless it is true, false, 0 or 1."""
    if isinstance(value, bool) or type(value) is int and value in (0, 1):
        return bool(value)
    raise CliError(f"{name} must be true, false, 0 or 1, got {value!r}")


def cmd_gradcheck(args):
    cfg = _load_config(args.config, {"grid": None})
    grid = cfg.get("grid")
    if grid is not None:
        if not isinstance(grid, list) or not grid or not all(
                isinstance(e, list) and len(e) == 3 for e in grid):
            raise CliError("gradcheck grid must be a list of [n_d, n_y, multiview] entries")
        grid = [(integral("grid n_d", n_d), integral("grid n_y", n_y), _flag("grid multiview", mv))
                for n_d, n_y, mv in grid]
    rows = gradcheck_mod.run_suite(grid=grid)
    for group in ("lambda", "P", "Q"):
        worst = max([0.0] + [err for _, g, err, _ in rows if g == group])
        print(f"{group}: max relative error {worst:.3e}")
    failed = [row for row in rows if row[2] > gradcheck_mod.TOLERANCE]
    for (n_d, n_y, multiview), group, err, index in failed:
        print(f"FAIL {group}{list(index)} at n_d={n_d} n_y={n_y} multiview={multiview}: "
              f"{err:.3e}", file=sys.stderr)
    if failed:
        return 1
    print(f"all {len(rows) // 3} shapes within {gradcheck_mod.TOLERANCE:g}")
    return 0


SHARED_FLAGS = {
    "config": dict(help="JSON run config"),
    "seed": dict(type=int, help="override the config seed"),
    "out": dict(help="output directory (default: current)"),
    "degree": dict(type=int, help="override polynomial degree"),
    "rank": dict(type=int, help="override rank (number of terms)"),
    "epochs": dict(type=int, help="override epoch count"),
    "batch": dict(type=int, help="override mini-batch size"),
    "lr": dict(type=float, help="override learning rate"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tensorpoly",
        description="Polynomial function learning via rank-one tensor terms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p, *names):
        """Attach the shared flags in ``names``: exactly the ones the subcommand reads."""
        for name in names:
            p.add_argument(f"--{name}", **SHARED_FLAGS[name])

    p = sub.add_parser("generate", help="write synthetic train/test CSVs plus a manifest")
    shared(p, "config", "seed", "out", "degree", "rank")

    p = sub.add_parser("train", help="fit a model and write model/report JSON")
    shared(p, *SHARED_FLAGS)
    p.add_argument("--data", help="single CSV with x* and y* columns")
    p.add_argument("--views", nargs="+", help="one CSV per view (multi-view)")
    p.add_argument("--labels", help="shared outputs CSV for multi-view training")

    p = sub.add_parser("predict", help="write predictions for an input CSV")
    shared(p, "out")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--input", "--views", dest="views", nargs="+", required=True, metavar="CSV",
                   help="input CSV (x* columns), or one CSV per view (multi-view)")

    p = sub.add_parser("evaluate", help="compare predictions against ground truth")
    shared(p, "out")
    p.add_argument("--predictions", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument(
        "--task",
        choices=["regression", "classification", "multilabel"],
        default="regression",
    )
    p.add_argument("--topk", type=int, help="top-k binarization for multilabel")

    p = sub.add_parser("benchmark", help="run a one-variable sweep with cross-validation")
    shared(p, *SHARED_FLAGS)

    p = sub.add_parser("gradcheck", help="finite-difference check of the analytic gradients")
    shared(p, "config")
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
    except (CliError, OSError, ValueError) as exc:  # OSError: any file error names its path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
