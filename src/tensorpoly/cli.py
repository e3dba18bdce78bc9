"""Command-line interface.

Subcommands: generate, train, predict, evaluate, benchmark, gradcheck.
Run values (model, training, generator, sweep) are set only in a JSON run
config and file paths only by flags; exit codes are 0 (success), 1 (check
failure), 2 (usage or I/O error).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import gradcheck as gradcheck_mod
from . import io as tio
from .benchmark import run_benchmark
from .datagen import generate_model, sample_dataset, quadratics_dataset
from .metrics import accuracy, column_scores, f1_multilabel, top_k_binarize
from .model import Dataset, integral, one_of, predict
from .training import TrainConfig, TrainingDivergedError, fit


def _load_config(path):
    """The JSON object in ``path``, {} without one, checked against `io.RUN_CONFIG`."""
    cfg = {} if path is None else tio.read_json(path)
    tio.check_config(cfg, tio.RUN_CONFIG)
    return cfg


def _out_path(args, name):
    return os.path.join(args.out or ".", name)


def cmd_generate(args):
    gen = _load_config(args.config).get("generator", {})
    gtype = one_of("generator type", gen.get("type", "random"), tio.GENERATOR_KEYS)
    tio.check_config(gen, dict.fromkeys(tio.GENERATOR_KEYS[gtype]), f"{gtype} generator")
    m = integral("m", gen.get("m", 1000))
    test_m = integral("test_m", gen.get("test_m", m))
    seed = integral("seed", gen.get("seed", 0), 0)
    test_seed = seed + 1_000_003

    true_model_file = None
    if gtype == "random":
        spec = tio.generator_spec(gen | {"m": m}, seed)
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


def _read_training_data(args):
    if args.data:
        if args.views or args.labels:
            raise ValueError("--data cannot be combined with --views/--labels")
        X, Y = tio.read_dataset_csv(args.data, "xy")
        return Dataset(views=[X], Y=Y)
    if args.views:
        if not args.labels:
            raise ValueError("multi-view training needs --labels with the shared outputs")
        views = [tio.read_dataset_csv(p, "x")[0] for p in args.views]
        return Dataset(views=views, Y=tio.read_dataset_csv(args.labels, "y")[1])
    raise ValueError("no training data: pass --data or --views/--labels")


def cmd_train(args):
    cfg = _load_config(args.config)
    dataset = _read_training_data(args)
    config = TrainConfig(**cfg.get("train", {}))
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
    views = [tio.read_dataset_csv(p, "x")[0] for p in args.views]
    try:
        yhat = predict(model, views)
    except ValueError as exc:
        raise ValueError(f"prediction input mismatch: {exc}") from None
    out_file = _out_path(args, "predictions.csv")
    tio.write_predictions_csv(out_file, yhat)
    print(f"wrote {out_file} ({yhat.shape[0]} rows)")
    return 0


def cmd_evaluate(args):
    if args.topk is not None and args.task != "multilabel":
        raise ValueError("--topk applies to --task multilabel only")
    yhat = tio.read_dataset_csv(args.predictions, "y")[1]
    ytrue = tio.read_dataset_csv(args.truth, "y")[1]
    if yhat.shape != ytrue.shape:
        raise ValueError(f"shape mismatch: predictions are {yhat.shape}, truth is {ytrue.shape}")
    if args.task == "regression":
        metrics = dict(zip(("pearson", "rmse"), column_scores(ytrue, yhat)))
    elif args.task == "classification":
        metrics = {"accuracy": accuracy(ytrue.reshape(-1), yhat.reshape(-1)),
                   "micro_f1": f1_multilabel(ytrue, yhat >= 0.5)}
    else:  # multilabel
        if args.topk is None:
            pred_bin = yhat >= 0.5
        else:
            pred_bin = top_k_binarize(yhat, integral("--topk", args.topk, 1))
        metrics = {"micro_f1": f1_multilabel(ytrue, pred_bin)}
    out_file = _out_path(args, "metrics.json")
    tio.write_json(out_file, metrics)
    print(json.dumps(tio.jsonable(metrics)))
    return 0


def cmd_benchmark(args):
    rows, plot_data = run_benchmark(_load_config(args.config))
    results_file = _out_path(args, "results.csv")
    tio.write_results_csv(results_file, rows)
    tio.write_json(_out_path(args, "plot.json"), plot_data)
    print(f"wrote {results_file} ({len(rows)} rows)")
    return 0


def cmd_gradcheck(args):
    rows = gradcheck_mod.run_suite()
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tensorpoly",
        description="Polynomial function learning via rank-one tensor terms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    config_help, out_help = "JSON run config", "output directory (default: current)"

    p = sub.add_parser("generate", help="write synthetic train/test CSVs plus a manifest")
    p.add_argument("--config", help=config_help)
    p.add_argument("--out", help=out_help)

    p = sub.add_parser("train", help="fit a model and write model/report JSON")
    p.add_argument("--config", help=config_help)
    p.add_argument("--out", help=out_help)
    p.add_argument("--data", help="single CSV with x* and y* columns")
    p.add_argument("--views", nargs="+", help="one CSV per view (multi-view)")
    p.add_argument("--labels", help="shared outputs CSV for multi-view training")

    p = sub.add_parser("predict", help="write predictions for an input CSV")
    p.add_argument("--out", help=out_help)
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--input", "--views", dest="views", nargs="+", required=True, metavar="CSV",
                   help="input CSV (x* columns), or one CSV per view (multi-view)")

    p = sub.add_parser("evaluate", help="compare predictions against ground truth")
    p.add_argument("--out", help=out_help)
    p.add_argument("--predictions", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--task", choices=["regression", "classification", "multilabel"],
                   default="regression")
    p.add_argument("--topk", type=int, help="top-k binarization for multilabel")

    p = sub.add_parser("benchmark", help="run a one-variable sweep with cross-validation")
    p.add_argument("--config", help=config_help)
    p.add_argument("--out", help=out_help)

    sub.add_parser("gradcheck", help="finite-difference check of the analytic gradients")
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
    except (OSError, ValueError) as exc:  # OSError: any file error names its path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError) as exc:  # a run value too large to allocate or index
        print(f"error: {args.command}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
