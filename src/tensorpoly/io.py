"""File formats: dataset/prediction/benchmark CSVs and model/report JSON.

CSV files carry a header of feature columns ``x1..xn`` followed by
output columns (``y`` for a single output, ``y1..yn_y`` otherwise).
Floats are serialized at full round-trip precision. All writes go
through a temp file plus rename so failures never leave partial output.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import tempfile
import warnings
from dataclasses import fields
from io import StringIO

import numpy as np

from .datagen import GeneratorSpec
from .model import LtrModel, integral, real
from .training import TrainConfig

MODEL_SCHEMA_VERSION = 1

# generator type -> the generator keys it reads; `generate` rejects any other
GENERATOR_KEYS = {"random": ("type", "n", "degree", "rank", "m", "test_m", "noise", "seed"),
                  "quadratics": ("type", "m", "test_m", "seed", "function")}


def generator_spec(section, seed):
    """The `GeneratorSpec` that a random generator section, or a sweep's base section at one
    grid point, sets with ``seed``; ``m`` must be set, and a ValueError names a bad key."""
    n, n_d, n_t = (integral(key, section.get(key, 2)) for key in ("n", "degree", "rank"))
    noise = section.get("noise", 0.0)
    if real("noise", noise) < 0:
        raise ValueError(f"noise must be nonnegative, got {noise!r}")
    # GeneratorSpec checks m and seed under these same names
    return GeneratorSpec(n=n, n_d=n_d, n_t=n_t, m=section["m"], noise_level=noise, seed=seed)


# The keys a run config may hold: a section maps to its known keys, a plain
# value to None. `generate --config` also re-runs from a manifest's keys.
RUN_CONFIG = {
    "generator": tuple(dict.fromkeys(GENERATOR_KEYS["random"] + GENERATOR_KEYS["quadratics"])),
    "train": tuple(f.name for f in fields(TrainConfig)),
    "base": ("n", "degree", "rank", "m", "noise", "seed"),
    "sweep": ("variable", "values"),
    "fm": ("steps", "restarts"),
    **dict.fromkeys(("learners", "folds", "schema_version", "files", "true_model")),
}
# The keys a model file may hold, all plain values
MODEL_KEYS = dict.fromkeys(("schema_version", "n_d", "n_t", "n", "n_y", "homogenized", "lambda",
                            "P", "Q", "link"))


def _atomic_write(path, text):
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _rows_to_csv(header, rows):
    # one bulk %-format call; "%r" of a Python float is its shortest round-trip repr
    line = ",".join(["%r"] * rows.shape[1]) + "\n"
    return ",".join(header) + "\n" + (line * rows.shape[0]) % tuple(rows.ravel().tolist())


def _y_names(n_y):
    return ["y"] if n_y == 1 else [f"y{j + 1}" for j in range(n_y)]


def write_dataset_csv(path, X, Y=None):
    """Write features (and outputs, if given) to one CSV."""
    X = np.asarray(X, dtype=float)
    header = [f"x{j + 1}" for j in range(X.shape[1])]
    if Y is None:
        rows = X
    else:
        Y = np.asarray(Y, dtype=float)
        Y = Y.reshape(-1, 1) if Y.ndim == 1 else Y
        header += _y_names(Y.shape[1])
        rows = np.hstack([X, Y])
    _atomic_write(path, _rows_to_csv(header, rows))


def write_predictions_csv(path, Y):
    Y = np.asarray(Y, dtype=float)
    Y = Y.reshape(-1, 1) if Y.ndim == 1 else Y
    _atomic_write(path, _rows_to_csv(_y_names(Y.shape[1]), Y))


def write_results_csv(path, rows):
    """Write benchmark rows ``(learner, variable, value, metric, mean, stderr, status)``;
    values and statistics as their round-trip repr, fields quoted where CSV needs it."""
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["learner", "variable", "value", "metric", "mean", "stderr", "status"])
    for learner, variable, value, metric, mean, stderr, status in rows:
        writer.writerow(
            [learner, variable, repr(value), metric, repr(float(mean)), repr(float(stderr)), status]
        )
    _atomic_write(path, buf.getvalue())


def read_dataset_csv(path):
    """Read a CSV with x*/y* header into (X, Y); Y is None without y columns."""
    with open(path) as fh:
        header = next(csv.reader([fh.readline()]), [])
        x_idx = [i for i, name in enumerate(header) if name.strip().startswith("x")]
        y_idx = [i for i, name in enumerate(header) if name.strip().startswith("y")]
        if not x_idx and not y_idx:
            raise ValueError(f"{path}: header has no x*/y* columns")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None, quotechar='"')
        except ValueError as exc:  # drop loadtxt's data-row index (not a file line) and advice
            msg = re.sub(r" at row [0-9]+|; use `usecols`.*", "", str(exc))
            raise ValueError(f"{path}: {msg}") from None
    if data.size and data.shape[1] != len(header):
        raise ValueError(f"{path}: rows have {data.shape[1]} columns, header has {len(header)}")
    data = data.reshape(-1, len(header))
    X = data.take(x_idx, axis=1) if x_idx else None  # C-order for the fit's row gathers
    Y = data.take(y_idx, axis=1) if y_idx else None
    return X, Y


def _shape_keys(model):
    """The shape keys of a model file: degree, rank, input width(s) and outputs."""
    dims = model.dims
    return {"n_d": model.n_d, "n_t": model.n_t, "n": dims[0] if len(set(dims)) == 1 else list(dims),
            "n_y": model.n_y}


def model_to_dict(model):
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        **_shape_keys(model),
        "homogenized": bool(model.homogenized),
        "lambda": [float(v) for v in model.lam],
        "P": [[[float(v) for v in row] for row in Pd] for Pd in model.P],
        "Q": [[float(v) for v in row] for row in model.Q],
        "link": model.link,
    }


def model_from_dict(d):
    if not isinstance(d, dict):
        raise ValueError(f"model file must hold a JSON object, got {type(d).__name__}")
    if d.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema version {d.get('schema_version')!r}")
    check_config(d, MODEL_KEYS, "model file")
    for key in ("P", "Q", "lambda", "homogenized"):
        if key not in d:
            raise ValueError(f"model file is missing key {key!r}")
    model = LtrModel(P=d["P"], Q=d["Q"], lam=d["lambda"], homogenized=d["homogenized"],
                     link=d.get("link", "identity"))
    for key, value in _shape_keys(model).items():
        if key in d and d[key] != value:
            raise ValueError(f"model file says {key}={d[key]!r}, its factors give {value!r}")
    return model


def check_config(cfg, schema, where="config"):
    """A ValueError unless ``cfg`` is an object of keys in ``schema`` whose
    sections (the keys that map to a tuple) are objects of keys in that tuple."""
    if not isinstance(cfg, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(cfg).__name__}")
    for key, value in cfg.items():
        if key not in schema:
            raise ValueError(f"unknown {where} key {key!r}; known keys: {', '.join(schema)}")
        if schema[key] is not None:
            check_config(value, dict.fromkeys(schema[key]), f"{key} section")


def jsonable(obj):
    """Recursively convert to JSON-safe values; NaN/inf become null."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def write_json(path, obj):
    _atomic_write(path, json.dumps(jsonable(obj), indent=2) + "\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def save_model(path, model):
    write_json(path, model_to_dict(model))


def load_model(path):
    return model_from_dict(read_json(path))
