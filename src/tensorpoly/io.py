"""File formats: dataset/prediction/benchmark CSVs and model/report JSON.

CSV files carry the header `_header` states. Floats are serialized at
full round-trip precision, one block of rows at a time. All writes go
through a temp file plus rename so failures, mid-stream too, never leave
partial output. The readers hold every rule a file must meet, and a file
that breaks one is a ValueError that names its path.
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
from .model import LtrModel, _finite_matrix, integral, real
from .training import TrainConfig

MODEL_SCHEMA_VERSION = 1
CSV_BLOCK = 1 << 16  # numbers formatted per block of rows in a CSV write

# generator type -> the generator keys it reads; `generate` rejects any other
GENERATOR_KEYS = {"random": ("type", "n", "degree", "rank", "m", "test_m", "noise", "seed"),
                  "quadratics": ("type", "m", "test_m", "seed", "function")}


def generator_spec(section, seed):
    """The `GeneratorSpec` that a random generator section, or a sweep's base section at one
    grid point, sets with ``seed``; ``m`` must be set, and a ValueError names a bad key."""
    n, n_d, n_t = (integral(key, section.get(key, 2)) for key in ("n", "degree", "rank"))
    noise = real("noise", section.get("noise", 0.0), 0)
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


def _atomic_write(path, chunks):
    """Write ``chunks``, one str or an iterable of str, to ``path`` through a temp file and a
    rename: a failure, mid-stream too, leaves no temp file and any old ``path`` as it was."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines([chunks] if isinstance(chunks, str) else chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _rows_to_csv(header, *columns):
    """The CSV text of ``header`` over the 2-d ``columns`` side by side: the header line,
    then one bulk %-format call per block of about CSV_BLOCK numbers."""
    width = sum(c.shape[1] for c in columns)
    line = ",".join(["%r"] * width) + "\n"  # "%r" of a Python float: its shortest round-trip repr
    yield ",".join(header) + "\n"
    rows = max(1, CSV_BLOCK // max(1, width))
    for start in range(0, columns[0].shape[0], rows):
        block = np.hstack([c[start:start + rows] for c in columns])
        yield (line * block.shape[0]) % tuple(block.ravel().tolist())


def _header(n_x, n_y):
    """The CSV header of n_x features and n_y outputs: ``x1..xn``, then ``y`` or ``y1..yk``."""
    return ([f"x{j + 1}" for j in range(n_x)]
            + ["y" if n_y == 1 else f"y{j + 1}" for j in range(n_y)])


def write_dataset_csv(path, X, Y=None):
    """Write features (and outputs, if given) to one CSV."""
    X = np.asarray(X, dtype=float)
    Y = np.empty((X.shape[0], 0)) if Y is None else np.asarray(Y, dtype=float)
    Y = Y.reshape(-1, 1) if Y.ndim == 1 else Y
    if Y.shape[0] != X.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows, Y has {Y.shape[0]}")
    _atomic_write(path, _rows_to_csv(_header(X.shape[1], Y.shape[1]), X, Y))


def write_predictions_csv(path, Y):
    Y = np.asarray(Y, dtype=float)
    Y = Y.reshape(-1, 1) if Y.ndim == 1 else Y
    _atomic_write(path, _rows_to_csv(_header(0, Y.shape[1]), Y))


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


def read_dataset_csv(path, need=""):
    """C-order ``(X, Y)`` of the UTF-8 CSV at ``path`` (a byte order mark is dropped), None for
    a group without columns. The header is `_header`'s, names stripped of spaces; each column
    group in ``need`` ("x", "y") must be present and finite."""
    with open(path, encoding="utf-8-sig") as fh:
        try:  # a byte that is not UTF-8, or a row loadtxt cannot parse
            names = [name.strip() for name in next(csv.reader([fh.readline()]), [])]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None, quotechar='"')
        except ValueError as exc:  # drop loadtxt's data-row index (not a file line) and advice
            msg = re.sub(r" at row [0-9]+|; use `usecols`.*", "", str(exc))
            raise ValueError(f"{path}: {msg}") from None
    if data.size and data.shape[1] != len(names):
        raise ValueError(f"{path}: rows have {data.shape[1]} columns, header has {len(names)}")
    n_x = sum(name.startswith("x") for name in names)
    for name, want in zip(names, _header(n_x, len(names) - n_x)):
        if name != want:
            raise ValueError(f"{path}: header has {name!r} where {want!r} goes")
    data = data.reshape(len(data), len(names))  # loadtxt gives a header-only file 1 column
    X, Y = (np.ascontiguousarray(A) if A.shape[1] else None for A in (data[:, :n_x], data[:, n_x:]))
    for group, A in zip("xy", (X, Y)):
        if group in need:
            if A is None:
                raise ValueError(f"{path}: no {group}* columns")
            _finite_matrix(A, f"{path}: {group.upper()}")
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
    for key in ("P", "Q", "lambda"):  # JSON numbers only: numpy would read "1" and true as 1.0
        stack = [d[key]]
        while stack:
            value = stack.pop()
            if isinstance(value, list):
                stack.extend(value)
            elif isinstance(value, (str, bool)):
                raise ValueError(f"{key} must hold numbers only, got {value!r}")
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


def _unique_keys(pairs):
    """The dict of one JSON object's ``pairs``; a ValueError names a key it repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):  # name the first key seen twice
        key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise ValueError(f"key {key!r} repeats in one object")
    return obj


def read_json(path):
    """The JSON in ``path``; a ValueError names ``path`` if invalid, too deep or repeating a key."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:  # ValueError: JSONDecodeError, _unique_keys
            raise ValueError(f"{path} is not valid JSON: {exc}") from None


def save_model(path, model):
    write_json(path, model_to_dict(model))


def load_model(path):
    return model_from_dict(read_json(path))
