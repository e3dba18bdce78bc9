"""The CLI input contract under generated inputs.

Whatever a run config, a dataset CSV or a model file holds, `cli.main`
returns 0, 1 or 2 and raises nothing, and a 2 comes with exactly one
stderr line, which starts with ``error:``. Each input is a mutation of a
valid one. Sizes are drawn small or plainly invalid: a valid huge
``epochs`` is a long fit, not a contract failure. The only huge integer,
10**30, goes to keys for which nothing of that size is allocated.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorpoly import LtrModel
from tensorpoly.cli import main
from tensorpoly.io import RUN_CONFIG, model_to_dict

HUGE = 10**30  # beyond an index-sized integer
SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)

VALID_TRAIN = {"n_d": 2, "n_t": 2, "epochs": 1, "batch_size": 2, "seed": 0}
VALID_CSV = [["x1", "x2", "y"], ["1", "2", "2"], ["3", "4", "12"], ["0.5", "-1", "-0.5"]]
VALID_MODEL = model_to_dict(LtrModel(P=[np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])],
                                     Q=np.ones((1, 1)), lam=[1.0]))
WORDS = ["", "x1", "y", "joint", "layered", "rank_wise", "logistic", "identity", "1", "true"]


def json_values():
    """Any JSON value: every type, nested a few levels, with small or invalid integers."""
    ints = st.sampled_from([-1, 0, 1, 2, 3])
    scalars = (st.none() | st.booleans() | ints | st.sampled_from(WORDS) | st.text(max_size=3)
               | st.sampled_from([0.5, -2.5, 1e308, -0.0, math.nan, math.inf]))
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=3), inner,
                                          max_size=3), max_leaves=6)


@st.composite
def json_texts(draw, valid, keys, huge_keys=()):
    """``(text, depth)``: the JSON text of ``valid`` with some ``keys`` set to drawn values, or
    a broken form, to be nested in ``depth`` arrays (kept apart for a short failure report)."""
    obj = json.loads(json.dumps(valid))
    section = obj.get("train", obj)
    for key in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
        section[key] = draw(st.just(HUGE) | json_values() if key in huge_keys else json_values())
    text, depth = json.dumps(obj), 0
    form = draw(st.sampled_from(["object"] * 4 + ["any-value", "repeated-key", "nested",
                                                  "truncated", "extra-key"]))
    if form == "any-value":
        text = json.dumps(draw(json_values()))
    elif form == "repeated-key":
        text = text[:-1] + ", " + text[1:]
    elif form == "nested":
        depth = draw(st.sampled_from([1, 50, 100_000]))
    elif form == "truncated":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif form == "extra-key":
        extra = {draw(st.sampled_from(list(RUN_CONFIG) + WORDS)): draw(json_values())}
        text = json.dumps(obj | extra)
    return text, depth


def nest(text, depth):
    return "[" * depth + text + "]" * depth


@st.composite
def csv_texts(draw):
    """The text of a valid x1,x2,y dataset CSV after a few drawn mutations."""
    rows = [list(row) for row in VALID_CSV]
    header = rows[0]
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, len(header) - 1))
        change = draw(st.sampled_from(["rename", "duplicate", "swap", "drop"]))
        if change == "rename":
            header[j] = draw(st.sampled_from(["id", "x3", "y1", "y2", "X1", " x1", "", "x"]))
        elif change == "duplicate":
            header.insert(j, header[j])
        elif change == "swap":
            header[j], header[-1] = header[-1], header[j]
        elif len(header) > 1:
            del header[j]
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(1, len(rows) - 1))]
        change = draw(st.sampled_from(["field", "ragged-short", "ragged-long", "quote"]))
        j = draw(st.integers(0, len(row) - 1))
        if change == "field":
            row[j] = draw(st.sampled_from(["nan", "inf", "-inf", "", "1e400", "abc", " 2 ",
                                           "#", "1;2", "0x10", "1_0"]))
        elif change == "ragged-short" and len(row) > 1:
            del row[j]
        elif change == "ragged-long":
            row.append("7")
        else:
            row[j] = f'"{row[j]}"'
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"
    return ("\ufeff" if draw(st.booleans()) else "") + text


def assert_contract(files, argv):
    """Run ``argv`` on ``files`` in a fresh directory and check the exit-code contract."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_bytes(text.encode())
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([arg.format(dir=tmp) for arg in argv])
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()


TRAIN = ["train", "--config", "{dir}/cfg.json", "--data", "{dir}/in.csv", "--out", "{dir}/out"]
PREDICT = ["predict", "--model", "{dir}/model.json", "--input", "{dir}/in.csv", "--out",
           "{dir}/out"]
XY_CSV = "\n".join(",".join(row) for row in VALID_CSV) + "\n"
ONE_EPOCH = json.dumps({"train": VALID_TRAIN})


@SETTINGS
@given(json_texts({"train": VALID_TRAIN}, RUN_CONFIG["train"] + ("epoch",),
                  huge_keys=("n_d", "n_t", "batch_size", "seed")))
def test_run_config(config):
    assert_contract({"cfg.json": nest(*config), "in.csv": XY_CSV}, TRAIN)


@SETTINGS
@given(csv_texts())
def test_dataset_csv(text):
    assert_contract({"cfg.json": ONE_EPOCH, "in.csv": text}, TRAIN)
    assert_contract({"model.json": json.dumps(VALID_MODEL), "in.csv": text}, PREDICT)


@SETTINGS
@given(json_texts(VALID_MODEL, list(VALID_MODEL) + ["lam"]))
def test_model_file(model):
    assert_contract({"model.json": nest(*model), "in.csv": XY_CSV}, PREDICT)
