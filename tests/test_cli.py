import csv
import io
import json
import re
import warnings

import numpy as np
import pytest

from tensorpoly import Dataset, LtrModel, TrainConfig, fit, predict
from tensorpoly.cli import main
from tensorpoly.io import (
    load_model,
    model_from_dict,
    model_to_dict,
    read_dataset_csv,
    save_model,
    write_dataset_csv,
    write_predictions_csv,
)
from tensorpoly.metrics import pearson, rmse


def write_config(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


def read_text(path):
    with open(path) as fh:
        return fh.read()


class TestGenerate:
    def test_shape_contract(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "generator": {"type": "random", "n": 2, "degree": 2, "rank": 2,
                          "m": 100, "seed": 7},
        })
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "train.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x1", "x2", "y"]
        assert len(rows) == 101
        assert (tmp_path / "manifest.json").exists()
        assert (tmp_path / "true_model.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "generator": {"type": "random", "n": 3, "degree": 2, "rank": 2,
                          "m": 50, "seed": 3},
        })
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["generate", "--config", cfg, "--out", str(out2)]) == 0
        assert read_text(out1 / "train.csv") == read_text(out2 / "train.csv")
        assert read_text(out1 / "test.csv") == read_text(out2 / "test.csv")

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "generator": {"type": "quadratics", "function": "xy", "m": 20, "seed": 1},
        })
        out1 = tmp_path / "a"
        assert main(["generate", "--config", cfg, "--out", str(out1)]) == 0
        out2 = tmp_path / "b"
        assert main(["generate", "--config", str(out1 / "manifest.json"),
                     "--out", str(out2)]) == 0
        assert read_text(out1 / "train.csv") == read_text(out2 / "train.csv")

    def test_quadratics_rows_satisfy_function(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "generator": {"type": "quadratics", "function": "xy", "m": 4, "seed": 1},
        })
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
        X, Y = read_dataset_csv(tmp_path / "train.csv")
        assert X.shape == (4, 2)
        # full-precision round trip keeps the identity exact
        assert np.array_equal(Y[:, 0], X[:, 0] * X[:, 1])


class TestTrain:
    def make_data(self, tmp_path, m=300, seed=2):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((m, 2))
        y = X[:, 0] * X[:, 1]
        path = tmp_path / "data.csv"
        write_dataset_csv(path, X, y)
        return path, X, y

    def train_config(self):
        return {
            "train": {"n_d": 2, "n_t": 2, "epochs": 5, "batch_size": 50,
                      "learning_rate": 0.05, "mode": "rank_wise", "seed": 4},
        }

    def test_round_trip_predictions(self, tmp_path):
        data, X, y = self.make_data(tmp_path)
        cfg = write_config(tmp_path / "cfg.json", self.train_config())
        assert main(["train", "--config", cfg, "--data", str(data),
                     "--out", str(tmp_path)]) == 0
        loaded = load_model(tmp_path / "model.json")
        # the same config refit in memory gives the same model
        ds = Dataset(views=[X], Y=y)
        model, _ = fit(ds, TrainConfig(**self.train_config()["train"]))
        a = predict(model, X)
        b = predict(loaded, X)
        denom = max(1.0, float(np.max(np.abs(a))))
        assert np.max(np.abs(a - b)) <= 1e-12 * denom
        report = json.load(open(tmp_path / "report.json"))
        assert report["mode"] == "rank_wise"
        assert len(report["residual_norms"]) == 3

    def test_rankwise_and_unit_layered_have_same_deflation_count(self, tmp_path):
        data, _, _ = self.make_data(tmp_path)
        base = self.train_config()
        cfg1 = write_config(tmp_path / "c1.json", base)
        layered = {"train": dict(base["train"], mode="layered", rank_blocks=[1, 1])}
        cfg2 = write_config(tmp_path / "c2.json", layered)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["train", "--config", cfg1, "--data", str(data), "--out", str(out1)]) == 0
        assert main(["train", "--config", cfg2, "--data", str(data), "--out", str(out2)]) == 0
        r1 = json.load(open(out1 / "report.json"))
        r2 = json.load(open(out2 / "report.json"))
        assert len(r1["residual_norms"]) == len(r2["residual_norms"])

    def test_missing_dataset_exits_2_without_partial_output(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", self.train_config())
        code = main(["train", "--config", cfg, "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "model.json").exists()

    def test_multiview_training(self, tmp_path):
        rng = np.random.default_rng(5)
        X1 = rng.standard_normal((200, 2))
        X2 = rng.standard_normal((200, 3))
        y = (X1 @ [1.0, -1.0]) * (X2 @ [0.5, 1.0, 0.0])
        write_dataset_csv(tmp_path / "v1.csv", X1)
        write_dataset_csv(tmp_path / "v2.csv", X2)
        from tensorpoly.io import write_predictions_csv
        write_predictions_csv(tmp_path / "y.csv", y)
        cfg = write_config(tmp_path / "cfg.json", {
            "train": {"n_d": 2, "n_t": 2, "epochs": 10, "batch_size": 50,
                      "learning_rate": 0.05, "mode": "joint", "seed": 1},
        })
        assert main(["train", "--config", cfg,
                     "--views", str(tmp_path / "v1.csv"), str(tmp_path / "v2.csv"),
                     "--labels", str(tmp_path / "y.csv"),
                     "--out", str(tmp_path)]) == 0
        model = load_model(tmp_path / "model.json")
        assert model.dims == (2, 3)


class TestPredict:
    def xy_model_file(self, tmp_path):
        from tensorpoly import LtrModel
        model = LtrModel(P=[np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])],
                         Q=np.ones((1, 1)), lam=[1.0])
        path = tmp_path / "model.json"
        save_model(path, model)
        return path

    def test_known_model_values(self, tmp_path):
        model_file = self.xy_model_file(tmp_path)
        write_dataset_csv(tmp_path / "in.csv", np.array([[2.0, 3.0], [1.0, 1.0]]))
        assert main(["predict", "--model", str(model_file),
                     "--input", str(tmp_path / "in.csv"),
                     "--out", str(tmp_path)]) == 0
        _, Y = read_dataset_csv(tmp_path / "predictions.csv")
        assert Y[:, 0].tolist() == [6.0, 1.0]

    def test_empty_input_gives_empty_predictions(self, tmp_path):
        model_file = self.xy_model_file(tmp_path)
        write_dataset_csv(tmp_path / "in.csv", np.zeros((0, 2)))
        assert main(["predict", "--model", str(model_file),
                     "--input", str(tmp_path / "in.csv"),
                     "--out", str(tmp_path)]) == 0
        _, Y = read_dataset_csv(tmp_path / "predictions.csv")
        assert Y.shape[0] == 0

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        model_file = self.xy_model_file(tmp_path)
        write_dataset_csv(tmp_path / "in.csv", np.zeros((3, 5)))
        code = main(["predict", "--model", str(model_file),
                     "--input", str(tmp_path / "in.csv"),
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "5" in err and "2" in err

    def test_multiview_prediction(self, tmp_path):
        from tensorpoly import LtrModel
        rng = np.random.default_rng(6)
        model = LtrModel(P=[rng.standard_normal((2, 3)), rng.standard_normal((2, 2))],
                         Q=np.ones((2, 1)), lam=rng.standard_normal(2))
        model_file = tmp_path / "m.json"
        save_model(model_file, model)
        X1 = rng.standard_normal((15, 3))
        X2 = rng.standard_normal((15, 2))
        write_dataset_csv(tmp_path / "v1.csv", X1)
        write_dataset_csv(tmp_path / "v2.csv", X2)
        assert main(["predict", "--model", str(model_file),
                     "--views", str(tmp_path / "v1.csv"), str(tmp_path / "v2.csv"),
                     "--out", str(tmp_path)]) == 0
        _, Y = read_dataset_csv(tmp_path / "predictions.csv")
        expected = predict(model, [X1, X2])
        assert np.max(np.abs(Y - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))

    def test_logistic_model_emits_probabilities(self, tmp_path):
        from tensorpoly import LtrModel
        rng = np.random.default_rng(4)
        model = LtrModel(P=[rng.standard_normal((2, 3)) for _ in range(2)],
                         Q=np.ones((2, 1)), lam=rng.standard_normal(2),
                         link="logistic")
        model_file = tmp_path / "m.json"
        save_model(model_file, model)
        write_dataset_csv(tmp_path / "in.csv", rng.standard_normal((25, 3)))
        assert main(["predict", "--model", str(model_file),
                     "--input", str(tmp_path / "in.csv"),
                     "--out", str(tmp_path)]) == 0
        _, Y = read_dataset_csv(tmp_path / "predictions.csv")
        assert np.all((Y >= 0.0) & (Y <= 1.0))

    def test_agrees_with_library_forward(self, tmp_path):
        rng = np.random.default_rng(9)
        from helpers import random_model
        model = random_model(rng, n=3, n_d=2, n_t=3, n_y=2)
        model_file = tmp_path / "m.json"
        save_model(model_file, model)
        X = rng.standard_normal((40, 3))
        write_dataset_csv(tmp_path / "in.csv", X)
        assert main(["predict", "--model", str(model_file),
                     "--input", str(tmp_path / "in.csv"),
                     "--out", str(tmp_path)]) == 0
        _, Y = read_dataset_csv(tmp_path / "predictions.csv")
        expected = predict(model, X)
        assert np.max(np.abs(Y - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


class TestEvaluate:
    def test_identical_files(self, tmp_path):
        from tensorpoly.io import write_predictions_csv
        y = np.linspace(-1, 1, 20)
        write_predictions_csv(tmp_path / "a.csv", y)
        write_predictions_csv(tmp_path / "b.csv", y)
        assert main(["evaluate", "--predictions", str(tmp_path / "a.csv"),
                     "--truth", str(tmp_path / "b.csv"),
                     "--task", "regression", "--out", str(tmp_path)]) == 0
        metrics = json.load(open(tmp_path / "metrics.json"))
        assert metrics["pearson"] == pytest.approx(1.0)
        assert metrics["rmse"] == 0.0

    def test_constant_predictions_give_null_pearson(self, tmp_path):
        from tensorpoly.io import write_predictions_csv
        write_predictions_csv(tmp_path / "pred.csv", np.full(10, 2.0))
        write_predictions_csv(tmp_path / "truth.csv", np.arange(10.0))
        assert main(["evaluate", "--predictions", str(tmp_path / "pred.csv"),
                     "--truth", str(tmp_path / "truth.csv"),
                     "--task", "regression", "--out", str(tmp_path)]) == 0
        metrics = json.load(open(tmp_path / "metrics.json"))
        assert metrics["pearson"] is None
        assert np.isfinite(metrics["rmse"])

    def test_matches_library_metrics(self, tmp_path):
        from tensorpoly.io import write_predictions_csv
        rng = np.random.default_rng(12)
        y = rng.standard_normal(30)
        z = y + 0.3 * rng.standard_normal(30)
        write_predictions_csv(tmp_path / "pred.csv", z)
        write_predictions_csv(tmp_path / "truth.csv", y)
        assert main(["evaluate", "--predictions", str(tmp_path / "pred.csv"),
                     "--truth", str(tmp_path / "truth.csv"),
                     "--task", "regression", "--out", str(tmp_path)]) == 0
        metrics = json.load(open(tmp_path / "metrics.json"))
        assert metrics["pearson"] == pytest.approx(pearson(y, z), rel=1e-12)
        assert metrics["rmse"] == pytest.approx(rmse(y, z), rel=1e-12)

    def test_row_mismatch_exits_2(self, tmp_path):
        from tensorpoly.io import write_predictions_csv
        write_predictions_csv(tmp_path / "pred.csv", np.zeros(5))
        write_predictions_csv(tmp_path / "truth.csv", np.zeros(6))
        assert main(["evaluate", "--predictions", str(tmp_path / "pred.csv"),
                     "--truth", str(tmp_path / "truth.csv"),
                     "--out", str(tmp_path)]) == 2

    def test_multilabel_topk(self, tmp_path):
        from tensorpoly.io import write_predictions_csv
        truth = np.array([[1, 0, 0], [0, 1, 0]])
        scores = np.array([[0.9, 0.1, 0.2], [0.2, 0.8, 0.1]])
        write_predictions_csv(tmp_path / "pred.csv", scores)
        write_predictions_csv(tmp_path / "truth.csv", truth)
        assert main(["evaluate", "--predictions", str(tmp_path / "pred.csv"),
                     "--truth", str(tmp_path / "truth.csv"),
                     "--task", "multilabel", "--topk", "1",
                     "--out", str(tmp_path)]) == 0
        metrics = json.load(open(tmp_path / "metrics.json"))
        assert metrics["micro_f1"] == pytest.approx(1.0)


class TestBenchmark:
    def bench_config(self):
        return {
            "sweep": {"variable": "degree", "values": [1, 2]},
            "base": {"n": 3, "degree": 2, "rank": 2, "m": 400, "noise": 0.0, "seed": 5},
            "learners": ["ltr", "lr"],
            "train": {"epochs": 5, "batch_size": 50, "learning_rate": 0.05,
                      "mode": "joint", "seed": 2},
            "folds": 2,
        }

    def test_rows_are_self_describing(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", self.bench_config())
        assert main(["benchmark", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "results.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["learner", "variable", "value", "metric", "mean", "stderr", "status"]
        # 2 learners x 2 grid points x 3 metrics
        assert len(rows) == 13
        assert (tmp_path / "plot.json").exists()

    def test_rerun_reproduces_accuracy_columns(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", self.bench_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["benchmark", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["benchmark", "--config", cfg, "--out", str(out2)]) == 0

        def accuracy_rows(path):
            with open(path) as fh:
                return [r for r in csv.reader(fh) if r[3] != "train_seconds"]

        assert accuracy_rows(out1 / "results.csv") == accuracy_rows(out2 / "results.csv")

    def test_noise_sweep_runs(self, tmp_path):
        cfg_dict = self.bench_config()
        cfg_dict["sweep"] = {"variable": "noise", "values": [0.0, 0.5]}
        cfg = write_config(tmp_path / "cfg.json", cfg_dict)
        assert main(["benchmark", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "results.csv") as fh:
            rows = [r for r in csv.reader(fh)][1:]
        assert {r[1] for r in rows} == {"noise"}
        assert all(r[6] == "ok" for r in rows)

    def test_sweep_variable_mapping(self):
        from tensorpoly.benchmark import _point_params
        base = {"n": 5, "degree": 2, "rank": 3, "m": 100, "noise": 0.1, "seed": 0}
        assert _point_params(base, "degree", 4)["degree"] == 4
        assert _point_params(base, "rank", 7)["rank"] == 7
        assert _point_params(base, "noise", 0.5)["noise"] == 0.5
        assert _point_params(base, "variables", 9)["n"] == 9
        assert _point_params(base, "sample-size", 777)["m"] == 777
        assert _point_params(base, "sample_size", 777)["m"] == 777

    def test_worker_threads_keep_accuracy_identical(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "cfg.json", self.bench_config())
        assert main(["benchmark", "--config", cfg, "--out", str(tmp_path / "serial")]) == 0
        monkeypatch.setenv("TENSORPOLY_THREADS", "3")
        assert main(["benchmark", "--config", cfg, "--out", str(tmp_path / "pooled")]) == 0

        def accuracy_rows(path):
            with open(path) as fh:
                return [r for r in csv.reader(fh) if r[3] != "train_seconds"]

        assert accuracy_rows(tmp_path / "serial" / "results.csv") == \
            accuracy_rows(tmp_path / "pooled" / "results.csv")

    def test_degree_sweep_separates_learners(self, tmp_path):
        # linear regression degrades on higher degrees, the tensor model holds
        cfg = write_config(tmp_path / "cfg.json", {
            "sweep": {"variable": "degree", "values": [1, 2, 3]},
            "base": {"n": 5, "degree": 2, "rank": 3, "m": 10_000, "noise": 0.0, "seed": 13},
            "learners": ["ltr", "lr"],
            "train": {"epochs": 10, "batch_size": 100, "learning_rate": 0.05,
                      "mode": "joint", "seed": 3},
            "folds": 2,
        })
        assert main(["benchmark", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "results.csv") as fh:
            rows = [r for r in csv.reader(fh) if r[3:4] == ["pearson"]]
        by_learner = {}
        for learner, _, value, _, mean, _, status in rows:
            assert status == "ok"
            by_learner.setdefault(learner, {})[float(value)] = float(mean)
        for degree in (1.0, 2.0, 3.0):
            assert by_learner["ltr"][degree] >= 0.95
        assert by_learner["lr"][2.0] <= by_learner["lr"][1.0] - 0.2
        assert by_learner["lr"][3.0] <= by_learner["lr"][1.0] - 0.2
        assert by_learner["lr"][2.0] <= by_learner["ltr"][2.0] - 0.2

    def test_failed_point_recorded_in_row(self, tmp_path):
        cfg_dict = self.bench_config()
        cfg_dict["learners"] = ["krr"]
        # the size cap applies per training fold; the oversize point must
        # fail in-row while the run continues
        from tensorpoly.baselines import KRR_SIZE_CAP
        cfg_dict["base"]["m"] = 30
        oversize = 2 * KRR_SIZE_CAP + 2
        cfg_dict["sweep"] = {"variable": "sample-size", "values": [30, oversize]}
        cfg = write_config(tmp_path / "cfg.json", cfg_dict)
        assert main(["benchmark", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "results.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        statuses = {r[2]: r[6] for r in rows}
        assert statuses[repr(30)] == "ok"
        assert statuses[repr(oversize)].startswith("failed")


class TestGradcheckCommand:
    def test_default_grid_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "lambda" in out and "P" in out and "Q" in out

    def test_corrupted_q_detected(self, capsys):
        assert main(["gradcheck", "--corrupt", "flip-q"]) == 1
        captured = capsys.readouterr()
        assert "Q" in captured.err
        assert "lambda" not in captured.err

    def test_usage_error_returns_2(self):
        assert main(["gradcheck", "--corrupt", "bogus"]) == 2

    def test_custom_grid_from_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {"grid": [[1, 1, False], [2, 3, True]]})
        assert main(["gradcheck", "--config", cfg]) == 0
        assert "all 2 shapes" in capsys.readouterr().out

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


class TestModelSerialization:
    def test_multiview_model_round_trip(self, tmp_path):
        from tensorpoly import LtrModel
        rng = np.random.default_rng(3)
        model = LtrModel(
            P=[rng.standard_normal((2, 3)), rng.standard_normal((2, 4))],
            Q=rng.standard_normal((2, 2)),
            lam=rng.standard_normal(2),
            homogenized=True,
            link="logistic",
        )
        d = model_to_dict(model)
        assert d["n"] == [3, 4]
        back = model_from_dict(json.loads(json.dumps(d)))
        assert all(np.array_equal(a, b) for a, b in zip(model.P, back.P))
        assert back.homogenized and back.link == "logistic"

    def test_full_precision_floats(self, tmp_path):
        from tensorpoly import LtrModel
        value = 0.1 + 0.2  # not representable in short decimal
        model = LtrModel(P=[np.array([[value]])], Q=np.ones((1, 1)), lam=[value])
        save_model(tmp_path / "m.json", model)
        back = load_model(tmp_path / "m.json")
        assert back.lam[0] == value
        assert back.P[0][0, 0] == value


def xy_model_json(drop=None):
    """JSON text of the model x1 * x2, optionally without one key."""
    d = model_to_dict(LtrModel(P=[np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])],
                               Q=np.ones((1, 1)), lam=[1.0]))
    d.pop(drop, None)
    return json.dumps(d)


TRAIN_ARGS = ["train", "--data", "{dir}/in.csv", "--epochs", "1", "--out", "{dir}/out"]
PREDICT_ARGS = ["predict", "--model", "{dir}/model.json", "--input", "{dir}/in.csv",
                "--out", "{dir}/out"]
BENCH_ARGS = ["benchmark", "--config", "{dir}/cfg.json", "--out", "{dir}/out"]
NO_BASE = json.dumps({"sweep": {"variable": "degree", "values": [1]}})
TRAIN_CFG_ARGS = TRAIN_ARGS + ["--config", "{dir}/cfg.json"]
XY_CSV = "x1,x2,y\n1,2,2\n3,4,12\n"

# (id, files to write, argv, regex searched in the one stderr line after "error: ");
# the CSV patterns name only the path and the offending field, not numpy's wording
REJECTED = [
    ("csv-short-rows", {"in.csv": "x1,x2,y\n1,2\n3,4\n"}, TRAIN_ARGS,
     r"in\.csv: rows have 2 columns, header has 3"),
    ("csv-one-long-row", {"in.csv": "x1,x2,y\n1,2,3\n1,2,3,4\n"}, TRAIN_ARGS,
     r"in\.csv: .*columns"),
    ("csv-empty-field", {"in.csv": "x1,x2,y\n1,,3\n"}, TRAIN_ARGS, r"in\.csv: .*''"),
    ("csv-hash-line", {"in.csv": "x1,x2,y\n# note\n1,2,3\n"}, TRAIN_ARGS,
     r"in\.csv: .*'# note'"),
    ("csv-semicolons", {"in.csv": "x1;x2;y\n1;2;3\n"}, TRAIN_ARGS, r"in\.csv: .*'1;2;3'"),
    ("csv-nan-in-y", {"in.csv": "x1,x2,y\n1,2,nan\n3,4,5\n"}, TRAIN_ARGS,
     r"Y contains non-finite values"),
    *[(f"model-without-{key}", {"model.json": xy_model_json(drop=key), "in.csv": "x1,x2\n1,2\n"},
       PREDICT_ARGS, rf"model file is missing key '{key}'")
      for key in ("P", "Q", "lambda", "homogenized")],
    ("benchmark-without-base", {"cfg.json": NO_BASE}, BENCH_ARGS,
     r"benchmark config needs a base section"),
    ("benchmark-base-without-sizes", {"cfg.json": NO_BASE}, BENCH_ARGS + ["--seed", "3"],
     r"benchmark base section is missing \['m', 'n', 'rank'\]"),
    ("model-json-list", {"model.json": "[]", "in.csv": "x1,x2\n1,2\n"}, PREDICT_ARGS,
     r"model file must hold a JSON object, got list"),
    ("train-config-list", {"cfg.json": "[]", "in.csv": XY_CSV}, TRAIN_CFG_ARGS,
     r"cfg\.json must hold a JSON object, got list"),
    ("benchmark-config-string", {"cfg.json": '"x"'}, BENCH_ARGS,
     r"cfg\.json must hold a JSON object, got str"),
    ("train-section-number", {"cfg.json": '{"train": 5}', "in.csv": XY_CSV}, TRAIN_CFG_ARGS,
     r"config section 'train' in \S*cfg\.json must be a JSON object"),
    ("generator-section-list", {"cfg.json": '{"generator": []}'},
     ["generate", "--config", "{dir}/cfg.json", "--out", "{dir}/out"],
     r"config section 'generator' in \S*cfg\.json must be a JSON object"),
    ("benchmark-base-list", {"cfg.json": json.dumps({"base": [], **json.loads(NO_BASE)})},
     BENCH_ARGS, r"config section 'base' in \S*cfg\.json must be a JSON object"),
    ("train-lr-nan", {"in.csv": XY_CSV}, TRAIN_ARGS + ["--lr", "nan"],
     r"learning_rate must be a finite number, got nan"),
    ("train-n_d-fraction", {"cfg.json": '{"train": {"n_d": 2.5}}', "in.csv": XY_CSV},
     TRAIN_CFG_ARGS, r"n_d must be an integer >= 1, got 2\.5"),
]

# (id, x1,x2 input CSV, expected x1 * x2 predictions)
ACCEPTED = [
    ("blank-lines", "x1,x2\n\n2,3\n\n1,1\n\n", [6.0, 1.0]),
    ("crlf", "x1,x2\r\n2,3\r\n1,1\r\n", [6.0, 1.0]),
    ("quoted-fields", '"x1","x2"\n"2.0","3"\n"1",1\n', [6.0, 1.0]),
    ("header-only", "x1,x2\n", []),
]


def run_cli(tmp_path, files, argv):
    for name, text in files.items():
        (tmp_path / name).write_bytes(text.encode())
    return main([a.format(dir=tmp_path) for a in argv])


class TestInputContract:
    @pytest.mark.parametrize("files,argv,message",
                             [case[1:] for case in REJECTED], ids=[case[0] for case in REJECTED])
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, files, argv, message):
        assert run_cli(tmp_path, files, argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert re.search(message, err)
        assert " at row " not in err and "usecols" not in err  # loadtxt's data-row index, advice

    @pytest.mark.parametrize("text,expected",
                             [case[1:] for case in ACCEPTED], ids=[case[0] for case in ACCEPTED])
    def test_accepted_csv_predicts(self, tmp_path, text, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt's empty-input warning must not leak
            assert run_cli(tmp_path, {"model.json": xy_model_json(), "in.csv": text},
                           PREDICT_ARGS) == 0
        _, Y = read_dataset_csv(tmp_path / "out" / "predictions.csv")
        assert Y.shape == (len(expected), 1)
        assert Y[:, 0].tolist() == expected


def csv_writer_reference(header, rows):
    """The row-at-a-time formatter the bulk writer replaced; its bytes are the file format."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue()


EXTREMES = np.array([5e-324, 1.7976931348623157e308, -1.7976931348623157e308, -0.0,
                     0.1, 1e16, 1 / 3, np.inf, np.nan])


class TestDatasetCsv:
    def test_extreme_values_round_trip(self, tmp_path):
        X = np.column_stack([EXTREMES, EXTREMES[::-1]])
        write_dataset_csv(tmp_path / "d.csv", X, EXTREMES)
        X_back, Y_back = read_dataset_csv(tmp_path / "d.csv")
        assert np.array_equal(X_back, X, equal_nan=True)
        assert np.array_equal(Y_back[:, 0], EXTREMES, equal_nan=True)
        assert np.array_equal(np.signbit(X_back), np.signbit(X))
        assert np.signbit(Y_back[3, 0])

    @pytest.mark.parametrize("n_y", [None, 1, 3])
    def test_bytes_match_csv_writer_reference(self, tmp_path, n_y):
        rng = np.random.default_rng(21)
        X = np.vstack([rng.standard_normal((40, 4)) * 10.0 ** rng.integers(-20, 20, (40, 1)),
                       EXTREMES[:8].reshape(2, 4)])
        if n_y is None:
            Y, header, rows = None, ["x1", "x2", "x3", "x4"], X
        else:
            Y = rng.standard_normal((X.shape[0], n_y))
            names = ["y"] if n_y == 1 else [f"y{j + 1}" for j in range(n_y)]
            header, rows = ["x1", "x2", "x3", "x4"] + names, np.hstack([X, Y])
        write_dataset_csv(tmp_path / "d.csv", X, Y)
        assert (tmp_path / "d.csv").read_bytes() == csv_writer_reference(header, rows).encode()

    def test_prediction_bytes_match_csv_writer_reference(self, tmp_path):
        Y = np.random.default_rng(22).standard_normal((30, 2))
        write_predictions_csv(tmp_path / "p.csv", Y)
        assert (tmp_path / "p.csv").read_bytes() == \
            csv_writer_reference(["y1", "y2"], Y).encode()
