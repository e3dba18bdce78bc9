import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from tensorpoly import (Dataset, LtrModel, TrainConfig, benchmark, cli, fit, predict,
                        quadratics_dataset)
from tensorpoly.cli import build_parser, main
from tensorpoly.io import (
    CSV_BLOCK,
    RUN_CONFIG,
    _atomic_write,
    check_config,
    load_model,
    model_from_dict,
    model_to_dict,
    read_dataset_csv,
    save_model,
    write_dataset_csv,
    write_predictions_csv,
)
from tensorpoly.metrics import pearson, rmse

from helpers import finite_checks


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
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["mode"] == "rank_wise"
        assert len(report["residual_norms"]) == 3

    def test_each_input_is_checked_twice(self, tmp_path, monkeypatch):
        # the reader's check names the file, the Dataset's is the library's; fit trusts it
        data, _, _ = self.make_data(tmp_path, m=30)
        cfg = write_config(tmp_path / "cfg.json", self.train_config())
        checked = finite_checks(monkeypatch, 30)
        assert main(["train", "--config", cfg, "--data", str(data),
                     "--out", str(tmp_path)]) == 0
        assert checked == [(30, 2), (30, 1), (30, 2), (30, 1)]

    def test_rankwise_and_unit_layered_have_same_deflation_count(self, tmp_path):
        data, _, _ = self.make_data(tmp_path)
        base = self.train_config()
        cfg1 = write_config(tmp_path / "c1.json", base)
        layered = {"train": dict(base["train"], mode="layered", rank_blocks=[1, 1])}
        cfg2 = write_config(tmp_path / "c2.json", layered)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["train", "--config", cfg1, "--data", str(data), "--out", str(out1)]) == 0
        assert main(["train", "--config", cfg2, "--data", str(data), "--out", str(out2)]) == 0
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert len(r1["residual_norms"]) == len(r2["residual_norms"])

    def test_divergence_exits_1_with_one_stderr_line(self, tmp_path):
        # a fresh interpreter, so numpy's overflow warnings would reach stderr
        ds = quadratics_dataset("xy", 200, seed=0)
        write_dataset_csv(tmp_path / "d.csv", ds.X, ds.Y)
        cfg = write_config(tmp_path / "cfg.json", {"train": {"learning_rate": 1e100}})
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "tensorpoly", "train", "--config", cfg,
             "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == "training diverged at epoch 1 in phase 1\n"
        assert not (tmp_path / "out" / "model.json").exists()

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

    def test_input_and_views_are_one_option(self, tmp_path):
        rng = np.random.default_rng(6)
        model = LtrModel(P=[rng.standard_normal((2, 3)), rng.standard_normal((2, 2))],
                         Q=np.ones((2, 1)), lam=rng.standard_normal(2))
        save_model(tmp_path / "m.json", model)
        write_dataset_csv(tmp_path / "v1.csv", rng.standard_normal((15, 3)))
        write_dataset_csv(tmp_path / "v2.csv", rng.standard_normal((15, 2)))
        for flag in ("--input", "--views"):
            assert main(["predict", "--model", str(tmp_path / "m.json"),
                         flag, str(tmp_path / "v1.csv"), str(tmp_path / "v2.csv"),
                         "--out", str(tmp_path / flag[2:])]) == 0
        assert read_text(tmp_path / "input" / "predictions.csv") == \
            read_text(tmp_path / "views" / "predictions.csv")

    def test_without_input_exits_2(self, tmp_path, capsys):
        model_file = self.xy_model_file(tmp_path)
        assert main(["predict", "--model", str(model_file), "--out", str(tmp_path)]) == 2
        assert "required: --input/--views" in capsys.readouterr().err
        assert not (tmp_path / "predictions.csv").exists()

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
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["pearson"] == pytest.approx(1.0)
        assert metrics["rmse"] == 0.0

    def test_constant_predictions_give_null_pearson(self, tmp_path):
        from tensorpoly.io import write_predictions_csv
        write_predictions_csv(tmp_path / "pred.csv", np.full(10, 2.0))
        write_predictions_csv(tmp_path / "truth.csv", np.arange(10.0))
        assert main(["evaluate", "--predictions", str(tmp_path / "pred.csv"),
                     "--truth", str(tmp_path / "truth.csv"),
                     "--task", "regression", "--out", str(tmp_path)]) == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
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
        metrics = json.loads((tmp_path / "metrics.json").read_text())
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
        metrics = json.loads((tmp_path / "metrics.json").read_text())
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

    @pytest.mark.parametrize("train, sweep, message", [
        ({"epoch": 3}, {"variable": "degree", "values": [1, 2]},
         r"^unknown train section key 'epoch'; known keys: n_d, n_t, "),
        # valid at rank 2, invalid at rank 3: the first point must not be fitted either
        ({"mode": "layered", "rank_blocks": [1, 1]}, {"variable": "rank", "values": [2, 3]},
         r"^benchmark config at rank=3: rank_blocks must sum to n_t$"),
    ], ids=["unknown-key", "second-point"])
    def test_bad_train_section_raises_before_any_fit(self, monkeypatch, train, sweep, message):
        calls = []
        monkeypatch.setattr(benchmark, "fit", lambda *a, **k: calls.append(a))
        cfg = self.bench_config() | {"train": train, "sweep": sweep}
        with pytest.raises(ValueError, match=message):
            benchmark.run_benchmark(cfg)
        assert calls == []

    @pytest.mark.parametrize("threads", ["0", "-3", "abc"])
    def test_bad_thread_count_exits_2_naming_the_variable(self, tmp_path, capsys, monkeypatch,
                                                          threads):
        monkeypatch.setenv("TENSORPOLY_THREADS", threads)
        cfg = write_config(tmp_path / "cfg.json", self.bench_config())
        assert main(["benchmark", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == \
            f"error: TENSORPOLY_THREADS must be an integer >= 1, got {threads!r}\n"
        assert not (tmp_path / "out").exists()

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

    def test_corrupted_q_detected(self, capsys, monkeypatch):
        from tensorpoly import gradcheck
        exact = gradcheck.gradients

        def flipped_q(*args):
            g_lam, g_P, g_Q = exact(*args)
            return g_lam, g_P, -g_Q

        monkeypatch.setattr(gradcheck, "gradients", flipped_q)
        assert main(["gradcheck"]) == 1
        captured = capsys.readouterr()
        assert "Q" in captured.err
        assert "lambda" not in captured.err

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


TRAIN_ARGS = ["train", "--config", "{dir}/cfg.json", "--data", "{dir}/in.csv", "--out", "{dir}/out"]
ONE_EPOCH = {"cfg.json": '{"train": {"epochs": 1}}'}
PREDICT_ARGS = ["predict", "--model", "{dir}/model.json", "--input", "{dir}/in.csv",
                "--out", "{dir}/out"]
BENCH_ARGS = ["benchmark", "--config", "{dir}/cfg.json", "--out", "{dir}/out"]
GENERATE_ARGS = ["generate", "--config", "{dir}/cfg.json", "--out", "{dir}/out"]
EVALUATE_ARGS = ["evaluate", "--predictions", "{dir}/p.csv", "--truth", "{dir}/t.csv",
                 "--out", "{dir}/out"]
NO_BASE = json.dumps({"sweep": {"variable": "degree", "values": [1]}})
XY_CSV = "x1,x2,y\n1,2,2\n3,4,12\n"
TRAIN_FROM_CONFIG_ARGS = ["train", "--config", "{dir}/cfg.json", "--out", "{dir}/out"]
TOP_LEVEL_KEYS = ("generator, train, base, sweep, fm, learners, folds, schema_version, files, "
                  "true_model")
TRAIN_KEYS = ("n_d, n_t, C_p, C_q, learning_rate, epochs, batch_size, mode, rank_blocks, link, "
              "seed, homogenize")
# x1 * x2 on inputs that get a trailing 1 column: its factors are 3 wide, its input 2
HOMOGENIZED_XY_MODEL = json.dumps(model_to_dict(LtrModel(
    P=[np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 1.0, 0.0]])], Q=np.ones((1, 1)), lam=[1.0],
    homogenized=True)))


def one_point_sweep(name, value, learners=("ltr", "lr")):
    """JSON of a valid one-point benchmark config with ``name`` ("key" or "section.key") set."""
    cfg = {"sweep": {"variable": "degree", "values": [1]},
           "base": {"n": 3, "degree": 2, "rank": 2, "m": 50}, "learners": list(learners)}
    *section, key = name.split(".")
    (cfg.setdefault(section[0], {}) if section else cfg)[key] = value
    return json.dumps(cfg)


# (id, files to write, argv, regex searched in the one stderr line after "error: ");
# the CSV patterns name only the path and the offending field, not numpy's wording
REJECTED = [
    ("csv-short-rows", {**ONE_EPOCH, "in.csv": "x1,x2,y\n1,2\n3,4\n"}, TRAIN_ARGS,
     r"in\.csv: rows have 2 columns, header has 3"),
    ("csv-one-long-row", {**ONE_EPOCH, "in.csv": "x1,x2,y\n1,2,3\n1,2,3,4\n"}, TRAIN_ARGS,
     r"in\.csv: .*columns"),
    ("csv-empty-field", {**ONE_EPOCH, "in.csv": "x1,x2,y\n1,,3\n"}, TRAIN_ARGS, r"in\.csv: .*''"),
    ("csv-hash-line", {**ONE_EPOCH, "in.csv": "x1,x2,y\n# note\n1,2,3\n"}, TRAIN_ARGS,
     r"in\.csv: .*'# note'"),
    ("csv-semicolons", {**ONE_EPOCH, "in.csv": "x1;x2;y\n1;2;3\n"}, TRAIN_ARGS, r"in\.csv: .*'1;2;3'"),
    ("csv-nan-in-y", {**ONE_EPOCH, "in.csv": "x1,x2,y\n1,2,nan\n3,4,5\n"}, TRAIN_ARGS,
     r"Y contains non-finite values"),
    *[(f"model-without-{key}", {"model.json": xy_model_json(drop=key), "in.csv": "x1,x2\n1,2\n"},
       PREDICT_ARGS, rf"model file is missing key '{key}'")
      for key in ("P", "Q", "lambda", "homogenized")],
    ("benchmark-without-base", {"cfg.json": NO_BASE}, BENCH_ARGS,
     r"benchmark config needs a base section"),
    ("benchmark-base-without-sizes",
     {"cfg.json": json.dumps({"base": {"seed": 3}, **json.loads(NO_BASE)})}, BENCH_ARGS,
     r"benchmark base section is missing \['m', 'n', 'rank'\]"),
    ("model-json-list", {"model.json": "[]", "in.csv": "x1,x2\n1,2\n"}, PREDICT_ARGS,
     r"model file must hold a JSON object, got list"),
    ("train-config-list", {"cfg.json": "[]", "in.csv": XY_CSV}, TRAIN_ARGS,
     r"^error: config must be a JSON object, got list$"),
    ("benchmark-config-string", {"cfg.json": '"x"'}, BENCH_ARGS,
     r"^error: config must be a JSON object, got str$"),
    ("train-section-number", {"cfg.json": '{"train": 5}', "in.csv": XY_CSV}, TRAIN_ARGS,
     r"^error: train section must be a JSON object, got int$"),
    ("generator-section-list", {"cfg.json": '{"generator": []}'}, GENERATE_ARGS,
     r"^error: generator section must be a JSON object, got list$"),
    ("benchmark-base-list", {"cfg.json": json.dumps({"base": [], **json.loads(NO_BASE)})},
     BENCH_ARGS, r"^error: base section must be a JSON object, got list$"),
    ("train-lr-nan", {"cfg.json": '{"train": {"epochs": 1, "learning_rate": NaN}}', "in.csv": XY_CSV},
     TRAIN_ARGS,
     r"learning_rate must be a finite number, got nan"),
    ("train-n_d-fraction", {"cfg.json": '{"train": {"n_d": 2.5}}', "in.csv": XY_CSV},
     TRAIN_ARGS, r"n_d must be an integer >= 1, got 2\.5"),
    # a JSON boolean is not a number: true would train one term, or add noise at level 1
    ("train-n_t-true",
     {"cfg.json": '{"train": {"n_t": true, "learning_rate": true}}', "in.csv": XY_CSV},
     TRAIN_ARGS, r"^error: n_t must be an integer >= 1, got True$"),
    ("generate-noise-true", {"cfg.json": '{"generator": {"n": 2, "noise": true}}'}, GENERATE_ARGS,
     r"^error: noise must be a finite number, got True$"),
    *[(f"generate-{key}-fraction", {"cfg.json": json.dumps({"generator": {key: 2.5}})},
       GENERATE_ARGS, rf"^error: {key} must be an integer >= {low}, got 2\.5$")
      for key, low in (("n", 1), ("degree", 1), ("rank", 1), ("m", 1), ("test_m", 1), ("seed", 0))],
    ("generate-quadratics-m-fraction",
     {"cfg.json": '{"generator": {"type": "quadratics", "m": 10.9}}'}, GENERATE_ARGS,
     r"^error: m must be an integer >= 1, got 10\.9$"),
    *[(f"benchmark-{variable}-fraction",
       {"cfg.json": json.dumps({"sweep": {"variable": variable, "values": [3, 2.5]},
                                "base": {"n": 3, "degree": 2, "rank": 2, "m": 50}})},
       BENCH_ARGS,
       rf"^error: benchmark config at {variable}=2\.5: {key} must be an integer >= 1, got 2\.5$")
      for variable, key in (("degree", "degree"), ("rank", "rank"), ("variables", "n"),
                            ("sample-size", "m"))],
    *[(f"benchmark-{name}-fraction", {"cfg.json": one_point_sweep(name, value)}, BENCH_ARGS,
       rf"^error: benchmark {name} must be an integer >= {low}, got {re.escape(repr(value))}$")
      for name, value, low in (("base.seed", 1.9, 0), ("folds", 2.9, 2), ("fm.steps", 2.5, 1),
                               ("fm.restarts", 1.5, 1))],
    ("predict-header-only-wrong-width",
     {"model.json": xy_model_json(), "in.csv": "x1,x2,x3,x4,x5\n"}, PREDICT_ARGS,
     r"^error: prediction input mismatch: view 0 has 5 columns, factor expects 2$"),
    *[(f"benchmark-learners-{case}", {"cfg.json": one_point_sweep("learners", learners)},
       BENCH_ARGS, r"^error: benchmark learners must be a non-empty list of names from "
       rf"\('ltr', 'lr', 'krr', 'fm'\), got {re.escape(repr(learners))}$")
      for case, learners in (("string", "lr"), ("typo", ["ltr", "ltrr"]), ("empty", []))],
    *[(f"benchmark-values-{case}", {"cfg.json": one_point_sweep("sweep.values", values)},
       BENCH_ARGS,
       rf"^error: benchmark sweep\.values must be a non-empty list, got {re.escape(repr(values))}$")
      for case, values in (("number", 5), ("empty", []))],
    # the views of one prediction share one row count: a 1-row view is not broadcast
    *[(f"predict-views-4-and-{rows}-rows",
       {"model.json": xy_model_json(), "a.csv": "x1,x2\n" + "1,2\n" * 4,
        "c.csv": "x1,x2\n" + "3,4\n" * rows},
       ["predict", "--model", "{dir}/model.json", "--views", "{dir}/a.csv", "{dir}/c.csv",
        "--out", "{dir}/out"],
       rf"^error: prediction input mismatch: views\[1\] has {rows} rows, expected 4$")
      for rows in (1, 2)],
    ("predict-view-without-x", {"model.json": xy_model_json(), "v.csv": "y\n1\n"},
     ["predict", "--model", "{dir}/model.json", "--views", "{dir}/v.csv", "--out", "{dir}/out"],
     r"^error: \S*v\.csv: no x\* columns$"),
    *[(f"evaluate-{case}", {"p.csv": pred, "t.csv": truth}, EVALUATE_ARGS,
       rf"^error: shape mismatch: predictions are {re.escape(ps)}, truth is {re.escape(ts)}$")
      for case, pred, ps, truth, ts in (
          ("fewer-columns", "y\n1\n2\n3\n", "(3, 1)", "y1,y2\n1,2\n3,4\n5,6\n", "(3, 2)"),
          ("more-columns", "y1,y2\n1,2\n3,4\n5,6\n", "(3, 2)", "y\n1\n2\n3\n", "(3, 1)"))],
    *[(f"evaluate-topk{k}", {"p.csv": "y1,y2\n0.9,0.1\n0.2,0.8\n", "t.csv": "y1,y2\n1,0\n0,1\n"},
       EVALUATE_ARGS + ["--task", "multilabel", "--topk", k],
       rf"^error: --topk must be an integer >= 1, got {k}$") for k in ("0", "-1")],
    ("benchmark-noise-list", {"cfg.json": one_point_sweep("base.noise", [1], ["lr"])}, BENCH_ARGS,
     r"^error: benchmark config at degree=1: noise must be a finite number, got \[1\]$"),
    ("benchmark-noise-negative", {"cfg.json": one_point_sweep("base.noise", -1, ["lr"])},
     BENCH_ARGS, r"^error: benchmark config at degree=1: noise must be >= 0, got -1$"),
    ("benchmark-train-unknown-key", {"cfg.json": one_point_sweep("train.epoch", 3, ["ltr"])},
     BENCH_ARGS, rf"^error: unknown train section key 'epoch'; known keys: {TRAIN_KEYS}$"),
    # ADAM's decays and epsilon are constants, not settings
    ("train-adam_beta1", {"cfg.json": '{"train": {"adam_beta1": 0.95}}', "in.csv": XY_CSV},
     TRAIN_ARGS, rf"^error: unknown train section key 'adam_beta1'; known keys: {TRAIN_KEYS}$"),
    ("benchmark-sweep-sample_size", {"cfg.json": one_point_sweep("sweep.variable", "sample_size")},
     BENCH_ARGS, r"^error: sweep variable must be one of \('degree', 'rank', 'noise', "
     r"'variables', 'sample-size'\), got 'sample_size'$"),
    # a homogenized model takes its raw width only; it adds the ones column itself
    ("predict-homogenized-with-ones-column",
     {"model.json": HOMOGENIZED_XY_MODEL, "in.csv": "x1,x2,x3\n2,3,1\n"}, PREDICT_ARGS,
     r"^error: prediction input mismatch: view 0 has 3 columns, factor expects 2$"),
    ("generate-noise-list", {"cfg.json": '{"generator": {"noise": [1]}}'}, GENERATE_ARGS,
     r"^error: noise must be a finite number, got \[1\]$"),
    ("generate-noise-negative", {"cfg.json": '{"generator": {"noise": -1}}'}, GENERATE_ARGS,
     r"^error: noise must be >= 0, got -1$"),
    ("generate-quadratics-function-list",
     {"cfg.json": '{"generator": {"type": "quadratics", "function": ["xy"]}}'}, GENERATE_ARGS,
     r"^error: function must be one of \('xy', 'sq_diff', 'diff_sq'\), got \['xy'\]$"),
    ("train-homogenize-string",
     {"cfg.json": '{"train": {"homogenize": "false"}}', "in.csv": XY_CSV}, TRAIN_ARGS,
     r"^error: homogenize must be one of \(False, True\), got 'false'$"),
    # a string "false" is truthy: read as a flag, it would make the model homogenized
    ("model-homogenized-string",
     {"model.json": json.dumps(json.loads(xy_model_json()) | {"homogenized": "false"}),
      "in.csv": "x1\n2\n"}, PREDICT_ARGS,
     r"^error: homogenized must be one of \(False, True\), got 'false'$"),
    # rows are visited in a fresh seeded order every epoch; the baselines are fixed learners
    ("train-shuffle", {"cfg.json": '{"train": {"shuffle": false}}', "in.csv": XY_CSV}, TRAIN_ARGS,
     rf"^error: unknown train section key 'shuffle'; known keys: {TRAIN_KEYS}$"),
    ("benchmark-krr-section", {"cfg.json": one_point_sweep("krr.ridge", 1e-6, ["krr"])},
     BENCH_ARGS, rf"^error: unknown config key 'krr'; known keys: {TOP_LEVEL_KEYS}$"),
    *[(f"benchmark-fm.{key}", {"cfg.json": one_point_sweep(f"fm.{key}", value, ["fm"])},
       BENCH_ARGS, rf"^error: unknown fm section key '{key}'; known keys: steps, restarts$")
      for key, value in (("learning_rate", 0.01), ("seed", 3))],
    # rank_blocks partitions the terms of a layered fit only; elsewhere it would go unread
    ("train-rank_blocks-joint",
     {"cfg.json": '{"train": {"mode": "joint", "n_t": 2, "rank_blocks": [1, 1]}}',
      "in.csv": XY_CSV}, TRAIN_ARGS,
     r"^error: rank_blocks applies to layered mode only, not 'joint'$"),
    ("generate-misspelt-key", {"cfg.json": '{"generator": {"degre": 3, "m": 10}}'},
     GENERATE_ARGS, r"^error: unknown generator section key 'degre'; known keys: type, n, "
     r"degree, rank, m, test_m, noise, seed, function$"),
    # a generator key the chosen type does not read
    ("generate-quadratics-noise",
     {"cfg.json": '{"generator": {"type": "quadratics", "m": 20, "noise": 5.0, "n": 7}}'},
     GENERATE_ARGS, r"^error: unknown quadratics generator key 'noise'; known keys: type, m, "
     r"test_m, seed, function$"),
    ("generate-random-function",
     {"cfg.json": '{"generator": {"type": "random", "function": "sq_diff"}}'}, GENERATE_ARGS,
     r"^error: unknown random generator key 'function'; known keys: type, n, degree, rank, m, "
     r"test_m, noise, seed$"),
    # more folds than examples at any grid point fails before the first fit
    ("benchmark-folds-above-m", {"cfg.json": one_point_sweep("folds", 51)}, BENCH_ARGS,
     r"^error: benchmark config at degree=1: folds=51 is more than the m=50 examples$"),
    ("benchmark-sample-size-below-folds",
     {"cfg.json": json.dumps({"sweep": {"variable": "sample-size", "values": [100, 3]},
                              "base": {"n": 3, "degree": 2, "rank": 2, "m": 20}, "folds": 5})},
     BENCH_ARGS, r"^error: benchmark config at sample-size=3: folds=5 is more than the m=3 "
     r"examples$"),
    ("train-link-list", {"cfg.json": '{"train": {"link": ["logistic"]}}', "in.csv": XY_CSV},
     TRAIN_ARGS, r"^error: link must be one of \('identity', 'logistic'\), got \['logistic'\]$"),
    ("model-link-list", {"model.json": json.dumps(json.loads(xy_model_json()) | {"link": ["x"]}),
                         "in.csv": "x1,x2\n1,2\n"}, PREDICT_ARGS,
     r"^error: link must be one of \('identity', 'logistic'\), got \['x'\]$"),
    # a model file holds the keys `model_to_dict` writes, and its shape keys match its factors
    *[(f"model-{key}-mismatch",
       {"model.json": json.dumps(json.loads(xy_model_json()) | {key: value}),
        "in.csv": "x1,x2\n2,3\n"}, PREDICT_ARGS,
       rf"^error: model file says {key}={value}, its factors give {true}$")
      for key, value, true in (("n_d", 7, 2), ("n_t", 9, 1), ("n", 3, 2), ("n_y", 4, 1))],
    ("model-misspelt-link",
     {"model.json": json.dumps(json.loads(xy_model_json(drop="link")) | {"lnk": "logistic"}),
      "in.csv": "x1,x2\n2,3\n"}, PREDICT_ARGS,
     r"^error: unknown model file key 'lnk'; known keys: schema_version, n_d, n_t, n, n_y, "
     r"homogenized, lambda, P, Q, link$"),
    *[(f"model-{key}-{case}",
       {"model.json": json.dumps(json.loads(xy_model_json()) | {key: value}),
        "in.csv": "x1,x2\n2,3\n"}, PREDICT_ARGS, rf"^error: {message}$")
      for key, case, value, message in (
          ("P", "number", 5, "P must be a non-empty list of factor matrices"),
          ("P", "null", None, "P must be a non-empty list of factor matrices"),
          ("lambda", "object", {}, "lambda must be an array of numbers: .*'dict'"),
          # one scale factor per term: a number or a nested list is not read as a list
          ("lambda", "number", 2.0, r"lambda must be a 1-d array, got shape \(\)"),
          ("lambda", "nested", [[1.0]], r"lambda must be a 1-d array, got shape \(1, 1\)"),
          # JSON numbers only: a string or a boolean is not read as a number
          ("P", "string", [[["1", 0.0]], [[0.0, 1.0]]], "P must hold numbers only, got '1'"),
          ("Q", "boolean", [[True]], "Q must hold numbers only, got True"),
          ("lambda", "string", ["1"], "lambda must hold numbers only, got '1'"),
          ("lambda", "boolean", [False], "lambda must hold numbers only, got False"))],
    *[(f"benchmark-{section}-misspelt-key", {"cfg.json": one_point_sweep(name, value, [section])},
       BENCH_ARGS, rf"^error: unknown {section} section key {key!r}; known keys: {known}$")
      for section, name, value, key, known in (
          ("fm", "fm.step", 10, "step", "steps, restarts"),
          ("base", "base.nosie", 0.5, "nosie", "n, degree, rank, m, noise, seed"),
          ("sweep", "sweep.extra", 1, "extra", "variable, values"))],
    ("train-misspelt-top-level-key",
     {"cfg.json": '{"trian": {"epochs": 1}}', "in.csv": XY_CSV}, TRAIN_ARGS,
     rf"^error: unknown config key 'trian'; known keys: {TOP_LEVEL_KEYS}$"),
    *[(f"benchmark-misspelt-top-level-{key}", {"cfg.json": one_point_sweep(key, value)},
       BENCH_ARGS, rf"^error: unknown config key '{key}'; known keys: {TOP_LEVEL_KEYS}$")
      for key, value in (("lerners", ["krr"]), ("flods", 3))],
    # file paths are flags only: a run config names no training data
    ("train-data-section", {"cfg.json": '{"data": {"train": "in.csv"}}', "in.csv": XY_CSV},
     TRAIN_FROM_CONFIG_ARGS, rf"^error: unknown config key 'data'; known keys: {TOP_LEVEL_KEYS}$"),
    # --data holds its own outputs: other training inputs next to it would go unread
    ("train-data-with-labels", {**ONE_EPOCH, "in.csv": XY_CSV, "y.csv": "y\n9\n9\n"},
     TRAIN_ARGS + ["--labels", "{dir}/y.csv"],
     r"^error: --data cannot be combined with --views/--labels$"),
    ("train-data-with-views", {**ONE_EPOCH, "in.csv": XY_CSV, "v.csv": "x1,x2\n1,2\n3,4\n"},
     TRAIN_ARGS + ["--views", "{dir}/v.csv", "{dir}/v.csv"],
     r"^error: --data cannot be combined with --views/--labels$"),
    ("train-rank_blocks-int",
     {"cfg.json": '{"train": {"mode": "layered", "rank_blocks": 5}}', "in.csv": XY_CSV},
     TRAIN_ARGS, r"^error: layered mode needs rank_blocks of integers >= 1$"),
    # every file error exits 2 and names the path: a directory or a missing file
    *[(f"{flag[2:]}-{case}",
       {**ONE_EPOCH, "in.csv": XY_CSV, "model.json": xy_model_json(), "dir/x": ""},
       [a if a != path else f"{{dir}}/{name}" for a in argv],
       rf"^error: \[Errno {errno}\] [^:]*: '\S*/{name}'$")
      for flag, argv, path in (("--config", TRAIN_ARGS, "{dir}/cfg.json"),
                               ("--data", TRAIN_ARGS, "{dir}/in.csv"),
                               ("--model", PREDICT_ARGS, "{dir}/model.json"))
      for case, name, errno in (("directory", "dir", 21), ("missing", "nope.json", 2))],
    ("benchmark-base-fraction",
     {"cfg.json": json.dumps({"sweep": {"variable": "noise", "values": [0.0]},
                              "base": {"n": 3.5, "degree": 2, "rank": 2, "m": 50}})},
     BENCH_ARGS, r"^error: benchmark config at noise=0\.0: n must be an integer >= 1, got 3\.5$"),
    # every command rejects nan/inf in the columns it reads
    ("predict-nan-input", {"model.json": xy_model_json(), "in.csv": "x1,x2\n1,2\nnan,3\n"},
     PREDICT_ARGS, r"^error: \S*in\.csv: X contains non-finite values$"),
    ("evaluate-nan-truth", {"p.csv": "y\n1\n2\n", "t.csv": "y\n1\ninf\n"}, EVALUATE_ARGS,
     r"^error: \S*t\.csv: Y contains non-finite values$"),
    # truth that is not 0/1 is refused, not truncated to an integer
    *[(f"evaluate-{task}-nonbinary-truth",
       {"p.csv": "y1,y2\n0.9,0.1\n0.2,0.8\n", "t.csv": "y1,y2\n0.7,0\n0,1\n"},
       EVALUATE_ARGS + ["--task", task], r"^error: Y_true must be binary 0/1$")
      for task in ("classification", "multilabel")],
    ("evaluate-topk-regression", {"p.csv": "y\n1\n2\n", "t.csv": "y\n1\n2\n"},
     EVALUATE_ARGS + ["--task", "regression", "--topk", "2"],
     r"^error: --topk applies to --task multilabel only$"),
    # the header is x1..xn, then y or y1..yk: a name the reader would skip or misplace is refused
    *[(f"csv-header-{case}", {**ONE_EPOCH, "in.csv": text}, TRAIN_ARGS,
       rf"^error: \S*in\.csv: header has {re.escape(name)} where {re.escape(want)} goes$")
      for case, text, name, want in (
          ("unknown-name", "id,x1,x2,y\n7,1,2,2\n", "'id'", "'x1'"),
          ("duplicate-name", "x1,x1,y\n1,2,2\n", "'x1'", "'x2'"),
          ("out-of-order", "x2,x1,y\n1,2,2\n", "'x2'", "'x1'"),
          ("interleaved", "y1,x1,x2,y2,x3\n1,2,3,4,5\n", "'y1'", "'x1'"),
          ("one-output-as-y1", "x1,x2,y1\n1,2,2\n", "'y1'", "'y'"))],
    ("csv-empty-file", {**ONE_EPOCH, "in.csv": ""}, TRAIN_ARGS,
     r"^error: \S*in\.csv: no x\* columns$"),
    # JSON that the parser cannot nest or whose object repeats a key, in a config and a model file
    *[(f"{kind}-{case}", {**files, name: text(files[name])}, argv,
       rf"^error: \S*{re.escape(name)} is not valid JSON: {message.format(first)}$")
      for kind, name, first, files, argv in (
          ("config", "cfg.json", "train", {**ONE_EPOCH, "in.csv": XY_CSV}, TRAIN_ARGS),
          ("model", "model.json", "schema_version",
           {"model.json": xy_model_json(), "in.csv": "x1,x2\n1,2\n"}, PREDICT_ARGS))
      for case, text, message in (
          ("nested-too-deep", lambda _: "[" * 100_000 + "]" * 100_000,
           "maximum recursion depth exceeded.*"),
          # the object's keys twice over: the first key is the first one repeated
          ("repeated-key", lambda valid: valid[:-1] + ", " + valid[1:],
           "key '{}' repeats in one object"))],
    ("train-config-repeated-nested-key",
     {"cfg.json": '{"train": {"epochs": 1, "epochs": 3}}', "in.csv": XY_CSV}, TRAIN_ARGS,
     r"^error: \S*cfg\.json is not valid JSON: key 'epochs' repeats in one object$"),
    # a term count that cannot index a list fails before any allocation
    ("train-n_t-beyond-index", {"cfg.json": '{"train": {"n_t": 1%s}}' % ("0" * 30),
                                "in.csv": XY_CSV}, TRAIN_ARGS,
     r"^error: train: cannot fit 'int' into an index-sized integer$"),
]

# run values are set in the run config only; no command takes these flags
OVERRIDE_FLAGS = ("--seed", "--degree", "--rank", "--epochs", "--batch", "--lr")
# (command, argv, flags the subcommand does not read): argparse rejects them
UNREAD_FLAGS = [
    *[(command, argv, [flag, "3"])
      for command, argv in (("generate", GENERATE_ARGS), ("train", TRAIN_ARGS),
                            ("benchmark", BENCH_ARGS), ("predict", PREDICT_ARGS),
                            ("evaluate", EVALUATE_ARGS))
      for flag in OVERRIDE_FLAGS],
    *[(command, argv, ["--config", "3"])
      for command, argv in (("predict", PREDICT_ARGS), ("evaluate", EVALUATE_ARGS))],
    *[("gradcheck", ["gradcheck"], [flag, "5"]) for flag in ("--config", "--out", *OVERRIDE_FLAGS)],
    ("gradcheck", ["gradcheck"], ["--corrupt", "flip-q"]),
]

# (id, x1,x2 input CSV, expected x1 * x2 predictions)
ACCEPTED = [
    ("blank-lines", "x1,x2\n\n2,3\n\n1,1\n\n", [6.0, 1.0]),
    ("crlf", "x1,x2\r\n2,3\r\n1,1\r\n", [6.0, 1.0]),
    ("quoted-fields", '"x1","x2"\n"2.0","3"\n"1",1\n', [6.0, 1.0]),
    ("header-only", "x1,x2\n", []),
    ("utf-8-bom", "\ufeffx1,x2\n2,3\n1,1\n", [6.0, 1.0]),
    ("spaced-header-names", " x1 , x2\n2,3\n", [6.0]),
]


def run_cli(tmp_path, files, argv):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
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

    def test_out_of_memory_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch):
        # a run value too large to allocate for, such as train.n_t = 10**12, without allocating
        def fit(dataset, config):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (10**12, 1)")

        monkeypatch.setattr(cli, "fit", fit)
        assert run_cli(tmp_path, {**ONE_EPOCH, "in.csv": XY_CSV}, TRAIN_ARGS) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: train: Unable to allocate .*\n", err)

    @pytest.mark.parametrize("argv,extra", [case[1:] for case in UNREAD_FLAGS],
                             ids=[f"{case[0]}{case[2][0]}" for case in UNREAD_FLAGS])
    def test_unread_flag_is_usage_error(self, tmp_path, capsys, argv, extra):
        assert run_cli(tmp_path, {}, argv + extra) == 2
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_run_config_passes_the_key_table():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    check_config(json.loads(blocks[0]), RUN_CONFIG)


def test_readme_lists_the_known_keys_of_each_section():
    table = README.read_text().split("| section | known keys |")[1].split("\n\n")[0]
    listed = {section: tuple(re.findall(r"`(\w+)`", keys))
              for section, keys in re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.M)}
    assert listed == {key: known for key, known in RUN_CONFIG.items() if known is not None}


def parser_options():
    """Each subcommand's option strings, as `build_parser` defines them."""
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    return {name: {option for action in sub._actions for option in action.option_strings}
            - {"-h", "--help"} for name, sub in subcommands.items()}


def test_readme_lists_the_shared_flags_of_each_command():
    table = README.read_text().split("| command | options |")[1].split("\n\n")[0]
    listed = {command: set(re.findall(r"--\w+", options))
              for command, options in re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.M)}
    assert listed == parser_options()


def test_readme_cli_lines_use_only_defined_options():
    block = re.search(r"```bash\n(tensorpoly .*?)```", README.read_text(), re.S).group(1)
    options = parser_options()
    commands = set()
    for line in re.sub(r"\\\n\s*", " ", block).splitlines():
        _, command, *words = line.split("#")[0].split()
        assert {w for w in words if w.startswith("--")} <= options[command], line
        commands.add(command)
    assert commands == set(options)


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

    def test_read_returns_c_contiguous_arrays(self, tmp_path):
        # the fit gathers batch rows with np.take, which is slow on a Fortran-order X; the
        # column slices of the parsed rows are not C-contiguous
        (tmp_path / "d.csv").write_text("x1,x2,x3,y1,y2\n1,2,3,4,5\n6,7,8,9,10\n")
        X, Y = read_dataset_csv(tmp_path / "d.csv")
        assert X.flags.c_contiguous and Y.flags.c_contiguous
        assert X.tolist() == [[1, 2, 3], [6, 7, 8]] and Y.tolist() == [[4, 5], [9, 10]]

    @pytest.mark.parametrize("data", [b"x\xff1,x2\n1,2\n", b"x1,x2\n1,\xff2\n"],
                             ids=["header", "row"])
    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path, data):
        (tmp_path / "d.csv").write_bytes(data)
        with pytest.raises(ValueError, match=r"^\S*d\.csv: 'utf-8' codec can't decode byte 0xff"):
            read_dataset_csv(tmp_path / "d.csv")

    def test_prediction_bytes_match_csv_writer_reference(self, tmp_path):
        Y = np.random.default_rng(22).standard_normal((30, 2))
        write_predictions_csv(tmp_path / "p.csv", Y)
        assert (tmp_path / "p.csv").read_bytes() == \
            csv_writer_reference(["y1", "y2"], Y).encode()


def one_shot_reference(header, rows):
    """The whole-file %-format call the block writer replaced; its bytes are the file format."""
    line = ",".join(["%r"] * rows.shape[1]) + "\n"
    return ",".join(header) + "\n" + (line * rows.shape[0]) % tuple(rows.ravel().tolist())


def block_rows(width):
    return max(1, CSV_BLOCK // width)


class TestCsvBlocks:
    """CSV writes format one block of about CSV_BLOCK numbers at a time; the bytes and the
    round trip must not depend on where the blocks end."""

    ROW_COUNTS = {"empty": lambda b: 0, "one": lambda b: 1, "block-1": lambda b: b - 1,
                  "block": lambda b: b, "block+1": lambda b: b + 1, "2blocks+3": lambda b: 2 * b + 3}
    # x columns, y columns, Y passed as a vector
    SHAPES = {"x-only": (4, 0, False), "1-d-y": (4, 1, True), "3-col-y": (4, 3, False),
              "wide-x": (64, 0, False)}

    @staticmethod
    def values(rng, m, width):
        A = rng.standard_normal((m, width)) * 10.0 ** rng.integers(-300, 300, (m, width))
        A.ravel()[:len(EXTREMES)] = EXTREMES[:A.size]
        return A

    @staticmethod
    def y_names(n_y):
        return ["y"] if n_y == 1 else [f"y{j + 1}" for j in range(n_y)]

    @pytest.mark.parametrize("count", ROW_COUNTS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_dataset_bytes_and_round_trip(self, tmp_path, shape, count):
        n, n_y, vector = self.SHAPES[shape]
        m = self.ROW_COUNTS[count](block_rows(n + n_y))
        rng = np.random.default_rng(m * 100 + n + n_y)
        X, Y = self.values(rng, m, n), self.values(rng, m, n_y)
        write_dataset_csv(tmp_path / "d.csv", X, (Y[:, 0] if vector else Y) if n_y else None)
        header = [f"x{j + 1}" for j in range(n)] + (self.y_names(n_y) if n_y else [])
        expected = one_shot_reference(header, np.hstack([X, Y]))
        assert (tmp_path / "d.csv").read_bytes() == expected.encode()
        X_back, Y_back = read_dataset_csv(tmp_path / "d.csv")
        assert X_back.shape == (m, n) and X_back.tobytes() == X.tobytes()
        if n_y:
            assert Y_back.shape == (m, n_y) and Y_back.tobytes() == Y.tobytes()

    @pytest.mark.parametrize("count", ROW_COUNTS)
    @pytest.mark.parametrize("n_y, vector", [(1, True), (3, False)])
    def test_prediction_bytes_and_round_trip(self, tmp_path, n_y, vector, count):
        m = self.ROW_COUNTS[count](block_rows(n_y))
        Y = self.values(np.random.default_rng(m + n_y), m, n_y)
        write_predictions_csv(tmp_path / "p.csv", Y[:, 0] if vector else Y)
        assert (tmp_path / "p.csv").read_bytes() == one_shot_reference(self.y_names(n_y), Y).encode()
        _, Y_back = read_dataset_csv(tmp_path / "p.csv")
        assert Y_back.shape == (m, n_y) and Y_back.tobytes() == Y.tobytes()

    def test_failure_mid_stream_leaves_the_old_file(self, tmp_path):
        target = tmp_path / "d.csv"
        target.write_bytes(b"x1\n1.0\n")

        def chunks():
            yield "x1\n"
            raise RuntimeError("formatting failed")

        with pytest.raises(RuntimeError, match="formatting failed"):
            _atomic_write(target, chunks())
        assert target.read_bytes() == b"x1\n1.0\n"
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("m", [3, 0])  # with 0 rows no block would ever stack Y
    def test_row_count_mismatch_writes_nothing(self, tmp_path, m):
        with pytest.raises(ValueError, match=f"X has {m} rows, Y has 2"):
            write_dataset_csv(tmp_path / "d.csv", np.zeros((m, 2)), np.zeros(2))
        assert list(tmp_path.iterdir()) == []

    def test_write_memory_does_not_grow_with_rows(self, tmp_path):
        # traced inside the call only, so the input arrays are not counted
        peaks = []
        for m in (20_000, 200_000):
            X = np.random.default_rng(m).standard_normal((m, 4))
            tracemalloc.start()
            try:
                write_dataset_csv(tmp_path / f"{m}.csv", X)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks
