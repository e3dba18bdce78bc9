"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL
line per criterion. Every tolerance is pinned here; the suite operates
the public library surface and the CLI only.
"""

import csv
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from tensorpoly import (
    Dataset,
    TrainConfig,
    cross_validate,
    fit,
    generate_model,
    GeneratorSpec,
    predict,
    sample_dataset,
    quadratics_dataset,
)
from tensorpoly.benchmark import fm_learner, krr_learner, linreg_learner, ltr_learner
from tensorpoly.cli import main
from tensorpoly.metrics import accuracy

from helpers import materialize_tensor, predict_point, random_model, tensor_contract

ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description}")


QUADRATICS_LTR = TrainConfig(
    n_d=2, n_t=2, epochs=10, batch_size=50, learning_rate=0.05,
    mode="rank_wise", seed=3,
)


def test_criterion_1_quadratics_reproduction():
    with criterion(1, "benchmark quadratics: LTR/KRR/LR/FM behave as reported"):
        functions = ("xy", "sq_diff", "diff_sq")
        datasets = {fn: quadratics_dataset(fn, 1000, seed=11) for fn in functions}

        for fn in functions:
            res = cross_validate(datasets[fn], ltr_learner(QUADRATICS_LTR), 5, seed=5)
            pearson, rmse = np.mean(res.fold_pearson), np.mean(res.fold_rmse)
            assert pearson >= 0.99, f"LTR pearson on {fn}: {pearson}"
            assert rmse <= 0.15, f"LTR rmse on {fn}: {rmse}"

        for fn in functions:
            res = cross_validate(datasets[fn], krr_learner(n_d=2, ridge=1e-8), 5, seed=5)
            pearson = np.mean(res.fold_pearson)
            assert pearson >= 0.99, f"KRR pearson on {fn}: {pearson}"

        for fn in ("xy", "diff_sq"):
            res = cross_validate(datasets[fn], linreg_learner(), 5, seed=5)
            pearson = np.mean(res.fold_pearson)
            assert abs(pearson) <= 0.2, f"LR pearson on {fn}: {pearson}"

        fm = fm_learner(n_d=2, n_t=2, steps=200, restarts=2)
        pearson_xy = np.mean(cross_validate(datasets["xy"], fm, 5, seed=5).fold_pearson)
        pearson_anti = np.mean(cross_validate(datasets["diff_sq"], fm, 5, seed=5).fold_pearson)
        assert pearson_xy >= 0.95, f"FM pearson on xy: {pearson_xy}"
        assert abs(pearson_anti) <= 0.3, f"FM pearson on diff_sq: {pearson_anti}"


def test_criterion_2_gradient_check_cli():
    with criterion(2, "analytic gradients match finite differences on the shape grid"):
        start = time.perf_counter()
        code = main(["gradcheck"])
        elapsed = time.perf_counter() - start
        assert code == 0, "gradcheck command reported a violation"
        assert elapsed < 30.0, f"gradcheck took {elapsed:.1f}s"


def test_criterion_3_oracle_equivalence():
    with criterion(3, "decomposed forward equals dense-tensor contraction"):
        rng = np.random.default_rng(99)
        start = time.perf_counter()
        for _ in range(100):
            n = int(rng.integers(1, 5))
            n_d = int(rng.integers(1, 4))
            n_t = int(rng.integers(1, 4))
            model = random_model(rng, n=n, n_d=n_d, n_t=n_t)
            x = rng.standard_normal(n)
            direct = predict_point(model, x)
            dense = tensor_contract(materialize_tensor(model), x)
            assert abs(direct - dense) <= 1e-10 * max(1.0, abs(direct), abs(dense))
        assert time.perf_counter() - start < 5.0


def test_criterion_4_deflation_monotonicity():
    with criterion(4, "residual norms never increase; degree-3 rank-6 target is learned"):
        spec = GeneratorSpec(n=4, n_d=3, n_t=6, m=10_000, seed=21)
        dataset = sample_dataset(generate_model(spec), 10_000, 0.0, seed=22)

        cfg_rank = TrainConfig(n_d=3, n_t=6, epochs=10, batch_size=100,
                               learning_rate=0.05, mode="rank_wise", seed=9)
        _, rep_rank = fit(dataset, cfg_rank)
        for a, b in zip(rep_rank.residual_norms, rep_rank.residual_norms[1:]):
            assert b <= a + 1e-8

        cfg_layer = TrainConfig(n_d=3, n_t=6, epochs=10, batch_size=100,
                                learning_rate=0.05, mode="layered",
                                rank_blocks=[2, 2, 2], seed=9)
        _, rep_layer = fit(dataset, cfg_layer)
        for a, b in zip(rep_layer.residual_norms, rep_layer.residual_norms[1:]):
            assert b <= a + 1e-8

        for cfg in (cfg_rank, cfg_layer):
            res = cross_validate(dataset, ltr_learner(cfg), 2, seed=17)
            pearson = np.mean(res.fold_pearson)
            assert pearson >= 0.95, f"{cfg.mode}: {pearson}"


def _timed_fit(dataset, n_d, n_t, repeats=3):
    times = []
    for _ in range(repeats):
        cfg = TrainConfig(n_d=n_d, n_t=n_t, epochs=2, batch_size=500,
                          learning_rate=0.01, mode="joint", seed=1)
        start = time.perf_counter()
        fit(dataset, cfg)
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def _criterion_5_ratios():
    """Degree and rank ratios of joint-fit times, and the ratio of two timings of one
    fit as a noise gauge; run by criterion 5 in a child process."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((100_000, 10))
    y = rng.standard_normal(100_000)
    dataset = Dataset(views=[X], Y=y)
    _timed_fit(dataset, 4, 10, repeats=1)  # untimed warm-up at the first timed shape

    t_deg4 = _timed_fit(dataset, 4, 10)
    t_deg8 = _timed_fit(dataset, 8, 10)
    t_rank10 = _timed_fit(dataset, 4, 10)
    t_rank20 = _timed_fit(dataset, 4, 20)
    return t_deg8 / t_deg4, t_rank20 / t_rank10, t_rank10 / t_deg4


def test_criterion_5_linear_complexity_trend():
    with criterion(5, "training time grows about linearly in degree and rank"):
        # The criterion is about the algorithm; BLAS thread scheduling makes
        # multi-threaded timings erratic, so the fits run with one BLAS thread.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")]))
        code = "import json, test_acceptance as t; print(json.dumps(t._criterion_5_ratios()))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-2000:]
        ratio_degree, ratio_rank, noise = json.loads(proc.stdout)
        # t_rank10 and t_deg4 time the same fit, so their ratio (ideally 1) reads the noise
        assert 1.3 <= ratio_degree <= 3.0, f"degree ratio {ratio_degree:.2f}, noise {noise:.2f}"
        assert 1.3 <= ratio_rank <= 3.0, f"rank ratio {ratio_rank:.2f}, noise {noise:.2f}"


def test_criterion_6_noise_degradation():
    with criterion(6, "accuracy decays monotonically with the noise level"):
        spec = GeneratorSpec(n=10, n_d=3, n_t=3, m=100_000, seed=31)
        true_model = generate_model(spec)
        cfg = TrainConfig(n_d=3, n_t=3, epochs=10, batch_size=500,
                          learning_rate=0.05, mode="joint", seed=5)
        pearsons = []
        for noise in (0.0, 0.25, 0.5, 1.0):
            dataset = sample_dataset(true_model, 100_000, noise, seed=33)
            res = cross_validate(dataset, ltr_learner(cfg), 2, seed=7)
            pearsons.append(np.mean(res.fold_pearson))
        assert pearsons[0] >= 0.99, f"noise-free pearson {pearsons[0]}"
        for a, b in zip(pearsons, pearsons[1:]):
            assert b <= a + 0.02, f"sequence not monotone: {pearsons}"


def test_criterion_7_classification_sanity():
    with criterion(7, "parity labels need a degree-2 model"):
        rng = np.random.default_rng(77)
        X = rng.standard_normal((10_000, 2))
        labels = (X[:, 0] * X[:, 1] > 0).astype(float)  # Bayes rate 1 by construction
        dataset = Dataset(views=[X], Y=labels)

        def train_accuracy(degree):
            cfg = TrainConfig(n_d=degree, n_t=2, epochs=10, batch_size=100,
                              learning_rate=0.1, mode="joint", link="logistic",
                              seed=3, homogenize=(degree == 1))
            model, _ = fit(dataset, cfg)
            return accuracy(labels, predict(model, X)[:, 0])

        acc2 = train_accuracy(2)
        acc1 = train_accuracy(1)
        assert acc2 >= 0.95, f"degree-2 accuracy {acc2}"
        assert acc1 <= 0.6, f"degree-1 accuracy {acc1}"


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "identical config and seed reproduce accuracy outputs exactly"):
        gen_cfg = {"generator": {"type": "random", "n": 3, "degree": 2, "rank": 2,
                                 "m": 300, "seed": 13}}
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps(gen_cfg))
        for tag in ("a", "b"):
            assert main(["generate", "--config", str(cfg_path),
                         "--out", str(tmp_path / tag)]) == 0
        assert (tmp_path / "a" / "train.csv").read_text() == \
            (tmp_path / "b" / "train.csv").read_text()

        train_cfg = {"train": {"n_d": 2, "n_t": 2, "epochs": 5, "batch_size": 50,
                               "learning_rate": 0.05, "mode": "rank_wise", "seed": 4}}
        tcfg_path = tmp_path / "train.json"
        tcfg_path.write_text(json.dumps(train_cfg))
        for tag in ("a", "b"):
            assert main(["train", "--config", str(tcfg_path),
                         "--data", str(tmp_path / "a" / "train.csv"),
                         "--out", str(tmp_path / f"fit_{tag}")]) == 0
        assert (tmp_path / "fit_a" / "model.json").read_text() == \
            (tmp_path / "fit_b" / "model.json").read_text()

        bench_cfg = {
            "sweep": {"variable": "degree", "values": [1, 2]},
            "base": {"n": 3, "degree": 2, "rank": 2, "m": 300, "noise": 0.0, "seed": 5},
            "learners": ["ltr", "lr"],
            "train": {"epochs": 5, "batch_size": 50, "learning_rate": 0.05,
                      "mode": "joint", "seed": 2},
            "folds": 2,
        }
        bcfg_path = tmp_path / "bench.json"
        bcfg_path.write_text(json.dumps(bench_cfg))
        for tag in ("a", "b"):
            assert main(["benchmark", "--config", str(bcfg_path),
                         "--out", str(tmp_path / f"bench_{tag}")]) == 0

        def accuracy_rows(path):
            with open(path) as fh:
                return [row for row in csv.reader(fh) if row[3] != "train_seconds"]

        assert accuracy_rows(tmp_path / "bench_a" / "results.csv") == \
            accuracy_rows(tmp_path / "bench_b" / "results.csv")
