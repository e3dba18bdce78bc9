import math
import re
import time
import warnings

import numpy as np
import pytest

from tensorpoly import Dataset, TrainConfig, cross_validate, pearson
from tensorpoly.benchmark import ltr_learner
from tensorpoly.metrics import (
    accuracy,
    correlation_ratio,
    f1_multilabel,
    make_cv_plan,
    rmse,
    top_k_binarize,
)

from helpers import finite_checks


class TestPearson:
    def test_affine_image_is_perfectly_correlated(self):
        y = np.array([0.3, -1.2, 2.0, 0.9, -0.1])
        assert pearson(y, 2 * y + 3) == pytest.approx(1.0)

    def test_negation_flips_sign(self):
        y = np.array([1.0, 2.0, 3.0])
        assert pearson(y, -y) == pytest.approx(-1.0)

    def test_frozen_value_from_direct_formula(self):
        # oracle: cov / sqrt(var_y * var_z) computed by hand sums
        assert pearson([1, 2, 3, 4], [1, 2, 2, 4]) == pytest.approx(
            0.9233805168766388, abs=1e-15
        )

    def test_zero_variance_is_nan(self):
        assert math.isnan(pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
        assert math.isnan(pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]))

    def test_affine_equivariance(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(40)
        z = rng.standard_normal(40)
        base = pearson(y, z)
        assert pearson(y, 2.5 * z + 1.0) == pytest.approx(base, rel=1e-12)
        assert pearson(y, -0.5 * z + 2.0) == pytest.approx(-base, rel=1e-12)

    def test_large_finite_inputs_do_not_overflow(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(2000)
        z = y + rng.standard_normal(2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pearson(1e100 * y, z) == pytest.approx(pearson(y, z), rel=1e-12)
            for scaled in ((1e100 * y, 1e100 * z), (y, 1e160 * z), (1e-160 * y, z)):
                assert pearson(*scaled) == pytest.approx(pearson(y, z), rel=1e-12)


class TestRmse:
    def test_identical_vectors(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_constant_offset(self):
        y = np.array([0.0, 1.0, 2.0])
        assert rmse(y, y + 1.5) == pytest.approx(1.5)
        assert rmse(y, y - 2.0) == pytest.approx(2.0)

    def test_frozen_value(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(3.5355339059327378)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse([], [])

    def test_large_finite_errors_do_not_overflow(self):
        rng = np.random.default_rng(5)
        y, z = rng.standard_normal(2000), rng.standard_normal(2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rmse([1e155], [-1e155]) == 2e155
            assert rmse(1e160 * y, 1e160 * z) == pytest.approx(1e160 * rmse(y, z), rel=1e-12)

    def test_overflowing_difference_stays_finite(self):
        # y - yhat overflows here, although the root is a finite double
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rmse([1e308, 0.0], [-1e308, 0.0]) == pytest.approx(math.sqrt(2) * 1e308, rel=1e-15)
            assert rmse([1e308, 1e-300], [1e308, 0.0]) == pytest.approx(1e-300 / math.sqrt(2), rel=1e-15)
            assert rmse([1e200, 1e-150], [1e200, 0.0]) == pytest.approx(1e-150 / math.sqrt(2), rel=1e-15)

    def test_tiny_errors_do_not_underflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rmse([1e-170], [0.0]) == 1e-170
            assert rmse([1.0, 1e-170], [1.0, 0.0]) == pytest.approx(1e-170 / math.sqrt(2), rel=1e-15)
            assert rmse([0.0, 5e-324], [0.0, 0.0]) > 0.0

    def test_ordinary_errors_round_as_unscaled(self):
        # the power-of-two scaling is exact, so seeded evaluations do not move
        rng = np.random.default_rng(6)
        for _ in range(200):
            m = int(rng.integers(1, 500))
            y = rng.standard_normal(m) * 10.0 ** rng.integers(-100, 100)
            z = y + rng.standard_normal(m) * 10.0 ** rng.integers(-100, 100)
            assert rmse(y, z) == float(np.sqrt(np.mean((y - z) ** 2)))

    def test_non_finite_errors_propagate(self):
        assert rmse([1.0, np.inf], [0.0, 0.0]) == np.inf
        assert math.isnan(rmse([1.0, np.nan], [0.0, 0.0]))


class TestF1Multilabel:
    def test_perfect_prediction(self):
        Y = np.array([[1, 0], [0, 1]])
        assert f1_multilabel(Y, Y) == 1.0

    def test_all_negative_prediction(self):
        Y = np.array([[1, 0], [0, 1]])
        assert f1_multilabel(Y, np.zeros_like(Y)) == 0.0

    def test_frozen_counts(self):
        # TP=2, FP=1, FN=1 -> 2*2 / (4 + 1 + 1)
        y_true = np.array([[1, 1, 0, 1]])
        y_pred = np.array([[1, 1, 1, 0]])
        assert f1_multilabel(y_true, y_pred) == pytest.approx(2 / 3)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(5)
        T = (rng.random((20, 6)) < 0.3).astype(int)
        P = (rng.random((20, 6)) < 0.3).astype(int)
        perm = rng.permutation(20)
        assert f1_multilabel(T, P) == f1_multilabel(T[perm], P[perm])

    def test_degenerate_all_empty(self):
        Z = np.zeros((3, 4), dtype=int)
        assert f1_multilabel(Z, Z) == 0.0

    def test_shape_and_binary_validation(self):
        with pytest.raises(ValueError):
            f1_multilabel(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            f1_multilabel(np.full((2, 2), 0.5), np.zeros((2, 2)))

    def test_top_k_binarize(self):
        scores = np.array([[0.1, 0.9, 0.5], [0.8, 0.2, 0.3]])
        out = top_k_binarize(scores, 1)
        assert out.tolist() == [[0, 1, 0], [1, 0, 0]]


class TestCorrelationRatio:
    def test_distinct_constant_layers(self):
        layers = np.array([[1.0, 1.0, 1.0], [4.0, 4.0, 4.0]])
        assert correlation_ratio(layers) == pytest.approx(1.0)

    def test_identical_varying_layers(self):
        v = np.array([0.0, 1.0, 2.0])
        assert correlation_ratio(np.vstack([v, v, v])) == pytest.approx(0.0)

    def test_hand_computed_two_layers(self):
        layers = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert correlation_ratio(layers) == pytest.approx(1.0)

    def test_bounded_between_zero_and_one(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            layers = rng.standard_normal((int(rng.integers(1, 5)), 10))
            eta = correlation_ratio(layers)
            assert 0.0 <= eta <= 1.0 + 1e-12

    def test_within_layer_variance_keeps_ratio_below_one(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            layers = rng.standard_normal((3, 12))
            layers += rng.standard_normal((3, 1)) * 5  # distinct layer means
            assert correlation_ratio(layers) < 1.0

    def test_zero_total_variance_is_nan(self):
        assert math.isnan(correlation_ratio(np.ones((3, 4))))

    def test_one_example_is_its_layer_mean(self):
        # all variance of one example per layer lies between the layer means
        assert correlation_ratio(np.array([[1.0], [3.0], [-2.0]])) == 1.0
        assert math.isnan(correlation_ratio(np.array([[2.0], [2.0]])))
        assert math.isnan(correlation_ratio(np.array([[5.0]])))
        with pytest.raises(ValueError, match="one layer and one example"):
            correlation_ratio(np.empty((2, 0)))


class TestCrossValidation:
    def test_plan_partitions_rows_evenly(self):
        plan = make_cv_plan(10, 3, seed=1)
        sizes = [int(np.sum(plan == f)) for f in range(3)]
        assert sorted(sizes) == [3, 3, 4]
        all_idx = np.concatenate([np.flatnonzero(plan == f) for f in range(3)])
        assert sorted(all_idx.tolist()) == list(range(10))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((60, 2))
        y = X[:, 0] * X[:, 1]
        ds = Dataset(views=[X], Y=y)

        def learner(train):
            return lambda test: test.X[:, 0] * test.X[:, 1]

        a = cross_validate(ds, learner, 3, seed=4)
        b = cross_validate(ds, learner, 3, seed=4)
        assert a.fold_pearson == b.fold_pearson
        assert a.fold_rmse == b.fold_rmse

    def test_perfect_learner(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 2))
        y = (X**2).sum(axis=1)
        ds = Dataset(views=[X], Y=y)

        def learner(train):
            return lambda test: (test.X**2).sum(axis=1)

        res = cross_validate(ds, learner, 4, seed=0)
        assert np.mean(res.fold_pearson) == pytest.approx(1.0)
        assert np.mean(res.fold_rmse) == pytest.approx(0.0, abs=1e-14)

    def test_fit_seconds_one_per_fold(self):
        rng = np.random.default_rng(5)
        ds = Dataset(views=[rng.standard_normal((30, 2))], Y=rng.standard_normal(30))

        def learner(train):
            time.sleep(0.002)  # the timed part is the learner(train) call
            return lambda test: test.X[:, 0]

        res = cross_validate(ds, learner, 3, seed=0)
        assert len(res.fit_seconds) == 3
        assert all(seconds >= 0.002 for seconds in res.fit_seconds)

    def test_ltr_folds_check_only_the_held_out_views(self, monkeypatch):
        # the folds are rows of a checked dataset; only predict checks its raw input
        rng = np.random.default_rng(7)
        ds = Dataset(views=rng.standard_normal((60, 2)), Y=rng.standard_normal(60))
        config = TrainConfig(n_d=2, n_t=1, epochs=1, batch_size=10, mode="joint")
        checked = finite_checks(monkeypatch, 60, 30)
        cross_validate(ds, ltr_learner(config), 2, seed=0)
        assert checked == [(30, 2), (30, 2)]

    def test_learner_failure_annotated_with_fold(self):
        rng = np.random.default_rng(4)
        ds = Dataset(views=[rng.standard_normal((20, 2))], Y=np.ones(20))

        def learner(train):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="fold 0"):
            cross_validate(ds, learner, 2, seed=0)

    @pytest.mark.parametrize("n_y, predictor, shape", [
        (1, lambda test: np.hstack([test.Y] * 3), "(10, 3), expected (10, 1)"),
        (2, lambda test: test.Y[:, 0], "(10, 1), expected (10, 2)"),
        (1, lambda test: test.Y[1:], "(9, 1), expected (10, 1)"),
    ], ids=["wide", "narrow", "short"])
    def test_predictions_of_another_shape_are_refused(self, n_y, predictor, shape):
        rng = np.random.default_rng(6)
        ds = Dataset(views=[rng.standard_normal((20, 2))], Y=rng.standard_normal((20, n_y)))
        message = f"learner failed on fold 0: predictions have shape {shape}"
        with pytest.raises(RuntimeError, match=re.escape(message)):
            cross_validate(ds, lambda train: predictor, 2, seed=0)


class TestAccuracy:
    def test_thresholding(self):
        y = np.array([1.0, 0.0, 1.0, 0.0])
        prob = np.array([0.9, 0.2, 0.4, 0.6])
        assert accuracy(y, prob) == pytest.approx(0.5)
