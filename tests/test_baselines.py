import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from tensorpoly import Dataset, generate_model, pearson, quadratics_dataset, sample_dataset
from tensorpoly.baselines import (
    KRR_SIZE_CAP,
    anova_terms,
    fm_fit_gd,
    fm_forward,
    krr_fit,
    krr_predict,
    linreg_fit,
    linreg_predict,
    poly_features,
    poly_kernel,
)
from tensorpoly.benchmark import _point_seeds
from tensorpoly.datagen import GeneratorSpec
from tensorpoly.metrics import make_cv_plan, rmse


class TestPolyKernel:
    def test_unit_vector(self):
        x = np.array([[1.0, 0.0]])
        assert poly_kernel(x, x, b=0.0, n_d=2)[0, 0] == pytest.approx(1.0)

    def test_orthogonal_vectors_vanish(self):
        x1 = np.array([[1.0, 0.0]])
        x2 = np.array([[0.0, 1.0]])
        for deg in (1, 2, 3, 5):
            assert poly_kernel(x1, x2, b=0.0, n_d=deg)[0, 0] == 0.0

    def test_against_entry_loop(self):
        rng = np.random.default_rng(3)
        X1 = rng.standard_normal((5, 3))
        X2 = rng.standard_normal((5, 3))
        K = poly_kernel(X1, X2, b=1.0, n_d=3)
        for i in range(5):
            for j in range(5):
                expected = (float(np.dot(X1[i], X2[j])) + 1.0) ** 3
                assert K[i, j] == pytest.approx(expected, rel=1e-12)

    def test_symmetric_positive_semidefinite(self):
        rng = np.random.default_rng(5)
        for b in (0.0, 0.5, 2.0):
            X = rng.standard_normal((12, 4))
            K = poly_kernel(X, X, b=b, n_d=2)
            assert np.allclose(K, K.T)
            assert np.min(np.linalg.eigvalsh(K)) >= -1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            poly_kernel(np.zeros((2, 3)), np.zeros((2, 4)), b=0.0, n_d=2)

    def test_feature_gram_is_the_kernel(self):
        # the bound is 1e-14 of the kernel on |X|, the scale of the expansion's summands
        rng = np.random.default_rng(25)
        X1 = rng.standard_normal((40, 4))
        X2 = rng.standard_normal((30, 4))
        for b in (0.0, 1.0):
            for n_d in (1, 2, 3, 4, 5):
                Phi1, Phi2 = poly_features(X1, b, n_d), poly_features(X2, b, n_d)
                assert Phi1.shape == (40, math.comb(4 + n_d, n_d))
                scale = poly_kernel(np.abs(X1), np.abs(X2), b, n_d)
                assert np.all(np.abs(Phi1 @ Phi2.T - poly_kernel(X1, X2, b, n_d)) <= 1e-14 * scale)


def pow_kernel(X1, X2, b, n_d):
    """The kernel by numpy's ``**``, as reference for the repeated multiplication."""
    return (X1 @ X2.T + b) ** n_d


def pow_anova_terms(X, P, n_d, signed=True):
    """The ANOVA terms with power sums by numpy's ``**``. ``signed=False`` runs the
    recursion on ``|X|`` and ``|P|`` with every sign positive: the scale of its summands."""
    if not signed:
        X, P = np.abs(X), np.abs(P)
    D = [None] + [(X**r) @ (P**r).T for r in range(1, n_d + 1)]
    A = [np.ones((X.shape[0], P.shape[0]))]
    for d in range(1, n_d + 1):
        acc = np.zeros_like(A[0])
        for r in range(1, d + 1):
            acc += (1.0 if r % 2 or not signed else -1.0) * A[d - r] * D[r]
        A.append(acc / d)
    return A[1:]


class TestIntegerPowers:
    def test_poly_kernel_matches_pow(self):
        # 300 rows of 200 columns span two row blocks, the second one partial
        rng = np.random.default_rng(21)
        X1 = rng.standard_normal((300, 5))
        X2 = rng.standard_normal((200, 5))
        for n_d in (1, 2):
            assert np.array_equal(poly_kernel(X1, X2, 1.0, n_d), pow_kernel(X1, X2, 1.0, n_d))
        for n_d in (3, 4, 5):
            np.testing.assert_allclose(
                poly_kernel(X1, X2, 1.0, n_d), pow_kernel(X1, X2, 1.0, n_d), rtol=1e-15, atol=0
            )

    def test_anova_terms_match_pow(self):
        # Newton's recursion cancels, so entries far below their summands differ by
        # more than 1e-15 of themselves under either form; the bound is 1e-15 of the
        # summands' scale
        rng = np.random.default_rng(22)
        X = rng.standard_normal((300, 6))
        P = rng.standard_normal((4, 6))
        for n_d in (1, 2):
            for A, ref in zip(anova_terms(X, P, n_d), pow_anova_terms(X, P, n_d)):
                assert np.array_equal(A, ref)
        for n_d in (3, 4, 5):
            terms = zip(anova_terms(X, P, n_d), pow_anova_terms(X, P, n_d),
                        pow_anova_terms(X, P, n_d, signed=False))
            for A, ref, scale in terms:
                assert np.all(np.abs(A - ref) <= 1e-15 * scale)

    def test_poly_kernel_allocates_one_kernel(self):
        X = np.random.default_rng(23).standard_normal((1000, 6))
        for n_d in (1, 2, 3):
            tracemalloc.start()
            try:
                K = poly_kernel(X, X, 1.0, n_d)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.25 * K.nbytes

    @pytest.mark.parametrize("n_d", [0, 2.5, True])
    def test_degree_must_be_a_positive_integer(self, n_d):
        x = np.ones((2, 3))
        with pytest.raises(ValueError, match="n_d"):
            poly_kernel(x, x, 1.0, n_d)
        with pytest.raises(ValueError, match="n_d"):
            anova_terms(x, x, n_d)


class TestKrr:
    def test_interpolates_with_zero_ridge(self):
        # m below the polynomial feature dimension keeps K nonsingular
        rng = np.random.default_rng(7)
        X = rng.standard_normal((8, 3))
        y = rng.standard_normal(8)
        model = krr_fit(Dataset(views=[X], Y=y), n_d=2, ridge=0.0)
        assert model.X_train is not None  # the dual path: 10 features against 8 rows
        assert rmse(y, krr_predict(model, X)) < 1e-8

    def test_duplicate_rows_need_ridge(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((10, 2))
        X[5] = X[0]
        y = rng.standard_normal(10)
        model = krr_fit(Dataset(views=[X], Y=y), n_d=2, ridge=1e-6)
        assert np.all(np.isfinite(krr_predict(model, X)))

    def test_size_cap(self):
        X = np.zeros((KRR_SIZE_CAP + 1, 1))
        with pytest.raises(ValueError):
            krr_fit(Dataset(views=[X], Y=np.zeros(KRR_SIZE_CAP + 1)), n_d=2)

    def _model(self, m_test):
        # 20 inputs at degree 3 have C(23, 3) = 1,771 features, more than the 1,000 rows,
        # so the fit takes the dual path and predict builds the kernel
        rng = np.random.default_rng(24)
        X = rng.standard_normal((1000, 20))
        model = krr_fit(Dataset(views=[X], Y=rng.standard_normal(1000)), n_d=3, ridge=1e-3)
        assert model.X_train is X
        return model, rng.standard_normal((m_test, 20))

    def test_predict_matches_the_whole_kernel(self):
        # 1000 training rows make blocks of 262 test rows: three blocks, the last one partial
        model, X = self._model(600)
        K = poly_kernel(X, model.X_train, 1.0, model.n_d)
        scale = np.abs(K) @ np.abs(model.coef)
        assert np.all(np.abs(krr_predict(model, X) - K @ model.coef) <= 1e-13 * scale)

    def test_predict_holds_one_block_of_the_kernel(self):
        model, X = self._model(2000)
        tracemalloc.start()
        try:
            krr_predict(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * X.shape[0] * model.X_train.shape[0] * 8

    def test_primal_matches_the_dual_closed_form(self):
        # 6 inputs have 7, 28 and 84 features at degrees 1-3, fewer than the 1,000 rows
        rng = np.random.default_rng(26)
        X, X_test = rng.standard_normal((1000, 6)), rng.standard_normal((500, 6))
        y = rng.standard_normal(1000)
        for n_d in (1, 2, 3):
            model = krr_fit(Dataset(views=[X], Y=y), n_d=n_d, ridge=1e-3)
            assert model.X_train is None
            K = poly_kernel(X, X, 1.0, n_d) + 1e-3 * np.eye(1000)
            alpha = np.linalg.solve(K, y)
            K_test = poly_kernel(X_test, X, 1.0, n_d)
            scale = np.abs(K_test) @ np.abs(alpha)
            assert np.all(np.abs(krr_predict(model, X_test) - K_test @ alpha) <= 1e-13 * scale)

    def test_primal_path_from_as_many_rows_as_features(self):
        # 3 inputs at degree 2 have C(5, 2) = 10 features
        rng = np.random.default_rng(27)
        for m, primal in ((10, True), (9, False)):
            ds = Dataset(views=[rng.standard_normal((m, 3))], Y=rng.standard_normal(m))
            assert (krr_fit(ds, n_d=2).X_train is None) == primal

    def test_primal_fit_holds_no_kernel(self):
        # the 2,000 x 2,000 kernel alone is 32 MB; the features are 2,000 x 84
        rng = np.random.default_rng(28)
        X, X_test = rng.standard_normal((2000, 6)), rng.standard_normal((2000, 6))
        ds = Dataset(views=[X], Y=rng.standard_normal(2000))
        tracemalloc.start()
        try:
            krr_predict(krr_fit(ds, n_d=3), X_test)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_fits_quadratics(self):
        ds = quadratics_dataset("sq_diff", 400, seed=4)
        model = krr_fit(Dataset(views=[ds.X[:300]], Y=ds.Y[:300]), n_d=2, ridge=1e-8)
        yhat = krr_predict(model, ds.X[300:])
        assert pearson(ds.Y[300:, 0], yhat) >= 0.99


class TestLinearRegression:
    def test_exact_linear_data(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((500, 3))
        y = X @ [1.0, -2.0, 0.5] + 0.7
        w = linreg_fit(Dataset(views=[X[:400]], Y=y[:400]))
        assert pearson(y[400:], linreg_predict(w, X[400:])) >= 0.999

    def test_blind_to_pure_interaction(self):
        ds = quadratics_dataset("xy", 1000, seed=10)
        w = linreg_fit(Dataset(views=[ds.X[:500]], Y=ds.Y[:500]))
        r = pearson(ds.Y[500:, 0], linreg_predict(w, ds.X[500:]))
        assert abs(r) <= 0.1

    def test_constant_target_zeroes_feature_weights(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((200, 4))
        w = linreg_fit(Dataset(views=[X], Y=np.full(200, 3.0)))
        assert np.max(np.abs(w[:-1])) < 1e-8
        assert w[-1] == pytest.approx(3.0, abs=1e-8)


def brute_force_interactions(x, p, max_degree):
    """Sum over strictly increasing index tuples of all lengths 1..max_degree."""
    n = x.shape[0]
    total = 0.0
    for d in range(1, max_degree + 1):
        for combo in itertools.combinations(range(n), d):
            prod = 1.0
            for j in combo:
                prod *= x[j] * p[j]
            total += prod
    return total


def brute_force_degree(x, p, d):
    """Single fixed-length elementary symmetric term."""
    total = 0.0
    for combo in itertools.combinations(range(x.shape[0]), d):
        prod = 1.0
        for j in combo:
            prod *= x[j] * p[j]
        total += prod
    return total


class TestFmForward:
    def test_degree2_term_is_elementary_symmetric(self):
        # e2 for p=(1,1), x=(2,3) via Newton's identity (s1^2 - s2)/2 = 6
        X = np.array([[2.0, 3.0]])
        P = np.array([[1.0, 1.0]])
        A = anova_terms(X, P, 2)
        assert A[1][0, 0] == pytest.approx(6.0, rel=1e-12)
        s1 = 2.0 + 3.0
        s2 = 4.0 + 9.0
        assert A[1][0, 0] == pytest.approx((s1**2 - s2) / 2, rel=1e-12)

    def test_degree_one_is_linear(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((6, 4))
        P = rng.standard_normal((3, 4))
        out = fm_forward(X, P, 1)
        expected = (X @ P.T).sum(axis=1)
        assert np.allclose(out, expected, rtol=1e-12)

    def test_against_combinatorial_brute_force(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((5, 4))
        P = rng.standard_normal((2, 4))
        for n_d in (2, 3):
            out = fm_forward(X, P, n_d)
            A = anova_terms(X, P, n_d)
            for i in range(5):
                expected = sum(
                    brute_force_interactions(X[i], P[t], n_d) for t in range(2)
                )
                assert out[i] == pytest.approx(expected, rel=1e-10)
                for d in range(1, n_d + 1):
                    for t in range(2):
                        assert A[d - 1][i, t] == pytest.approx(
                            brute_force_degree(X[i], P[t], d), rel=1e-10, abs=1e-12
                        )

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((7, 5))
        P = rng.standard_normal((2, 5))
        perm = rng.permutation(5)
        a = fm_forward(X, P, 3)
        b = fm_forward(X[:, perm], P[:, perm], 3)
        assert np.allclose(a, b, rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fm_forward(np.zeros((2, 3)), np.zeros((1, 4)), 2)


class TestFmGradientDescent:
    def test_learns_symmetric_but_not_antisymmetric(self):
        results = {}
        for fn in ("xy", "diff_sq"):
            ds = quadratics_dataset(fn, 400, seed=2)
            P = fm_fit_gd(ds.X[:200], ds.Y[:200, 0], n_d=2, n_t=2,
                          steps=150, restarts=2)
            results[fn] = pearson(ds.Y[200:, 0], fm_forward(ds.X[200:], P, 2))
        assert results["xy"] >= 0.95
        assert abs(results["diff_sq"]) <= 0.3

    def test_divergence_raises_without_numpy_warnings(self):
        # fold 0 of the degree-3 point of a seed-16838 degree sweep (n=6, rank 3, m=4000):
        # every restart overflows, which the MSE check turns into one RuntimeError
        model_seed, data_seed, fold_seed = _point_seeds(16838, 2)
        spec = GeneratorSpec(n=6, n_d=3, n_t=3, m=4000, seed=model_seed)
        ds = sample_dataset(generate_model(spec), 4000, 0.0, seed=data_seed)
        train = ds.take(np.flatnonzero(make_cv_plan(4000, 2, fold_seed) != 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="diverged"):
                fm_fit_gd(train.X, train.Y[:, 0], n_d=3, n_t=3, steps=10, restarts=1)
