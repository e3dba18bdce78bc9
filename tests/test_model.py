import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorpoly import (
    Dataset,
    GeneratorSpec,
    LtrModel,
    TrainConfig,
    fit,
    generate_model,
    predict,
    sample_dataset,
)
from tensorpoly.baselines import linreg_predict
from tensorpoly.io import generator_spec
from tensorpoly.metrics import rmse
from tensorpoly.model import (
    checked_views,
    forward_terms,
    hadamard_partials,
    resolve_views,
    sigmoid,
    take_rows,
    z_factors,
)

from helpers import (
    finite_checks,
    loop_forward,
    materialize_tensor,
    predict_point,
    random_model,
    tensor_contract,
)


def unit_xy_model():
    # computes x1 * x2
    return LtrModel(P=[np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])],
                    Q=np.ones((1, 1)), lam=[1.0])


class TestHomogenize:
    def test_appends_ones_column(self):
        out = resolve_views([np.array([[2.0, 3.0]])], 1, homogenized=True)
        assert len(out) == 1 and out[0].tolist() == [[2.0, 3.0, 1.0]]

    def test_empty_matrix(self):
        out = resolve_views(checked_views(np.zeros((0, 4))), 1, homogenized=True)
        assert len(out) == 1 and out[0].shape == (0, 5)

    def test_rejects_non_finite(self):
        # the linear baseline's homogenized input keeps the input rule
        with pytest.raises(ValueError, match=r"^views\[0\] contains non-finite values$"):
            linreg_predict(np.ones(3), np.array([[np.nan, 1.0]]))

    def test_degree2_fits_affine_function(self):
        # y = x + 1 is exactly representable after homogenization
        rng = np.random.default_rng(7)
        x = rng.standard_normal((500, 1))
        ds = Dataset(views=[x], Y=x[:, 0] + 1.0)
        cfg = TrainConfig(
            n_d=2, n_t=2, epochs=40, batch_size=50, learning_rate=0.1,
            mode="rank_wise", seed=4, homogenize=True,
        )
        model, _ = fit(ds, cfg)
        assert model.homogenized
        assert rmse(ds.Y[:, 0], predict(model, x)[:, 0]) < 1e-3

    @pytest.mark.parametrize("width", [3, 5])
    def test_homogenized_model_takes_its_raw_width_only(self, width):
        model = LtrModel(P=[np.ones((1, 3)), np.ones((1, 3))], Q=np.ones((1, 1)), lam=[1.0],
                         homogenized=True)
        with pytest.raises(ValueError, match=f"view 0 has {width} columns, factor expects 2"):
            predict(model, np.ones((4, width)))

    def test_shared_view_is_homogenized_once(self, monkeypatch):
        import tensorpoly.model as tmodel
        projected, ones_columns = [], []  # views per z_factors call (one product each)
        exact_z, exact_hstack = tmodel.z_factors, np.hstack

        def spy_z(P, views, out=None):
            projected.append(len(views))
            return exact_z(P, views, out)

        def spy_hstack(arrays, **kwargs):
            # a ones column appended to a view
            last = np.asarray(arrays[-1])
            if last.ndim == 2 and last.shape[1] == 1 and np.all(last == 1.0):
                ones_columns.append(np.shape(arrays[0]))
            return exact_hstack(arrays, **kwargs)

        monkeypatch.setattr(tmodel, "z_factors", spy_z)
        monkeypatch.setattr(np, "hstack", spy_hstack)
        rng = np.random.default_rng(12)
        X = rng.standard_normal((60, 2))
        cfg = TrainConfig(n_d=3, n_t=2, epochs=2, batch_size=20, mode="joint", homogenize=True)
        model, _ = fit(Dataset(views=[X], Y=rng.standard_normal(60)), cfg)
        assert projected and set(projected) == {1} and ones_columns == [(60, 2)]
        projected.clear()
        ones_columns.clear()
        predict(model, [X])
        assert projected == [1] and ones_columns == [(60, 2)]

    def test_each_view_is_checked_once(self, monkeypatch):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((60, 2))
        ds = Dataset(views=[X], Y=rng.standard_normal(60))
        cfg = TrainConfig(n_d=3, n_t=2, epochs=1, batch_size=20, mode="joint", homogenize=True)
        checked = finite_checks(monkeypatch, 60)
        resolve_views(checked_views([X]), 3, homogenized=True)
        assert checked == [(60, 2)]
        checked.clear()
        model, _ = fit(ds, cfg)  # the dataset's views were checked when it was built
        assert checked == []
        predict(model, X)
        assert checked == [(60, 2)]

    def test_surplus_view_rejected(self):
        model = LtrModel(P=[np.ones((1, 3)), np.ones((1, 2))], Q=np.ones((1, 1)), lam=[1.0],
                         homogenized=True)
        with pytest.raises(ValueError, match="expected 1 or 2 views, got 3"):
            predict(model, [np.ones((4, 2)), np.ones((4, 1)), np.ones((4, 5))])


class TestSigmoid:
    @staticmethod
    def masked(u):
        # the two-formula form: 1 / (1 + e^-u) on u >= 0, e^u / (1 + e^u) elsewhere
        u = np.asarray(u, dtype=float)
        out = np.empty_like(u)
        pos = u >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
        eu = np.exp(u[~pos])
        out[~pos] = eu / (1.0 + eu)
        return out

    def test_matches_the_two_formula_form_without_warnings(self):
        edges = [0.0, 1e-300, 30.0, 710.0, 1e3, np.inf]
        u = np.concatenate([edges, np.negative(edges), [np.nan],
                            50.0 * np.random.default_rng(14).standard_normal(10_000)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(u)
        assert np.array_equal(out, self.masked(u), equal_nan=True)


class TestForwardScalar:
    def test_unit_factors_give_product(self):
        assert predict_point(unit_xy_model(), [2.0, 3.0]) == pytest.approx(6.0)

    def test_difference_of_squares(self):
        model = LtrModel(P=[np.array([[1.0, -1.0]]), np.array([[1.0, 1.0]])],
                         Q=np.ones((1, 1)), lam=[1.0])
        # (x1 - x2)(x1 + x2) = x1^2 - x2^2 -> 4 - 1 = 3
        assert predict_point(model, [2.0, 1.0]) == pytest.approx(3.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict_point(unit_xy_model(), [1.0, 2.0, 3.0])

    def test_agrees_with_dense_tensor(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, n=3, n_d=3, n_t=2)
        T = materialize_tensor(model)
        for _ in range(10):
            x = rng.standard_normal(3)
            direct = predict_point(model, x)
            via_tensor = tensor_contract(T, x)
            assert abs(direct - via_tensor) <= 1e-10 * max(1.0, abs(via_tensor))


class TestForwardBatch:
    def test_matches_forward_scalar_rowwise(self):
        X = np.array([[2.0, 3.0], [1.0, 1.0]])
        for model in (unit_xy_model(),
                      LtrModel(P=[np.array([[1.0, -1.0]]), np.array([[1.0, 1.0]])],
                               Q=np.ones((1, 1)), lam=[1.0])):
            yhat = predict(model, [X])
            assert yhat == pytest.approx(loop_forward(model, X))

    def test_duplicated_view_path_is_bit_identical(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, n=4, n_d=3, n_t=2)
        X = rng.standard_normal((20, 4))
        single = predict(model, [X])
        multi = predict(model, [X, X, X])
        assert np.array_equal(single, multi)

    def test_against_per_example_loop(self):
        rng = np.random.default_rng(17)
        model = random_model(rng, n=4, n_d=3, n_t=3, n_y=2)
        X = rng.standard_normal((50, 4))
        yhat = predict(model, [X])
        expected = loop_forward(model, X)
        assert np.max(np.abs(yhat - expected)) <= 1e-12 * np.max(np.abs(expected))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 6), n_d=st.integers(1, 4), n_t=st.integers(1, 5),
           n_y=st.integers(1, 3), m=st.integers(0, 20), shared=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_against_per_example_loop_over_shapes(self, n, n_d, n_t, n_y, m, shared, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n=n, n_d=n_d, n_t=n_t, n_y=n_y)
        X = rng.standard_normal((m, n))
        yhat = predict(model, [X] if shared else [X] * n_d)
        expected = loop_forward(model, X)
        assert yhat.shape == (m, n_y)
        if m:
            assert np.max(np.abs(yhat - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_view_count_mismatch(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, n=3, n_d=3, n_t=2)
        X = rng.standard_normal((5, 3))
        with pytest.raises(ValueError):
            predict(model, [X, X])


def forward_partial(model, X, skip_d):
    """Factor product with factor ``skip_d`` (1-based) left out, on single-view input."""
    return hadamard_partials(z_factors(model.P, [X] * model.n_d))[skip_d - 1]


class TestForwardPartial:
    def test_degree_one_gives_all_ones(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, n=3, n_d=1, n_t=4)
        X = rng.standard_normal((6, 3))
        assert np.array_equal(forward_partial(model, X, 1), np.ones((6, 4)))

    def test_factorization_identity(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, n=3, n_d=3, n_t=2)
        X = rng.standard_normal((8, 3))
        _, F, _ = forward_terms(model.P, model.lam, model.Q, [X] * model.n_d)
        for d in range(1, model.n_d + 1):
            Zd = X @ model.P[d - 1].T
            recon = forward_partial(model, X, d) * Zd
            assert np.allclose(recon, F, rtol=1e-12, atol=1e-12)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(23)
        model = random_model(rng, n=3, n_d=4, n_t=2)
        X = rng.standard_normal((9, 3))
        part = forward_partial(model, X, 2)
        for i in range(9):
            for t in range(2):
                expected = 1.0
                for k in (0, 2, 3):  # skip factor index 1 (1-based: 2)
                    expected *= float(np.dot(model.P[k][t], X[i]))
                assert abs(part[i, t] - expected) <= 1e-12 * max(1.0, abs(expected))


class TestKernels:
    @pytest.mark.parametrize("n_t", [1, 3])
    @pytest.mark.parametrize("m", [0, 7])
    @pytest.mark.parametrize("layout", ["shared", "distinct", "aba"])
    def test_z_factors_against_per_factor_products(self, n_t, m, layout):
        rng = np.random.default_rng(31)
        A, B = rng.standard_normal((m, 4)), rng.standard_normal((m, 5))
        views = {"shared": [A] * 3, "distinct": [A, A.copy(), A.copy()], "aba": [A, B, A]}[layout]
        P = [rng.standard_normal((n_t, V.shape[1])) for V in views]
        Z = z_factors(P, views)
        for V, Pd, Zd in zip(views, P, Z):
            expected = V @ Pd.T
            assert Zd.shape == (m, n_t)
            assert np.all(np.abs(Zd - expected) <= 1e-12 * np.max(np.abs(expected), initial=1.0))

    @pytest.mark.parametrize("n_d", [1, 2, 3, 4, 5])
    def test_hadamard_partials_against_leave_one_out_loop(self, n_d):
        rng = np.random.default_rng(n_d)
        Z = [rng.standard_normal((6, 3)) for _ in range(n_d)]
        parts = hadamard_partials(Z)
        for d in range(n_d):
            # the factors before d multiplied from the left, those after d from the right
            left, right = np.ones((6, 3)), np.ones((6, 3))
            for k in range(d):
                left = left * Z[k]
            for k in range(n_d - 1, d, -1):
                right = right * Z[k]
            assert np.array_equal(parts[d], left * right)

    def test_shared_integer_view_is_converted_once(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, n=4, n_d=3, n_t=2)
        X = rng.integers(-5, 5, (12, 4))
        views = resolve_views(checked_views([X]), model.n_d, model.dims)
        assert len(views) == 1 and views[0].dtype == float
        assert np.array_equal(predict(model, X), predict(model, X.astype(float)))


class TestDenseTensorOracle:
    def test_outer_product_of_unit_vectors(self):
        T = materialize_tensor(unit_xy_model())
        assert type(T) is np.ndarray
        assert T.tolist() == [[0.0, 1.0], [0.0, 0.0]]

    def test_zero_scales_give_zero_tensor(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, n=2, n_d=2, n_t=3)
        model.lam[:] = 0.0
        assert np.array_equal(materialize_tensor(model), np.zeros((2, 2)))

    def test_symmetric_sum_of_two_terms(self):
        model = LtrModel(
            P=[np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])],
            Q=np.ones((2, 1)),
            lam=[1.0, 1.0],
        )
        assert materialize_tensor(model).tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_size_cap(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, n=100, n_d=4, n_t=1)
        with pytest.raises(ValueError, match="exceed the oracle cap"):
            materialize_tensor(model)

    def test_contract_diagonal_quadratic(self):
        assert tensor_contract(np.eye(2), [1.0, 2.0]) == pytest.approx(5.0)

    def test_contract_zero_tensor(self):
        assert tensor_contract(np.zeros((3, 3, 3)), [1.0, -2.0, 0.5]) == 0.0

    def test_contract_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tensor_contract(np.eye(2), [1.0, 2.0, 3.0])

    def test_cross_oracle_agreement_100_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            n_d = int(rng.integers(1, 4))
            n_t = int(rng.integers(1, 4))
            model = random_model(rng, n=n, n_d=n_d, n_t=n_t)
            x = rng.standard_normal(n)
            direct = predict_point(model, x)
            via_tensor = tensor_contract(materialize_tensor(model), x)
            assert abs(direct - via_tensor) <= 1e-10 * max(1.0, abs(via_tensor), abs(direct))


class TestModelInvariants:
    def test_multilinearity_in_each_factor(self):
        rng = np.random.default_rng(31)
        n, n_d = 3, 3
        x = rng.standard_normal(n)
        base = [rng.standard_normal(n) for _ in range(n_d)]
        for d in range(n_d):
            p, q = rng.standard_normal(n), rng.standard_normal(n)
            alpha, beta = rng.standard_normal(2)

            def term_with(vec):
                rows = list(base)
                rows[d] = vec
                model = LtrModel(P=[r.reshape(1, -1) for r in rows],
                                 Q=np.ones((1, 1)), lam=[1.0])
                return predict_point(model, x)

            combined = term_with(alpha * p + beta * q)
            split = alpha * term_with(p) + beta * term_with(q)
            assert combined == pytest.approx(split, rel=1e-10, abs=1e-10)

    def test_homogeneity_degree_scaling(self):
        rng = np.random.default_rng(37)
        for n_d in (1, 2, 3):
            model = random_model(rng, n=3, n_d=n_d, n_t=2)
            x = rng.standard_normal(3)
            for c in (-2.0, 0.5, 3.0):
                scaled = predict_point(model, c * x)
                expected = c**n_d * predict_point(model, x)
                assert scaled == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_rank_permutation_stability(self):
        rng = np.random.default_rng(41)
        model = random_model(rng, n=4, n_d=3, n_t=5, n_y=2)
        X = rng.standard_normal((30, 4))
        perm = rng.permutation(5)
        permuted = LtrModel(
            P=[Pd[perm] for Pd in model.P],
            Q=model.Q[perm],
            lam=model.lam[perm],
        )
        a = predict(model, [X])
        b = predict(permuted, [X])
        assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.max(np.abs(a)))


class TestConcurrentEvaluation:
    def test_forward_is_safe_across_threads(self):
        # fitted models are read-only; concurrent forward passes must agree
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(55)
        model = random_model(rng, n=4, n_d=3, n_t=3, n_y=2)
        X = rng.standard_normal((200, 4))
        expected = predict(model, [X])
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: predict(model, [X]), range(32)))
        for got in results:
            assert np.array_equal(got, expected)


class TestTake:
    def test_shared_view_is_taken_once(self):
        X = np.arange(12.0).reshape(6, 2)
        idx = np.array([4, 1, 2])
        shared = Dataset(views=[X], Y=np.zeros(6)).take(idx)
        assert len(shared.views) == 1 and np.array_equal(shared.views[0], X[idx])
        assert len(take_rows(resolve_views([X], 3), idx)) == 1
        mixed = Dataset(views=[X, -X, X], Y=np.zeros(6)).take(idx)
        assert len(mixed.views) == 3
        assert mixed.views[1] is not mixed.views[0]
        assert np.array_equal(mixed.views[2], X[idx])
        assert np.array_equal(mixed.views[0], X[idx])
        assert np.array_equal(mixed.views[1], -X[idx])

    def test_bare_matrix_is_one_view(self):
        X = np.arange(12.0).reshape(6, 2)
        ds = Dataset(views=X, Y=np.zeros(6))
        assert len(ds.views) == 1 and ds.views[0] is X and ds.X is X

    def test_rows_are_c_order_and_not_checked_again(self, monkeypatch):
        Xf = np.asfortranarray(np.arange(24.0).reshape(6, 4))
        ds = Dataset(views=[Xf, Xf[:, :2]], Y=np.asfortranarray(np.ones((6, 2))))
        checked = finite_checks(monkeypatch, 6, 3)
        part = ds.take(np.array([5, 0, 3]))
        assert checked == []
        assert all(A.flags.c_contiguous for A in (*part.views, part.Y))
        assert np.array_equal(part.views[1], Xf[[5, 0, 3], :2]) and part.m == 3

    def test_no_rows_refused(self):
        ds = Dataset(views=[np.ones((4, 2))], Y=np.ones(4))
        with pytest.raises(ValueError, match="^empty dataset$"):
            ds.take(np.array([], dtype=int))


class TestLayout:
    """Views and batches are C-contiguous whatever the input's layout, and the
    one view of a single-view list is converted once for all factors."""

    INPUTS = {"fortran": np.asfortranarray, "row-strided": lambda X: X[::2]}

    @pytest.mark.parametrize("layout", INPUTS)
    def test_resolve_views_and_take_rows_are_c_contiguous(self, layout):
        X = self.INPUTS[layout](np.arange(48.0).reshape(12, 4))
        idx = np.array([3, 0, 5])
        views = checked_views([X])
        assert len(views) == 1 and views[0].flags.c_contiguous
        assert np.array_equal(views[0], X)
        for batch in (take_rows(views, idx), take_rows([X], idx)):
            assert len(batch) == 1
            assert batch[0].flags.c_contiguous and np.array_equal(batch[0], X[idx])

    def test_c_order_view_is_not_copied(self):
        X = np.arange(12.0).reshape(6, 2)
        assert resolve_views([X], 2)[0] is X
        assert Dataset(views=[X, X], Y=np.zeros(6)).views[0] is X

    def test_shared_fortran_view_is_converted_once(self):
        Xf = np.asfortranarray(np.arange(12.0).reshape(6, 2))
        views = Dataset(views=[Xf], Y=np.zeros(6)).views
        assert len(views) == 1
        assert views[0].flags.c_contiguous and np.array_equal(views[0], Xf)
        # fit resolves the dataset's views for its factors: the converted view is not copied
        again = resolve_views(views, 3)
        assert len(again) == 1 and again[0] is views[0]

    def test_shared_view_is_finite_checked_once(self, monkeypatch):
        calls = []
        real_isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda A: calls.append(A.shape) or real_isfinite(A))
        Dataset(views=[np.zeros((6, 2))], Y=np.zeros(6))
        assert calls == [(6, 2), (6, 1)]
        calls.clear()
        resolve_views(checked_views([np.zeros((6, 2))]), 3)
        assert calls == [(6, 2)]


class TestValidation:
    def test_model_shape_validation(self):
        with pytest.raises(ValueError):
            LtrModel(P=[np.zeros((2, 3))], Q=np.zeros((3, 1)), lam=np.zeros(2))
        with pytest.raises(ValueError):
            LtrModel(P=[np.zeros((2, 3))], Q=np.zeros((2, 1)), lam=np.zeros(3))
        with pytest.raises(ValueError):
            LtrModel(P=[np.full((1, 2), np.inf)], Q=np.ones((1, 1)), lam=[1.0])

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(views=[], Y=np.zeros(3))
        with pytest.raises(ValueError):
            Dataset(views=[np.zeros((3, 2)), np.zeros((4, 2))], Y=np.zeros(3))
        with pytest.raises(ValueError):
            Dataset(views=[np.zeros((3, 2))], Y=np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["views[1]", "Y"])
    def test_dataset_rejects_non_finite(self, bad, where):
        views = [np.zeros((3, 2)), np.zeros((3, 2))]
        Y = np.zeros(3)
        (views[1] if where == "views[1]" else Y)[2, ...] = bad
        with pytest.raises(ValueError, match=rf"^{re.escape(where)} contains non-finite"):
            Dataset(views=views, Y=Y)

    @pytest.mark.parametrize("rows", [1, 2])
    def test_predict_refuses_views_of_different_row_counts(self, rows):
        # a 1-row view would broadcast against every row of the other
        with pytest.raises(ValueError, match=rf"^views\[1\] has {rows} rows, expected 4$"):
            predict(unit_xy_model(), [np.ones((4, 2)), np.ones((rows, 2))])

    def test_homogenized_must_be_a_boolean(self):
        # a truthy "false" would append the ones column on every prediction
        with pytest.raises(ValueError,
                           match=r"^homogenized must be one of \(False, True\), got 'false'$"):
            LtrModel(P=[np.ones((1, 3))] * 2, Q=np.ones((1, 1)), lam=[1.0], homogenized="false")

    @pytest.mark.parametrize("homogenized", [False, True])
    def test_predict_refuses_non_finite_input(self, homogenized):
        # a plain model used to return [[nan]]; both paths check each view once, by its name
        width = 3 if homogenized else 2
        model = LtrModel(P=[np.ones((1, width))] * 2, Q=np.ones((1, 1)), lam=[1.0],
                         homogenized=homogenized)
        with pytest.raises(ValueError, match=r"^views\[0\] contains non-finite values$"):
            predict(model, np.array([[np.nan, 1.0]]))

    @pytest.mark.parametrize("field,build", [
        ("views[1]", lambda: Dataset(views=[np.zeros((2, 2)), {}], Y=np.zeros(2))),
        ("Y", lambda: Dataset(views=[np.zeros((2, 2))], Y={})),
        ("views[0]", lambda: predict(unit_xy_model(), [{}])),
        ("P[1]", lambda: LtrModel(P=[np.ones((1, 2)), {}], Q=np.ones((1, 1)), lam=[1.0])),
        ("Q", lambda: LtrModel(P=[np.ones((1, 2))], Q={}, lam=[1.0])),
        ("lambda", lambda: LtrModel(P=[np.ones((1, 2))], Q=np.ones((1, 1)), lam={})),
    ], ids=["dataset-view", "dataset-Y", "predict-view", "model-P", "model-Q", "model-lambda"])
    def test_object_where_numbers_go_names_the_field(self, field, build):
        with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be an array of numbers"):
            build()

    def test_mixed_width_model_has_dims_but_no_n(self):
        model = LtrModel(P=[np.ones((1, 2)), np.ones((1, 3))],
                         Q=np.ones((1, 1)), lam=[1.0])
        assert model.dims == (2, 3)
        with pytest.raises(ValueError):
            _ = model.n


def _model_with(**kw):
    return LtrModel(P=[np.ones((1, 2))] * 2, Q=np.ones((1, 1)), lam=[1.0], **kw)


_SAMPLED = generate_model(GeneratorSpec(n=2, n_d=2, n_t=1, m=5))
# one rule, one message shape: (holders as id -> (key, call), bad values and the message each
# gets, with the holder's key in place of {key})
SHARED_RULES = [
    ({"TrainConfig.link": ("link", lambda v: TrainConfig(link=v)),
      "LtrModel.link": ("link", lambda v: _model_with(link=v))},
     [(value, "{key} must be one of ('identity', 'logistic'), got " + repr(value))
      for value in ("softmax", ["logistic"], 1, True)]),
    ({"TrainConfig.homogenize": ("homogenize", lambda v: TrainConfig(homogenize=v)),
      "LtrModel.homogenized": ("homogenized", lambda v: _model_with(homogenized=v))},
     [(value, "{key} must be one of (False, True), got " + repr(value))
      for value in ("false", 1, 0.0, None)]),
    ({"generator_spec.noise": ("noise", lambda v: generator_spec({"m": 5, "noise": v}, 0)),
      "GeneratorSpec.noise_level": ("noise_level", lambda v: GeneratorSpec(
          n=2, n_d=2, n_t=1, m=5, noise_level=v)),
      "sample_dataset.noise_level": ("noise_level", lambda v: sample_dataset(_SAMPLED, 5, v))},
     [(-1, "{key} must be >= 0, got -1"), (float("nan"), "{key} must be a finite number, got nan"),
      (True, "{key} must be a finite number, got True"),
      (np.True_, "{key} must be a finite number, got " + repr(np.True_)),
      ("0.5", "{key} must be a finite number, got '0.5'")]),
    ({"TrainConfig.n_t": ("n_t", lambda v: TrainConfig(n_t=v)),
      "GeneratorSpec.n": ("n", lambda v: GeneratorSpec(n=v, n_d=2, n_t=1, m=5)),
      "generator_spec.rank": ("rank", lambda v: generator_spec({"m": 5, "rank": v}, 0)),
      "sample_dataset.m": ("m", lambda v: sample_dataset(_SAMPLED, v))},
     [(value, "{key} must be an integer >= 1, got " + repr(value))
      for value in (True, np.True_, 0, 2.5)]),
]


@pytest.mark.parametrize(
    "call,value,message",
    [(call, value, message.format(key=key))
     for holders, cases in SHARED_RULES
     for key, call in holders.values() for value, message in cases],
    ids=[f"{holder}-{value!r}"
         for holders, cases in SHARED_RULES for holder in holders for value, _ in cases])
def test_every_holder_of_a_rule_gives_one_message(call, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)
