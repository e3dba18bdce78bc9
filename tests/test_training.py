import math
from dataclasses import replace

import numpy as np
import pytest

from tensorpoly import (
    Dataset,
    GeneratorSpec,
    LtrModel,
    TrainConfig,
    fit,
    generate_model,
    pearson,
    predict,
    quadratics_dataset,
    sample_dataset,
)
import tensorpoly.training as training
from tensorpoly.training import (
    AdamState,
    TrainingDivergedError,
    _raw_gradients,
    adam_step,
    gradients,
    loss,
)
from tensorpoly.gradcheck import TOLERANCE, _worst_entry, numeric_gradients, run_suite
from tensorpoly.metrics import accuracy
from tensorpoly.model import factor_views, resolve_views, take_rows

from helpers import finite_checks, loop_forward, random_model


def make_instance(seed, m, n, n_d, n_t, n_y=1):
    rng = np.random.default_rng(seed)
    model = random_model(rng, n=n, n_d=n_d, n_t=n_t, n_y=n_y)
    X = rng.standard_normal((m, n))
    Y = rng.standard_normal((m, n_y))
    return model, Dataset(views=[X], Y=Y)


class TestLoss:
    def test_zero_model_leaves_only_data_norm(self):
        rng = np.random.default_rng(1)
        model = LtrModel(P=[np.zeros((2, 3)), np.zeros((2, 3))],
                         Q=np.zeros((2, 2)), lam=np.zeros(2))
        Y = rng.standard_normal((15, 2))
        ds = Dataset(views=[rng.standard_normal((15, 3))], Y=Y)
        cfg = TrainConfig(n_d=2, n_t=2, C_p=0.5, C_q=0.5)
        expected = np.sum(Y**2) / (2 * 15 * 2)
        assert loss(model, ds, cfg) == pytest.approx(expected, rel=1e-12)

    def test_perfect_fit_without_regularization_is_zero(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, n=3, n_d=2, n_t=2)
        X = rng.standard_normal((20, 3))
        Y = predict(model, [X])
        ds = Dataset(views=[X], Y=Y)
        cfg = TrainConfig(n_d=2, n_t=2, C_p=0.0, C_q=0.0)
        assert loss(model, ds, cfg) == pytest.approx(0.0, abs=1e-20)

    def test_against_per_example_summation(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, n=3, n_d=2, n_t=2)
        X = rng.standard_normal((20, 3))
        Y = rng.standard_normal((20, 1))
        ds = Dataset(views=[X], Y=Y)
        cfg = TrainConfig(n_d=2, n_t=2, C_p=0.7, C_q=0.3)
        # independent per-example accumulation
        total = 0.0
        for i in range(20):
            pred = 0.0
            for t in range(model.n_t):
                prod = model.lam[t]
                for Pd in model.P:
                    prod *= float(np.dot(Pd[t], X[i]))
                pred += prod * model.Q[t, 0]
            total += (Y[i, 0] - pred) ** 2
        expected = total / (2 * 20)
        expected += cfg.C_p / (2 * 2 * 2 * 3) * sum(float(np.sum(Pd**2)) for Pd in model.P)
        expected += cfg.C_q / (2 * 2 * 1) * float(np.sum(model.Q**2))
        assert loss(model, ds, cfg) == pytest.approx(expected, rel=1e-12)

    def test_logistic_model_is_scored_with_its_own_link(self):
        rng = np.random.default_rng(15)
        model = replace(random_model(rng, n=3, n_d=2, n_t=2), link="logistic")
        X = rng.standard_normal((20, 3))
        Y = (rng.random((20, 1)) < 0.5).astype(float)
        cfg = TrainConfig(n_d=2, n_t=2, C_p=0.7, C_q=0.3)  # link="identity"
        U = loop_forward(model, X)  # pre-link outputs
        expected = float(np.sum(np.log1p(np.exp(U)) - Y * U)) / 20
        expected += cfg.C_p / (2 * 2 * 2 * 3) * sum(float(np.sum(Pd**2)) for Pd in model.P)
        expected += cfg.C_q / (2 * 2 * 1) * float(np.sum(model.Q**2))
        assert loss(model, Dataset(views=[X], Y=Y), cfg) == pytest.approx(expected, rel=1e-12)

    def test_empty_dataset_rejected(self):
        # a Dataset has at least one row, so loss, gradients and fit never see none
        with pytest.raises(ValueError, match="^empty dataset$"):
            Dataset(views=[np.zeros((0, 2))], Y=np.zeros((0, 1)))

    def test_homogenized_model_takes_raw_views(self):
        rng = np.random.default_rng(14)
        plain = random_model(rng, n=4, n_d=2, n_t=2)
        homogenized = LtrModel(P=plain.P, Q=plain.Q, lam=plain.lam, homogenized=True)
        X, Y = rng.standard_normal((20, 3)), rng.standard_normal((20, 1))
        cfg = TrainConfig(n_d=2, n_t=2, C_p=0.3, C_q=0.2)
        raw = Dataset(views=[X], Y=Y)
        ones = Dataset(views=resolve_views([X], 1, homogenized=True), Y=Y)
        assert loss(homogenized, raw, cfg) == loss(plain, ones, cfg)
        g_raw, g_ones = gradients(homogenized, raw, cfg), gradients(plain, ones, cfg)
        assert np.array_equal(g_raw[0], g_ones[0]) and np.array_equal(g_raw[2], g_ones[2])
        assert all(np.array_equal(a, b) for a, b in zip(g_raw[1], g_ones[1]))
        with pytest.raises(ValueError, match="view 0 has 4 columns, factor expects 3"):
            loss(homogenized, ones, cfg)


class TestTrustedDataset:
    @pytest.mark.parametrize("homogenize", [False, True])
    @pytest.mark.parametrize("views", [1, 2], ids=["shared", "multiview"])
    def test_fit_loss_and_gradients_check_nothing_again(self, monkeypatch, views, homogenize):
        rng = np.random.default_rng(16)
        ds = Dataset(views=[rng.standard_normal((40, 3)) for _ in range(views)],
                     Y=rng.standard_normal((40, 2)))
        cfg = TrainConfig(n_d=2, n_t=2, epochs=2, batch_size=10, mode="joint",
                          homogenize=homogenize)
        checked = finite_checks(monkeypatch, 40, 10)
        model, _ = fit(ds, cfg)
        loss(model, ds, cfg)
        gradients(model, ds.take(np.arange(10)), cfg)
        assert checked == []


class TestGradients:
    def test_zero_at_perfect_fit_without_regularization(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, n=3, n_d=2, n_t=2, n_y=2)
        X = rng.standard_normal((12, 3))
        Y = predict(model, [X])
        ds = Dataset(views=[X], Y=Y)
        cfg = TrainConfig(n_d=2, n_t=2, C_p=0.0, C_q=0.0)
        g_lam, g_P, g_Q = gradients(model, ds, cfg)
        assert np.allclose(g_lam, 0.0, atol=1e-14)
        assert all(np.allclose(g, 0.0, atol=1e-14) for g in g_P)
        assert np.allclose(g_Q, 0.0, atol=1e-14)

    def test_regularizer_isolation(self):
        # with the data term removed the gradient is the ridge pull alone
        rng = np.random.default_rng(6)
        model = random_model(rng, n=3, n_d=3, n_t=2, n_y=2)
        X = rng.standard_normal((10, 3))
        Y = predict(model, [X])
        ds = Dataset(views=[X], Y=Y)
        cfg = TrainConfig(n_d=3, n_t=2, C_p=0.9, C_q=0.4)
        _, g_P, g_Q = gradients(model, ds, cfg)
        for d, g in enumerate(g_P):
            expected = cfg.C_p / (2 * 3 * 3) * model.P[d]
            assert np.allclose(g, expected, rtol=1e-12, atol=1e-12)
        assert np.allclose(g_Q, cfg.C_q / (2 * 2) * model.Q, rtol=1e-12, atol=1e-12)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, n=3, n_d=3, n_t=2, n_y=2)
        X = rng.standard_normal((10, 3))
        Y = rng.standard_normal((10, 2))
        ds = Dataset(views=[X], Y=Y)
        cfg = TrainConfig(n_d=3, n_t=2, C_p=0.2, C_q=0.1)
        a_lam, a_P, a_Q = gradients(model, ds, cfg)
        f_lam, f_P, f_Q = numeric_gradients(model, ds, cfg)
        assert _worst_entry(a_lam, f_lam)[0] <= 1e-5
        assert max(_worst_entry(a, f)[0] for a, f in zip(a_P, f_P)) <= 1e-5
        assert _worst_entry(a_Q, f_Q)[0] <= 1e-5

    def test_logistic_link_finite_difference(self):
        rng = np.random.default_rng(8)
        model = replace(random_model(rng, n=3, n_d=2, n_t=2), link="logistic")
        X = rng.standard_normal((14, 3))
        Y = (rng.random((14, 1)) < 0.5).astype(float)
        ds = Dataset(views=[X], Y=Y)
        cfg = TrainConfig(n_d=2, n_t=2, C_p=0.2, C_q=0.1)  # the model's link is the one used
        a_lam, a_P, a_Q = gradients(model, ds, cfg)
        f_lam, f_P, f_Q = numeric_gradients(model, ds, cfg)
        assert _worst_entry(a_lam, f_lam)[0] <= 1e-5
        assert max(_worst_entry(a, f)[0] for a, f in zip(a_P, f_P)) <= 1e-5
        assert _worst_entry(a_Q, f_Q)[0] <= 1e-5

    def test_shape_grid_with_multiview(self):
        rows = run_suite()
        assert len(rows) == 3 * 16
        assert len({shape for shape, *_ in rows}) == 16
        assert all(err <= TOLERANCE for _, _, err, _ in rows)
        # the degree-1 empty-product path is part of the grid
        assert any(shape[0] == 1 for shape, *_ in rows)


    @pytest.mark.parametrize("n_y", [1, 3])
    def test_frozen_q_skips_only_the_q_gradient(self, n_y):
        model, ds = make_instance(9, m=40, n=3, n_d=3, n_t=2, n_y=n_y)
        args = (model.P, model.lam, model.Q, [ds.X] * 3, ds.Y, 0.0, 0.2, 0.1, "identity")
        g_lam, g_P, g_Q = _raw_gradients(*args)
        f_lam, f_P, f_Q = _raw_gradients(*args, train_q=False)
        assert f_Q is None and g_Q.shape == model.Q.shape
        assert np.array_equal(f_lam, g_lam)
        assert all(np.array_equal(f, g) for f, g in zip(f_P, g_P))


class TestAdamStep:
    def setup_params(self):
        lam = np.array([1.0, -2.0])
        P = [np.ones((2, 3)), np.full((2, 3), 0.5)]
        Q = np.ones((2, 1))
        return lam, P, Q

    def test_zero_gradient_leaves_parameters(self):
        lam, P, Q = self.setup_params()
        state = AdamState.zeros(lam, P, Q)
        zero = (np.zeros_like(lam), [np.zeros_like(p) for p in P], np.zeros_like(Q))
        before = (lam.copy(), [p.copy() for p in P], Q.copy())
        adam_step(state, (lam, P, Q), zero, 0.1)
        assert state.step == 1
        assert np.array_equal(lam, before[0])
        assert all(np.array_equal(a, b) for a, b in zip(P, before[1]))
        assert np.array_equal(Q, before[2])

    def test_constant_gradient_reaches_sign_step(self):
        lam = np.array([0.0])
        P = [np.zeros((1, 1))]
        Q = np.zeros((1, 1))
        state = AdamState.zeros(lam, P, Q)
        g = (np.array([0.25]), [np.array([[-3.0]])], np.array([[0.0]]))
        gamma = 0.01
        prev = lam[0]
        for _ in range(300):
            prev = lam[0]
            adam_step(state, (lam, P, Q), g, gamma)
        # late steps approach gamma * sign(gradient)
        assert lam[0] - prev == pytest.approx(-gamma, rel=1e-3)

    def test_first_step_matches_hand_computation(self):
        lam = np.array([2.0])
        P = [np.zeros((1, 1))]
        Q = np.zeros((1, 1))
        state = AdamState.zeros(lam, P, Q)
        g = (np.array([0.5]), [np.zeros((1, 1))], np.zeros((1, 1)))
        adam_step(state, (lam, P, Q), g, 0.1, eps=1e-8)
        # closed form for the first step: -gamma * g / (|g| + eps)
        assert lam[0] - 2.0 == pytest.approx(-0.1 * 0.5 / (0.5 + 1e-8), abs=1e-15)

    def test_second_moments_stay_nonnegative(self):
        rng = np.random.default_rng(3)
        lam, P, Q = self.setup_params()
        state = AdamState.zeros(lam, P, Q)
        for _ in range(25):
            g = (rng.standard_normal(2),
                 [rng.standard_normal((2, 3)) for _ in range(2)],
                 rng.standard_normal((2, 1)))
            adam_step(state, (lam, P, Q), g, 0.05)
        assert state.v.shape == (2 + 2 * 6 + 2,)
        assert np.all(state.v >= 0)

    @pytest.mark.parametrize("update_q", [True, False])
    def test_matches_per_group_reference(self, update_q):
        rng = np.random.default_rng(17)
        lam = rng.standard_normal(3)
        P = [rng.standard_normal((3, 4)), rng.standard_normal((3, 2))]
        Q = rng.standard_normal((3, 2))
        ref = (lam.copy(), [p.copy() for p in P], Q.copy())
        q0 = Q.copy()
        state = AdamState.zeros(lam, P, Q)
        ref_adam = PerGroupAdam(*ref)
        kw = dict(beta1=0.8, beta2=0.99, eps=1e-7, update_q=update_q)
        for _ in range(50):
            g = (rng.standard_normal(3), [rng.standard_normal(p.shape) for p in P],
                 rng.standard_normal(Q.shape))
            adam_step(state, (lam, P, Q), g, 0.03, **kw)
            ref_adam.step(ref, g, 0.03, **kw)
            assert np.array_equal(lam, ref[0])
            assert all(np.array_equal(a, b) for a, b in zip(P, ref[1]))
            assert np.array_equal(Q, ref[2])
            if not update_q:
                assert np.array_equal(Q, q0)
        assert state.step == 50


class PerGroupAdam:
    """The per-group ADAM update the flat state replaced, kept as the bitwise reference."""

    def __init__(self, lam, P, Q):
        self.m = [np.zeros_like(a) for a in (lam, *P, Q)]
        self.v = [np.zeros_like(a) for a in (lam, *P, Q)]
        self.t = 0

    def step(self, params, grads, learning_rate, *, beta1, beta2, eps, update_q):
        lam, P, Q = params
        g_lam, g_P, g_Q = grads
        self.t += 1
        b1c = 1.0 - beta1 ** self.t
        b2c = 1.0 - beta2 ** self.t

        def update(theta, g, m, v):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * (g * g)
            theta -= learning_rate * (m / b1c) / (np.sqrt(v / b2c) + eps)

        groups = [(lam, g_lam), *zip(P, g_P)] + ([(Q, g_Q)] if update_q else [])
        for (theta, g), m, v in zip(groups, self.m, self.v):
            update(theta, g, m, v)


def fit_one_term(ds, cfg):
    """``(lam_t, [p_1 .. p_n_d], trace)`` of a single rank-one term fit jointly."""
    model, report = fit(ds, cfg)
    return float(model.lam[0]), [Pd[0] for Pd in model.P], report.loss_traces[0]


class TestFitRankOne:
    def test_zero_residual_term_is_negligible(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((500, 3))
        ds = Dataset(views=[X], Y=np.zeros(500))
        cfg = TrainConfig(n_d=2, n_t=1, epochs=40, batch_size=50,
                          learning_rate=0.05, mode="joint", seed=1)
        lam_t, ps, _ = fit_one_term(ds, cfg)
        term = lam_t * (X @ ps[0]) * (X @ ps[1])
        assert np.sqrt(np.mean(term**2)) < 1e-3

    def test_recovers_rank_one_quadratic(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((1000, 2))
        a, b = rng.standard_normal(2), rng.standard_normal(2)
        y = (X @ a) * (X @ b)
        ds = Dataset(views=[X], Y=y)
        cfg = TrainConfig(n_d=2, n_t=1, epochs=10, batch_size=50,
                          learning_rate=0.05, mode="joint", seed=2)
        lam_t, ps, trace = fit_one_term(ds, cfg)
        yhat = lam_t * (X @ ps[0]) * (X @ ps[1])
        assert pearson(y, yhat) >= 0.999
        assert len(trace) == 10

    def test_objective_convex_along_single_factor_lines(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, n=3, n_d=3, n_t=1)
        X = rng.standard_normal((40, 3))
        Y = rng.standard_normal((40, 1))
        ds = Dataset(views=[X], Y=Y)
        cfg = TrainConfig(n_d=3, n_t=1, C_p=0.1, C_q=0.0)
        for _ in range(100):
            d = int(rng.integers(3))
            p0 = rng.standard_normal(3)
            p1 = rng.standard_normal(3)

            def value(p):
                model.P[d][0] = p
                return loss(model, ds, cfg)

            mid = value(0.5 * (p0 + p1))
            ends = 0.5 * (value(p0) + value(p1))
            assert mid <= ends + 1e-9

    def test_divergence_raises_with_epoch(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((100, 3)) * 10
        ds = Dataset(views=[X], Y=rng.standard_normal(100) * 5)
        cfg = TrainConfig(n_d=3, n_t=1, epochs=5, batch_size=10,
                          learning_rate=1e100, mode="joint", seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as err:
                fit(ds, cfg)
        assert 1 <= err.value.epoch <= 5
        assert err.value.phase == 1


class TestFitRankwise:
    def test_single_rank_equals_fit_rank_one(self):
        # one deflated term is the joint fit of n_t=1: same block fit, same rng
        ds = quadratics_dataset("xy", 300, seed=12)
        base = dict(n_d=2, n_t=1, epochs=5, batch_size=50, learning_rate=0.05, seed=8)
        m_rank, rep_rank = fit(ds, TrainConfig(mode="rank_wise", **base))
        m_joint, rep_joint = fit(ds, TrainConfig(mode="joint", **base))
        assert all(np.array_equal(p, q) for p, q in zip(m_rank.P, m_joint.P))
        assert np.array_equal(m_rank.lam, m_joint.lam)
        assert np.array_equal(m_rank.Q, m_joint.Q)
        assert np.array_equal(rep_rank.loss_traces, rep_joint.loss_traces)
        assert np.array_equal(rep_rank.residual_norms, rep_joint.residual_norms)

    def test_learns_random_rank_two_model(self):
        from tensorpoly import GeneratorSpec, generate_model, sample_dataset
        from tensorpoly.benchmark import ltr_learner
        from tensorpoly.metrics import cross_validate

        spec = GeneratorSpec(n=3, n_d=2, n_t=2, m=10_000, seed=12)
        ds = sample_dataset(generate_model(spec), 10_000, 0.0, seed=13)
        cfg = TrainConfig(n_d=2, n_t=2, epochs=10, batch_size=100,
                          learning_rate=0.05, mode="rank_wise", seed=6)
        res = cross_validate(ds, ltr_learner(cfg), folds=2, seed=11)
        assert np.mean(res.fold_pearson) >= 0.99

    @pytest.mark.parametrize("m,kw,phases,dropped", [
        (600, dict(mode="rank_wise", n_t=4, seed=2), 4, False),
        (600, dict(mode="layered", n_t=4, rank_blocks=[2, 1, 1], seed=2), 3, False),
        (600, dict(mode="joint", n_t=4, seed=2), 1, False),
        # lr 5.0 leaves the joint block worse than the all-zero model: it is zeroed
        (800, dict(mode="joint", n_t=2, epochs=3, learning_rate=5.0), 1, True),
    ], ids=["rank_wise", "layered", "joint", "joint-worse-than-zero"])
    def test_residual_norms_non_increasing(self, m, kw, phases, dropped):
        ds = quadratics_dataset("xy", m, seed=3)
        cfg = TrainConfig(**{"n_d": 2, "epochs": 6, "batch_size": 50, "learning_rate": 0.05, **kw})
        model, report = fit(ds, cfg)
        norms = report.residual_norms
        assert len(norms) == phases + 1
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-8
        assert np.all(model.lam == 0.0) == dropped

    def test_mode_and_output_preconditions(self):
        ds = quadratics_dataset("xy", 50, seed=1)
        multi = Dataset(views=[ds.X], Y=np.ones((50, 2)))
        model, _ = fit(multi, TrainConfig(n_d=2, n_t=1, mode="joint", epochs=1, batch_size=10))
        assert model.n_y == 2

    @pytest.mark.parametrize("link", ["identity", "logistic"])
    @pytest.mark.parametrize("n_y", [1, 2])
    def test_equals_layered_one_term_blocks(self, n_y, link):
        # a rank-wise fit is a layered fit of one-term blocks, for vector outputs too
        rng = np.random.default_rng(7)
        X = rng.standard_normal((300, 3))
        Y = (X[:, :1] * X[:, 1:2]) @ rng.standard_normal((1, n_y))
        ds = Dataset(views=[X], Y=(Y > 0).astype(float) if link == "logistic" else Y)
        kw = dict(n_d=2, n_t=3, epochs=3, batch_size=50, learning_rate=0.05, link=link, seed=5)
        rw_model, rw_report = fit(ds, TrainConfig(mode="rank_wise", **kw))
        ly_model, ly_report = fit(ds, TrainConfig(mode="layered", rank_blocks=[1] * 3, **kw))
        assert rw_model.n_y == n_y
        for a, b in zip([*rw_model.P, rw_model.Q, rw_model.lam],
                        [*ly_model.P, ly_model.Q, ly_model.lam]):
            assert np.array_equal(a, b)
        assert rw_report.loss_traces == ly_report.loss_traces
        assert rw_report.residual_norms == ly_report.residual_norms


class TestFitJoint:
    def test_matches_rank_one_training_loss(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((1000, 2))
        a, b = rng.standard_normal(2), rng.standard_normal(2)
        y = (X @ a) * (X @ b)
        ds = Dataset(views=[X], Y=y)
        base = dict(n_d=2, n_t=1, epochs=10, batch_size=50, learning_rate=0.05, seed=2)
        _, _, trace_one = fit_one_term(ds, TrainConfig(mode="rank_wise", **base))
        _, report = fit(ds, TrainConfig(mode="joint", **base))
        assert report.loss_traces[0][-1] == pytest.approx(trace_one[-1], rel=0.05)

    def test_vector_output_target(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((10_000, 4))
        true = random_model(rng, n=4, n_d=2, n_t=3, n_y=3)
        Y = predict(true, [X])
        ds = Dataset(views=[X], Y=Y)
        cfg = TrainConfig(n_d=2, n_t=3, epochs=15, batch_size=100,
                          learning_rate=0.05, mode="joint", seed=3)
        model, _ = fit(ds, cfg)
        yhat = predict(model, X)
        for j in range(3):
            assert pearson(Y[:, j], yhat[:, j]) >= 0.95

    @pytest.mark.parametrize("homogenize", [False, True])
    def test_equal_views_reproduce_single_view_exactly(self, homogenize):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((400, 3))
        y = rng.standard_normal(400)
        cfg = TrainConfig(n_d=2, n_t=2, epochs=5, batch_size=64, learning_rate=0.05,
                          mode="joint", seed=42, homogenize=homogenize)
        single, _ = fit(Dataset(views=[X], Y=y), cfg)
        multi, _ = fit(Dataset(views=[X, X], Y=y), cfg)
        assert all(np.array_equal(a, b) for a, b in zip(single.P, multi.P))
        assert np.array_equal(single.lam, multi.lam)
        assert np.array_equal(single.Q, multi.Q)

    def test_true_multiview_fit(self):
        rng = np.random.default_rng(33)
        X1 = rng.standard_normal((4000, 3))
        X2 = rng.standard_normal((4000, 2))
        a = rng.standard_normal(3)
        b = rng.standard_normal(2)
        y = (X1 @ a) * (X2 @ b)
        ds = Dataset(views=[X1, X2], Y=y)
        cfg = TrainConfig(n_d=2, n_t=2, epochs=10, batch_size=100,
                          learning_rate=0.05, mode="joint", seed=4)
        model, _ = fit(ds, cfg)
        yhat = predict(model, [X1, X2])
        assert pearson(y, yhat[:, 0]) >= 0.99

    def test_wrong_view_count_rejected(self):
        rng = np.random.default_rng(0)
        ds = Dataset(views=[rng.standard_normal((30, 2)),
                            rng.standard_normal((30, 2))], Y=np.ones(30))
        cfg = TrainConfig(n_d=3, n_t=1, mode="joint", epochs=1, batch_size=10)
        with pytest.raises(ValueError, match="expected 1 or 3 views, got 2"):
            fit(ds, cfg)


class TestFitLayered:
    def test_single_block_equals_joint(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((600, 3))
        y = rng.standard_normal(600)
        ds = Dataset(views=[X], Y=y)
        kw = dict(n_d=2, n_t=3, epochs=5, batch_size=64, learning_rate=0.05, seed=42)
        mj, _ = fit(ds, TrainConfig(mode="joint", **kw))
        ml, _ = fit(ds, TrainConfig(mode="layered", rank_blocks=[3], **kw))
        assert all(np.array_equal(a, b) for a, b in zip(mj.P, ml.P))
        assert np.array_equal(mj.lam, ml.lam)
        assert np.array_equal(mj.Q, ml.Q)

    def test_unit_blocks_match_rankwise_structure(self):
        ds = quadratics_dataset("xy", 1000, seed=3)
        kw = dict(n_d=2, n_t=2, epochs=10, batch_size=50, learning_rate=0.05, seed=2)
        m_rank, rep_rank = fit(ds, TrainConfig(mode="rank_wise", **kw))
        m_layer, rep_layer = fit(ds, TrainConfig(mode="layered", rank_blocks=[1, 1], **kw))
        # both run the same deflation loop on the same scalar subproblems: equal bits
        assert all(np.array_equal(a, b) for a, b in zip(m_rank.P, m_layer.P))
        assert np.array_equal(m_rank.lam, m_layer.lam)
        assert np.array_equal(m_rank.Q, m_layer.Q)
        assert np.array_equal(rep_rank.loss_traces, rep_layer.loss_traces)
        assert np.array_equal(rep_rank.residual_norms, rep_layer.residual_norms)
        assert rep_rank.eta_squared is None and len(rep_layer.eta_squared) == 2

    def test_residuals_non_increasing_on_degree3_rank6(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((2000, 4))
        true = random_model(rng, n=4, n_d=3, n_t=6)
        Y = predict(true, [X])
        ds = Dataset(views=[X], Y=Y)
        cfg = TrainConfig(n_d=3, n_t=6, epochs=8, batch_size=100,
                          learning_rate=0.05, mode="layered",
                          rank_blocks=[2, 2, 2], seed=5)
        _, report = fit(ds, cfg)
        norms = report.residual_norms
        assert len(norms) == 4
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-8
        assert report.eta_squared is not None and len(report.eta_squared) == 3

    def test_one_row_fits_as_a_joint_fit_does(self):
        ds = Dataset(views=[np.array([[1.0, 2.0]])], Y=np.array([[2.0]]))
        kw = dict(n_d=2, n_t=2, epochs=3, batch_size=10, seed=0)
        joint, _ = fit(ds, TrainConfig(mode="joint", **kw))
        model, report = fit(ds, TrainConfig(mode="layered", rank_blocks=[1, 1], **kw))
        assert model.n_t == joint.n_t == 2
        assert len(report.eta_squared) == 2
        assert all(eta == 1.0 or math.isnan(eta) for eta in report.eta_squared)

    def test_block_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(n_d=2, n_t=4, mode="layered", rank_blocks=[2, 3])
        with pytest.raises(ValueError):
            TrainConfig(n_d=2, n_t=4, mode="layered", rank_blocks=None)

    def test_vector_output_layers(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((1500, 3))
        true = random_model(rng, n=3, n_d=2, n_t=4, n_y=2)
        Y = predict(true, [X])
        ds = Dataset(views=[X], Y=Y)
        cfg = TrainConfig(n_d=2, n_t=4, epochs=10, batch_size=100,
                          learning_rate=0.05, mode="layered",
                          rank_blocks=[2, 2], seed=7)
        model, report = fit(ds, cfg)
        assert model.n_y == 2
        assert len(report.eta_squared) == 2
        norms = report.residual_norms
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-8


class TestFitLogistic:
    def test_linearly_separable(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((2000, 2))
        y = (X @ [1.0, -2.0] + 0.3 > 0).astype(float)
        ds = Dataset(views=[X], Y=y)
        cfg = TrainConfig(n_d=1, n_t=1, epochs=20, batch_size=100,
                          learning_rate=0.2, mode="joint", link="logistic",
                          seed=3, homogenize=True)
        model, _ = fit(ds, cfg)
        assert accuracy(y, predict(model, X)[:, 0]) >= 0.99

    def test_degenerate_labels_learn_base_rate(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((2000, 2))
        ds = Dataset(views=[X[:1000]], Y=np.ones(1000))
        cfg = TrainConfig(n_d=2, n_t=2, epochs=30, batch_size=100,
                          learning_rate=0.2, mode="joint", link="logistic",
                          seed=3, homogenize=True)
        model, _ = fit(ds, cfg)
        held_out = predict(model, X[1000:])[:, 0]
        assert np.max(np.abs(held_out - 1.0)) <= 0.05

    def test_rejects_non_binary_labels(self):
        rng = np.random.default_rng(2)
        ds = Dataset(views=[rng.standard_normal((50, 2))],
                     Y=rng.standard_normal(50))
        cfg = TrainConfig(n_d=2, n_t=1, mode="joint", link="logistic")
        with pytest.raises(ValueError, match="binary"):
            fit(ds, cfg)

    @pytest.mark.parametrize("kw", [dict(mode="layered", rank_blocks=[1, 1]),
                                    dict(mode="rank_wise")], ids=["layered", "rank_wise"])
    def test_deflated_modes_classify_parity(self, kw):
        # criterion 7's data; each block fits on the earlier blocks' logits as an offset
        rng = np.random.default_rng(77)
        X = rng.standard_normal((10_000, 2))
        y = (X[:, 0] * X[:, 1] > 0).astype(float)
        cfg = TrainConfig(n_d=2, n_t=2, epochs=10, batch_size=100, learning_rate=0.1,
                          link="logistic", seed=3, **kw)
        model, report = fit(Dataset(views=[X], Y=y), cfg)
        assert accuracy(y, predict(model, X)[:, 0]) >= 0.95
        nll = []  # training NLL of the first k terms, k = 0..n_t
        for k in range(model.n_t + 1):
            lam = np.where(np.arange(model.n_t) < k, model.lam, 0.0)
            logits = predict(LtrModel(P=model.P, Q=model.Q, lam=lam), X)[:, 0]
            nll.append(float(np.sum(np.logaddexp(0.0, logits) - y * logits)))
        for a, b in zip(nll, nll[1:]):
            assert b <= a
        assert len(report.residual_norms) == 3

    def test_block_worse_than_zero_is_dropped(self):
        # lr 5.0 ends above the all-zero model's NLL of log 2 per entry: the block gets lam = 0
        rng = np.random.default_rng(77)
        X = rng.standard_normal((1000, 2))
        y = (X[:, 0] * X[:, 1] > 0).astype(float)
        cfg = TrainConfig(n_d=2, n_t=2, epochs=3, batch_size=100, learning_rate=5.0,
                          mode="joint", link="logistic", seed=0)
        model, report = fit(Dataset(views=[X], Y=y), cfg)
        assert report.loss_traces[0][-1] > np.log(2.0)
        assert np.all(model.lam == 0.0)
        assert np.all(predict(model, X) == 0.5)
        assert report.residual_norms == [np.sqrt(1000 * 0.25)] * 2


class TestTrainingInvariants:
    def test_determinism_bit_identical_models(self):
        ds = quadratics_dataset("diff_sq", 500, seed=9)
        cfg = TrainConfig(n_d=2, n_t=2, epochs=5, batch_size=50,
                          learning_rate=0.05, mode="rank_wise", seed=123)
        m1, _ = fit(ds, cfg)
        m2, _ = fit(ds, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(m1.P, m2.P))
        assert np.array_equal(m1.lam, m2.lam)
        assert np.array_equal(m1.Q, m2.Q)

    def test_regularization_pull_decays_parameters(self):
        # zero outputs, lambda frozen at 1: plain gradient steps shrink P
        rng = np.random.default_rng(14)
        model = random_model(rng, n=3, n_d=2, n_t=2)
        model.lam[:] = 1.0
        X = rng.standard_normal((50, 3))
        ds = Dataset(views=[X], Y=np.zeros((50, 1)))
        cfg = TrainConfig(n_d=2, n_t=2, C_p=0.5, C_q=0.0)
        norms = []
        for _ in range(200):
            _, g_P, _ = gradients(model, ds, cfg)
            for d in range(2):
                model.P[d] -= 0.05 * g_P[d]
            norms.append(sum(float(np.sum(Pd**2)) for Pd in model.P))
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-12

    @pytest.mark.parametrize("mode,n_y", [("joint", 3), ("rank_wise", 1), ("layered", 1)])
    def test_shared_view_matches_distinct_copies(self, mode, n_y):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((300, 4))
        Y = rng.standard_normal((300, n_y))
        cfg = TrainConfig(n_d=3, n_t=2, epochs=3, batch_size=64, learning_rate=0.05,
                          mode=mode, rank_blocks=[1, 1] if mode == "layered" else None, seed=2)
        shared, shared_report = fit(Dataset(views=[X], Y=Y), cfg)
        copies, copies_report = fit(Dataset(views=[X, X.copy(), X.copy()], Y=Y), cfg)
        assert np.allclose(predict(shared, X), predict(copies, [X] * 3), rtol=1e-12, atol=0)
        assert np.allclose(shared_report.loss_traces, copies_report.loss_traces,
                           rtol=1e-12, atol=0)

    @pytest.mark.parametrize("mode,n_y", [("joint", 3), ("rank_wise", 1), ("layered", 1)])
    def test_fortran_order_input_fits_bit_identically(self, mode, n_y):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((300, 4))
        Y = rng.standard_normal((300, n_y))
        cfg = TrainConfig(n_d=3, n_t=2, epochs=2, batch_size=64, learning_rate=0.05,
                          mode=mode, rank_blocks=[1, 1] if mode == "layered" else None, seed=4)
        c_model, c_report = fit(Dataset(views=[X], Y=Y), cfg)
        f_model, f_report = fit(Dataset(views=[np.asfortranarray(X)], Y=np.asfortranarray(Y)), cfg)
        for a, b in zip([*c_model.P, c_model.Q, c_model.lam], [*f_model.P, f_model.Q, f_model.lam]):
            assert np.array_equal(a, b)
        assert c_report.loss_traces == f_report.loss_traces
        assert c_report.residual_norms == f_report.residual_norms


class TestBestIterate:
    @pytest.mark.parametrize("link", ["identity", "logistic"])
    @pytest.mark.parametrize("mode", ["joint", "layered", "rank_wise"])
    def test_each_block_returns_its_lowest_loss(self, monkeypatch, mode, link):
        # lr 0.3 on batches of 20 makes the epoch loss go up and down in every case here
        import tensorpoly.training as training
        exact = training._fit_block
        blocks = []

        def spy(views, Y, offset, n_t, config, rng, phase):
            lam, P, Q, raw, best, trace = out = exact(views, Y, offset, n_t, config, rng, phase)
            L, raw_again = training._raw_loss(P, lam, Q, views, Y, offset, config.C_p,
                                              config.C_q, config.link)
            blocks.append((L, raw_again, raw, best, trace))
            return out

        monkeypatch.setattr(training, "_fit_block", spy)
        rng = np.random.default_rng(30)
        X = rng.standard_normal((400, 3))
        Y = X[:, :1] * X[:, 1:2] + 0.3 * X[:, 2:] ** 2
        Y = (Y > 0.3).astype(float) if link == "logistic" else Y
        cfg = TrainConfig(n_d=2, n_t=3, epochs=6, batch_size=20, learning_rate=0.3, mode=mode,
                          rank_blocks=[2, 1] if mode == "layered" else None, link=link, seed=0)
        _, report = fit(Dataset(views=[X], Y=Y), cfg)
        assert report.best_epoch == [best for _, _, _, best, _ in blocks]
        assert any(best != cfg.epochs for best in report.best_epoch)
        for L, raw_again, raw, best, trace in blocks:
            assert L == min(trace) == trace[best - 1]
            assert np.array_equal(raw_again, raw)

    @pytest.mark.parametrize("seed", [4, 6])
    def test_reference_fit_returns_its_best_epoch(self, seed):
        # the benchmark-protocol data at batch 100: these seeds' last epochs end at 1,002x
        # and 23x their minimum, and the fit used to return that last epoch
        spec = GeneratorSpec(n=10, n_d=3, n_t=3, m=100_000, seed=7)
        ds = sample_dataset(generate_model(spec), spec.m, seed=7)
        cfg = TrainConfig(n_d=3, n_t=3, mode="joint", batch_size=100, learning_rate=0.05,
                          epochs=10, seed=seed)
        model, report = fit(ds, cfg)
        trace = report.loss_traces[0]
        assert trace[-1] > 20 * min(trace)
        assert report.best_epoch == [trace.index(min(trace)) + 1]
        assert loss(model, ds, cfg) == min(trace)


def reference_block(views, Y, offset, n_t, config, rng):
    """One epoch of `_fit_block` as the plain per-batch loop, with the same draws: rows
    gathered by `take_rows`, tuple-form gradients on new arrays, tuple-form `adam_step`."""
    m, n_y = Y.shape
    P = [rng.standard_normal((n_t, V.shape[1])) / np.sqrt(V.shape[1])
         for V in factor_views(views, config.n_d)]
    lam = np.ones(n_t)
    train_q = n_y > 1
    Q = rng.standard_normal((n_t, n_y)) / np.sqrt(n_y) if train_q else np.ones((n_t, 1))
    state = AdamState.zeros(lam, P, Q)
    order = rng.permutation(m)
    for start in range(0, m, config.batch_size):
        idx = order[start:start + config.batch_size]
        g_lam, g_P, g_Q = _raw_gradients(P, lam, Q, take_rows(views, idx), Y[idx], offset[idx],
                                         config.C_p, config.C_q, config.link, train_q)
        adam_step(state, (lam, P, Q), (g_lam, list(g_P), g_Q), config.learning_rate,
                  update_q=train_q)
    L, raw = training._raw_loss(P, lam, Q, views, Y, offset, config.C_p, config.C_q, config.link)
    return lam, P, Q, raw, 1, [L]


class TestFitBlockStep:
    # (widths of the views, n_d, n_y, link, homogenized); m = 97 is not a multiple of 20
    CASES = {
        "one-view": ([4], 3, 1, "identity", False),
        "n_d-views": ([4, 3, 2], 3, 1, "identity", False),
        "homogenized": ([3], 3, 1, "identity", True),
        "n_y=3": ([4], 2, 3, "identity", False),
        "logistic": ([4], 2, 1, "logistic", False),
        "n_d=1": ([5], 1, 1, "identity", False),
        "views-n_y=3-logistic": ([3, 2], 2, 3, "logistic", False),
    }

    @pytest.mark.parametrize("m", [97, 100])
    @pytest.mark.parametrize("case", CASES, ids=list(CASES))
    def test_one_epoch_matches_the_plain_loop_bitwise(self, case, m):
        widths, n_d, n_y, link, homogenized = self.CASES[case]
        rng = np.random.default_rng(21)
        views = resolve_views([rng.standard_normal((m, w)) for w in widths], n_d,
                              homogenized=homogenized)
        Y = rng.standard_normal((m, n_y))
        Y = (Y > 0).astype(float) if link == "logistic" else Y
        offset = 0.3 * rng.standard_normal((m, n_y))
        cfg = TrainConfig(n_d=n_d, n_t=2, C_p=0.01, C_q=0.02, epochs=1, batch_size=20, link=link)
        got = training._fit_block(views, Y, offset, 2, cfg, np.random.default_rng(5), 1)
        want = reference_block(views, Y, offset, 2, cfg, np.random.default_rng(5))
        (lam, P, Q, raw, epoch, trace), (r_lam, r_P, r_Q, r_raw, r_epoch, r_trace) = got, want
        assert len(P) == n_d and all(np.array_equal(a, b) for a, b in zip(P, r_P))
        for a, b in ((lam, r_lam), (Q, r_Q), (raw, r_raw)):
            assert np.array_equal(a, b)
        assert (epoch, trace) == (r_epoch, r_trace)
        assert n_y > 1 or np.array_equal(Q, np.ones((2, 1)))

    @pytest.mark.parametrize("mode,blocks", [("joint", 1), ("layered", 2), ("rank_wise", 3)])
    def test_traced_kernels_run_once_per_batch(self, monkeypatch, mode, blocks):
        # the counts a tracer of the module attributes relies on: one ADAM step and one
        # partials sweep per batch, one projection per batch and per epoch loss
        import tensorpoly.model as tmodel
        calls = {}
        for module, name in ((training, "adam_step"), (training, "hadamard_partials"),
                             (tmodel, "z_factors")):
            def spy(*args, exact=getattr(module, name), name=name, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return exact(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        rng = np.random.default_rng(8)
        X = rng.standard_normal((230, 3))
        cfg = TrainConfig(n_d=3, n_t=3, epochs=2, batch_size=50, mode=mode,
                          rank_blocks=[2, 1] if mode == "layered" else None)
        fit(Dataset(views=[X], Y=rng.standard_normal(230)), cfg)
        batches = blocks * cfg.epochs * 5
        assert calls == {"adam_step": batches, "hadamard_partials": batches,
                         "z_factors": batches + blocks * cfg.epochs}


class TestFitDispatcher:
    def test_routes_by_mode(self):
        ds = quadratics_dataset("xy", 200, seed=4)
        kw = dict(n_d=2, n_t=2, epochs=3, batch_size=50, learning_rate=0.05, seed=1)
        for mode, blocks in (("rank_wise", None), ("joint", None), ("layered", [1, 1])):
            model, report = fit(ds, TrainConfig(mode=mode, rank_blocks=blocks, **kw))
            assert model.n_t == 2
            assert report.mode == ("joint" if mode == "joint" else mode)


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(n_d=0, n_t=1)
        with pytest.raises(ValueError):
            TrainConfig(n_d=1, n_t=1, C_p=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(n_d=1, n_t=1, batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(n_d=1, n_t=1, mode="bogus")
        with pytest.raises(ValueError):
            TrainConfig(n_d=1, n_t=1, link="probit")

    @pytest.mark.parametrize("kw", [
        dict(learning_rate=float("nan")),
        dict(learning_rate=float("inf")),
        dict(C_p=float("nan")),
        dict(C_q=float("-inf")),
        dict(learning_rate="0.1"),
        dict(n_d=2.5),
        dict(n_t=2.0),
        dict(epochs=1.5),
        dict(batch_size=50.5),
        dict(seed=0.5),
        dict(mode="layered", n_t=3, rank_blocks=[1.7, 1.3]),
        dict(mode="layered", n_t=2, rank_blocks=[2.0]),
        dict(mode="joint", rank_blocks=[1, 1]),
        dict(mode="rank_wise", rank_blocks=[2]),
    ], ids=lambda kw: ",".join(f"{k}={v!r}" for k, v in kw.items()))
    def test_rejects_values_it_cannot_train_with(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**{"n_d": 2, "n_t": 2, **kw})

    def test_numpy_scalars_accepted(self):
        cfg = TrainConfig(n_d=np.int64(2), n_t=np.int32(3), batch_size=np.int64(10),
                          learning_rate=np.float64(0.1),
                          mode="layered", rank_blocks=[np.int64(1), np.int64(2)])
        assert cfg.rank_blocks == [1, 2]
