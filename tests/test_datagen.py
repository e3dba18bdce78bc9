import re

import numpy as np
import pytest

from tensorpoly import (
    GeneratorSpec,
    LtrModel,
    generate_model,
    predict,
    sample_dataset,
    quadratics_dataset,
)

from helpers import predict_point


class TestGenerateModel:
    def test_same_seed_same_model(self):
        spec = GeneratorSpec(n=4, n_d=3, n_t=2, m=10, seed=5)
        a = generate_model(spec)
        b = generate_model(spec)
        assert all(np.array_equal(x, y) for x, y in zip(a.P, b.P))
        assert np.array_equal(a.lam, b.lam)

    def test_entries_are_standard_normal(self):
        # pool 10^5 factor entries; mean and std within 3 sigma of (0, 1)
        spec = GeneratorSpec(n=100, n_d=10, n_t=100, m=1, seed=3)
        model = generate_model(spec)
        entries = np.concatenate([Pd.reshape(-1) for Pd in model.P])
        assert entries.size == 100_000
        assert abs(entries.mean()) <= 3.0 / np.sqrt(entries.size)
        assert abs(entries.std() - 1.0) <= 3.0 / np.sqrt(2 * entries.size)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec(n=2, n_d=2, n_t=0, m=10)
        with pytest.raises(ValueError):
            GeneratorSpec(n=2, n_d=2, n_t=1, m=10, noise_level=-0.5)
        for kw in (dict(n=2.7), dict(n_d=2.5), dict(n_t=1.5), dict(m=10.9), dict(seed=1.5),
                   dict(seed=-1)):
            with pytest.raises(ValueError, match=f"{next(iter(kw))} must be an integer"):
                GeneratorSpec(**{"n": 2, "n_d": 2, "n_t": 1, "m": 10, **kw})


class TestSampleDataset:
    def test_noiseless_outputs_match_forward_exactly(self):
        spec = GeneratorSpec(n=3, n_d=2, n_t=2, m=50, seed=7)
        model = generate_model(spec)
        ds = sample_dataset(model, 50, 0.0, seed=8)
        expected = predict(model, [ds.X])
        assert np.array_equal(ds.Y, expected)

    def test_noise_level_definition(self):
        spec = GeneratorSpec(n=3, n_d=2, n_t=2, m=10, seed=9)
        model = generate_model(spec)
        ds = sample_dataset(model, 100_000, 1.0, seed=10)
        clean = predict(model, [ds.X])
        ratio = np.std(ds.Y - clean) / np.std(clean)
        assert 0.9 <= ratio <= 1.1

    def test_same_seed_bit_identical(self):
        spec = GeneratorSpec(n=3, n_d=2, n_t=2, m=20, seed=11)
        model = generate_model(spec)
        a = sample_dataset(model, 20, 0.5, seed=12)
        b = sample_dataset(model, 20, 0.5, seed=12)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.Y, b.Y)

    @pytest.mark.parametrize("m,noise_level,message", [
        (10, float("nan"), "noise_level must be a finite number, got nan"),
        (2.5, 0.0, "m must be an integer >= 1, got 2.5"),
        (0, 0.0, "m must be an integer >= 1, got 0"),
    ])
    def test_bad_arguments_rejected(self, m, noise_level, message):
        model = generate_model(GeneratorSpec(n=3, n_d=2, n_t=2, m=10, seed=1))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_dataset(model, m, noise_level)

    @pytest.mark.parametrize("kind", [{"homogenized": True}, {"link": "logistic"}],
                             ids=["homogenized", "logistic"])
    def test_models_it_cannot_describe_are_refused(self, kind):
        # a homogenized model's ones column would be drawn as noise; a logistic one's
        # outputs would be pre-link values
        model = LtrModel(P=[np.ones((1, 3))] * 2, Q=np.ones((1, 1)), lam=[1.0], **kind)
        with pytest.raises(ValueError,
                           match="^sample_dataset draws from plain identity-link models$"):
            sample_dataset(model, 5)

    def test_homogeneous_scaling(self):
        spec = GeneratorSpec(n=3, n_d=3, n_t=2, m=5, seed=13)
        model = generate_model(spec)
        ds = sample_dataset(model, 5, 0.0, seed=14)
        for i in range(5):
            scaled = predict_point(model, 2.0 * ds.X[i])
            assert scaled == pytest.approx(8.0 * ds.Y[i, 0], rel=1e-10)


class TestQuadratics:
    def test_named_functions(self):
        X = np.array([[2.0, 3.0], [1.0, 1.0], [2.0, 1.0]])
        from tensorpoly.datagen import QUADRATIC_FUNCTIONS

        assert QUADRATIC_FUNCTIONS["xy"](X).tolist() == [6.0, 1.0, 2.0]
        assert QUADRATIC_FUNCTIONS["sq_diff"](X).tolist() == [1.0, 0.0, 1.0]
        assert QUADRATIC_FUNCTIONS["diff_sq"](X).tolist() == [-5.0, 0.0, 3.0]

    def test_dataset_consistency(self):
        ds = quadratics_dataset("xy", 25, seed=3)
        assert ds.X.shape == (25, 2)
        assert np.array_equal(ds.Y[:, 0], ds.X[:, 0] * ds.X[:, 1])

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            quadratics_dataset("cubic", 10, seed=0)

    @pytest.mark.parametrize("m", [2.5, 0])
    def test_m_must_be_a_positive_integer(self, m):
        with pytest.raises(ValueError, match=rf"^m must be an integer >= 1, got {m}$"):
            quadratics_dataset("xy", m)
