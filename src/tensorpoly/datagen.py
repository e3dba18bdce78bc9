"""Synthetic data: random rank-one-term polynomials and the three
benchmark quadratics, with relative Gaussian output noise."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset, LtrModel, forward_terms, integral, one_of, real


@dataclass
class GeneratorSpec:
    """Shape of a random polynomial generator."""

    n: int
    n_d: int
    n_t: int
    m: int
    noise_level: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "n_d", "n_t", "m"):
            integral(name, getattr(self, name))
        integral("seed", self.seed, 0)
        real("noise_level", self.noise_level, 0)


def generate_model(spec):
    """Random homogeneous model: factor entries and scales i.i.d. N(0,1)."""
    rng = np.random.default_rng(spec.seed)
    P = [rng.standard_normal((spec.n_t, spec.n)) for _ in range(spec.n_d)]
    lam = rng.standard_normal(spec.n_t)
    return LtrModel(P=P, Q=np.ones((spec.n_t, 1)), lam=lam)


def sample_dataset(model, m, noise_level=0.0, seed=0):
    """Draw standard-normal inputs and (optionally noisy) outputs of a plain identity-link model.

    The noise is zero-mean Gaussian with standard deviation equal to the
    empirical std of the noiseless values on this sample, times
    ``noise_level``.
    """
    if model.homogenized or model.link != "identity":
        raise ValueError("sample_dataset draws from plain identity-link models")
    m = integral("m", m)
    real("noise_level", noise_level, 0)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, model.n))
    _, _, y = forward_terms(model.P, model.lam, model.Q, [X])
    if noise_level > 0:
        sigma = noise_level * float(np.std(y))
        y = y + rng.standard_normal(y.shape) * sigma
    return Dataset(views=[X], Y=y)


QUADRATIC_FUNCTIONS = {
    "xy": lambda X: X[:, 0] * X[:, 1],
    "sq_diff": lambda X: (X[:, 0] - X[:, 1]) ** 2,
    "diff_sq": lambda X: X[:, 0] ** 2 - X[:, 1] ** 2,
}


def quadratics_dataset(which, m, seed=0):
    """One of the three benchmark quadratics on 2-d standard-normal input.

    ``xy`` is x*y, ``sq_diff`` is (x-y)^2, ``diff_sq`` is x^2-y^2; the
    outputs are exact (no noise).
    """
    one_of("function", which, QUADRATIC_FUNCTIONS)
    m = integral("m", m)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, 2))
    y = QUADRATIC_FUNCTIONS[which](X)
    return Dataset(views=[X], Y=y)
