"""Shared builders for the test suite."""

import numpy as np

from tensorpoly import LtrModel, predict


def random_model(rng, n, n_d, n_t, n_y=1):
    P = [rng.standard_normal((n_t, n)) for _ in range(n_d)]
    if n_y == 1:
        Q = np.ones((n_t, 1))
    else:
        Q = rng.standard_normal((n_t, n_y))
    lam = rng.standard_normal(n_t)
    return LtrModel(P=P, Q=Q, lam=lam)


def predict_point(model, x):
    """`predict` of a scalar-output model on the one-row matrix ``x``."""
    return float(predict(model, np.reshape(np.asarray(x, dtype=float), (1, -1)))[0, 0])


def loop_forward(model, X):
    """Per-example evaluation by plain Python loops (oracle path)."""
    out = np.zeros((X.shape[0], model.n_y))
    for i in range(X.shape[0]):
        for t in range(model.n_t):
            prod = model.lam[t]
            for Pd in model.P:
                prod *= float(np.dot(Pd[t], X[i]))
            out[i] += prod * model.Q[t]
    return out


# The dense n-way coefficient tensor is a small-instance verification oracle only;
# anything bigger than this entry count is refused.
ORACLE_SIZE_CAP = 10_000_000


def materialize_tensor(model):
    """Expand the model into its dense coefficient tensor, an ``n_d``-way ndarray.

    It is the brute-force verification oracle: only meaningful for
    scalar-output models with a common input width, and refused above
    the oracle size cap.
    """
    if model.n_y != 1:
        raise ValueError("materialize_tensor requires a scalar-output model")
    n = model.n
    if float(n) ** model.n_d > ORACLE_SIZE_CAP:
        raise ValueError(
            f"{n}^{model.n_d} entries exceed the oracle cap of {ORACLE_SIZE_CAP}"
        )
    T = np.zeros((n,) * model.n_d)
    for t in range(model.n_t):
        term = np.array(model.lam[t])
        for Pd in model.P:
            term = np.multiply.outer(term, Pd[t])
        T += term
    return T


def tensor_contract(T, x):
    """Contract a dense tensor (array) against the same vector on every axis."""
    x = np.asarray(x, dtype=float).reshape(-1)
    val = np.asarray(T, dtype=float)
    if any(dim != x.shape[0] for dim in val.shape):
        raise ValueError(
            f"tensor dims {val.shape} incompatible with vector of length {x.shape[0]}"
        )
    for _ in range(val.ndim):
        val = np.tensordot(val, x, axes=([0], [0]))
    return float(val)


def finite_checks(monkeypatch, *rows):
    """The shapes of the arrays with a leading dimension in ``rows`` that `np.isfinite`
    sees from now on, in call order; parameter arrays of other sizes are left out."""
    seen = []
    exact = np.isfinite

    def spy(x, *args, **kwargs):
        if np.ndim(x) > 0 and np.shape(x)[0] in rows:
            seen.append(np.shape(x))
        return exact(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", spy)
    return seen
