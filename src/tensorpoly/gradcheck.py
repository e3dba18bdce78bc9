"""Finite-difference verification of the analytic gradients."""

from __future__ import annotations

import functools

import numpy as np

from .model import Dataset, LtrModel
from .training import TrainConfig, gradients, loss

# Guarded relative error: near-zero components are compared on an
# absolute scale so finite-difference noise cannot trip the check.
ERROR_FLOOR = 1e-3
TOLERANCE = 1e-5


def central_difference(objective, arr, h):
    """``(f(+h) - f(-h)) / 2h`` per entry of ``arr``; ``objective()`` reads ``arr``,
    which is perturbed in place and restored."""
    g = np.zeros_like(arr)
    for idx in np.ndindex(arr.shape):
        old = arr[idx]
        arr[idx] = old + h
        up = objective()
        arr[idx] = old - h
        down = objective()
        arr[idx] = old
        g[idx] = (up - down) / (2.0 * h)
    return g


def numeric_gradients(model, dataset, config):
    """Central finite differences of `loss`, step 1e-5, w.r.t. every parameter entry."""
    objective = functools.partial(loss, model, dataset, config)
    g_lam = central_difference(objective, model.lam, 1e-5)
    g_P = [central_difference(objective, Pd, 1e-5) for Pd in model.P]
    g_Q = central_difference(objective, model.Q, 1e-5)
    return g_lam, g_P, g_Q


def _worst_entry(analytic, numeric):
    a = np.asarray(analytic, dtype=float)
    f = np.asarray(numeric, dtype=float)
    if a.size == 0:
        return 0.0, ()
    scale = np.maximum(np.maximum(np.abs(a), np.abs(f)), ERROR_FLOOR)
    rel = np.abs(a - f) / scale
    flat = int(np.argmax(rel))
    index = tuple(int(i) for i in np.unravel_index(flat, a.shape))
    return float(rel.reshape(-1)[flat]), index


def make_case(n_d, n_y, multiview, seed=0):
    """A random model/dataset/config triple for one grid point: 7 rows, 2 terms."""
    m, n_t = 7, 2
    rng = np.random.default_rng(seed)
    widths = [3, 2, 4, 3][:n_d] if multiview else [3] * n_d
    P = [rng.standard_normal((n_t, w)) for w in widths]
    Q = np.ones((n_t, 1)) if n_y == 1 else rng.standard_normal((n_t, n_y))
    lam = rng.standard_normal(n_t)
    model = LtrModel(P=P, Q=Q, lam=lam)
    views = [rng.standard_normal((m, w)) for w in widths][:n_d if multiview else 1]
    Y = rng.standard_normal((m, n_y))
    dataset = Dataset(views=views, Y=Y)
    config = TrainConfig(n_d=n_d, n_t=n_t, C_p=0.37, C_q=0.23)
    return model, dataset, config


# (n_d, n_y, multiview) shapes the suite checks
GRID = [(n_d, n_y, multiview) for n_d in (1, 2, 3, 4) for n_y in (1, 3)
        for multiview in (False, True)]


def run_suite():
    """Run the finite-difference suite over every shape in `GRID`.

    Returns rows ``(shape, group, error, index)``, three per shape: the
    max guarded relative error of the "lambda", "P" and "Q" gradients and
    the index of that entry (the P index leads with the factor).
    """
    rows = []
    for i, shape in enumerate(GRID):
        model, dataset, config = make_case(*shape, seed=i)
        a_lam, a_P, a_Q = gradients(model, dataset, config)
        f_lam, f_P, f_Q = numeric_gradients(model, dataset, config)
        per_d = [_worst_entry(a, f) for a, f in zip(a_P, f_P)]
        d_worst = int(np.argmax([e for e, _ in per_d]))
        err_P, idx_P = per_d[d_worst]
        rows += [(shape, "lambda", *_worst_entry(a_lam, f_lam)),
                 (shape, "P", err_P, (d_worst, *idx_P)),
                 (shape, "Q", *_worst_entry(a_Q, f_Q))]
    return rows
