"""Model containers and forward evaluation.

A fitted model represents a polynomial of degree ``n_d`` as a sum of
``n_t`` rank-one terms,

    f(x) = sum_t  lam[t] * prod_d <P[d][t], x>,

optionally mapped through an output-component matrix ``Q`` for
vector-valued targets (``yhat_i = sum_t lam[t] * prod_d <P[d][t], x_i> * Q[t]``).
In the multi-view case each factor ``d`` consumes its own input matrix.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass, field

import numpy as np


def _finite_matrix(X, name, ndim=2, column=False):
    """``X`` as a C-order float array; a ValueError naming ``name`` unless it holds finite
    numbers in ``ndim`` dimensions, a 1-d ``X`` read as one column with ``column``.
    C-order float input is returned as is."""
    try:
        A = np.asarray(X, dtype=float, order="C")
    except (TypeError, ValueError) as exc:  # an object, a string or a ragged list
        raise ValueError(f"{name} must be an array of numbers: {exc}") from None
    A = A.reshape(-1, 1) if column and A.ndim == 1 else A
    if A.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-d array, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite values")
    return A


def integral(name, value, low=1):
    """``value`` as an int; a ValueError naming ``name`` unless it is an integer >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def real(name, value, low=-math.inf):
    """``value`` as a float; a ValueError naming ``name`` unless it is a finite real >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    return float(value)


def one_of(name, value, table):
    """``value``; a ValueError naming ``name`` unless it is a string or a boolean in
    ``table`` (a sequence, or a dict's keys). Flags use the table ``(False, True)``."""
    if not isinstance(value, (str, bool, np.bool_)) or value not in table:
        raise ValueError(f"{name} must be one of {tuple(table)}, got {value!r}")
    return value


@dataclass
class LtrModel:
    """Parameter set of a rank-one-term polynomial model.

    Attributes
    ----------
    P : list of ndarray
        One factor matrix per degree, each of shape ``(n_t, width_d)``.
        Widths are equal for single-view models and may differ per view.
    Q : ndarray, shape (n_t, n_y)
        Output components; fixed to all-ones when ``n_y == 1``.
    lam : ndarray, shape (n_t,)
        Scale factor of each rank-one term.
    homogenized : bool
        Whether inputs must get a trailing 1 before evaluation.
    link : str
        "identity" for regression, "logistic" for probability outputs.
    """

    P: list = field(default_factory=list)
    Q: np.ndarray = None
    lam: np.ndarray = None
    homogenized: bool = False
    link: str = "identity"

    def __post_init__(self):
        if not isinstance(self.P, (list, tuple)) or not self.P:
            raise ValueError("P must be a non-empty list of factor matrices")
        self.P = [_finite_matrix(Pd, f"P[{d}]") for d, Pd in enumerate(self.P)]
        self.Q = _finite_matrix(self.Q, "Q")
        self.lam = _finite_matrix(self.lam, "lambda", ndim=1)
        n_t = self.lam.shape[0]
        for d, Pd in enumerate(self.P):
            if Pd.shape[0] != n_t:
                raise ValueError(f"P[{d}] has {Pd.shape[0]} rows, expected n_t={n_t}")
        if self.Q.shape[0] != n_t:
            raise ValueError(f"Q has {self.Q.shape[0]} rows, expected n_t={n_t}")
        one_of("link", self.link, LINKS)
        one_of("homogenized", self.homogenized, (False, True))

    @property
    def n_d(self):
        return len(self.P)

    @property
    def n_t(self):
        return self.lam.shape[0]

    @property
    def n_y(self):
        return self.Q.shape[1]

    @property
    def dims(self):
        """Per-factor input widths."""
        return tuple(Pd.shape[1] for Pd in self.P)

    @property
    def n(self):
        """Common input width; only defined when all factors agree."""
        widths = set(self.dims)
        if len(widths) != 1:
            raise ValueError("model has per-view input widths, use .dims")
        return widths.pop()


@dataclass
class Dataset:
    """Input views plus outputs, rows are examples.

    ``views`` holds one matrix read by every factor (single-view) or one matrix per
    factor (multi-view), each its own view whatever object it is; all share ``Y``'s row
    count, at least 1. Checked once, here; `fit`, `loss`, `gradients` and `take` trust them.
    """

    views: list
    Y: np.ndarray

    def __post_init__(self):
        self.views = checked_views(self.views)
        self.Y = _finite_matrix(self.Y, "Y", column=True)
        if self.m != self.views[0].shape[0]:
            raise ValueError(f"Y has {self.m} rows, expected {self.views[0].shape[0]}")
        self._nonempty()

    def _nonempty(self):
        if self.m == 0:
            raise ValueError("empty dataset")
        return self

    @property
    def m(self):
        return self.Y.shape[0]

    @property
    def n_y(self):
        return self.Y.shape[1]

    @property
    def X(self):
        """The single input matrix; errors on multi-view data."""
        if len(self.views) != 1:
            raise ValueError("dataset is multi-view, use .views")
        return self.views[0]

    def take(self, idx):
        """Rows ``idx``, C-order and not checked again; serves the cross-validation folds."""
        part = copy.copy(self)
        part.views, part.Y = take_rows(self.views, idx), np.take(self.Y, idx, axis=0)
        return part._nonempty()


def factor_views(views, n_d):
    """The view each of ``n_d`` factors reads from a resolved list, in factor order."""
    return views * n_d if len(views) == 1 else views


def take_rows(views, idx):
    """Rows ``idx`` of each view in a resolved list, one gather per entry."""
    return [np.take(V, idx, axis=0) for V in views]


def checked_views(views):
    """The input rule: a bare matrix or a non-empty list or tuple of matrices as a list
    of finite C-order float arrays of one row count (C-order float input as is)."""
    if isinstance(views, np.ndarray):
        views = [views]
    if not isinstance(views, (list, tuple)) or not views:
        raise ValueError("views must be a non-empty list of matrices")
    views = [_finite_matrix(V, f"views[{d}]") for d, V in enumerate(views)]
    for d, V in enumerate(views):
        if V.shape[0] != views[0].shape[0]:
            raise ValueError(f"views[{d}] has {V.shape[0]} rows, expected {views[0].shape[0]}")
    return views


def resolve_views(views, n_d, dims=None, homogenized=False):
    """The factor rule: checked ``views`` (`checked_views`) for ``n_d`` factors, 1 view
    that every factor reads or ``n_d``, one per factor. With ``dims``, each factor's view
    has that factor's width, less 1 if ``homogenized``; with ``homogenized``, each entry
    gets its trailing ones column. Nothing is converted or finite-checked here."""
    if len(views) not in (1, n_d):
        raise ValueError(f"expected 1 or {n_d} views, got {len(views)}")
    raw = [width - 1 for width in dims] if dims is not None and homogenized else dims
    for d, V in enumerate(factor_views(views, n_d)):
        if raw is not None and V.shape[1] != raw[d]:
            raise ValueError(f"view {d} has {V.shape[1]} columns, factor expects {raw[d]}")
    if homogenized:
        views = [np.hstack([V, np.ones((V.shape[0], 1))]) for V in views]
    return views


def z_factors(P, views, out=None):
    """Per-factor projections Z_d = X_d P_d^T: the (n_d, m, n_t) transpose of ``out``, an
    (n_d, n_t, m) C-order array (new by default). One view is projected for all factors
    in one wide GEMM of their (n_d n_t, width) stack, which an (n_d, n_t, width) array
    ``P`` gives with no copy; one view per factor gives ``Z_d = (P_d V_d^T)^T``."""
    n_d, n_t, m = len(P), P[0].shape[0], views[0].shape[0]
    out = np.empty((n_d, n_t, m)) if out is None else out
    one = len(views) == 1
    for S, V, Zt in zip([np.asarray(P).reshape(n_d * n_t, -1)] if one else P, views,
                        [out.reshape(n_d * n_t, m)] if one else out):
        np.dot(S, V.T, out=Zt)
    return out.transpose(0, 2, 1)


def hadamard_partials(Z, out=None):
    """All leave-one-out Hadamard products of the Z_d in one sweep.

    Returns a list of length ``n_d`` whose d-th entry is the elementwise
    product of every ``Z_k`` with ``k != d`` (all-ones for ``n_d == 1``):
    the product of ``Z_0..Z_{d-1}`` from the left times that of
    ``Z_{n_d-1}..Z_{d+1}`` from the right. Prefix/suffix products keep the
    cost linear in the number of factors. Products go into ``out``, a list
    of ``n_d`` arrays of Z's shape, if given. Entries may be the inputs
    themselves (for ``n_d == 2``, ``Z[1]`` and ``Z[0]``); do not write to them.
    """
    n_d = len(Z)
    out = [None] * n_d if out is None else out
    if n_d == 1:  # the empty product
        ones = np.empty(Z[0].shape) if out[0] is None else out[0]
        ones.fill(1.0)
        return [ones]
    parts = [None, Z[0]]  # parts[d] starts as the prefix product Z_0 * ... * Z_{d-1}
    for d in range(2, n_d):
        parts.append(np.multiply(parts[-1], Z[d - 1], out=out[d]))
    suffix = Z[n_d - 1]
    for d in range(n_d - 2, 0, -1):
        parts[d] = np.multiply(parts[d], suffix, out=out[d])
        suffix = np.multiply(suffix, Z[d], out=out[0])
    parts[0] = suffix
    return parts


def forward_terms(P, lam, Q, views, out=None):
    """Forward pass of a parameter set on resolved views: ``(Z, F, raw)``.

    ``Z`` are the projections ``Z_d = X_d P_d^T``; ``F`` (m, n_t) is their
    elementwise product, the per-term factor products; ``raw = F @
    diag(lam) @ Q`` (m, n_y) is the output before the link. Prediction,
    data generation, the loss and the gradients all build ``F`` here. ``out``
    is ``(Zt, F, F_lam, raw)``: the arrays for `z_factors`, ``F``, ``F @
    diag(lam)`` and ``raw`` (new ones by default).
    """
    Zt, F, F_lam, raw = (None,) * 4 if out is None else out
    Z = z_factors(P, views, Zt)
    F = np.multiply(Z[0], Z[1] if len(Z) > 1 else 1.0, out=F)  # Z's layout; times 1.0 is exact
    for Zd in Z[2:]:
        F *= Zd
    return Z, F, np.dot(np.multiply(F, lam, out=F_lam), Q, out=raw)


def sigmoid(u):
    """Numerically stable logistic function: ``1 / (1 + e^-u)`` for u >= 0 and
    ``e^u / (1 + e^u)`` otherwise, so ``exp`` only sees ``-|u|`` and cannot overflow."""
    u = np.asarray(u, dtype=float)
    e = np.exp(-np.abs(u))
    return np.where(u >= 0, 1.0, e) / (1.0 + e)


# link -> (mean of a pre-link output U, summed data loss of Y at U; logistic: stable NLL)
LINKS = {
    "identity": (lambda U: U, lambda Y, U: 0.5 * float(np.sum((Y - U) ** 2))),
    "logistic": (sigmoid, lambda Y, U: float(np.sum(np.logaddexp(0.0, U) - Y * U))),
}


def predict(model, views):
    """Predictions of ``model`` on a matrix or a list of views: (m, n_y), m may be 0.

    The one model-level forward pass, on views checked as a `Dataset`'s are. A homogenized
    model takes raw views and adds their ones column; logistic models return probabilities.
    """
    views = resolve_views(checked_views(views), model.n_d, model.dims, model.homogenized)
    _, _, raw = forward_terms(model.P, model.lam, model.Q, views)
    return LINKS[model.link][0](raw)
