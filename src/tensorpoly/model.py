"""Model containers and forward evaluation.

A fitted model represents a polynomial of degree ``n_d`` as a sum of
``n_t`` rank-one terms,

    f(x) = sum_t  lam[t] * prod_d <P[d][t], x>,

optionally mapped through an output-component matrix ``Q`` for
vector-valued targets (``yhat_i = sum_t lam[t] * prod_d <P[d][t], x_i> * Q[t]``).
In the multi-view case each factor ``d`` consumes its own input matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# Dense n-way arrays are only used as a small-instance verification oracle;
# anything bigger than this entry count is refused.
ORACLE_SIZE_CAP = 10_000_000


def _as_float_matrix(X, name, ndim=2):
    """``X`` as a C-order float array; a ValueError naming ``name`` unless it holds numbers
    in ``ndim`` dimensions (any number for None). C-order float input is returned as is."""
    try:
        A = np.asarray(X, dtype=float, order="C")
    except (TypeError, ValueError) as exc:  # an object, a string or a ragged list
        raise ValueError(f"{name} must be an array of numbers: {exc}") from None
    if ndim is not None and A.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-d array, got shape {A.shape}")
    return A


def _finite_matrix(X, name, ndim=2):
    """`_as_float_matrix`, refusing non-finite values too."""
    A = _as_float_matrix(X, name, ndim)
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite values")
    return A


def integral(name, value, low=1):
    """``value`` as an int; a ValueError naming ``name`` unless it is an integer >= ``low``."""
    if not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def real(name, value):
    """``value`` as a float; a ValueError naming ``name`` unless it is a finite real number."""
    if not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def homogenize(X):
    """Append a constant-1 column to ``X``.

    Lets a model of degree ``n_d`` represent inhomogeneous polynomials up
    to that degree while staying homogeneous in the augmented input.
    """
    A = _finite_matrix(X, "X")
    return np.hstack([A, np.ones((A.shape[0], 1))])


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
        if not isinstance(self.link, str) or self.link not in LINKS:
            raise ValueError(f"unknown link {self.link!r}")
        if not isinstance(self.homogenized, (bool, np.bool_)):
            raise ValueError(f"homogenized must be true or false, got {self.homogenized!r}")

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

    ``views`` holds one matrix for the single-view case and ``n_d``
    matrices (one per factor) for the multi-view case; all share the
    same row count as ``Y``.
    """

    views: list
    Y: np.ndarray

    def __post_init__(self):
        if not isinstance(self.views, (list, tuple)) or len(self.views) == 0:
            raise ValueError("views must be a non-empty list of matrices")
        views = resolve_views(self.views, len(self.views))
        self.views = _each_distinct(views, lambda d, V: _finite_matrix(V, f"views[{d}]"))
        Y = _as_float_matrix(self.Y, "Y", ndim=None)
        self.Y = _finite_matrix(Y.reshape(-1, 1) if Y.ndim == 1 else Y, "Y")
        if self.m != self.views[0].shape[0]:
            raise ValueError(f"Y has {self.m} rows, expected {self.views[0].shape[0]}")

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
        """Row-subset dataset; serves the cross-validation folds."""
        return Dataset(views=take_rows(self.views, idx), Y=np.take(self.Y, idx, axis=0))


def _each_distinct(views, fn):
    """``[fn(d, V) for d, V in enumerate(views)]``, with ``fn`` called once per
    distinct view object: entries that share a view share the result."""
    done = {}
    for d, V in enumerate(views):
        if id(V) not in done:
            done[id(V)] = fn(d, V)
    return [done[id(V)] for V in views]


def take_rows(views, idx):
    """Rows ``idx`` of each view, gathered once per distinct view object, so
    factors that share a view share its batch (and one `z_factors` product)."""
    return _each_distinct(views, lambda d, V: np.take(V, idx, axis=0))


def resolve_views(views, n_d, dims=None, homogenized=False):
    """Normalize ``views`` to one matrix per factor.

    Accepts a bare matrix, a 1-element list (shared across factors), or a
    list of exactly ``n_d`` matrices. Each distinct view object is
    converted once and, with ``homogenized``, gets its trailing 1 column
    once, so factors that share a view keep sharing it and `z_factors`
    projects it in one product. All views must have one row count. With
    ``dims`` (the factor widths), each view must have exactly its
    factor's raw width: one column fewer on a homogenized model.
    """
    if isinstance(views, np.ndarray):
        views = [views]
    if len(views) not in (1, n_d):
        raise ValueError(f"expected 1 or {n_d} views, got {len(views)}")
    if len(views) == 1:
        views = list(views) * n_d
    views = _each_distinct(views, lambda d, V: _as_float_matrix(V, f"views[{d}]"))
    raw = [width - 1 for width in dims] if dims is not None and homogenized else dims
    for d, V in enumerate(views):
        if V.shape[0] != views[0].shape[0]:
            raise ValueError(f"views[{d}] has {V.shape[0]} rows, expected {views[0].shape[0]}")
        if raw is not None and V.shape[1] != raw[d]:
            raise ValueError(f"view {d} has {V.shape[1]} columns, factor expects {raw[d]}")
    if homogenized:
        views = _each_distinct(views, lambda d, V: homogenize(V))
    return views


def z_factors(P, views):
    """Per-factor projections Z_d = X_d P_d^T, each (m, n_t).

    Factors that read the same view object share one product,
    ``vstack(P_group) @ V^T`` of shape (k n_t, m): one wide GEMM instead
    of k narrow ones. ``Z_d`` is its row block, transposed, a
    Fortran-order view with no copy.
    """
    groups = {}
    for d, V in enumerate(views):
        groups.setdefault(id(V), (V, []))[1].append(d)
    n_t = P[0].shape[0]
    Z = [None] * len(P)
    for V, factors in groups.values():
        stacked = np.vstack([P[d] for d in factors]) @ V.T
        for j, d in enumerate(factors):
            Z[d] = stacked[j * n_t:(j + 1) * n_t].T
    return Z


def hadamard_partials(Z):
    """All leave-one-out Hadamard products of the Z_d in one sweep.

    Returns a list of length ``n_d`` whose d-th entry is the elementwise
    product of every ``Z_k`` with ``k != d`` (all-ones for ``n_d == 1``):
    the product of ``Z_0..Z_{d-1}`` from the left times that of
    ``Z_{n_d-1}..Z_{d+1}`` from the right. Prefix/suffix products keep the
    cost linear in the number of factors. Entries may alias the inputs
    (for ``n_d == 2`` they are ``Z[1]`` and ``Z[0]``); do not write to them.
    """
    n_d = len(Z)
    if n_d == 1:
        return [np.ones(Z[0].shape)]
    out = [None, Z[0]]  # out[d] starts as the prefix product Z_0 * ... * Z_{d-1}
    for d in range(2, n_d):
        out.append(out[-1] * Z[d - 1])
    suffix = Z[n_d - 1]
    for d in range(n_d - 2, 0, -1):
        out[d] = out[d] * suffix
        suffix = suffix * Z[d]
    out[0] = suffix
    return out


def forward_terms(P, lam, Q, views):
    """Forward pass of a parameter set on resolved views: ``(Z, F, raw)``.

    ``Z`` are the projections ``Z_d = X_d P_d^T``; ``F`` (m, n_t) is their
    elementwise product, the per-term factor products; ``raw = F @
    diag(lam) @ Q`` (m, n_y) is the output before the link. Prediction,
    data generation, the loss and the gradients all build ``F`` here.
    """
    Z = z_factors(P, views)
    F = Z[0].copy(order="K")  # keeps Z_0's Fortran layout; a C-order copy is ~5x slower
    for Zd in Z[1:]:
        F *= Zd
    return Z, F, (F * lam) @ Q


def sigmoid(u):
    """Numerically stable logistic function."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


# link -> (mean of a pre-link output U, summed data loss of Y at U; logistic: stable NLL)
LINKS = {
    "identity": (lambda U: U, lambda Y, U: 0.5 * float(np.sum((Y - U) ** 2))),
    "logistic": (sigmoid, lambda Y, U: float(np.sum(np.logaddexp(0.0, U) - Y * U))),
}


def predict(model, views):
    """Predictions of ``model`` on a matrix or a list of views: (m, n_y), m may be 0.

    The one model-level forward pass. A homogenized model takes raw
    views and adds their ones column itself (`resolve_views`); logistic
    models return probabilities.
    """
    views = resolve_views(views, model.n_d, model.dims, model.homogenized)
    _, _, raw = forward_terms(model.P, model.lam, model.Q, views)
    return LINKS[model.link][0](raw)


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
