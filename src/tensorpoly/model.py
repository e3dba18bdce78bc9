"""Model containers and forward evaluation.

A fitted model represents a polynomial of degree ``n_d`` as a sum of
``n_t`` rank-one terms,

    f(x) = sum_t  lam[t] * prod_d <P[d][t], x>,

optionally mapped through an output-component matrix ``Q`` for
vector-valued targets (``yhat_i = sum_t lam[t] * prod_d <P[d][t], x_i> * Q[t]``).
In the multi-view case each factor ``d`` consumes its own input matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Dense n-way arrays are only used as a small-instance verification oracle;
# anything bigger than this entry count is refused.
ORACLE_SIZE_CAP = 10_000_000

LINKS = ("identity", "logistic")


def _as_float_matrix(X, name="X"):
    A = np.asarray(X, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got shape {A.shape}")
    return A


def homogenize(X):
    """Append a constant-1 column to ``X``.

    Lets a model of degree ``n_d`` represent inhomogeneous polynomials up
    to that degree while staying homogeneous in the augmented input.
    """
    A = _as_float_matrix(X)
    if not np.all(np.isfinite(A)):
        raise ValueError("homogenize requires finite input")
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
        if not self.P:
            raise ValueError("model needs at least one factor matrix")
        self.P = [_as_float_matrix(Pd, f"P[{d}]") for d, Pd in enumerate(self.P)]
        self.Q = _as_float_matrix(self.Q, "Q")
        self.lam = np.asarray(self.lam, dtype=float).reshape(-1)
        n_t = self.lam.shape[0]
        for d, Pd in enumerate(self.P):
            if Pd.shape[0] != n_t:
                raise ValueError(f"P[{d}] has {Pd.shape[0]} rows, expected n_t={n_t}")
        if self.Q.shape[0] != n_t:
            raise ValueError(f"Q has {self.Q.shape[0]} rows, expected n_t={n_t}")
        if self.link not in LINKS:
            raise ValueError(f"unknown link {self.link!r}")
        for arr in (*self.P, self.Q, self.lam):
            if not np.all(np.isfinite(arr)):
                raise ValueError("model parameters must be finite")

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
        self.views = [_as_float_matrix(V, f"views[{i}]") for i, V in enumerate(self.views)]
        Y = np.asarray(self.Y, dtype=float)
        if Y.ndim == 1:
            Y = Y.reshape(-1, 1)
        if Y.ndim != 2:
            raise ValueError(f"Y must be 1-d or 2-d, got shape {Y.shape}")
        self.Y = Y
        m = self.views[0].shape[0]
        for i, V in enumerate(self.views):
            if V.shape[0] != m:
                raise ValueError(f"views[{i}] has {V.shape[0]} rows, expected {m}")
        if Y.shape[0] != m:
            raise ValueError(f"Y has {Y.shape[0]} rows, expected {m}")
        for name, A in [*((f"views[{i}]", V) for i, V in enumerate(self.views)), ("Y", Y)]:
            if not np.all(np.isfinite(A)):
                raise ValueError(f"{name} contains non-finite values")

    @classmethod
    def from_arrays(cls, X, y):
        return cls(views=[X], Y=y)

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
        return Dataset(views=[V[idx] for V in self.views], Y=self.Y[idx])


@dataclass
class DenseTensor:
    """Dense n-way coefficient array, the brute-force verification oracle."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.size > ORACLE_SIZE_CAP:
            raise ValueError(
                f"dense tensor with {self.values.size} entries exceeds the "
                f"oracle cap of {ORACLE_SIZE_CAP}"
            )

    @property
    def order(self):
        return self.values.ndim

    @property
    def dims(self):
        return self.values.shape


def resolve_views(model, views):
    """Normalize ``views`` to one matrix per factor.

    Accepts a bare matrix, a 1-element list (shared across factors), or a
    list of exactly ``n_d`` matrices. Column counts must match each
    ``P[d]`` exactly; homogenization is the caller's job (see `predict`).
    """
    if isinstance(views, np.ndarray):
        views = [views]
    if len(views) == 1:
        views = [views[0]] * model.n_d
    elif len(views) != model.n_d:
        raise ValueError(
            f"expected 1 or {model.n_d} views, got {len(views)}"
        )
    out = []
    for d, (V, Pd) in enumerate(zip(views, model.P)):
        V = _as_float_matrix(V, f"views[{d}]")
        if V.shape[1] != Pd.shape[1]:
            raise ValueError(
                f"view {d} has {V.shape[1]} columns, factor expects {Pd.shape[1]}"
            )
        out.append(V)
    return out


def z_factors(P, views):
    """Per-factor projections Z_d = X_d P_d^T, each (m, n_t)."""
    return [V @ Pd.T for V, Pd in zip(views, P)]


def hadamard_partials(Z):
    """All leave-one-out Hadamard products of the Z_d in one sweep.

    Returns a list of length ``n_d`` whose d-th entry is the elementwise
    product of every ``Z_k`` with ``k != d`` (all-ones for ``n_d == 1``).
    Prefix/suffix products keep the cost linear in the number of factors.
    """
    n_d = len(Z)
    m, n_t = Z[0].shape
    prefix = [np.ones((m, n_t))]
    for d in range(n_d - 1):
        prefix.append(prefix[-1] * Z[d])
    suffix = np.ones((m, n_t))
    out = [None] * n_d
    for d in range(n_d - 1, -1, -1):
        out[d] = prefix[d] * suffix
        suffix = suffix * Z[d]
    return out


def forward_scalar(model, x):
    """Evaluate a scalar-output model at one point."""
    if model.n_y != 1:
        raise ValueError("forward_scalar requires a scalar-output model")
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != model.n:
        raise ValueError(f"x has length {x.shape[0]}, model expects {model.n}")
    terms = np.ones(model.n_t)
    for Pd in model.P:
        terms = terms * (Pd @ x)
    return float(np.dot(model.lam, terms))


def forward_terms(P, lam, Q, views):
    """Forward pass of a parameter set on resolved views: ``(Z, F, raw)``.

    ``Z`` are the projections ``Z_d = X_d P_d^T``; ``F`` (m, n_t) is their
    elementwise product, the per-term factor products; ``raw = F @
    diag(lam) @ Q`` (m, n_y) is the output before the link. Prediction,
    the loss, the gradients and deflation all build ``F`` here.
    """
    Z = z_factors(P, views)
    F = Z[0].copy()
    for Zd in Z[1:]:
        F *= Zd
    return Z, F, (F * lam) @ Q


def forward_batch(model, views):
    """Batch forward pass.

    Returns ``(F, Yhat)`` where ``F`` is the (m, n_t) matrix of per-term
    factor products and ``Yhat = F @ diag(lam) @ Q`` is (m, n_y).
    """
    _, F, Yhat = forward_terms(model.P, model.lam, model.Q, resolve_views(model, views))
    return F, Yhat


def forward_partial(model, views, skip_d):
    """Factor product with one factor left out.

    ``skip_d`` is 1-based; the empty product at ``n_d == 1`` is the
    all-ones matrix.
    """
    if not 1 <= skip_d <= model.n_d:
        raise ValueError(f"skip_d must be in [1, {model.n_d}], got {skip_d}")
    return hadamard_partials(z_factors(model.P, resolve_views(model, views)))[skip_d - 1]


def sigmoid(u):
    """Numerically stable logistic function."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


def predict(model, views):
    """Predictions with homogenization and link applied.

    Views one column short of the factor width are homogenized when the
    model carries the flag; logistic models return probabilities.
    """
    if isinstance(views, np.ndarray):
        views = [views]
    if model.homogenized:
        fixed = []
        for V, width in zip(views, model.dims if len(views) > 1 else [model.dims[0]]):
            V = _as_float_matrix(V)
            if V.shape[1] == width - 1:
                V = homogenize(V)
            fixed.append(V)
        views = fixed
    _, raw = forward_batch(model, views)
    if model.link == "logistic":
        return sigmoid(raw)
    return raw


def materialize_tensor(model):
    """Expand the model into its dense coefficient tensor.

    Only meaningful for scalar-output models with a common input width,
    and refused above the oracle size cap.
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
    return DenseTensor(values=T)


def tensor_contract(T, x):
    """Contract a dense tensor against the same vector on every axis."""
    x = np.asarray(x, dtype=float).reshape(-1)
    val = T.values
    if any(dim != x.shape[0] for dim in val.shape):
        raise ValueError(
            f"tensor dims {val.shape} incompatible with vector of length {x.shape[0]}"
        )
    for _ in range(val.ndim):
        val = np.tensordot(val, x, axes=([0], [0]))
    return float(val)
