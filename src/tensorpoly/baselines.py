"""Reference learners: linear regression, polynomial-kernel ridge
regression, and the factorization-machine forward form."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .gradcheck import central_difference
from .model import checked_views, integral, resolve_views

# krr_fit holds m*D + D^2 floats on its primal path (1.4 MB at 2,000 x 6, degree 3) and
# 16*m^2 bytes on its dual path, the m x m kernel and np.linalg.solve's copy of it:
# 64 MB at 2,000 rows, 6.4 GB at this cap
KRR_SIZE_CAP = 20_000
KRR_BIAS = 1.0  # the b of krr_fit's poly_kernel and poly_features
POWER_BLOCK = 1 << 15  # kernel entries raised to n_d per block of rows
PREDICT_BLOCK = 1 << 18  # basis entries per block of rows in krr_predict


def poly_kernel(X1, X2, b, n_d):
    """Polynomial kernel K_ij = (<x1_i, x2_j> + b)^n_d.

    The power is n_d - 1 in-place multiplications by a copy of one block
    of rows at a time, so the kernel is the only full-size array.
    """
    n_d = integral("n_d", n_d, 1)
    X1 = np.asarray(X1, dtype=float)
    X2 = np.asarray(X2, dtype=float)
    if X1.shape[1] != X2.shape[1]:
        raise ValueError(f"column mismatch: {X1.shape[1]} vs {X2.shape[1]}")
    K = X1 @ X2.T
    K += b
    if n_d > 1:
        rows = max(1, POWER_BLOCK // max(1, K.shape[1]))
        for start in range(0, K.shape[0], rows):
            block = K[start:start + rows]
            base = block.copy()
            for _ in range(n_d - 1):
                block *= base
    return K


def poly_features(X, b, n_d):
    """The feature map of `poly_kernel`: ``poly_features(X1) @ poly_features(X2).T`` is
    ``poly_kernel(X1, X2)`` at the same ``b`` and ``n_d``. One column per degree-n_d
    monomial of ``(x, sqrt(b))``, C(n + n_d, n_d) in all, each scaled by the square root
    of its multinomial coefficient."""
    n_d = integral("n_d", n_d, 1)
    X = np.asarray(X, dtype=float)
    Z = np.hstack([X, np.full((X.shape[0], 1), math.sqrt(b))])
    monomials = list(combinations_with_replacement(range(Z.shape[1]), n_d))
    factors = np.array(monomials).T  # row k: the variable of each monomial's k-th factor
    Phi = Z[:, factors[0]]
    for variables in factors[1:]:
        Phi *= Z[:, variables]
    Phi *= np.sqrt([math.factorial(n_d) // math.prod(math.factorial(c.count(i)) for i in set(c))
                    for c in monomials])
    return Phi


@dataclass
class KrrModel:
    """``coef`` weighs the columns of `poly_features` when ``X_train`` is None (the primal
    path), else those of `poly_kernel` against ``X_train`` (the dual path)."""
    X_train: np.ndarray | None
    coef: np.ndarray
    n_d: int

    def basis(self, X):
        """The columns that ``coef`` weighs, at the rows of ``X``."""
        if self.X_train is None:
            return poly_features(X, KRR_BIAS, self.n_d)
        return poly_kernel(X, self.X_train, KRR_BIAS, self.n_d)


def krr_fit(dataset, n_d=2, ridge=1e-8):
    """Kernel ridge regression with `poly_kernel` at b = KRR_BIAS; scalar outputs only.

    Primal and dual ridge regression give one model (Saunders, Gammerman & Vovk, 1998),
    so this solves the smaller system: ``(Phi^T Phi + ridge*I) w = Phi^T y`` on the
    D = C(n + n_d, n_d) columns of `poly_features` when D <= m, holding m*D + D^2 floats,
    else ``(K + ridge*I) alpha = y``, holding 16*m^2 bytes. Both refuse m > KRR_SIZE_CAP.
    """
    if dataset.n_y != 1:
        raise ValueError("KRR baseline is scalar-output")
    n_d = integral("n_d", n_d, 1)
    X = dataset.X
    m, n = X.shape
    if m > KRR_SIZE_CAP:
        raise ValueError(f"m={m} exceeds the dense-solve cap {KRR_SIZE_CAP}")
    y = dataset.Y[:, 0]
    if math.comb(n + n_d, n_d) <= m:
        Phi = poly_features(X, KRR_BIAS, n_d)
        A, rhs, X_train = Phi.T @ Phi, Phi.T @ y, None
    else:
        A, rhs, X_train = poly_kernel(X, X, KRR_BIAS, n_d), y, X
    A.flat[:: A.shape[0] + 1] += ridge  # the diagonal, in place
    try:
        coef = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"kernel system is singular: {exc}") from exc
    return KrrModel(X_train=X_train, coef=coef, n_d=n_d)


def krr_predict(model, X):
    """``model.basis(X) @ model.coef``, the basis built one block of rows of ``X`` at a
    time, so no test-by-basis matrix is held whole."""
    X = np.asarray(X, dtype=float)
    rows = max(1, PREDICT_BLOCK // max(1, model.coef.size))
    out = np.empty(X.shape[0])
    for start in range(0, X.shape[0], rows):
        out[start:start + rows] = model.basis(X[start:start + rows]) @ model.coef
    return out


def linreg_fit(dataset):
    """Least-squares weights on homogenized inputs (tiny ridge for safety)."""
    if dataset.n_y != 1:
        raise ValueError("linear baseline is scalar-output")
    A = resolve_views([dataset.X], 1, homogenized=True)[0]
    G = A.T @ A + 1e-10 * np.eye(A.shape[1])
    return np.linalg.solve(G, A.T @ dataset.Y[:, 0])


def linreg_predict(weights, X):
    return resolve_views(checked_views(X), 1, homogenized=True)[0] @ weights


def anova_terms(X, P, n_d):
    """Per-degree ANOVA interaction terms A_1 .. A_n_d.

    A_d[i, t] is the elementary symmetric polynomial of degree d of the
    componentwise products x_i * p_t, built from power sums by the
    Newton-identity recursion A_d = (1/d) * sum_r (-1)^(r+1) A_{d-r} * D^(r)
    with A_0 all-ones, summed in order of r.
    """
    n_d = integral("n_d", n_d, 1)
    X = np.asarray(X, dtype=float)
    P = np.asarray(P, dtype=float)
    if X.shape[1] != P.shape[1]:
        raise ValueError(f"column mismatch: X has {X.shape[1]}, P has {P.shape[1]}")
    if not P.shape[0]:
        raise ValueError("P must have at least one row, got none")
    Pt = np.ascontiguousarray(P.T)  # the GEMMs run faster on a C-order Pt
    Xr, Ptr = X, Pt  # the running powers X^r and Pt^r
    D = [None, X @ Pt]  # the power sums D^(r), 1-based
    for _ in range(2, n_d + 1):
        Xr, Ptr = Xr * X, Ptr * Pt
        D.append(Xr @ Ptr)
    # A_1 = D^(1): a zero start, the factors A_0 = 1 and the signs +-1 are exact, so left out
    A = [None, D[1]]
    for d in range(2, n_d + 1):
        acc = A[d - 1] * D[1]
        for r in range(2, d + 1):
            term = D[r] if r == d else A[d - r] * D[r]
            (np.add if r % 2 else np.subtract)(acc, term, out=acc)
        acc /= d
        A.append(acc)
    return A[1:]


def fm_forward(X, P, n_d):
    """Factorization-machine forward value: all interaction orders 1..n_d
    summed over the n_t components."""
    terms = anova_terms(X, P, n_d)
    total = terms[0] if n_d == 1 else terms[0] + terms[1]
    for A_d in terms[2:]:
        total += A_d
    out = total[:, 0].copy()  # column adds in order: numpy's row sum goes one row at a time
    for t in range(1, total.shape[1]):
        out += total[:, t]
    return out


@np.errstate(over="ignore", invalid="ignore")
def fm_fit_gd(X, y, n_d, n_t, steps=300, restarts=3):
    """Fit the FM parameter matrix by plain gradient descent at rate 0.05.

    Central-difference gradients of the mean squared error drive the
    descent (no FM-specific training machinery); restart ``r`` starts from
    ``default_rng(r)``, and the best restart by training MSE is returned.
    A diverging restart overflows silently and is skipped by the MSE check.
    """
    n_t = integral("n_t", n_t, 1)
    steps = integral("steps", steps, 1)
    restarts = integral("restarts", restarts, 1)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    m = X.shape[0]
    best_P, best_mse = None, np.inf
    for r in range(restarts):
        rng = np.random.default_rng(r)
        P = rng.standard_normal((n_t, X.shape[1])) / np.sqrt(X.shape[1])
        for _ in range(steps):
            P -= 0.05 * central_difference(
                lambda: np.sum((y - fm_forward(X, P, n_d)) ** 2) / m, P, 1e-6
            )
        mse = float(np.mean((y - fm_forward(X, P, n_d)) ** 2))
        if np.isfinite(mse) and mse < best_mse:
            best_P, best_mse = P, mse
    if best_P is None:
        raise RuntimeError("all FM gradient-descent restarts diverged")
    return best_P
