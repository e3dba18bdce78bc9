"""Evaluation metrics and cross-validation orchestration."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np


def _paired(name, y, yhat, least):
    """``y`` and ``yhat`` as float vectors of one length, at least ``least``, for ``name``."""
    y = np.asarray(y, dtype=float).reshape(-1)
    yhat = np.asarray(yhat, dtype=float).reshape(-1)
    if y.shape[0] != yhat.shape[0]:
        raise ValueError("length mismatch")
    if y.shape[0] < least:
        raise ValueError(f"{name} needs {least} or more values, got {y.shape[0]}")
    return y, yhat


def _unit_exponent(d):
    """The exponent e that puts ``d``'s largest magnitude in [2**(e - 1), 2**e)."""
    return np.frexp(np.max(np.abs(d)))[1]


def _unit_scaled(d):
    """``d`` scaled by `_unit_exponent`: exact, so a correlation rounds as unscaled,
    and no sum of squares overflows or underflows to zero."""
    return np.ldexp(d, -_unit_exponent(d))


def pearson(y, yhat):
    """Sample Pearson correlation.

    Returns NaN when either argument has zero variance; callers must
    treat that as "undefined", never as zero correlation.
    """
    y, yhat = _paired("pearson", y, yhat, 2)
    dy = _unit_scaled(y - y.mean())
    dz = _unit_scaled(yhat - yhat.mean())
    denom = np.sqrt(np.sum(dy * dy) * np.sum(dz * dz))
    if denom == 0.0:
        return float("nan")
    return float(np.sum(dy * dz) / denom)


def rmse(y, yhat):
    """Root mean squared error. The errors are unit-scaled before squaring and the root is
    scaled back, which is exact, so large or tiny finite errors neither overflow nor vanish.
    If an entry reaches 2**1023, where ``y - yhat`` can overflow, both are halved first,
    which rounds subnormal entries only."""
    y, yhat = _paired("rmse", y, yhat, 1)
    h = int(max(np.max(np.abs(y)), np.max(np.abs(yhat))) >= 2.0**1023)
    d = np.ldexp(y, -h) - np.ldexp(yhat, -h)
    e = _unit_exponent(d)
    return float(np.ldexp(np.sqrt(np.mean(np.ldexp(d, -e) ** 2)), e + h))


def accuracy(y_true, y_prob):
    """Fraction of correct {0,1} decisions at threshold 0.5."""
    y_true, y_prob = _paired("accuracy", y_true, y_prob, 1)
    return float(np.mean((y_prob >= 0.5) == y_true))


def _check_binary(A, name):
    A = np.asarray(A)
    if not np.all((A == 0) | (A == 1)):
        raise ValueError(f"{name} must be binary 0/1")
    return A.astype(bool)


def f1_multilabel(Y_true, Y_pred):
    """Micro-averaged F1 pooled over all (example, label) cells.

    Defined as 0 when there are no positives anywhere in either matrix.
    """
    T = _check_binary(Y_true, "Y_true")
    P = _check_binary(Y_pred, "Y_pred")
    if T.shape != P.shape:
        raise ValueError(f"shape mismatch: {T.shape} vs {P.shape}")
    tp = int(np.sum(T & P))
    fp = int(np.sum(~T & P))
    fn = int(np.sum(T & ~P))
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 0.0
    return 2.0 * tp / denom


def top_k_binarize(scores, k):
    """Set the k largest scores per row to 1, the rest to 0."""
    S = np.asarray(scores, dtype=float)
    if S.ndim != 2:
        raise ValueError("scores must be 2-d")
    k = min(int(k), S.shape[1])
    out = np.zeros_like(S, dtype=int)
    idx = np.argpartition(-S, k - 1, axis=1)[:, :k]
    np.put_along_axis(out, idx, 1, axis=1)
    return out


def correlation_ratio(layer_outputs):
    """Correlation ratio (eta squared) of per-layer prediction vectors.

    ``layer_outputs`` is (n_layers, m): between-layer variance of the
    layer means over total variance around the grand mean. Lies in
    [0, 1]; NaN when the total variance is zero; 1.0 or NaN for m = 1.
    """
    A = np.asarray(layer_outputs, dtype=float)
    if A.ndim != 2:
        raise ValueError("layer_outputs must be a (n_layers, m) matrix")
    n_b, m = A.shape
    if n_b < 1 or m < 1:
        raise ValueError("need at least one layer and one example")
    grand = A.mean()
    layer_means = A.mean(axis=1)
    between = m * np.sum((layer_means - grand) ** 2)
    total = np.sum((A - grand) ** 2)
    if total == 0.0:
        return float("nan")
    return float(between / total)


def make_cv_plan(m, folds, seed=0):
    """Seeded fold index of each row; folds partition the rows, sizes differ by <= 1."""
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if m < folds:
        raise ValueError("need at least as many examples as folds")
    rng = np.random.default_rng(seed)
    assignment = np.empty(m, dtype=int)
    assignment[rng.permutation(m)] = np.arange(m) % folds
    return assignment


@dataclass
class CvResult:
    fold_pearson: list
    fold_rmse: list
    fit_seconds: list


def column_scores(Y, Yhat):
    """``(pearson, rmse)`` of (m, n_y) predictions, each averaged over the output columns."""
    cols = [(pearson(Y[:, j], Yhat[:, j]), rmse(Y[:, j], Yhat[:, j])) for j in range(Y.shape[1])]
    return tuple(float(np.mean(c)) for c in zip(*cols))


def cross_validate(dataset, learner, folds, seed=0):
    """K-fold CV of a learner.

    ``learner`` takes a training Dataset and returns a predictor mapping
    a held-out Dataset to predictions of shape (m, n_y), or (m,) when
    n_y is 1. Pearson and RMSE are averaged over output columns within
    each fold, and each fold's ``learner(train)`` call is timed; learner
    failures and predictions of any other shape are raised as a
    RuntimeError that names the fold.
    """
    assignment = make_cv_plan(dataset.m, folds, seed)
    fold_p, fold_r, fit_seconds = [], [], []
    for f in range(folds):
        train = dataset.take(np.flatnonzero(assignment != f))
        test = dataset.take(np.flatnonzero(assignment == f))
        try:
            t0 = time.perf_counter()
            predictor = learner(train)
            fit_seconds.append(time.perf_counter() - t0)
            yhat = np.asarray(predictor(test), dtype=float)
        except Exception as exc:
            raise RuntimeError(f"learner failed on fold {f}: {exc}") from exc
        if yhat.ndim == 1:
            yhat = yhat.reshape(-1, 1)
        if yhat.shape != test.Y.shape:
            raise RuntimeError(f"learner failed on fold {f}: predictions have shape "
                               f"{yhat.shape}, expected {test.Y.shape}")
        p, r = column_scores(test.Y, yhat)
        fold_p.append(p)
        fold_r.append(r)
    return CvResult(fold_pearson=fold_p, fold_rmse=fold_r, fit_seconds=fit_seconds)
