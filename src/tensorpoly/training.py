"""Loss, analytic gradients, and the mini-batch ADAM fitting modes.

All modes share one subproblem engine: initialize a block of rank-one
terms, then run epochs of shuffled mini-batches with ADAM updates.

* ``fit_joint`` optimizes every term simultaneously on the matrix
  objective; supports vector outputs and multi-view inputs. With
  ``link="logistic"`` it is the classifier on binary {0,1} labels.
* ``fit_layered`` fits blocks of terms jointly, deflating between
  blocks, and records the correlation ratio of per-layer predictions.
* ``fit_rankwise`` is the same deflation loop with one-term blocks
  (scalar outputs only).
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .metrics import correlation_ratio
from .model import (
    LINKS,
    LtrModel,
    forward_terms,
    hadamard_partials,
    homogenize,
    resolve_views,
    sigmoid,
)

MODES = ("rank_wise", "joint", "layered")


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries the offending epoch (1-based)."""

    def __init__(self, epoch, phase=None):
        self.epoch = epoch
        self.phase = phase
        where = f" in phase {phase}" if phase is not None else ""
        super().__init__(f"training loss became non-finite at epoch {epoch}{where}")


@dataclass
class TrainConfig:
    """Hyperparameters for a fit.

    Defaults follow the benchmark-protocol settings (batch 500,
    C_p = C_q = 1e-5, 10 epochs). ``rank_blocks`` partitions the rank
    range and is required in layered mode only.
    """

    n_d: int = 2
    n_t: int = 2
    C_p: float = 1e-5
    C_q: float = 1e-5
    learning_rate: float = 0.05
    epochs: int = 10
    batch_size: int = 500
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    mode: str = "rank_wise"
    rank_blocks: list = None
    link: str = "identity"
    seed: int = 0
    shuffle: bool = True
    homogenize: bool = False

    def __post_init__(self):
        for name, low in (("n_d", 1), ("n_t", 1), ("epochs", 1), ("batch_size", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        for name in ("C_p", "C_q", "learning_rate", "adam_beta1", "adam_beta2", "adam_eps"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.C_p < 0 or self.C_q < 0:
            raise ValueError("regularization constants must be nonnegative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ValueError("adam_beta1 and adam_beta2 must be in [0, 1)")
        if self.adam_eps <= 0:
            raise ValueError("adam_eps must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.link not in LINKS:
            raise ValueError(f"unknown link {self.link!r}")
        if self.mode == "layered":
            blocks = self.rank_blocks
            if not blocks or not all(isinstance(b, numbers.Integral) and b >= 1 for b in blocks):
                raise ValueError("layered mode needs rank_blocks of integers >= 1")
            if sum(blocks) != self.n_t:
                raise ValueError("rank_blocks must sum to n_t")
            self.rank_blocks = [int(b) for b in blocks]


@dataclass
class AdamState:
    """First/second-moment accumulators mirroring (lam, P, Q), plus step count."""

    m_lam: np.ndarray
    v_lam: np.ndarray
    m_P: list
    v_P: list
    m_Q: np.ndarray
    v_Q: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, lam, P, Q):
        return cls(
            m_lam=np.zeros_like(lam),
            v_lam=np.zeros_like(lam),
            m_P=[np.zeros_like(Pd) for Pd in P],
            v_P=[np.zeros_like(Pd) for Pd in P],
            m_Q=np.zeros_like(Q),
            v_Q=np.zeros_like(Q),
        )


@dataclass
class FitReport:
    """Per-fit diagnostics.

    ``loss_traces`` holds one per-epoch trace per phase (one phase for
    joint fits, one per rank or block otherwise). ``residual_norms``
    starts with the initial output norm and appends the training
    residual norm after each completed rank/layer. ``eta_squared[b]`` is
    the correlation ratio of per-layer training predictions over layers
    1..b+1 (layered mode only).
    """

    mode: str
    loss_traces: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    eta_squared: list = None
    seconds: list = field(default_factory=list)
    final_lambda: np.ndarray = None

    def to_dict(self):
        return {
            "mode": self.mode,
            "loss_traces": [[float(v) for v in tr] for tr in self.loss_traces],
            "residual_norms": [float(v) for v in self.residual_norms],
            "eta_squared": None
            if self.eta_squared is None
            else [float(v) for v in self.eta_squared],
            "seconds": [float(v) for v in self.seconds],
            "final_lambda": [float(v) for v in np.asarray(self.final_lambda).reshape(-1)],
        }


def _raw_loss(P, lam, Q, views, Y, C_p, C_q, link):
    m, n_y = Y.shape
    n_t = lam.shape[0]
    n_d = len(P)
    _, _, raw = forward_terms(P, lam, Q, views)
    if link == "identity":
        E = Y - raw
        data = float(np.sum(E * E)) / (2.0 * m * n_y)
    else:
        # mean Bernoulli NLL with logits, computed stably
        nll = np.logaddexp(0.0, raw) - Y * raw
        data = float(np.sum(nll)) / (m * n_y)
    reg_p = 0.0
    for Pd in P:
        reg_p += float(np.sum(Pd * Pd)) / Pd.shape[1]
    reg_p *= C_p / (2.0 * n_t * n_d)
    reg_q = C_q / (2.0 * n_t * n_y) * float(np.sum(Q * Q))
    return data + reg_p + reg_q


def _raw_gradients(P, lam, Q, views, Y, C_p, C_q, link):
    m, n_y = Y.shape
    n_t = lam.shape[0]
    n_d = len(P)
    Z, F, raw = forward_terms(P, lam, Q, views)
    if link == "identity":
        E = Y - raw
    else:
        E = Y - sigmoid(raw)
    scale = 1.0 / (m * n_y)
    EQt = E @ Q.T
    g_lam = -scale * np.sum(F * EQt, axis=0)
    parts = hadamard_partials(Z)
    weighted = EQt * lam
    g_P = []
    for d in range(n_d):
        data_term = (parts[d] * weighted).T @ views[d]
        g_P.append(-scale * data_term + (C_p / (n_t * n_d * P[d].shape[1])) * P[d])
    g_Q = -scale * (lam[:, None] * (F.T @ E)) + (C_q / (n_t * n_y)) * Q
    return g_lam, g_P, g_Q


def loss(model, dataset, config):
    """Regularized objective of ``model`` on ``dataset``.

    Squared-error data term scaled by 1/(2 m n_y) plus Tikhonov penalties
    on the factor matrices and output components; with a logistic link
    the data term is the mean negative log-likelihood instead.
    """
    return _raw_loss(*_model_inputs(model, dataset), config.C_p, config.C_q, config.link)


def gradients(model, batch, config):
    """Analytic gradients of `loss` on a batch: ``(g_lam, g_P, g_Q)``."""
    return _raw_gradients(*_model_inputs(model, batch), config.C_p, config.C_q, config.link)


def _model_inputs(model, data):
    """``(P, lam, Q, views, Y)`` of a model on a non-empty dataset with matching shapes."""
    if data.m == 0:
        raise ValueError("empty dataset")
    views = resolve_views(model, data.views)
    if data.n_y != model.n_y:
        raise ValueError(f"Y has {data.n_y} columns, model expects {model.n_y}")
    return model.P, model.lam, model.Q, views, data.Y


def adam_step(
    state,
    params,
    grads,
    learning_rate,
    *,
    beta1=0.9,
    beta2=0.999,
    eps=1e-8,
    update_q=True,
):
    """One bias-corrected ADAM update applied in place to (lam, P, Q)."""
    lam, P, Q = params
    g_lam, g_P, g_Q = grads
    state.step += 1
    b1c = 1.0 - beta1 ** state.step
    b2c = 1.0 - beta2 ** state.step

    def update(theta, g, m, v):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        theta -= learning_rate * (m / b1c) / (np.sqrt(v / b2c) + eps)

    update(lam, g_lam, state.m_lam, state.v_lam)
    for d in range(len(P)):
        update(P[d], g_P[d], state.m_P[d], state.v_P[d])
    if update_q:
        update(Q, g_Q, state.m_Q, state.v_Q)
    return params, state


def prepared_views(dataset, config):
    """Views as the fit consumes them: count-checked and homogenized on demand."""
    views = dataset.views
    if len(views) not in (1, config.n_d):
        raise ValueError(
            f"dataset must supply 1 or n_d={config.n_d} views, got {len(views)}"
        )
    if config.homogenize:
        views = [homogenize(V) for V in views]
    if len(views) == 1:
        views = [views[0]] * config.n_d
    return views


def _fit_block(views, Y, n_t, config, rng, link):
    """Fit one block of ``n_t`` terms on (views, Y) by mini-batch ADAM.

    Returns ``(lam, P, Q, trace)``; Q stays all-ones and untrained for
    scalar outputs.
    """
    m, n_y = Y.shape
    if m == 0:
        raise ValueError("empty dataset")
    P = [rng.standard_normal((n_t, V.shape[1])) / np.sqrt(V.shape[1]) for V in views]
    lam = np.ones(n_t)
    train_q = n_y > 1
    Q = rng.standard_normal((n_t, n_y)) / np.sqrt(n_y) if train_q else np.ones((n_t, 1))
    state = AdamState.zeros(lam, P, Q)
    trace = []
    B = config.batch_size
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(m) if config.shuffle else None
        for start in range(0, m, B):
            stop = min(start + B, m)
            idx = order[start:stop] if order is not None else slice(start, stop)
            bviews = [V[idx] for V in views]
            grads_b = _raw_gradients(
                P, lam, Q, bviews, Y[idx], config.C_p, config.C_q, link
            )
            adam_step(
                state,
                (lam, P, Q),
                grads_b,
                config.learning_rate,
                beta1=config.adam_beta1,
                beta2=config.adam_beta2,
                eps=config.adam_eps,
                update_q=train_q,
            )
        L = _raw_loss(P, lam, Q, views, Y, config.C_p, config.C_q, link)
        if not np.isfinite(L):
            raise TrainingDivergedError(epoch)
        trace.append(L)
    return lam, P, Q, trace


def fit_rank_one(dataset, residual, config):
    """Fit a single rank-one term against ``residual``.

    Returns ``(lam_t, [p_1 .. p_n_d], trace)`` where the trace is the
    per-epoch loss of the subproblem.
    """
    residual = np.asarray(residual, dtype=float)
    if residual.ndim == 1:
        residual = residual.reshape(-1, 1)
    if residual.shape[0] != dataset.m:
        raise ValueError("residual row count must match the dataset")
    if residual.shape[1] != 1:
        raise ValueError("rank-one subproblems are scalar-output")
    views = prepared_views(dataset, config)
    rng = np.random.default_rng(config.seed)
    lam, P, _, trace = _fit_block(views, residual, 1, config, rng, "identity")
    return float(lam[0]), [Pd[0] for Pd in P], trace


def _fit_deflated(dataset, config, blocks):
    """Fit ``blocks`` of terms in turn, each against the residual the earlier ones left.

    A block that fails to reduce the training sum of squares is zeroed
    out, so the residual-norm sequence never increases. Layered fits
    also record the correlation ratio of the per-layer predictions.
    """
    if config.link != "identity":
        raise ValueError("logistic link requires mode='joint'")
    layered = config.mode == "layered"
    views = prepared_views(dataset, config)
    rng = np.random.default_rng(config.seed)
    residual = dataset.Y.copy()
    report = FitReport(
        mode=config.mode,
        residual_norms=[float(np.linalg.norm(residual))],
        eta_squared=[] if layered else None,
    )
    fitted, layer_preds = [], []
    for block in blocks:
        t0 = time.perf_counter()
        lam_b, P_b, Q_b, trace = _fit_block(views, residual, block, config, rng, "identity")
        _, _, pred = forward_terms(P_b, lam_b, Q_b, views)
        new_residual = residual - pred
        if np.sum(new_residual**2) > np.sum(residual**2):
            # the block did not help on the training data; drop its weight
            lam_b[:] = 0.0
            pred = np.zeros_like(pred)
            new_residual = residual
        residual = new_residual
        fitted.append((lam_b, P_b, Q_b))
        report.loss_traces.append(trace)
        report.residual_norms.append(float(np.linalg.norm(residual)))
        if layered:
            layer_preds.append(pred.reshape(-1))
            report.eta_squared.append(correlation_ratio(np.vstack(layer_preds)))
        report.seconds.append(time.perf_counter() - t0)
    lams, Ps, Qs = zip(*fitted)
    model = LtrModel(
        P=[np.vstack(rows) for rows in zip(*Ps)],
        Q=np.vstack(Qs),
        lam=np.concatenate(lams),
        homogenized=config.homogenize,
        link="identity",
    )
    report.final_lambda = model.lam.copy()
    return model, report


def fit_rankwise(dataset, config):
    """Rank-wise fitting with deflation, for scalar outputs: one-term blocks."""
    if config.mode != "rank_wise":
        raise ValueError("config.mode must be 'rank_wise'")
    if dataset.n_y != 1:
        raise ValueError("rank-wise mode handles scalar outputs only")
    return _fit_deflated(dataset, config, [1] * config.n_t)


def fit_joint(dataset, config):
    """Optimize all ranks simultaneously on the matrix objective.

    With ``config.link == "logistic"`` the labels must be binary {0,1}
    and the report carries no residual norms.
    """
    if config.mode != "joint":
        raise ValueError("config.mode must be 'joint'")
    logistic = config.link == "logistic"
    if logistic and not np.all((dataset.Y == 0.0) | (dataset.Y == 1.0)):
        raise ValueError("logistic fitting needs binary {0,1} labels")
    views = prepared_views(dataset, config)
    rng = np.random.default_rng(config.seed)
    t0 = time.perf_counter()
    lam, P, Q, trace = _fit_block(views, dataset.Y, config.n_t, config, rng, config.link)
    seconds = time.perf_counter() - t0
    model = LtrModel(
        P=P, Q=Q, lam=lam, homogenized=config.homogenize, link=config.link
    )
    if logistic:
        norms = []
    else:
        resid = dataset.Y - forward_terms(P, lam, Q, views)[2]
        norms = [float(np.linalg.norm(dataset.Y)), float(np.linalg.norm(resid))]
    report = FitReport(
        mode="joint",
        loss_traces=[trace],
        residual_norms=norms,
        seconds=[seconds],
        final_lambda=model.lam.copy(),
    )
    return model, report


def fit_layered(dataset, config):
    """Fit rank blocks sequentially, deflating the output between blocks."""
    if config.mode != "layered":
        raise ValueError("config.mode must be 'layered'")
    return _fit_deflated(dataset, config, config.rank_blocks)


def fit(dataset, config):
    """Dispatch to the fitting mode selected by ``config``."""
    if config.mode == "rank_wise":
        return fit_rankwise(dataset, config)
    if config.mode == "joint":
        return fit_joint(dataset, config)
    return fit_layered(dataset, config)
