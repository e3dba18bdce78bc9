"""Loss, analytic gradients, and mini-batch ADAM fitting.

`fit` is the one entry point and runs one loop over blocks of rank-one
terms. Each block is initialized and trained by epochs of shuffled
mini-batches with ADAM updates, with the earlier blocks' summed output
as a fixed offset inside the link (`model.LINKS`: identity for
regression, logistic for {0,1} labels, in every mode); a block that
raises the training data loss is zeroed out. Every mode takes vector
outputs and multi-view inputs.

* ``joint`` is a single block of all ``n_t`` terms on the matrix
  objective.
* ``layered`` fits ``rank_blocks`` in turn and records the correlation
  ratio of per-layer predictions.
* ``rank_wise`` fits one-term blocks.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .metrics import correlation_ratio
from .model import (
    LINKS,
    LtrModel,
    forward_terms,
    hadamard_partials,
    integral,
    real,
    resolve_views,
    take_rows,
)

MODES = ("rank_wise", "joint", "layered")


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries the epoch and the phase (block), both 1-based."""

    def __init__(self, epoch, phase):
        self.epoch = epoch
        self.phase = phase
        super().__init__(f"training loss became non-finite at epoch {epoch} in phase {phase}")


@dataclass
class TrainConfig:
    """Hyperparameters for a fit.

    Defaults follow the benchmark-protocol settings (batch 500,
    C_p = C_q = 1e-5, 10 epochs). ``rank_blocks`` partitions the rank
    range; layered mode needs it and the other modes refuse it. ADAM's
    moment decays and epsilon are the constants of Kingma & Ba, not
    settings.
    """

    adam_beta1: ClassVar[float] = 0.9
    adam_beta2: ClassVar[float] = 0.999
    adam_eps: ClassVar[float] = 1e-8

    n_d: int = 2
    n_t: int = 2
    C_p: float = 1e-5
    C_q: float = 1e-5
    learning_rate: float = 0.05
    epochs: int = 10
    batch_size: int = 500
    mode: str = "rank_wise"
    rank_blocks: list = None
    link: str = "identity"
    seed: int = 0
    homogenize: bool = False

    def __post_init__(self):
        for name, low in (("n_d", 1), ("n_t", 1), ("epochs", 1), ("batch_size", 1), ("seed", 0)):
            integral(name, getattr(self, name), low)
        for name in ("C_p", "C_q", "learning_rate"):
            real(name, getattr(self, name))
        if not isinstance(self.homogenize, (bool, np.bool_)):
            raise ValueError(f"homogenize must be true or false, got {self.homogenize!r}")
        if self.C_p < 0 or self.C_q < 0:
            raise ValueError("regularization constants must be nonnegative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.link, str) or self.link not in LINKS:
            raise ValueError(f"unknown link {self.link!r}")
        if self.mode == "layered":
            blocks = self.rank_blocks
            if not isinstance(blocks, (list, tuple)) or not blocks or not all(
                    isinstance(b, numbers.Integral) and b >= 1 for b in blocks):
                raise ValueError("layered mode needs rank_blocks of integers >= 1")
            if sum(blocks) != self.n_t:
                raise ValueError("rank_blocks must sum to n_t")
            self.rank_blocks = [int(b) for b in blocks]
        elif self.rank_blocks is not None:
            raise ValueError(f"rank_blocks applies to layered mode only, not {self.mode!r}")


@dataclass
class AdamState:
    """First/second moments of (lam, P, Q) as flat vectors, plus step count."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, lam, P, Q):
        size = lam.size + sum(Pd.size for Pd in P) + Q.size
        return cls(m=np.zeros(size), v=np.zeros(size))


@dataclass
class FitReport:
    """Per-fit diagnostics.

    ``loss_traces`` holds one per-epoch trace per phase (one phase for
    joint fits, one per rank or block otherwise). ``residual_norms``
    holds ``||Y - mean(offset)||`` before and after each block, with the
    link's ``mean`` and the blocks' summed pre-link output ``offset``;
    with the identity link it never increases, with the logistic link
    the training NLL never increases instead. ``eta_squared[b]`` is the
    correlation ratio of per-layer training predictions over layers
    1..b+1 (layered mode only). ``report.json`` is these fields, in order.
    """

    mode: str
    loss_traces: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    eta_squared: list = None
    seconds: list = field(default_factory=list)
    final_lambda: np.ndarray = None


def _raw_loss(P, lam, Q, views, Y, offset, C_p, C_q, link):
    """``(loss, raw)``: the regularized objective at ``offset + raw``, and ``raw``."""
    m, n_y = Y.shape
    n_t = lam.shape[0]
    n_d = len(P)
    _, _, raw = forward_terms(P, lam, Q, views)
    data = LINKS[link][1](Y, offset + raw) / (m * n_y)
    reg_p = 0.0
    for Pd in P:
        reg_p += float(np.sum(Pd * Pd)) / Pd.shape[1]
    reg_p *= C_p / (2.0 * n_t * n_d)
    reg_q = C_q / (2.0 * n_t * n_y) * float(np.sum(Q * Q))
    return data + reg_p + reg_q, raw


def _raw_gradients(P, lam, Q, views, Y, offset, C_p, C_q, link, train_q=True):
    """``(g_lam, g_P, g_Q)`` at ``offset + raw``; ``g_Q`` is None unless ``train_q``."""
    m, n_y = Y.shape
    n_t = lam.shape[0]
    n_d = len(P)
    Z, F, raw = forward_terms(P, lam, Q, views)
    E = Y - LINKS[link][0](offset + raw)
    scale = 1.0 / (m * n_y)
    EQt = (Q @ E.T).T  # Fortran-order like Z and F, so the products below are contiguous
    g_lam = -scale * (F * EQt).sum(axis=0)
    parts = hadamard_partials(Z)
    weighted = EQt * lam
    g_P = []
    for d in range(n_d):
        data_term = (parts[d] * weighted).T @ views[d]
        g_P.append(-scale * data_term + (C_p / (n_t * n_d * P[d].shape[1])) * P[d])
    g_Q = -scale * (lam[:, None] * (F.T @ E)) + (C_q / (n_t * n_y)) * Q if train_q else None
    return g_lam, g_P, g_Q


def loss(model, dataset, config):
    """Regularized objective of ``model`` on ``dataset``.

    The model's link's data loss (`model.LINKS`) over the m n_y entries
    plus Tikhonov penalties on the factor matrices and output
    components, weighted by ``config.C_p`` and ``config.C_q``.
    """
    return _raw_loss(*_model_inputs(model, dataset), 0.0, config.C_p, config.C_q, model.link)[0]


def gradients(model, batch, config):
    """Analytic gradients of `loss` on a batch: ``(g_lam, g_P, g_Q)``."""
    return _raw_gradients(*_model_inputs(model, batch), 0.0, config.C_p, config.C_q, model.link)


def _model_inputs(model, data):
    """``(P, lam, Q, views, Y)`` of a model on a non-empty dataset with matching shapes;
    the views are raw, as `predict` takes them, also for a homogenized model."""
    if data.m == 0:
        raise ValueError("empty dataset")
    views = resolve_views(data.views, model.n_d, model.dims, model.homogenized)
    if data.n_y != model.n_y:
        raise ValueError(f"Y has {data.n_y} columns, model expects {model.n_y}")
    return model.P, model.lam, model.Q, views, data.Y


def adam_step(
    state,
    params,
    grads,
    learning_rate,
    *,
    beta1=TrainConfig.adam_beta1,
    beta2=TrainConfig.adam_beta2,
    eps=TrainConfig.adam_eps,
    update_q=True,
):
    """One bias-corrected ADAM update applied in place to (lam, P, Q).

    ADAM is elementwise, so all groups share one flat update. With
    ``update_q=False`` Q's gradient slot is zero: its moments stay 0, its
    step is exactly 0 and Q is left bitwise unchanged.
    """
    lam, P, Q = params
    g_lam, g_P, g_Q = grads
    g_Q = g_Q if update_q else np.zeros_like(Q)
    g = np.concatenate([g_lam.ravel(), *(gd.ravel() for gd in g_P), g_Q.ravel()])
    state.step += 1
    b1c = 1.0 - beta1 ** state.step
    b2c = 1.0 - beta2 ** state.step
    state.m *= beta1
    state.m += (1.0 - beta1) * g
    state.v *= beta2
    state.v += (1.0 - beta2) * (g * g)
    step = learning_rate * (state.m / b1c) / (np.sqrt(state.v / b2c) + eps)
    start = 0
    for theta in (lam, *P, Q):
        theta -= step[start:start + theta.size].reshape(theta.shape)
        start += theta.size
    return params, state


@np.errstate(over="ignore", invalid="ignore")
def _fit_block(views, Y, offset, n_t, config, rng, phase):
    """Fit one block of ``n_t`` terms on (views, Y) by mini-batch ADAM.

    The link is taken at ``offset + raw``: the earlier blocks' fixed
    pre-link output plus this block's ``raw``, which is returned from the
    last epoch's loss as ``(lam, P, Q, trace, raw)``; Q stays all-ones and
    untrained for scalar outputs. ``phase`` is the 1-based block index a
    divergence reports. Overflow on the way to a diverged loss is not
    warned about: the epoch-loss check raises `TrainingDivergedError`.
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
    # Y and offset side by side, so each batch gathers both in one C-order `np.take`
    targets = np.hstack([Y, offset])
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(m)
        for start in range(0, m, B):
            idx = order[start:start + B]
            bviews = take_rows(views, idx)
            bt = np.take(targets, idx, axis=0)
            grads_b = _raw_gradients(
                P, lam, Q, bviews, bt[:, :n_y], bt[:, n_y:], config.C_p, config.C_q, config.link,
                train_q,
            )
            adam_step(state, (lam, P, Q), grads_b, config.learning_rate, update_q=train_q)
        L, raw = _raw_loss(P, lam, Q, views, Y, offset, config.C_p, config.C_q, config.link)
        if not np.isfinite(L):
            raise TrainingDivergedError(epoch, phase)
        trace.append(L)
    return lam, P, Q, trace, raw


def fit(dataset, config):
    """Fit a model in the mode ``config.mode`` selects; returns ``(model, report)``.

    Every mode is one loop over blocks of terms: ``joint`` is a single
    block of all ``n_t`` terms, ``layered`` fits ``config.rank_blocks``
    and ``rank_wise`` fits ``n_t`` one-term blocks.
    Each block is fitted with the earlier blocks' summed pre-link output
    as a fixed offset inside the link, and a block that raises the
    training data loss is zeroed out, so that loss never rises from block
    to block. Layered fits also record the correlation ratio of the
    per-layer predictions.
    """
    if config.link == "logistic" and not np.all((dataset.Y == 0.0) | (dataset.Y == 1.0)):
        raise ValueError("logistic fitting needs binary {0,1} labels")
    blocks = {"joint": [config.n_t], "layered": config.rank_blocks,
              "rank_wise": [1] * config.n_t}[config.mode]
    layered = config.mode == "layered"
    views = resolve_views(dataset.views, config.n_d, homogenized=config.homogenize)
    rng = np.random.default_rng(config.seed)
    Y = dataset.Y
    mean, data_loss = LINKS[config.link]
    offset = np.zeros_like(Y)
    report = FitReport(
        mode=config.mode,
        residual_norms=[float(np.linalg.norm(Y - mean(offset)))],
        eta_squared=[] if layered else None,
    )
    fitted, layer_preds = [], []
    for phase, block in enumerate(blocks, 1):
        t0 = time.perf_counter()
        lam_b, P_b, Q_b, trace, pred = _fit_block(views, Y, offset, block, config, rng, phase)
        if data_loss(Y, offset + pred) > data_loss(Y, offset):
            # the block did not help on the training data; drop its weight
            lam_b[:] = 0.0
            pred = np.zeros_like(pred)
        offset += pred
        report.residual_norms.append(float(np.linalg.norm(Y - mean(offset))))
        fitted.append((lam_b, P_b, Q_b))
        report.loss_traces.append(trace)
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
        link=config.link,
    )
    report.final_lambda = model.lam.copy()
    return model, report
