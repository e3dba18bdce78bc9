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

import time
from dataclasses import dataclass, field
from itertools import accumulate
from typing import ClassVar

import numpy as np

from .metrics import _check_binary, correlation_ratio
from .model import (
    LINKS,
    LtrModel,
    factor_views,
    forward_terms,
    hadamard_partials,
    integral,
    one_of,
    real,
    resolve_views,
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
            setattr(self, name, integral(name, getattr(self, name), low))
        for name, low in (("C_p", 0), ("C_q", 0), ("learning_rate", -np.inf)):
            setattr(self, name, real(name, getattr(self, name), low))
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        one_of("mode", self.mode, MODES)
        one_of("link", self.link, LINKS)
        one_of("homogenize", self.homogenize, (False, True))
        if self.mode == "layered":
            if not isinstance(self.rank_blocks, (list, tuple)) or not self.rank_blocks:
                raise ValueError("layered mode needs rank_blocks of integers >= 1")
            self.rank_blocks = [integral(f"rank_blocks[{i}]", b)
                                for i, b in enumerate(self.rank_blocks)]
            if sum(self.rank_blocks) != self.n_t:
                raise ValueError("rank_blocks must sum to n_t")
        elif self.rank_blocks is not None:
            raise ValueError(f"rank_blocks applies to layered mode only, not {self.mode!r}")


@dataclass
class AdamState:
    """First/second moments of (lam, P, Q) as flat vectors, step count, scratch for a step."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    scratch: np.ndarray = None

    @classmethod
    def zeros(cls, lam, P, Q):
        size = lam.size + sum(Pd.size for Pd in P) + Q.size
        return cls(m=np.zeros(size), v=np.zeros(size), scratch=np.empty((2, size)))


@dataclass
class FitReport:
    """Per-fit diagnostics.

    ``loss_traces`` holds one per-epoch trace per phase (one phase for
    joint fits, one per rank or block otherwise), and ``best_epoch`` the
    1-based epoch of each phase's lowest loss, whose parameters the
    phase returns. ``residual_norms`` holds ``||Y - mean(offset)||``
    before and after each block, with the
    link's ``mean`` and the blocks' summed pre-link output ``offset``;
    with the identity link it never increases, with the logistic link
    the training NLL never increases instead. ``eta_squared[b]`` is the
    correlation ratio of per-layer training predictions over layers
    1..b+1 (layered mode only). ``report.json`` is these fields, in order.
    """

    mode: str
    loss_traces: list = field(default_factory=list)
    best_epoch: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    eta_squared: list = None
    seconds: list = field(default_factory=list)


def _raw_loss(P, lam, Q, views, Y, offset, C_p, C_q, link):
    """``(loss, raw)``: the regularized objective at ``offset + raw``, and ``raw``."""
    m, n_y = Y.shape
    n_t, n_d = lam.shape[0], len(P)
    _, _, raw = forward_terms(P, lam, Q, views)
    data = LINKS[link][1](Y, offset + raw) / (m * n_y)
    reg_p = 0.0
    for Pd in P:
        reg_p += float(np.sum(Pd * Pd)) / Pd.shape[1]
    reg_p *= C_p / (2.0 * n_t * n_d)
    reg_q = C_q / (2.0 * n_t * n_y) * float(np.sum(Q * Q))
    return data + reg_p + reg_q, raw


def _param_views(n_t, n_y, n_d, views, flat=None):
    """``(flat, lam, P, Q)``: a block's parameters as views into one flat vector (new zeros by
    default) in the order lam, P[0], ..., Q. P is one (n_d, n_t, width) stack for one view,
    which `z_factors` projects with no copy, else a list of (n_t, width_d) matrices."""
    widths = [V.shape[1] for V in factor_views(views, n_d)]
    ends = [n_t * e for e in accumulate([0, 1, *widths, n_y])]
    flat = np.zeros(ends[-1]) if flat is None else flat
    blocks = [flat[a:b].reshape(n_t, -1) for a, b in zip(ends, ends[1:])]
    P = flat[ends[1]:ends[-2]].reshape(n_d, n_t, -1) if len(views) == 1 else blocks[1:-1]
    return flat, flat[:n_t], P, blocks[-1]


class _Workspace:
    """The arrays of `_raw_gradients` on up to ``rows`` rows, allocated once: the flat
    gradient ``g`` in `_param_views`' layout, scratch for the penalties, and ``memory``,
    whose front `rows` carves into a batch's arrays as numpy lays out new ones."""

    def __init__(self, n_t, n_y, n_d, views, rows):
        self.g, self.g_lam, self.g_P, self.g_Q = _param_views(n_t, n_y, n_d, views)
        _, _, self.reg_P, self.reg_Q = _param_views(n_t, n_y, n_d, views)
        self.shape, self.batches = (n_t, n_y, n_d), {}
        self.memory = np.empty(rows * ((2 * n_d + 6) * n_t + 2 * n_y))

    def rows(self, b):
        """``((Zt, F, F_lam, raw), EQ, weighted, FE, W, parts, E)`` for ``b`` rows, C order but
        for the (b, n_t) arrays: Fortran order like Z, except W when n_d == 1 (np.ones' order)."""
        if b not in self.batches:
            n_t, n_y, n_d = self.shape
            ends = [b * e for e in accumulate([0, n_d * n_t] + [n_t] * (n_d + 6) + [n_y] * 2)]
            Zt, EQ, *terms, raw, E = [self.memory[s:e] for s, e in zip(ends, ends[1:])]
            F, F_lam, weighted, FE, W, *parts = [A.reshape(n_t, b).T for A in terms]
            W = terms[4].reshape(b, n_t) if n_d == 1 else W
            fwd = Zt.reshape(n_d, n_t, b), F, F_lam, raw.reshape(b, n_y)
            self.batches[b] = fwd, EQ.reshape(n_t, b), weighted, FE, W, parts, E.reshape(b, n_y)
        return self.batches[b]


def _raw_gradients(P, lam, Q, views, Y, offset, C_p, C_q, link, train_q=True, work=None):
    """``(g_lam, g_P, g_Q)`` at ``offset + raw``: views into ``work.g`` (a new `_Workspace` by
    default); ``g_Q`` is None, and its slot left as it was, unless ``train_q``."""
    (m, n_y), n_t, n_d = Y.shape, lam.shape[0], len(P)
    work = _Workspace(n_t, n_y, n_d, views, m) if work is None else work
    fwd, EQ, weighted, FE, W, parts, E = work.rows(m)
    Z, F, raw = forward_terms(P, lam, Q, views, fwd)
    E = np.subtract(Y, LINKS[link][0](np.add(offset, raw, out=raw)), out=E)
    scale = 1.0 / (m * n_y)
    # one product per entry for n_y == 1, as in a GEMM; Fortran order like F and Z
    EQt = (np.dot if n_y > 1 else np.multiply)(Q, E.T, out=EQ).T
    np.add.reduce(np.multiply(F, EQt, out=FE), 0, None, work.g_lam)
    work.g_lam *= -scale
    parts = hadamard_partials(Z, parts)
    weighted = np.multiply(EQt, lam, out=weighted)
    for d, V in enumerate(factor_views(views, n_d)):  # one GEMM per factor, into its rows of g
        np.dot(np.multiply(parts[d], weighted, out=W).T, V, out=work.g_P[d])
    # the penalty on each view's stack of factors: all of P for one view
    stacks = [(work.g_P, P, work.reg_P)] if len(views) == 1 else zip(work.g_P, P, work.reg_P)
    for g_S, S, reg in stacks:
        g_S *= -scale
        g_S += np.multiply(S, C_p / (n_t * n_d * g_S.shape[-1]), out=reg)
    if train_q:
        g_Q = np.dot(F.T, E, out=work.g_Q)
        g_Q *= lam[:, None]
        g_Q *= -scale
        g_Q += np.multiply(Q, C_q / (n_t * n_y), out=work.reg_Q)
    return work.g_lam, work.g_P, work.g_Q if train_q else None


def loss(model, dataset, config):
    """Regularized objective of ``model`` on ``dataset``.

    The model's link's data loss (`model.LINKS`) over the m n_y entries
    plus Tikhonov penalties on the factor matrices and output
    components, weighted by ``config.C_p`` and ``config.C_q``.
    """
    return _raw_loss(*_model_inputs(model, dataset), 0.0, config.C_p, config.C_q, model.link)[0]


def gradients(model, batch, config):
    """Analytic gradients of `loss` on a batch: ``(g_lam, g_P, g_Q)``, g_P a list."""
    g = _raw_gradients(*_model_inputs(model, batch), 0.0, config.C_p, config.C_q, model.link)
    return g[0], list(g[1]), g[2]


def _model_inputs(model, data):
    """``(P, lam, Q, views, Y)`` of a model on a dataset with matching shapes; the views
    are raw, as `predict` takes them, also for a homogenized model."""
    views = resolve_views(data.views, model.n_d, model.dims, model.homogenized)
    if data.n_y != model.n_y:
        raise ValueError(f"Y has {data.n_y} columns, model expects {model.n_y}")
    return model.P, model.lam, model.Q, views, data.Y


def adam_step(state, params, grads, learning_rate, *, beta1=TrainConfig.adam_beta1,
              beta2=TrainConfig.adam_beta2, eps=TrainConfig.adam_eps, update_q=True):
    """One bias-corrected ADAM update applied in place to the leaves of ``params``.

    ``params`` and ``grads`` are (lam, P, Q) and (g_lam, g_P, g_Q), P a list, or any
    matching sequences of arrays and lists of arrays, such as a fit's flat parameters and
    gradient. ADAM is elementwise: each leaf is updated on its slice of the flat moments.
    With ``update_q=False`` the last leaf, Q, is skipped and left bitwise unchanged.
    """
    pairs = [pair for p, g in zip(params, grads)
             for pair in (zip(p, g) if isinstance(p, list) else [(p, g)])]
    state.step += 1
    b1c, b2c = 1.0 - beta1 ** state.step, 1.0 - beta2 ** state.step
    stop = 0
    for theta, g in pairs[:None if update_q else -1]:
        start, stop = stop, stop + theta.size
        m, v = state.m[start:stop], state.v[start:stop]
        a, b, g = state.scratch[0, start:stop], state.scratch[1, start:stop], g.ravel()
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=a)
        v *= beta2
        v += np.multiply(np.multiply(g, g, out=a), 1.0 - beta2, out=a)
        np.multiply(np.divide(m, b1c, out=a), learning_rate, out=a)
        np.divide(a, np.add(np.sqrt(np.divide(v, b2c, out=b), out=b), eps, out=b), out=a)
        theta -= a.reshape(theta.shape)


@np.errstate(over="ignore", invalid="ignore")
def _fit_block(views, Y, offset, n_t, config, rng, phase):
    """Fit one block of ``n_t`` terms on (views, Y) by mini-batch ADAM.

    The link is taken at ``offset + raw``: the earlier blocks' fixed
    pre-link output plus this block's ``raw``. Returns ``(lam, P, Q, raw,
    epoch, trace)`` of the epoch with the lowest full-data loss (the first
    of equals), ``raw`` being that loss's own output; Q stays all-ones and
    untrained for scalar outputs. ``phase`` is the 1-based block index a
    divergence reports. Overflow on the way to a diverged loss is not
    warned about: the epoch-loss check raises `TrainingDivergedError`.
    ADAM updates one flat parameter vector in place; an identity-link batch creates no array.
    """
    m, n_y = Y.shape
    n_d = config.n_d
    theta, lam, P, Q = _param_views(n_t, n_y, n_d, views)
    for Pd, V in zip(P, factor_views(views, n_d)):
        Pd[...] = rng.standard_normal(Pd.shape) / np.sqrt(V.shape[1])
    lam[:] = 1.0
    train_q = n_y > 1
    Q[...] = rng.standard_normal((n_t, n_y)) / np.sqrt(n_y) if train_q else 1.0
    state, trace = AdamState.zeros(lam, P, Q), []
    B = min(config.batch_size, m)
    work = _Workspace(n_t, n_y, n_d, views, B)
    sources = (*views, Y, offset)
    gathered = [np.empty((B, A.shape[1])) for A in sources]
    # ADAM steps Q only when it is trained; its gradient slot is written only then
    n = theta.size - (0 if train_q else Q.size)
    leaves = (theta[:n],), (work.g[:n],)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(m)
        for start in range(0, m, B):
            idx = order[start:start + B]
            # "clip" takes straight into `out` ("raise" buffers); the indices are in range
            *bviews, bY, boffset = [np.take(A, idx, axis=0, out=G[:idx.size], mode="clip")
                                    for A, G in zip(sources, gathered)]
            _raw_gradients(P, lam, Q, bviews, bY, boffset, config.C_p, config.C_q, config.link,
                           train_q, work)
            adam_step(state, *leaves, config.learning_rate)
        L, raw = _raw_loss(P, lam, Q, views, Y, offset, config.C_p, config.C_q, config.link)
        if not np.isfinite(L):
            raise TrainingDivergedError(epoch, phase)
        if not trace or L < min(trace):
            best = theta.copy(), raw, epoch
        trace.append(L)
    return *_param_views(n_t, n_y, n_d, views, best[0])[1:], *best[1:], trace


def fit(dataset, config):
    """Fit a model in the mode ``config.mode`` selects; returns ``(model, report)``.

    Every mode is one loop over blocks of terms: ``joint`` is a single
    block of all ``n_t`` terms, ``layered`` fits ``config.rank_blocks``
    and ``rank_wise`` fits ``n_t`` one-term blocks.
    Each block is fitted with the earlier blocks' summed pre-link output
    as a fixed offset inside the link and returns its lowest-loss epoch;
    a block that raises the training data loss is zeroed out, so that
    loss never rises from block to block. Layered fits also record the
    correlation ratio of the per-layer predictions.
    """
    if config.link == "logistic":
        _check_binary(dataset.Y, "logistic fit labels Y")
    layered = config.mode == "layered"
    blocks = (config.rank_blocks if layered else [config.n_t] if config.mode == "joint"
              else [1] * config.n_t)
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
        lam_b, P_b, Q_b, raw, best, trace = _fit_block(views, Y, offset, block, config, rng, phase)
        if data_loss(Y, offset + raw) > data_loss(Y, offset):
            # the block did not help on the training data; drop its weight
            lam_b[:] = 0.0
            raw = np.zeros_like(raw)
        offset += raw
        report.residual_norms.append(float(np.linalg.norm(Y - mean(offset))))
        fitted.append((lam_b, P_b, Q_b))
        report.loss_traces.append(trace)
        report.best_epoch.append(best)
        if layered:
            layer_preds.append(raw.reshape(-1))
            report.eta_squared.append(correlation_ratio(np.vstack(layer_preds)))
        report.seconds.append(time.perf_counter() - t0)
    lams, Ps, Qs = zip(*fitted)
    model = LtrModel(P=[np.vstack(rows) for rows in zip(*Ps)], Q=np.vstack(Qs),
                     lam=np.concatenate(lams), homogenized=config.homogenize, link=config.link)
    return model, report
