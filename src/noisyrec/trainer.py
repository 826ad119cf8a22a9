"""Mini-batch SGD training loop with per-positive negative sampling."""

from __future__ import annotations

import enum
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from noisyrec import evaluation
from noisyrec.corpus import InteractionTable, SplitDataset, dense_index
from noisyrec.model import InitSpec, NoiseParams, PreferenceParams, init_params
from noisyrec.objective import (
    RegSpec,
    log_sigmoid,
    sigmoid,
    surrogate_coefficients_from,
    surrogate_coefficients_vec,  # noqa: F401 - unused here, but the benchmark's tracer wraps it by this name
)


class Optimizer(str, enum.Enum):
    BPR = "BPR"
    WBPR = "WBPR"
    BPO = "BPO"
    NBPO_O = "NBPO_O"
    NBPO_S = "NBPO_S"
    NBPO_SS = "NBPO_SS"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"{value!r} is not an optimizer; valid: {', '.join(m.value for m in cls)}")


PAIRWISE = (Optimizer.BPR, Optimizer.WBPR)
NOISE_AWARE = (Optimizer.NBPO_O, Optimizer.NBPO_S, Optimizer.NBPO_SS)
DIVERGENCE_CEILING = 1e8  # an embedding norm or |objective| past this, or non-finite, stops training


def check_ints(obj, names):
    """Raise ValueError naming the first field in `names` whose value on obj is not an int (bool is not)."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an int, got {value!r}")


@dataclass
class TrainConfig:
    optimizer: Optimizer = Optimizer.NBPO_SS
    eta: float = 0.01
    lambda_theta: float = 0.0
    lambda_phi: float = 0.0
    rho: int = 1
    batch_size: int = 1000
    K: int = 10
    L: int = 0  # ignored for BPR/WBPR/BPO
    max_epochs: int = 200
    seed: int = 0
    patience: Optional[int] = None
    init_scale: float = 0.01

    def __post_init__(self):
        self.optimizer = Optimizer(self.optimizer)
        check_ints(self, ("rho", "batch_size", "K", "L", "max_epochs", "seed")
                   + (("patience",) if self.patience is not None else ()))
        for name in ("eta", "init_scale", "lambda_theta", "lambda_phi"):
            if not math.isfinite(getattr(self, name)):  # a NaN lambda would train as lambda = 0
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("eta", "init_scale"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("rho", "batch_size", "max_epochs", "K"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("L", "lambda_theta", "lambda_phi", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.patience is not None and self.patience < 0:
            raise ValueError(f"patience must be >= 0 or None, got {self.patience}")

    @property
    def effective_L(self) -> int:
        return self.L if self.optimizer in NOISE_AWARE else 0


@dataclass
class Batch:
    """Positives plus rho freshly sampled negatives per positive (grouped).

    The user of negative neg_j[t] is pos_u[t // rho].
    """

    pos_u: np.ndarray
    pos_i: np.ndarray
    neg_j: np.ndarray

    @property
    def rho(self) -> int:
        return len(self.neg_j) // max(len(self.pos_u), 1)


@dataclass
class EpochRecord:
    epoch: int
    objective: float
    report: evaluation.MetricReport


@dataclass
class TrainHistory:
    epochs: List[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    best_theta: Optional[PreferenceParams] = None
    best_phi: Optional[NoiseParams] = None
    diverged_at: Optional[int] = None  # the epoch whose steps blew up; it is neither evaluated nor kept

    def best_f1_at_2(self) -> float:
        if self.best_epoch < 0:
            return 0.0
        return self.epochs[self.best_epoch].report.f1[2]


# ---------------------------------------------------------------------------
# negative sampling


class _BatchSampler:
    """Exact negative draws over each user's unvoted items, uniform or weighted by train degree (WBPR).

    Integer item weights w (ones, or the degrees) lie end to end on [0, T). A draw r, uniform on
    [0, W[u]) with W[u] user u's unvoted weight, lands on its item once the weight of u's voted items
    before it is added back; one binary search of `keys`, the unvoted weight before each voted item
    offset by u*T (nondecreasing over all users), counts them. All of it is int64 arithmetic (M*T
    must fit), so an unvoted item is drawn with probability w / W[u] exactly and none is redrawn. A
    WBPR user with W[u] = 0 voted every item of nonzero degree and draws uniformly from the rest.
    """

    def __init__(self, train: InteractionTable, weighted: bool = False):
        users, items = np.divmod(train.codes, train.N)
        w = train.item_degrees() if weighted else np.ones(train.N, dtype=np.int64)
        self.T = int(w.sum())
        # the item at each unit of weight, then the degree-0 items, drawn at T + r when W[u] = 0
        self.item = np.concatenate((np.repeat(np.arange(train.N), w), np.flatnonzero(w == 0)))
        self.prior = np.concatenate(([0], np.cumsum(w[items])))  # the voted weight before each CSR entry
        self.keys = users * self.T + (np.cumsum(w) - w)[items] - self.prior[:-1]
        self.start = self.prior[train.indptr[:-1]]
        unvoted = self.T - self.prior[train.indptr[1:]] + self.start
        self.flat = unvoted == 0
        self.high = np.where(self.flat, len(self.item) - self.T, unvoted)  # 0: the user voted every item

    def sample(self, users: np.ndarray, rho: int, rng) -> np.ndarray:
        """rho negatives per user, grouped: uniform, or popularity-weighted, over unvoted items."""
        high = self.high[users]
        if not high.all():
            raise ValueError(f"user {users[high == 0][0]} has no unvoted items to sample")
        neg_u, r = np.repeat(users, rho), rng.integers(0, np.repeat(high, rho))
        start = self.start[neg_u]
        idx = np.searchsorted(self.keys, neg_u * self.T - start + r, side="right")
        return self.item[np.where(self.flat[neg_u], self.T + r, r + self.prior[idx] - start)]


# ---------------------------------------------------------------------------
# per-variant point-wise terms: objective value and gradient coefficients
# (the scalar multipliers of the embedding rows)


def _point_terms(optimizer: Optimizer, r, g, n: int):
    """(value, c_theta, c_phi) over a step's rows: scores r, flip logits g, the n positives first.

    value is the unregularized objective of the rows, as a float; c_phi is
    None for BPO, BPR and WBPR. For BPR/WBPR the negatives come rho per
    positive, in positive order, and each is the second row of one pair.
    """
    pos, neg = slice(None, n), slice(n, None)
    if optimizer in PAIRWISE:
        rho = (len(r) - n) // n
        x = np.repeat(r[pos], rho) - r[neg]  # r_ui - r_uj per pair
        c = sigmoid(-x)
        return float(np.sum(log_sigmoid(x))), np.concatenate([c.reshape(n, rho).sum(axis=1), -c]), None
    if optimizer == Optimizer.BPO:
        x = np.concatenate([r[pos], -r[neg]])  # each row's score signed by its label
        ls = log_sigmoid(x)
        c_theta = sigmoid(-x)
        c_theta[neg] *= -1
        return float(np.sum(ls[pos]) + np.sum(ls[neg])), c_theta, None
    if optimizer == Optimizer.NBPO_O:
        # the negative term's mixture sigma(-r) + sigma(g) sigma(r) in log space:
        # both parts underflow together at saturated logits
        ls_r, ls_mr = log_sigmoid(r), log_sigmoid(-r)
        ls_g, ls_mg = log_sigmoid(g), log_sigmoid(-g)
        log_mix = np.logaddexp(ls_mr[neg], ls_g[neg] + ls_r[neg])
        value = float(np.sum(ls_mg[pos] + ls_r[pos]) + np.sum(log_mix))
        c_theta = np.concatenate([sigmoid(-r[pos]), -np.exp(ls_r[neg] + ls_mr[neg] + ls_mg[neg] - log_mix)])
        c_phi = np.concatenate([-sigmoid(g[pos]), np.exp(ls_g[neg] + ls_mg[neg] + ls_r[neg] - log_mix)])
        return value, c_theta, c_phi
    if optimizer in (Optimizer.NBPO_S, Optimizer.NBPO_SS):
        sr, smr, sg, smg = sigmoid(r), sigmoid(-r), sigmoid(g), sigmoid(-g)
        # surrogate likelihood: raw probabilities summed, not their logs
        value = float(np.sum(smg[pos] * sr[pos]) + np.sum(smr[neg] + sg[neg] * sr[neg]))
        if optimizer == Optimizer.NBPO_SS:
            return (value, *surrogate_coefficients_from(sr, smr, sg, smg, np.arange(len(r)) < n))
        c_theta = np.concatenate([smg[pos] * sr[pos] * smr[pos], -sr[neg] * smr[neg] * smg[neg]])
        c_phi = sg * smg * sr
        c_phi[pos] *= -1
        return value, c_theta, c_phi
    raise ValueError(f"{optimizer} is not an optimizer")


SCORE_CHUNK = 1024  # rows gathered at a time to score: no step holds a (rows x K) block of the batch


def _column_sums(columns, take, c, slot, size):
    """(size x K) sums of c[t] * columns[:, take[t]] by slot[t], added 0 + c1 + c2 + ... in t order, by column."""
    acc = np.empty((size, len(columns)))
    for k, column in enumerate(columns):
        acc[:, k] = np.bincount(slot, weights=column[take] * c, minlength=size)
    return acc


def point_step(theta: PreferenceParams, phi: Optional[NoiseParams], batch: Batch, config: TrainConfig) -> float:
    """One SGD ascent step for any optimizer; mutates theta (and phi) in place.

    Returns the unregularized objective of the batch at the pre-step parameters.
    """
    n, rho = len(batch.pos_u), batch.rho
    # the positive group's rows, then the negative group's: the scatter's summation order
    users = np.concatenate([batch.pos_u, np.repeat(batch.pos_u, rho)])
    items = np.concatenate([batch.pos_i, batch.neg_j])
    sides = [(theta.U, theta.V, config.lambda_theta)]
    if phi is not None and phi.L > 0:  # else every flip logit is 0, and phi has nothing to update
        sides.append((phi.P, phi.Q, config.lambda_phi))
    r, g = np.zeros((2, len(users)))  # the scores, and the flip logits of the phi side if any
    for out, (A, B, _) in zip((r, g), sides):
        for lo in range(0, len(users), SCORE_CHUNK):
            part = slice(lo, lo + SCORE_CHUNK)
            np.einsum("ij,ij->i", A[users[part]], B[items[part]], out=out[part])
    value, *coefficients = _point_terms(config.optimizer, r, g, n)

    touched_u, slot_u = dense_index(users, theta.U.shape[0])
    touched_i, slot_i = dense_index(items, theta.V.shape[0])
    for (A, B, lam), c in zip(sides, coefficients):
        if c is None:  # BPO, BPR and WBPR have no phi term
            continue
        # both sums from the pre-step rows, before either matrix moves: dA = c * B rows, dB = c * A rows, each
        # read from the other matrix's touched rows, taken as columns and picked by slot (touched_i[slot_i] == items)
        updates = ((A, touched_u, _column_sums(B.T[:, touched_i], slot_i, c, slot_u, len(touched_u))),
                   (B, touched_i, _column_sums(A.T[:, touched_u], slot_u, c, slot_i, len(touched_i))))
        for mat, touched, acc in updates:  # mat[touched] += eta * (acc - lam * mat[touched])
            if lam > 0:
                old = mat[touched]
                old *= lam
                acc -= old
                del old  # before the scatter's own T x K temporary
            acc *= config.eta
            mat[touched] += acc
    return value


def pairwise_step(theta: PreferenceParams, batch: Batch, config: TrainConfig) -> float:
    """point_step with no phi: for BPR/WBPR, ascend ln sigma(r_ui - r_uj) per (positive, negative) pair."""
    return point_step(theta, None, batch, config)


# ---------------------------------------------------------------------------
# dense gradients of the full objectives (finite-difference reference targets)


def dense_gradient(optimizer: Optimizer, terms, theta: PreferenceParams, phi: NoiseParams, reg: RegSpec):
    """Exact dense gradient (dU, dV, dP, dQ) of the variant's objective over `terms`.

    Includes the full-matrix regularizer gradient, so the result matches
    central finite differences of the corresponding objective function.
    For NBPO_SS this is the surrogate direction, not a true gradient. For
    BPR/WBPR the negative terms must come rho per positive, in term order.
    """
    terms = [t for t in terms if t.label == 1] + [t for t in terms if t.label == 0]
    users = np.array([t.u for t in terms])
    items = np.array([t.i for t in terms])
    r = np.array([t.score for t in terms], dtype=float)
    g = np.array([t.noise_logit for t in terms], dtype=float)
    _, ct, cp = _point_terms(optimizer, r, g, sum(t.label for t in terms))

    grads = []
    for (A, B), c, lam in (((theta.U, theta.V), ct, reg.lambda_theta), ((phi.P, phi.Q), cp, reg.lambda_phi)):
        dA, dB = np.zeros_like(A), np.zeros_like(B)
        if c is not None:  # BPO, BPR and WBPR have no phi term
            np.add.at(dA, users, c[:, None] * B[items])
            np.add.at(dB, items, c[:, None] * A[users])
            dA -= lam * A
            dB -= lam * B
        grads += [dA, dB]
    return tuple(grads)


# ---------------------------------------------------------------------------
# training loop


def _divergence(theta: PreferenceParams, phi: NoiseParams, objective: float) -> Optional[str]:
    """The first of |U|, |V|, |P|, |Q| (Frobenius) and |objective| that is non-finite or past the ceiling."""
    with np.errstate(over="ignore"):  # a norm past 1e154 overflows its squares to inf, and inf is caught
        values = [np.linalg.norm(mat) for mat in (theta.U, theta.V, phi.P, phi.Q)] + [objective]
    for name, value in zip(("|U|", "|V|", "|P|", "|Q|", "objective"), values):
        if not abs(value) <= DIVERGENCE_CEILING:  # NaN fails the comparison too
            return f"{name} = {value:.3g}"
    return None


def train(dataset: SplitDataset, config: TrainConfig) -> TrainHistory:
    """Run SGD for max_epochs, evaluating on validation after each epoch.

    Each epoch shuffles the train positives, cuts them into batches, attaches
    rho fresh negatives per positive, and applies the configured step. The
    best snapshot is selected by validation F1@2. An epoch after which a
    parameter norm or the objective is non-finite or past DIVERGENCE_CEILING
    stops training with a warning and sets ``diverged_at``; the snapshots of
    the epochs before it are kept.
    """
    train_table = dataset.train
    if len(train_table) == 0:
        raise ValueError("empty train set")

    theta, phi = init_params(
        train_table.M, train_table.N, config.K, config.effective_L,
        InitSpec(seed=config.seed, scale=config.init_scale),
    )
    rng = np.random.default_rng(config.seed + 1_000_003)

    sampler = _BatchSampler(train_table, weighted=config.optimizer == Optimizer.WBPR)

    codes, N = train_table.codes, train_table.N  # positive (u, i) is code u * N + i
    history = TrainHistory()

    for epoch in range(config.max_epochs):
        shuffled = codes[rng.permutation(len(codes))]
        objective = 0.0
        for start in range(0, len(shuffled), config.batch_size):
            pos_u, pos_i = np.divmod(shuffled[start : start + config.batch_size], N)
            neg_j = sampler.sample(pos_u, config.rho, rng)
            objective += point_step(theta, phi, Batch(pos_u, pos_i, neg_j), config)

        blown = _divergence(theta, phi, objective)
        if blown:
            history.diverged_at = epoch
            warnings.warn(
                f"{config.optimizer.value} diverged at epoch {epoch} ({blown}); training stopped",
                RuntimeWarning, stacklevel=2,
            )
            break
        report = evaluation.evaluate(evaluation.mf_scorer(theta), dataset.validation, train_table)
        history.epochs.append(EpochRecord(epoch=epoch, objective=objective, report=report))
        if history.best_epoch < 0 or report.f1[2] > history.best_f1_at_2():
            history.best_epoch = epoch
            history.best_theta = theta.copy()
            history.best_phi = phi.copy()
        elif config.patience is not None and epoch - history.best_epoch > config.patience:
            break
    return history
