"""Mini-batch SGD training loop with per-positive negative sampling."""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from noisyrec.corpus import InteractionTable, SplitDataset
from noisyrec.evaluation import EVAL_KS
from noisyrec.model import InitSpec, NoiseParams, PreferenceParams, init_params
from noisyrec.objective import (
    RegSpec,
    log_sigmoid,
    sigmoid,
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
    balance_positives: bool = False
    patience: Optional[int] = None
    init_scale: float = 0.01

    def __post_init__(self):
        self.optimizer = Optimizer(self.optimizer)
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
    report: "MetricReport"  # noqa: F821 - evaluation.MetricReport


@dataclass
class TrainHistory:
    config: TrainConfig
    epochs: List[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    best_theta: Optional[PreferenceParams] = None
    best_phi: Optional[NoiseParams] = None
    diverged_at: Optional[int] = None  # the epoch whose steps blew up; it is neither evaluated nor kept

    def best_f1_at_2(self) -> float:
        if self.best_epoch < 0:
            return 0.0
        return self.epochs[self.best_epoch].report.f1[2]

    def to_csv_lines(self) -> List[str]:
        header = (
            "epoch,objective,"
            + ",".join(f"f1@{k}" for k in EVAL_KS)
            + ","
            + ",".join(f"ndcg@{k}" for k in EVAL_KS)
        )
        lines = [header]
        for rec in self.epochs:
            vals = [str(rec.epoch), f"{rec.objective:.10g}"]
            vals += [f"{rec.report.f1[k]:.10g}" for k in EVAL_KS]
            vals += [f"{rec.report.ndcg[k]:.10g}" for k in EVAL_KS]
            lines.append(",".join(vals))
        return lines


# ---------------------------------------------------------------------------
# negative sampling


class _BatchSampler:
    """Vectorized negative sampling against the train table's sorted codes."""

    def __init__(self, train: InteractionTable, popularity=None):
        self.N = train.N
        self.codes = train.codes
        self.full = train.user_degrees() >= train.N  # users with no unvoted item
        if popularity is not None:
            p = np.asarray(popularity, dtype=float)
            self.pop = p / p.sum()
            # users who voted every item of nonzero popularity draw uniformly
            # (rejection keeps it uniform over their unvoted items)
            votes = np.concatenate(([0], np.cumsum(p[train.indices] > 0)))
            popular_votes = np.diff(votes[train.indptr])
            self.flat = popular_votes >= np.count_nonzero(p)
        else:
            self.pop = None

    def _is_positive(self, users, items):
        q = users.astype(np.int64) * self.N + items
        idx = np.searchsorted(self.codes, q)
        idx = np.minimum(idx, len(self.codes) - 1)
        return self.codes[idx] == q

    def _draw(self, users, rng):
        if self.pop is None:
            return rng.integers(0, self.N, size=len(users))
        out = rng.choice(self.N, size=len(users), replace=True, p=self.pop)
        flat = self.flat[users]
        if flat.any():
            out[flat] = rng.integers(0, self.N, size=int(flat.sum()))
        return out

    def sample(self, users: np.ndarray, rho: int, rng) -> np.ndarray:
        """rho negatives per user, grouped: uniform, or popularity-weighted, over unvoted items."""
        full = self.full[users]
        if full.any():
            raise ValueError(f"user {users[full][0]} has no unvoted items to sample")
        neg_u = np.repeat(users, rho)
        neg_j = self._draw(neg_u, rng)
        bad = self._is_positive(neg_u, neg_j)
        while bad.any():
            neg_j[bad] = self._draw(neg_u[bad], rng)
            bad[bad] = self._is_positive(neg_u[bad], neg_j[bad])
        return neg_j


# ---------------------------------------------------------------------------
# per-variant point-wise terms: objective value and gradient coefficients
# (the scalar multipliers of the embedding rows)


def _point_terms(optimizer: Optimizer, r, g, n: int):
    """(value, c_theta, c_phi) over a step's rows: scores r, flip logits g, the n positives first.

    value is the unregularized objective of the rows, as a float; c_phi is
    None for BPO.
    """
    pos, neg = slice(None, n), slice(n, None)
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
        if optimizer == Optimizer.NBPO_SS:  # objective.surrogate_coefficients_vec, the positives first
            c_theta = np.concatenate([smg[pos] * smr[pos], -sr[neg] + sg[neg] * smr[neg]])
            c_phi = np.concatenate([-sg[pos] * sr[pos], smg[neg] * sr[neg]])
            return value, c_theta, c_phi
        c_theta = np.concatenate([smg[pos] * sr[pos] * smr[pos], -sr[neg] * smr[neg] * smg[neg]])
        c_phi = sg * smg * sr
        c_phi[pos] *= -1
        return value, c_theta, c_phi
    raise ValueError(f"{optimizer} is not a point-wise optimizer")


def _slots(rows, n):
    """(touched, slot): the sorted unique rows out of range(n), and each row's index into them."""
    seen = np.zeros(n, dtype=bool)
    seen[rows] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[rows]


def _apply_sparse(mat, slot, grad, eta, lam, touched):
    """mat[touched[slot]] += eta * grad (scattered); touched rows decay by eta * lam.

    `touched` and `slot` come from _slots; rows outside `touched` stay
    bit-identical. Each entry sums 0 + c1 + c2 + ... in the order of `slot`
    (np.bincount adds in input order); one bincount per column needs no
    (rows x K) index array.
    """
    acc = np.empty((len(touched), mat.shape[1]))
    for k in range(mat.shape[1]):
        acc[:, k] = np.bincount(slot, weights=grad[:, k], minlength=len(touched))
    if lam > 0:
        old = mat[touched]
        old *= lam
        acc -= old
        del old  # before the scatter's own T x K temporary
    acc *= eta
    mat[touched] += acc


def _gather(*parts):
    """The pre-step rows mat[rows] of each (mat, rows) part, stacked in one block.

    glibc trims its heap top once the free space there exceeds twice the
    largest block freed so far; one block keeps the step's temporaries under
    that, where smaller ones let them page-fault back in every step. The
    rows are in range (train table, sampler), so mode="wrap" skips the
    bounds check that makes take copy through a buffer.
    """
    block = np.empty((sum(len(rows) for _, rows in parts), parts[0][0].shape[1]))
    start = 0
    for mat, rows in parts:
        np.take(mat, rows, axis=0, out=block[start : start + len(rows)], mode="wrap")
        start += len(rows)
    return block


def point_step(theta: PreferenceParams, phi: Optional[NoiseParams], batch: Batch, config: TrainConfig) -> float:
    """One SGD ascent step for BPO / NBPO variants; mutates theta (and phi) in place.

    Returns the unregularized objective of the batch at the pre-step parameters.
    """
    n, rho = len(batch.pos_u), batch.rho
    has_phi = phi is not None and phi.L > 0
    # rows of the positive group, then of the negative group: this is the
    # scatter's summation order
    users = np.concatenate([batch.pos_u, np.repeat(batch.pos_u, rho)])
    items = np.concatenate([batch.pos_i, batch.neg_j])
    block = _gather((theta.U, users), (theta.V, items))
    Ub, Vb = block[: len(users)], block[len(users) :]
    r = np.einsum("ij,ij->i", Ub, Vb)
    if has_phi:
        phi_block = _gather((phi.P, users), (phi.Q, items))
        Pb, Qb = phi_block[: len(users)], phi_block[len(users) :]
        g = np.einsum("ij,ij->i", Pb, Qb)
    else:
        g = np.zeros_like(r)

    value, ct, cp = _point_terms(config.optimizer, r, g, n)
    if config.balance_positives:
        ct[:n] *= rho
        if cp is not None:
            cp[:n] *= rho

    # theta and phi share the rows, so they share the slots
    touched_u, slot_u = _slots(users, theta.U.shape[0])
    touched_i, slot_i = _slots(items, theta.V.shape[0])

    # the gathered rows become the gradients in place: dU = c * V, dV = c * U
    Vb *= ct[:, None]
    Ub *= ct[:, None]
    _apply_sparse(theta.U, slot_u, Vb, config.eta, config.lambda_theta, touched_u)
    _apply_sparse(theta.V, slot_i, Ub, config.eta, config.lambda_theta, touched_i)
    if has_phi and cp is not None:
        Qb *= cp[:, None]
        Pb *= cp[:, None]
        _apply_sparse(phi.P, slot_u, Qb, config.eta, config.lambda_phi, touched_u)
        _apply_sparse(phi.Q, slot_i, Pb, config.eta, config.lambda_phi, touched_i)
    return value


def pairwise_step(theta: PreferenceParams, batch: Batch, config: TrainConfig) -> float:
    """One BPR-style step: ascend ln sigma(r_ui - r_uj) per (positive, negative) pair.

    The pairs are (repeat(pos_u, rho), repeat(pos_i, rho), neg_j).
    Returns the batch objective, the sum of ln sigma(r_ui - r_uj), at the pre-step parameters.
    """
    n, rho = len(batch.pos_u), batch.rho
    users = np.repeat(batch.pos_u, rho)  # the user of every pair
    m = len(users)
    items = np.concatenate([np.repeat(batch.pos_i, rho), batch.neg_j])
    block = _gather((theta.V, batch.pos_i), (theta.U, users), (theta.V, batch.neg_j))
    Vp, Ub, Vn = block[:n], block[n : n + m], block[n + m :]
    # a positive's score is the same in its rho pairs; Ub[::rho] are its U rows
    x = np.repeat(np.einsum("ij,ij->i", Ub[::rho], Vp), rho) - np.einsum("ij,ij->i", Ub, Vn)
    c = sigmoid(-x)[:, None]

    touched_u, slot_u = _slots(users, theta.U.shape[0])
    touched_i, slot_i = _slots(items, theta.V.shape[0])

    # gradients in place: dU = c * (V_i - V_j) in Vn; then dV = c * U in Ub, -c * U in Vn
    Vn3 = Vn.reshape(n, rho, Vn.shape[1])
    np.subtract(Vp[:, None], Vn3, out=Vn3)
    Vn *= c
    _apply_sparse(theta.U, slot_u, Vn, config.eta, config.lambda_theta, touched_u)
    Ub *= c
    np.negative(Ub, out=Vn)
    _apply_sparse(theta.V, slot_i, block[n:], config.eta, config.lambda_theta, touched_i)
    return float(np.sum(log_sigmoid(x)))


# ---------------------------------------------------------------------------
# dense gradients of the full objectives (finite-difference reference targets)


def dense_gradient(optimizer: Optimizer, terms, theta: PreferenceParams, phi: NoiseParams, reg: RegSpec):
    """Exact dense gradient (dU, dV, dP, dQ) of the variant's objective over `terms`.

    Includes the full-matrix regularizer gradient, so the result matches
    central finite differences of the corresponding objective function.
    For NBPO_SS this is the surrogate direction, not a true gradient.
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
        if c is not None:  # BPO has no phi term
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


def train(dataset: SplitDataset, config: TrainConfig, exclude_train: bool = True) -> TrainHistory:
    """Run SGD for max_epochs, evaluating on validation after each epoch.

    Each epoch shuffles the train positives, cuts them into batches, attaches
    rho fresh negatives per positive, and applies the configured step. The
    best snapshot is selected by validation F1@2. An epoch after which a
    parameter norm or the objective is non-finite or past DIVERGENCE_CEILING
    stops training with a warning and sets ``diverged_at``; the snapshots of
    the epochs before it are kept.
    """
    from noisyrec.evaluation import evaluate, mf_scorer  # at call time: the module attribute may be wrapped

    train_table = dataset.train
    if len(train_table) == 0:
        raise ValueError("empty train set")

    theta, phi = init_params(
        train_table.M, train_table.N, config.K, config.effective_L,
        InitSpec(seed=config.seed, scale=config.init_scale),
    )
    rng = np.random.default_rng(config.seed + 1_000_003)

    popularity = train_table.item_degrees().astype(float) if config.optimizer == Optimizer.WBPR else None
    sampler = _BatchSampler(train_table, popularity)

    codes, N = train_table.codes, train_table.N  # positive (u, i) is code u * N + i
    history = TrainHistory(config=config)
    best_f1 = -1.0
    stale = 0

    for epoch in range(config.max_epochs):
        shuffled = codes[rng.permutation(len(codes))]
        objective = 0.0
        for start in range(0, len(shuffled), config.batch_size):
            pos_u, pos_i = np.divmod(shuffled[start : start + config.batch_size], N)
            neg_j = sampler.sample(pos_u, config.rho, rng)
            batch = Batch(pos_u, pos_i, neg_j)
            if config.optimizer in PAIRWISE:
                objective += pairwise_step(theta, batch, config)
            else:
                objective += point_step(theta, phi, batch, config)

        blown = _divergence(theta, phi, objective)
        if blown:
            history.diverged_at = epoch
            warnings.warn(
                f"{config.optimizer.value} diverged at epoch {epoch} ({blown}); training stopped",
                RuntimeWarning, stacklevel=2,
            )
            break
        report = evaluate(mf_scorer(theta), dataset.validation, train_table, exclude_train=exclude_train)
        history.epochs.append(EpochRecord(epoch=epoch, objective=objective, report=report))
        if report.f1[2] > best_f1:
            best_f1 = report.f1[2]
            history.best_epoch = epoch
            history.best_theta = theta.copy()
            history.best_phi = phi.copy()
            stale = 0
        else:
            stale += 1
            if config.patience is not None and stale > config.patience:
                break
    return history
