"""MF parameter containers: preference embeddings, flip-logit embeddings, ranking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class PreferenceParams:
    """Low-rank preference model: score(u, i) = U[u] . V[i]."""

    U: np.ndarray  # M x K
    V: np.ndarray  # N x K

    def copy(self) -> "PreferenceParams":
        return PreferenceParams(self.U.copy(), self.V.copy())

    def sq_norm(self) -> float:
        return float(np.sum(self.U**2) + np.sum(self.V**2))


@dataclass
class NoiseParams:
    """Low-rank flip-logit model: noise_logit(u, i) = P[u] . Q[i]; L=0 means 0."""

    P: np.ndarray  # M x L
    Q: np.ndarray  # N x L

    @property
    def L(self) -> int:
        return self.P.shape[1]

    def copy(self) -> "NoiseParams":
        return NoiseParams(self.P.copy(), self.Q.copy())

    def sq_norm(self) -> float:
        return float(np.sum(self.P**2) + np.sum(self.Q**2))


@dataclass
class InitSpec:
    seed: int = 0
    scale: float = 0.01  # stddev of zero-mean Gaussian entries

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")


def init_params(M: int, N: int, K: int, L: int, spec: InitSpec):
    """Draw all embedding entries i.i.d. Gaussian(0, scale^2) from a seeded RNG."""
    if M < 1 or N < 1 or K < 1 or L < 0:
        raise ValueError("require M, N, K >= 1 and L >= 0")
    rng = np.random.default_rng(spec.seed)
    theta = PreferenceParams(
        U=rng.normal(0.0, spec.scale, size=(M, K)),
        V=rng.normal(0.0, spec.scale, size=(N, K)),
    )
    phi = NoiseParams(
        P=rng.normal(0.0, spec.scale, size=(M, L)),
        Q=rng.normal(0.0, spec.scale, size=(N, L)),
    )
    return theta, phi


def score(params: PreferenceParams, u: int, i: int) -> float:
    if not (0 <= u < params.U.shape[0] and 0 <= i < params.V.shape[0]):
        raise IndexError(f"({u}, {i}) out of range")
    return float(params.U[u] @ params.V[i])


def noise_logit(params: NoiseParams, u: int, i: int) -> float:
    if not (0 <= u < params.P.shape[0] and 0 <= i < params.Q.shape[0]):
        raise IndexError(f"({u}, {i}) out of range")
    if params.L == 0:
        return 0.0
    return float(params.P[u] @ params.Q[i])


def topk_from_scores(scores: np.ndarray, k: int, excluded: np.ndarray) -> np.ndarray:
    """Top-k indices of each row of a (B, N) score block, by (score desc, index asc).

    `excluded` is a (B, N) boolean mask of items never returned. The result is
    (B, k) int64; a row with fewer than k candidates is padded with -1.
    """
    # the mask is the primary key; as +inf on the negated scores it would sort ahead of NaN
    order = np.lexsort((-scores, excluded), axis=-1)[:, :k]
    top = np.full((scores.shape[0], k), -1, dtype=np.int64)
    top[:, : order.shape[1]] = np.where(np.take_along_axis(excluded, order, axis=-1), -1, order)
    return top


def rank_topk(params: PreferenceParams, u: int, k: int, excluded=frozenset()) -> list:
    """The k highest-scoring items for user u, excluding the given item set.

    Ties break by ascending item index; returns fewer than k items when the
    candidate set is smaller than k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    mask = np.isin(np.arange(params.V.shape[0]), list(excluded))
    top = topk_from_scores((params.U[u] @ params.V.T)[None], k, mask[None])[0]
    return top[top >= 0].tolist()


def save_checkpoint(path, theta: PreferenceParams, phi: NoiseParams):
    """Text table: header "M N K L", then rows of U, V, P, Q ("%.17g" round-trips)."""
    M, K = theta.U.shape
    N = theta.V.shape[0]
    L = phi.L
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{M} {N} {K} {L}\n")
        for mat in (theta.U, theta.V, phi.P, phi.Q):
            for row in mat:
                if row.size:
                    fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def load_checkpoint(path):
    with open(path, "r", encoding="utf-8") as fh:
        M, N, K, L = (int(x) for x in fh.readline().split())
        rows = [np.array([float(x) for x in line.split()]) for line in fh if line.strip()]
    expect = M + N + (M + N if L > 0 else 0)
    if len(rows) != expect:
        raise ValueError(f"checkpoint has {len(rows)} rows, expected {expect}")
    U = np.vstack(rows[:M])
    V = np.vstack(rows[M : M + N])
    if L > 0:
        P = np.vstack(rows[M + N : 2 * M + N])
        Q = np.vstack(rows[2 * M + N :])
    else:
        P = np.zeros((M, 0))
        Q = np.zeros((N, 0))
    return PreferenceParams(U, V), NoiseParams(P, Q)
