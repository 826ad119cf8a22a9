"""MF parameter containers: preference embeddings, flip-logit embeddings, ranking."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from noisyrec.corpus import ParseError, write_text


@dataclass
class PreferenceParams:
    """Low-rank preference model: score(u, i) = U[u] . V[i]."""

    U: np.ndarray  # M x K
    V: np.ndarray  # N x K

    def copy(self) -> "PreferenceParams":
        return PreferenceParams(self.U.copy(), self.V.copy())

    def sq_norm(self) -> float:
        return float(np.sum(self.U**2) + np.sum(self.V**2))

    def scores(self, users) -> np.ndarray:
        """The (len(users), N) block of scores U[u] . V[i] of the given users over every item."""
        # each stacked (1 x K) row goes through matmul's vector @ matrix gemv, the call U[u] @ V.T
        # makes, so every score is bit-identical to it; the plain gemm U[users] @ V.T sums in
        # another order and moves the last bits
        return np.matmul(self.U[users][:, None, :], self.V.T)[:, 0]


@dataclass
class NoiseParams:
    """Low-rank flip-logit model: g(u, i) = P[u] . Q[i]; L=0 means 0."""

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
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be finite and positive, got {self.scale}")


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


def topk_from_scores(scores: np.ndarray, k: int, excluded: np.ndarray) -> np.ndarray:
    """Top-k indices of each row of a (B, N) score block, by (score desc, index asc).

    `excluded` is a (B, N) boolean mask of items never returned. The result is
    (B, k) int64; a row with fewer than k candidates is padded with -1. NaN
    scores rank after every real score.
    """
    B, N = scores.shape
    top = np.full((B, k), -1, dtype=np.int64)
    k = min(k, N)  # past N the result is only padding
    if k == 0:
        return top
    # Preselect: an item can reach the top k only if it is not excluded and scores at least
    # the row's k-th highest real score (any item, when the row has fewer than k). Ties with
    # that score stay in and the window keeps ascending index order, so the stable sort
    # below still breaks ties by index; the columns that only pad a row's window hold -1 and
    # sort after every candidate, so they can only reach the result as its -1 padding.
    key = np.negative(scores)
    np.copyto(key, np.nan, where=excluded)
    key.partition(k - 1, axis=1)  # in place; NaN keys go last
    cut = -key[:, k - 1 : k]  # NaN when the row has fewer than k real scores
    del key
    cand = scores >= cut  # False for NaN scores and NaN cuts
    cand[np.isnan(cut[:, 0])] = True
    cand &= ~excluded
    rows, idx = np.divmod(np.flatnonzero(cand), N)  # row-major: each row's candidates ascending
    counts = np.bincount(rows, minlength=B)
    slot = np.arange(len(idx)) - (np.cumsum(counts) - counts)[rows]
    cols = np.full((B, int(counts.max(initial=0))), -1, dtype=np.int64)
    cols[rows, slot] = idx
    # the padding mask is the primary key; as +inf on the negated scores it would sort ahead of NaN
    order = np.lexsort((-np.take_along_axis(scores, cols, axis=1), cols < 0), axis=-1)[:, :k]
    top[:, : order.shape[1]] = np.take_along_axis(cols, order, axis=-1)
    return top


def rank_topk(params: PreferenceParams, u: int, k: int, excluded=frozenset()) -> list:
    """The k highest-scoring items for user u, excluding the given item set.

    Ties break by ascending item index; returns fewer than k items when the
    candidate set is smaller than k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= u < len(params.U):  # a negative u would index from the end
        raise ValueError(f"user {u} is out of range for {len(params.U)} users")
    mask = np.isin(np.arange(params.V.shape[0]), list(excluded))
    top = topk_from_scores(params.scores([u]), k, mask[None])[0]
    return top[top >= 0].tolist()


def save_checkpoint(path, theta: PreferenceParams, phi: NoiseParams):
    """Text table: header "M N K L", then rows of U, V, P, Q ("%.17g" round-trips)."""
    M, K = theta.U.shape
    N = theta.V.shape[0]
    rows = (" ".join(f"{x:.17g}" for x in row) + "\n"
            for mat in (theta.U, theta.V, phi.P, phi.Q) for row in mat if row.size)
    write_text(path, itertools.chain([f"{M} {N} {K} {phi.L}\n"], rows))


def load_checkpoint(path):
    """Read a save_checkpoint table; a malformed header, row or token raises ParseError naming its line."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        try:
            M, N, K, L = (int(x) for x in header.split())
            if min(M, N, L) < 0 or K < 1:
                raise ValueError
        except ValueError:
            raise ParseError(path, 1, f"expected header 'M N K L', got {header.rstrip()!r}") from None
        widths = [K] * (M + N) + [L] * (M + N if L > 0 else 0)  # save_checkpoint writes no empty row
        rows, lineno = [], 1
        for lineno, line in enumerate(fh, start=2):
            tokens = line.split()
            if not tokens:
                continue
            if len(rows) == len(widths):
                raise ParseError(path, lineno, f"extra row: header {M} {N} {K} {L} gives {len(widths)} rows")
            if len(tokens) != widths[len(rows)]:
                raise ParseError(path, lineno, f"expected {widths[len(rows)]} values, got {len(tokens)}")
            try:
                rows.append(np.array(tokens, dtype=float))  # parsed as float() parses; no Python floats kept
            except ValueError as exc:
                raise ParseError(path, lineno, str(exc)) from None
    if len(rows) < len(widths):
        raise ParseError(path, lineno + 1, f"missing rows: header {M} {N} {K} {L} gives {len(widths)}, got {len(rows)}")
    U = np.array(rows[:M], dtype=float).reshape(M, K)
    V = np.array(rows[M : M + N], dtype=float).reshape(N, K)
    P = np.array(rows[M + N : 2 * M + N], dtype=float).reshape(M, L)  # (M, 0) when L = 0
    Q = np.array(rows[2 * M + N :], dtype=float).reshape(N, L)
    return PreferenceParams(U, V), NoiseParams(P, Q)
