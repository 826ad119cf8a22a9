"""Top-k ranking metrics averaged over users with held-out positives."""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Dict, Sequence

import numpy as np

from noisyrec.corpus import InteractionTable
from noisyrec.model import PreferenceParams, topk_from_scores


@dataclass
class MetricReport:
    f1: Dict[int, float]
    ndcg: Dict[int, float]
    n_users_evaluated: int


def f1_at_k(recommended: Sequence[int], relevant, k: int) -> float:
    """Harmonic mean of precision (hits/k) and recall (hits/|relevant|)."""
    relevant = set(relevant)
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    hits = len(set(recommended[:k]) & relevant)
    if hits == 0:
        return 0.0
    precision = hits / k
    recall = hits / len(relevant)
    return 2 * precision * recall / (precision + recall)


def ndcg_at_k(recommended: Sequence[int], relevant, k: int) -> float:
    """Binary-gain NDCG with log2(position + 1) discount, positions from 1."""
    relevant = set(relevant)
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    dcg = 0.0
    for p, item in enumerate(recommended[:k], start=1):
        if item in relevant:
            dcg += 1.0 / np.log2(p + 1)
    ideal = min(k, len(relevant))
    idcg = sum(1.0 / np.log2(p + 1) for p in range(1, ideal + 1))
    return dcg / idcg


def mf_scorer(theta: PreferenceParams) -> Callable:
    """Scorer mapping an array of users to their (len(users), N) block of scores over all items."""
    return theta.scores


EVAL_KS = (2, 5, 10, 20)  # the cutoffs every report, epoch CSV and summary carries
_BLOCK_CELLS = 1 << 17  # score cells ranked at once; bounds the block temporaries


def evaluate(
    scorer: Callable,
    heldout: InteractionTable,
    train: InteractionTable,
    ks=EVAL_KS,
) -> MetricReport:
    """Rank items per user, compute F1@k and NDCG@k, average over evaluated users.

    `scorer(users)` returns the (len(users), N) float score block of an int array of users.
    Users with no held-out positives are skipped entirely (not counted as zero).
    Train positives are never ranking candidates.
    Users are scored and ranked in row blocks (one scorer call per block that holds a user), then
    their metrics are taken in one pass, each as f1_at_k/ndcg_at_k, summed in user order.
    """
    ks = tuple(ks)
    if not ks:
        raise ValueError("ks names no cutoff k, got ()")
    for k in ks:
        if isinstance(k, bool) or not isinstance(k, numbers.Integral):
            raise ValueError(f"cutoff k must be an int, got {k!r}")
        if k < 1:  # k = 0 divides by zero in precision, and a negative k sizes no array
            raise ValueError(f"cutoff k must be >= 1, got {k}")
        if ks.count(k) > 1:  # the report is keyed by k: a repeat would fold into one key
            raise ValueError(f"cutoff k = {k} is repeated in {ks}")
    if heldout.M != train.M or heldout.N != train.N:
        raise ValueError(f"held-out table is {heldout.M}x{heldout.N} but train table is {train.M}x{train.N}")
    kmax, cols = max(ks), np.array(ks) - 1
    disc = np.array([1.0 / np.log2(p + 1) for p in range(1, kmax + 1)])
    idcg = np.cumsum(disc)  # idcg[n - 1]: ideal DCG with n relevant items
    rows = max(1, _BLOCK_CELLS // max(heldout.N, 1))
    hits = [np.zeros((0, kmax), dtype=bool)]  # a table with no users runs no block
    n_rel = heldout.user_degrees()
    for lo in range(0, heldout.M, rows):
        hi = min(lo + rows, heldout.M)
        users = np.flatnonzero(n_rel[lo:hi])
        if not len(users):  # a scorer is never asked for an empty block
            continue
        scores = np.asarray(scorer(lo + users), dtype=float)
        if scores.shape != (len(users), heldout.N):
            raise ValueError(f"scorer returned a block of shape {scores.shape}, expected {(len(users), heldout.N)}")
        top = topk_from_scores(scores, kmax, train.dense_rows(lo, hi)[users])
        hits.append(heldout.contains((lo + users)[:, None], top))  # the -1 that pads a short row is no item
    hit, n_rel = np.concatenate(hits), n_rel[n_rel > 0, None]
    n_hits = np.cumsum(hit, axis=1)[:, cols]
    precision, recall = n_hits / (cols + 1), n_hits / n_rel
    f1 = np.divide(2 * precision * recall, precision + recall, out=np.zeros(n_hits.shape), where=n_hits > 0)
    ndcg = np.cumsum(np.where(hit, disc, 0.0), axis=1)[:, cols] / idcg[np.minimum(cols, n_rel - 1)]
    # summed side by side: over a C-contiguous block at least two columns wide, sum(axis=0) adds the
    # users one by one in user order, as a running += would (a lone column is summed pairwise)
    means = np.hstack([f1, ndcg]).sum(axis=0) / max(len(hit), 1)  # no users: every metric is 0.0
    return MetricReport(dict(zip(ks, means[: len(ks)].tolist())), dict(zip(ks, means[len(ks) :].tolist())), len(hit))
