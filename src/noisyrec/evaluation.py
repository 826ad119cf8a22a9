"""Top-k ranking metrics averaged over users with held-out positives."""

from __future__ import annotations

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
    """Scorer mapping a user index to that user's score vector over all items."""

    def score_user(u: int) -> np.ndarray:
        return theta.U[u] @ theta.V.T

    return score_user


def evaluate(
    scorer: Callable,
    heldout: InteractionTable,
    train: InteractionTable,
    ks=(2, 5, 10, 20),
    exclude_train: bool = True,
) -> MetricReport:
    """Rank items per user, compute F1@k and NDCG@k, average over evaluated users.

    Users with no held-out positives are skipped entirely (not counted as zero).
    Train positives are excluded from ranking candidates unless disabled.
    """
    kmax = max(ks)
    f1_sums = {k: 0.0 for k in ks}
    ndcg_sums = {k: 0.0 for k in ks}
    n_users = 0
    for u in range(heldout.M):
        relevant = heldout.per_user[u]
        if not relevant:
            continue
        scores = np.asarray(scorer(u), dtype=float)
        excluded = train.per_user[u] if exclude_train else ()
        topk = topk_from_scores(scores, kmax, excluded)
        for k in ks:
            f1_sums[k] += f1_at_k(topk, relevant, k)
            ndcg_sums[k] += ndcg_at_k(topk, relevant, k)
        n_users += 1
    if n_users == 0:
        return MetricReport({k: 0.0 for k in ks}, {k: 0.0 for k in ks}, 0)
    return MetricReport(
        f1={k: f1_sums[k] / n_users for k in ks},
        ndcg={k: ndcg_sums[k] / n_users for k in ks},
        n_users_evaluated=n_users,
    )
