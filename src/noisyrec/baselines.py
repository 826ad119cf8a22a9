"""Non-gradient reference recommenders: item popularity and item-based KNN."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from noisyrec.corpus import InteractionTable


@dataclass
class PopularityModel:
    counts: np.ndarray  # per-item train positive counts


def fit_itempop(train: InteractionTable) -> PopularityModel:
    return PopularityModel(counts=train.item_degrees().astype(float))


def itempop_scorer(model: PopularityModel) -> Callable:
    def score_user(u: int) -> np.ndarray:
        return model.counts
    return score_user


@dataclass
class ItemKnnModel:
    """Top-S cosine neighbors per item over binary user vectors."""

    neighbors: Dict[int, List[Tuple[int, float]]]
    S: int
    n_items: int


def fit_itemknn(train: InteractionTable, S: int = 50) -> ItemKnnModel:
    """Cosine similarity |users(i) & users(j)| / sqrt(|users(i)| |users(j)|)."""
    if S < 1:
        raise ValueError("S must be >= 1")
    # binary user-item indicator as a dense matrix; fine at desk scale
    mat = np.zeros((train.M, train.N))
    mat.flat[train.codes] = 1.0  # codes u*N + i are the row-major flat indices
    co = mat.T @ mat  # co-occurrence counts
    deg = np.diag(co).copy()
    norm = np.sqrt(np.outer(deg, deg))
    with np.errstate(invalid="ignore", divide="ignore"):
        sim = np.where(norm > 0, co / norm, 0.0)
    np.fill_diagonal(sim, 0.0)
    neighbors = {}
    for i in range(train.N):
        row = sim[i]
        nz = np.flatnonzero(row > 0)
        if nz.size > S:
            top = nz[np.argsort(-row[nz], kind="stable")[:S]]
        else:
            top = nz
        neighbors[i] = [(int(j), float(row[j])) for j in top]
    return ItemKnnModel(neighbors=neighbors, S=S, n_items=train.N)


def knn_score(model: ItemKnnModel, train: InteractionTable, u: int, i: int) -> float:
    """Sum of similarities between item i and user u's train positives."""
    voted = set(train.per_user[u])
    return sum(s for j, s in model.neighbors[i] if j in voted)


def itemknn_scorer(model: ItemKnnModel, train: InteractionTable) -> Callable:
    # dense neighbor matrix makes per-user scoring a single matvec
    sim = np.zeros((model.n_items, model.n_items))
    for i, nbrs in model.neighbors.items():
        for j, s in nbrs:
            sim[i, j] = s

    def score_user(u: int) -> np.ndarray:
        voted = train.per_user[u]
        if not voted:
            return np.zeros(model.n_items)
        return sim[:, voted].sum(axis=1)

    return score_user
