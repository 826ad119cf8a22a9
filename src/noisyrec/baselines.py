"""Non-gradient reference recommenders: item popularity and item-based KNN."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from noisyrec.corpus import InteractionTable
from noisyrec.model import topk_from_scores


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
    """Cosine similarities over binary user vectors, each row cut to its top S."""

    sim: np.ndarray  # N x N; sim[i, j] > 0 only for the S nearest neighbours j of item i


_FIT_ROWS = 512  # users per co-occurrence block, and items per truncation block


def fit_itemknn(train: InteractionTable, S: int = 50) -> ItemKnnModel:
    """Cosine similarity |users(i) & users(j)| / sqrt(|users(i)| |users(j)|).

    Each item keeps its S most similar other items, ties broken by ascending
    index; every other entry of its row is zero.
    """
    if S < 1:
        raise ValueError("S must be >= 1")
    sim = np.zeros((train.N, train.N))
    for lo in range(0, train.M, _FIT_ROWS):
        block = train.dense_rows(lo, min(lo + _FIT_ROWS, train.M)).astype(float)
        for i in range(0, train.N, _FIT_ROWS):  # one item-row block at a time: no N x N temporary
            sim[i : i + _FIT_ROWS] += block[:, i : i + _FIT_ROWS].T @ block  # whole counts: exact
    deg = train.item_degrees().astype(float)  # the co-occurrence diagonal
    np.fill_diagonal(sim, 0.0)
    for lo in range(0, train.N, _FIT_ROWS):  # cosine, then the row's top S, in place
        rows = sim[lo : lo + _FIT_ROWS]
        # a nonzero count has both degrees nonzero; a zero count stays 0.0 either way
        np.divide(rows, np.sqrt(np.outer(deg[lo : lo + _FIT_ROWS], deg)), out=rows, where=rows > 0)
        keep = np.zeros((len(rows), train.N + 1), dtype=bool)  # the kernel's -1 pads land in the spare column
        np.put_along_axis(keep, topk_from_scores(rows, S, rows <= 0), True, axis=1)
        rows[~keep[:, :-1]] = 0.0
    return ItemKnnModel(sim=sim)


def knn_score(model: ItemKnnModel, train: InteractionTable, u: int, i: int) -> float:
    """Sum of similarities between item i and user u's train positives."""
    return float(sum(model.sim[i, j] for j in train.per_user[u]))


def itemknn_scorer(model: ItemKnnModel, train: InteractionTable) -> Callable:
    def score_user(u: int) -> np.ndarray:
        return model.sim[:, train.per_user[u]].sum(axis=1)  # zeros for a user with no positives

    return score_user
