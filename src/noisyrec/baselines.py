"""Non-gradient reference recommenders: item popularity and item-based KNN."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from noisyrec.corpus import InteractionTable
from noisyrec.model import topk_from_scores


def fit_itempop(train: InteractionTable) -> np.ndarray:
    """Per-item train positive counts, as floats."""
    return train.item_degrees().astype(float)


def itempop_scorer(counts: np.ndarray) -> Callable:
    def score_block(users) -> np.ndarray:
        return np.broadcast_to(counts, (len(users), len(counts)))  # one read-only row, no copies
    return score_block


@dataclass
class ItemKnnModel:
    """Cosine similarities over binary user vectors, each item's row cut to its top S.

    Stored neighbour-major, in CSR form: row j, ``items[indptr[j]:indptr[j + 1]]``,
    lists in ascending order every item i that keeps j among its S nearest, and
    ``weights`` holds sim(i, j) alongside. That is the transpose of the truncated
    N x N similarity matrix, with only its nonzeros kept.
    """

    indptr: np.ndarray  # N + 1 int64 row bounds
    items: np.ndarray  # int64 items i, ascending within each row j
    weights: np.ndarray  # float64 sim(i, j) > 0


_FIT_ROWS = 256  # users per co-occurrence block, and items per similarity block


def fit_itemknn(train: InteractionTable, S: int = 50) -> ItemKnnModel:
    """Cosine similarity |users(i) & users(j)| / sqrt(|users(i)| |users(j)|).

    Each item keeps its S most similar other items, ties broken by ascending
    index. One block of item rows is built at a time, never an N x N matrix.
    """
    if S < 1:
        raise ValueError("S must be >= 1")
    N = train.N
    k = min(S, N)  # the top-k kernel pads with -1 past the N - 1 other items anyway
    deg = train.item_degrees().astype(float)  # the co-occurrence diagonal
    triples = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]  # (i, j, sim): N = 0 has no blocks
    for lo in range(0, N, _FIT_ROWS):
        hi = min(lo + _FIT_ROWS, N)
        rows = np.zeros((hi - lo, N))
        for u in range(0, train.M, _FIT_ROWS):
            # 0/1 products summed over at most _FIT_ROWS < 2**24 users: whole counts, exact in float32
            block = train.dense_rows(u, min(u + _FIT_ROWS, train.M)).astype(np.float32)
            rows += block[:, lo:hi].T @ block
        rows[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
        # a nonzero count has both degrees nonzero; a zero count stays 0.0 either way
        norm = np.outer(deg[lo:hi], deg)
        np.divide(rows, np.sqrt(norm, out=norm), out=rows, where=rows > 0)
        del norm  # not held while the block is ranked
        top = topk_from_scores(rows, k, rows <= 0)
        r, c = np.nonzero(top >= 0)
        triples.append((lo + r, top[r, c], rows[r, top[r, c]]))
    i, j, w = (np.concatenate(part) for part in zip(*triples))
    order = np.lexsort((i, j))  # neighbour-major: by j, then ascending i
    return ItemKnnModel(indptr=np.searchsorted(j[order], np.arange(N + 1)), items=i[order], weights=w[order])


def itemknn_scorer(model: ItemKnnModel, train: InteractionTable) -> Callable:
    N, lengths = len(model.indptr) - 1, np.diff(model.indptr)

    def score_block(users) -> np.ndarray:
        scores = np.empty((len(users), N))
        for row, u in enumerate(np.asarray(users).tolist()):  # one bincount per user beats one per block
            voted = train.codes[train.indptr[u] : train.indptr[u + 1]] - u * train.N
            starts, lens = model.indptr[voted], lengths[voted]
            take = np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())
            # each item's contributions arrive in ascending j and are summed in that order from 0.0,
            # as the dense sim[:, voted].sum(axis=1) adds them; bincount is int64 when take is empty, cast here
            scores[row] = np.bincount(model.items[take], model.weights[take], minlength=N)
        return scores

    return score_block


def baseline_scorer(method: str, train: InteractionTable, neighbors: int = 50) -> Callable:
    """The scorer of an "ITEMPOP" or "ITEMKNN" model (`neighbors` per item), fitted on `train`."""
    if method == "ITEMPOP":
        return itempop_scorer(fit_itempop(train))
    if method == "ITEMKNN":
        return itemknn_scorer(fit_itemknn(train, neighbors), train)
    raise ValueError(f"unknown baseline {method!r}; valid: ITEMPOP, ITEMKNN")
