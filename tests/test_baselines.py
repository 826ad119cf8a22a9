import numpy as np
import pytest

from noisyrec import baselines
from noisyrec.baselines import (
    fit_itemknn,
    fit_itempop,
    itemknn_scorer,
    itempop_scorer,
)
from noisyrec.corpus import InteractionTable
from noisyrec.model import topk_from_scores


def knn_score(model, train, u, i):
    """Sum of similarities between item i and user u's train positives, one lookup at a time.

    The reference the vectorised itemknn_scorer is checked against.
    """
    total = 0.0
    for j in train.per_user[u]:
        lo = model.indptr[j]
        row = model.items[lo : model.indptr[j + 1]]
        at = np.searchsorted(row, i)
        if at < len(row) and row[at] == i:
            total += model.weights[lo + at]
    return float(total)


def ranking(scores, k):
    """One unmasked score row through the block kernel, as a list."""
    return topk_from_scores(scores[None], k, np.zeros((1, len(scores)), dtype=bool))[0].tolist()


def test_itempop_counts_and_ranking():
    table = InteractionTable(3, 3, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 2), (2, 2), (0, 2)])
    counts = fit_itempop(table)
    assert counts.dtype == float and counts.tolist() == [3, 1, 3]
    scorer = itempop_scorer(counts)
    # same ranking for every user
    rankings = [ranking(row, 3) for row in scorer(np.arange(3))]
    assert rankings[0] == rankings[1] == rankings[2] == [0, 2, 1]


def test_itempop_sort_example():
    assert ranking(itempop_scorer(np.array([5.0, 2.0, 9.0]))([0])[0], 2) == [2, 0]


def test_itempop_empty_train_tie_rule():
    table = InteractionTable(2, 4, [])
    model = fit_itempop(table)
    assert ranking(itempop_scorer(model)([0])[0], 4) == [0, 1, 2, 3]


def dense_sim(model):
    """The N x N similarity matrix, sim[i, j], scattered back from the neighbour-major CSR fields."""
    N = len(model.indptr) - 1
    sim = np.zeros((N, N))
    sim[model.items, np.repeat(np.arange(N), np.diff(model.indptr))] = model.weights
    return sim


def sim_of(model, i, j):
    return dense_sim(model)[i, j]


def test_itemknn_identical_and_disjoint():
    # items 0 and 1 share all users; item 2 disjoint
    table = InteractionTable(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
    model = fit_itemknn(table, S=5)
    assert sim_of(model, 0, 1) == pytest.approx(1.0)
    assert sim_of(model, 0, 2) == 0.0


def test_itemknn_half_overlap():
    # users(i)={0,1}, users(j)={1,2} -> 1/sqrt(2*2)
    table = InteractionTable(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)])
    model = fit_itemknn(table, S=5)
    assert sim_of(model, 0, 1) == pytest.approx(0.5)


def test_itemknn_symmetry_property():
    rng = np.random.default_rng(0)
    mask = rng.random((10, 12)) < 0.3
    table = InteractionTable(10, 12, list(zip(*np.nonzero(mask))))
    model = fit_itemknn(table, S=12)  # S large enough to avoid truncation
    sim = dense_sim(model)
    for i in range(12):
        for j in np.flatnonzero(sim[i]):
            s = sim_of(model, i, j)
            assert abs(s - sim_of(model, j, i)) <= 1e-12
            assert 0.0 <= s <= 1.0 + 1e-12
            assert j != i


def itemknn_sim_reference(table, S):
    """Dense M x N indicator, cosine over it, then a per-row stable argsort to the top S."""
    mat = np.zeros((table.M, table.N))
    for u, i in table.pairs:
        mat[u, i] = 1.0
    co = mat.T @ mat
    deg = np.diag(co).copy()
    norm = np.sqrt(np.outer(deg, deg))
    with np.errstate(invalid="ignore", divide="ignore"):
        sim = np.where(norm > 0, co / norm, 0.0)
    np.fill_diagonal(sim, 0.0)
    out = np.zeros_like(sim)
    for i, row in enumerate(sim):
        nz = np.flatnonzero(row > 0)
        top = nz[np.argsort(-row[nz], kind="stable")[:S]]
        out[i, top] = row[top]
    return out


@pytest.mark.parametrize("M, N, S", [(40, 12, 3), (700, 30, 5), (1, 4, 2), (3, 0, 1)])
def test_itemknn_sim_equals_dense_reference(M, N, S):
    # binary data ties often at the top-S cut; M = 700 spans two co-occurrence blocks
    rng = np.random.default_rng(M)
    table = InteractionTable(M, N, np.argwhere(rng.random((M, N)) < 0.2))
    assert np.array_equal(dense_sim(fit_itemknn(table, S)), itemknn_sim_reference(table, S))


def test_itemknn_sim_equals_dense_reference_across_item_blocks(monkeypatch):
    monkeypatch.setattr(baselines, "_FIT_ROWS", 7)  # several user and item-row blocks, the last partial
    rng = np.random.default_rng(9)
    table = InteractionTable(40, 30, np.argwhere(rng.random((40, 30)) < 0.2))
    assert np.array_equal(dense_sim(fit_itemknn(table, 4)), itemknn_sim_reference(table, 4))


def test_itemknn_top_s_truncation():
    rng = np.random.default_rng(1)
    mask = rng.random((15, 10)) < 0.5
    table = InteractionTable(15, 10, list(zip(*np.nonzero(mask))))
    model = fit_itemknn(table, S=3)
    assert (np.count_nonzero(dense_sim(model), axis=1) <= 3).all()


def test_itemknn_fit_counts_exact_past_one_block():
    # 612 users (two full 256-user blocks and a partial one) all vote items 0-2, so the float32
    # block products reach the block size and the float64 totals reach 612
    rng = np.random.default_rng(5)
    mask = rng.random((612, 10)) < 0.5
    mask[:, :3] = True
    table = InteractionTable(612, 10, np.argwhere(mask))
    assert np.array_equal(dense_sim(fit_itemknn(table, 4)), itemknn_sim_reference(table, 4))


def dense_scores(sim, table, u):
    """The per-user score of a dense sim: a sum over the columns of u's positives, in ascending order."""
    return sim[:, table.per_user[u]].sum(axis=1)


def test_itemknn_scorer_equals_dense_sum_property(monkeypatch):
    # random tables with users and items that have no train positives, S from 1 to N + 1, and
    # several block sizes; N = 0 and M = 1 included. Scores must be bit-identical, not close
    rng = np.random.default_rng(11)
    shapes = [(1, 0), (4, 0), (1, 1), (1, 6)]
    shapes += [(int(rng.integers(1, 40)), int(rng.integers(1, 25))) for _ in range(196)]
    for t, (M, N) in enumerate(shapes):
        monkeypatch.setattr(baselines, "_FIT_ROWS", [1, 3, 7, 256][t % 4])
        mask = rng.random((M, N)) < rng.uniform(0.05, 0.7)
        mask[rng.random(M) < 0.2] = False  # users with no positives
        mask[:, rng.random(N) < 0.2] = False  # items with no train positives
        table = InteractionTable(M, N, np.argwhere(mask))
        S = int(rng.integers(1, N + 2))
        model = fit_itemknn(table, S)
        sim = itemknn_sim_reference(table, S)
        assert np.array_equal(dense_sim(model), sim)
        block = itemknn_scorer(model, table)(np.arange(M))
        assert block.dtype == np.float64 and block.shape == (M, N)
        for u in range(M):
            assert np.array_equal(block[u], dense_scores(sim, table, u)), (M, N, S, u)
        if N:
            u, i = int(rng.integers(M)), int(rng.integers(N))
            assert knn_score(model, table, u, i) == block[u, i]


def test_knn_score_examples():
    table = InteractionTable(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 2)])
    model = fit_itemknn(table, S=5)
    # user with no positives scores 0
    empty = InteractionTable(3, 3, [(1, 0)])
    assert knn_score(model, empty, 0, 2) == 0.0
    # sum over the user's positives
    expected = sim_of(model, 2, 0) + sim_of(model, 2, 1)
    assert knn_score(model, table, 0, 2) == pytest.approx(expected)


def test_knn_score_monotone_in_positives():
    table = InteractionTable(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 2)])
    model = fit_itemknn(table, S=5)
    small = InteractionTable(3, 3, [(0, 0)])
    big = InteractionTable(3, 3, [(0, 0), (0, 1)])
    if sim_of(model, 2, 1) > 0:
        assert knn_score(model, big, 0, 2) > knn_score(model, small, 0, 2)


def test_itemknn_scorer_matches_knn_score():
    rng = np.random.default_rng(2)
    mask = rng.random((8, 9)) < 0.4
    table = InteractionTable(8, 9, list(zip(*np.nonzero(mask))))
    model = fit_itemknn(table, S=4)
    block = itemknn_scorer(model, table)(np.arange(8))
    for u, vec in enumerate(block):
        for i in range(9):
            assert vec[i] == pytest.approx(knn_score(model, table, u, i), abs=1e-12)


def test_itemknn_rejects_bad_s():
    table = InteractionTable(1, 1, [(0, 0)])
    with pytest.raises(ValueError):
        fit_itemknn(table, S=0)


def test_baseline_scorer_rejects_unknown_method():
    table = InteractionTable(2, 3, [(0, 0), (1, 1)])
    for name in ("FOO", "itempop", "BPR"):
        with pytest.raises(ValueError, match=rf"^unknown baseline '{name}'; valid: ITEMPOP, ITEMKNN$"):
            baselines.baseline_scorer(name, table)
    assert baselines.baseline_scorer("ITEMPOP", table)([0]).tolist() == [[1.0, 1.0, 0.0]]
