import numpy as np
import pytest

from noisyrec import evaluation
from noisyrec.baselines import fit_itempop, itempop_scorer
from noisyrec.corpus import InteractionTable
from noisyrec.evaluation import MetricReport, evaluate, f1_at_k, ndcg_at_k
from noisyrec.model import topk_from_scores


def evaluate_reference(scorer, heldout, train, ks=(2, 5, 10, 20)):
    """Per-user ranking (setdiff1d + lexsort) and set-based metrics, summed in user order."""
    kmax = max(ks)
    f1_sums = {k: 0.0 for k in ks}
    ndcg_sums = {k: 0.0 for k in ks}
    n_users = 0
    for u in range(heldout.M):
        relevant = heldout.per_user[u]
        if not relevant:
            continue
        scores = np.asarray(scorer(np.array([u]))[0], dtype=float)
        candidates = np.setdiff1d(np.arange(scores.shape[0]), np.array(train.per_user[u], dtype=np.int64))
        topk = candidates[np.lexsort((candidates, -scores[candidates]))[:kmax]].tolist()
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


def test_f1_examples():
    # k=2, one hit, three relevant: P=0.5, R=1/3, F1=0.4
    assert f1_at_k([0, 9], {0, 1, 2}, 2) == pytest.approx(0.4)
    assert f1_at_k([0, 1], {0, 1}, 2) == pytest.approx(1.0)
    assert f1_at_k([8, 9], {0, 1}, 2) == 0.0


def test_f1_rejects_empty_relevant():
    with pytest.raises(ValueError):
        f1_at_k([0], set(), 1)


def test_ndcg_examples():
    assert ndcg_at_k([0], {0}, 1) == pytest.approx(1.0)
    # single relevant at rank 2, k=2: 1/log2(3)
    assert ndcg_at_k([9, 0], {0}, 2) == pytest.approx(0.63093, abs=1e-5)
    assert ndcg_at_k([8, 9], {0}, 2) == 0.0


def test_ndcg_is_one_iff_ideal_prefix():
    assert ndcg_at_k([3, 1, 9], {1, 3}, 2) == pytest.approx(1.0)
    assert ndcg_at_k([3, 9, 1], {1, 3}, 2) < 1.0


def make_eval_data():
    train = InteractionTable(3, 6, [(0, 0), (1, 1), (2, 2)])
    heldout = InteractionTable(3, 6, [(0, 3), (0, 4), (1, 5)])
    return train, heldout


def test_evaluate_averages_over_users():
    train, heldout = make_eval_data()

    def scorer(users):
        # user 0: one hit at rank 1 of 2 relevant; user 1: no hits
        rows = {0: [0, 0, 0, 9.0, 0, 0], 1: [9.0, 0, 0, 0, 0, 0]}
        return np.array([rows[u] for u in users.tolist()])

    report = evaluate(scorer, heldout, train, ks=(2,))
    # user 2 has no held-out items and is skipped
    assert report.n_users_evaluated == 2
    f1_user0 = f1_at_k([3, 0], {3, 4}, 2)
    assert report.f1[2] == pytest.approx(f1_user0 / 2)


def test_evaluate_simple_mean():
    # two users with F1@2 of 0.4 and 0.0 -> mean 0.2
    train = InteractionTable(2, 8, [])
    heldout = InteractionTable(2, 8, [(0, 0), (0, 1), (0, 2), (1, 7)])

    def scorer(users):
        rows = {0: [9.0, 0, 0, 0, 0, 0, 0, 8.0], 1: [9.0, 8, 0, 0, 0, 0, 0, 0]}
        return np.array([rows[u] for u in users.tolist()])

    report = evaluate(scorer, heldout, train, ks=(2,))
    assert report.f1[2] == pytest.approx(0.2)


def test_evaluate_ideal_scorer_ndcg_one():
    rng = np.random.default_rng(0)
    M, N = 10, 20
    train_mask = rng.random((M, N)) < 0.2
    held_mask = (rng.random((M, N)) < 0.2) & ~train_mask
    train = InteractionTable(M, N, list(zip(*np.nonzero(train_mask))))
    heldout = InteractionTable(M, N, list(zip(*np.nonzero(held_mask))))

    def oracle(users):
        scores = np.zeros((len(users), N))
        for row, u in enumerate(users.tolist()):
            scores[row, heldout.per_user[u]] = 1.0
        return scores

    report = evaluate(oracle, heldout, train, ks=(2, 5, 10, 20))
    for k in (2, 5, 10, 20):
        assert report.ndcg[k] == pytest.approx(1.0)


def test_evaluate_excludes_train_positives():
    train = InteractionTable(1, 4, [(0, 0)])
    heldout = InteractionTable(1, 4, [(0, 1)])

    def scorer(users):
        return np.tile([9.0, 5.0, 1.0, 0.0], (len(users), 1))  # train item 0 scores highest

    assert evaluate(scorer, heldout, train, ks=(1,)).f1[1] == pytest.approx(1.0)


def test_evaluate_padding_is_never_a_hit():
    # user 1 has one candidate left, so its top-k is padded with -1; user 0 holds item N - 1,
    # whose code u*N + N - 1 is the one that (1, -1) would give
    train = InteractionTable(2, 4, [(1, 1), (1, 2), (1, 3)])
    heldout = InteractionTable(2, 4, [(0, 3), (1, 0)])
    scores = np.array([[0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]])
    for ks in ((2, 5, 10, 20), (1, 2)):
        report = evaluate(lambda u: scores[u], heldout, train, ks)
        assert report == evaluate_reference(lambda u: scores[u], heldout, train, ks)
        assert report.f1[2] == pytest.approx((2 / 3 + 2 / 3) / 2)


def test_metrics_monotone_transform_invariant():
    rng = np.random.default_rng(1)
    M, N = 6, 15
    train_mask = rng.random((M, N)) < 0.2
    held_mask = (rng.random((M, N)) < 0.3) & ~train_mask
    train = InteractionTable(M, N, list(zip(*np.nonzero(train_mask))))
    heldout = InteractionTable(M, N, list(zip(*np.nonzero(held_mask))))
    base = rng.normal(size=(M, N))

    r1 = evaluate(lambda u: base[u], heldout, train)
    r2 = evaluate(lambda u: np.tanh(base[u]) * 3 + 100, heldout, train)
    assert r1.f1 == r2.f1 and r1.ndcg == r2.ndcg


def test_metrics_bounded():
    rng = np.random.default_rng(2)
    M, N = 8, 12
    train_mask = rng.random((M, N)) < 0.2
    held_mask = (rng.random((M, N)) < 0.3) & ~train_mask
    train = InteractionTable(M, N, list(zip(*np.nonzero(train_mask))))
    heldout = InteractionTable(M, N, list(zip(*np.nonzero(held_mask))))
    report = evaluate(lambda users: rng.normal(size=(len(users), N)), heldout, train)
    for k in (2, 5, 10, 20):
        assert 0.0 <= report.f1[k] <= 1.0
        assert 0.0 <= report.ndcg[k] <= 1.0
    assert report.n_users_evaluated <= M


def test_evaluate_no_eligible_users():
    train = InteractionTable(2, 3, [(0, 0)])
    heldout = InteractionTable(2, 3, [])
    report = evaluate(lambda u: np.zeros(3), heldout, train)
    assert report.n_users_evaluated == 0
    assert report.f1[2] == 0.0


@pytest.mark.parametrize("N", [0, 3])
def test_evaluate_table_with_no_users(N):
    # no row block runs, so the metrics are taken over an empty hit matrix
    empty = InteractionTable(0, N, [])
    report = evaluate(lambda u: np.zeros(N), empty, empty)
    assert report == MetricReport({k: 0.0 for k in (2, 5, 10, 20)}, {k: 0.0 for k in (2, 5, 10, 20)}, 0)


@pytest.mark.parametrize("ks", [(0, 2), (-1,), (2, 5, -3)])
def test_evaluate_rejects_cutoff_below_one(ks):
    # k = 0 gave f1@0 = nan and ndcg@0 = 0.333; a negative k failed inside numpy
    table = InteractionTable(2, 3, [(0, 0), (1, 2)])
    bad = min(ks)
    with pytest.raises(ValueError, match=rf"cutoff k must be >= 1, got {bad}$"):
        evaluate(lambda u: np.zeros(3), table, InteractionTable(2, 3, []), ks=ks)


@pytest.mark.parametrize("ks, message", [
    ((), r"ks names no cutoff k, got \(\)$"),
    ((2.5,), r"cutoff k must be an int, got 2\.5$"),
    ((True,), r"cutoff k must be an int, got True$"),
    ((5, np.float64(2.0)), r"cutoff k must be an int, got (np\.float64\()?2\.0\)?$"),
    ((2, 2), r"cutoff k = 2 is repeated in \(2, 2\)$"),
    ((2, 5, np.int64(5)), r"cutoff k = 5 is repeated"),
], ids=["empty", "float", "bool", "numpy-float", "repeat", "numpy-int-repeat"])
def test_evaluate_rejects_malformed_cutoffs(ks, message):
    # an empty ks failed inside min(), 2.5 and True inside numpy, and (2, 2) gave a one-key report
    table = InteractionTable(2, 3, [(0, 0), (1, 2)])
    with pytest.raises(ValueError, match=message):
        evaluate(lambda u: np.zeros(3), table, InteractionTable(2, 3, []), ks=ks)


@pytest.mark.parametrize("held_shape, train_shape", [((2, 5), (2, 4)), ((3, 4), (2, 4)), ((2, 4), (3, 4))],
                         ids=["N", "larger-heldout-M", "smaller-heldout-M"])
def test_evaluate_rejects_tables_of_different_shapes(held_shape, train_shape):
    # these failed in a numpy reshape, failed in dense_rows, or were evaluated silently
    heldout = InteractionTable(*held_shape, [(0, 0), (1, 1)])
    train = InteractionTable(*train_shape, [(1, 2)])
    calls = []
    message = rf"^held-out table is {held_shape[0]}x{held_shape[1]} but train table is {train_shape[0]}x{train_shape[1]}$"
    with pytest.raises(ValueError, match=message):
        evaluate(lambda users: calls.append(users) or np.zeros((len(users), held_shape[1])), heldout, train)
    assert calls == []  # checked before any scoring


def test_evaluate_rejects_wrong_block_shape():
    # an ItemPop scorer with 3 counts on a 4-item table failed in a numpy reshape
    table = InteractionTable(2, 4, [(0, 0), (1, 1)])
    with pytest.raises(ValueError, match=r"^scorer returned a block of shape \(2, 3\), expected \(2, 4\)$"):
        evaluate(itempop_scorer(np.ones(3)), table, InteractionTable(2, 4, []))
    with pytest.raises(ValueError, match=r"^scorer returned a block of shape \(4,\), expected \(2, 4\)$"):
        evaluate(lambda users: np.zeros(4), table, InteractionTable(2, 4, []))


@pytest.mark.parametrize("block_rows", [1, 3, 4, 10])
def test_evaluate_calls_scorer_once_per_row_block(monkeypatch, block_rows):
    M, N = 10, 6
    monkeypatch.setattr(evaluation, "_BLOCK_CELLS", block_rows * N)
    rng = np.random.default_rng(block_rows)
    train, _, scores = random_case(rng, M, N)
    held = np.ones(M, dtype=bool)
    held[[3, 4, 5, 8]] = False  # users with nothing held out; at 3 rows per block, the second block
    heldout = InteractionTable(M, N, [(u, u % N) for u in np.flatnonzero(held)])
    calls = []

    def scorer(users):
        calls.append(users.tolist())
        return scores[users]

    report = evaluate(scorer, heldout, train)
    starts = range(0, M, block_rows)
    want = [[u for u in range(lo, min(lo + block_rows, M)) if held[u]] for lo in starts]
    assert calls == [users for users in want if users]  # a block with no held-out user is not scored
    assert report == evaluate_reference(lambda users: scores[users], heldout, train)


def test_itempop_evaluates_twice_without_writing_counts():
    rng = np.random.default_rng(3)
    train, heldout, _ = random_case(rng, 23, 17)
    counts = fit_itempop(train)
    before = counts.copy()
    scorer = itempop_scorer(counts)
    assert not scorer(np.arange(3)).flags.writeable  # one read-only row broadcast over the block
    first, second = evaluate(scorer, heldout, train), evaluate(scorer, heldout, train)
    assert first == second and first.n_users_evaluated > 0
    assert np.array_equal(counts, before)
    assert first == evaluate_reference(lambda users: np.tile(before, (len(users), 1)), heldout, train)


def test_topk_kernel_never_returns_excluded_items():
    scores = np.array([[np.nan, 1.0, -np.inf, 2.0]])
    excluded = np.array([[False, True, False, True]])
    # +inf on the negated score would rank excluded item 1 above NaN item 0
    assert topk_from_scores(scores, 2, excluded).tolist() == [[2, 0]]
    assert topk_from_scores(scores, 6, excluded).tolist() == [[2, 0, -1, -1, -1, -1]]


def topk_reference(scores, k, excluded):
    """One stable lexsort over every column (excluded last, score desc, index asc), cut to k."""
    order = np.lexsort((-scores, excluded), axis=-1)[:, :k]
    top = np.full((scores.shape[0], k), -1, dtype=np.int64)
    top[:, : order.shape[1]] = np.where(np.take_along_axis(excluded, order, axis=-1), -1, order)
    return top


def test_topk_kernel_equals_full_sort_reference():
    rng = np.random.default_rng(5)
    seen = {
        "tie_at_cut": 0, "all_excluded": 0, "short_row": 0, "k=N-1": 0, "k=N": 0, "k>N": 0, "B=1": 0,
        "B=0": 0, "N=0": 0, "-0.0_tied_with_0.0": 0, "kth_is_+inf": 0, "kth_is_-inf": 0,
    }
    for trial in range(2000):
        B = int(rng.choice([0, 1, 2, 4, 9], p=[0.05, 0.3, 0.25, 0.2, 0.2]))
        N = 0 if rng.random() < 0.03 else int(rng.integers(1, 40))
        k = int(rng.choice([1, 2, 5, 20, max(N - 1, 1), max(N, 1), N + 3]))
        scores = rng.integers(-2, 3, size=(B, N)).astype(float)  # five values: heavy ties
        scores[(scores == 0) & (rng.random((B, N)) < 0.5)] = -0.0  # equal to 0.0, sign bit set
        for value in (np.nan, np.inf, -np.inf):
            scores[rng.random((B, N)) < rng.choice([0.0, 0.1, 0.4])] = value
        excluded = rng.random((B, N)) < rng.choice([0.0, 0.3, 0.9])
        excluded[rng.random(B) < 0.15] = True
        got, want = topk_from_scores(scores, k, excluded), topk_reference(scores, k, excluded)
        assert got.dtype == np.int64 and got.shape == (B, k) and np.array_equal(got, want), (trial, scores, k, excluded)
        real = ~excluded & ~np.isnan(scores)
        if 0 < k < N:
            kth = -np.sort(np.where(real, -scores, np.inf), axis=1)[:, k - 1 : k]
            above, at_least = (real & (scores > kth)).sum(axis=1), (real & (scores >= kth)).sum(axis=1)
            seen["tie_at_cut"] += bool(np.any((above < k) & (at_least > k)))  # a tie spans rank k
            seen["kth_is_+inf"] += bool(np.any(kth == np.inf))
            seen["kth_is_-inf"] += bool(np.any(kth == -np.inf))
        if N:  # a row that returns both a -0.0 and a 0.0 score, which rank by index alone
            top = np.take_along_axis(scores, np.maximum(got, 0), axis=1)
            zero = (got >= 0) & (top == 0)
            both = (zero & np.signbit(top)).any(axis=1) & (zero & ~np.signbit(top)).any(axis=1)
            seen["-0.0_tied_with_0.0"] += bool(both.any())
        seen["all_excluded"] += int(excluded.all(axis=1).any())
        seen["short_row"] += int(((~excluded).sum(axis=1) < k).any())
        seen["k=N-1"] += k == N - 1
        seen["k=N"] += k == N
        seen["k>N"] += k > N
        seen["B=1"] += B == 1
        seen["B=0"] += B == 0
        seen["N=0"] += N == 0
    assert min(seen.values()) >= 20, seen


def random_case(rng, M, N):
    """Train and held-out tables plus a tie-heavy score matrix with NaN and +-inf."""
    train = rng.random((M, N)) < rng.choice([0.0, 0.3, 0.9])  # 0.9: fewer than kmax candidates
    train[rng.random(M) < 0.15] = True  # users with no candidates at all
    held = rng.random((M, N)) < 0.25
    held[rng.random(M) < 0.2] = False  # users with nothing held out
    scores = rng.integers(-2, 3, size=(M, N)).astype(float)
    for value in (np.nan, np.inf, -np.inf):
        scores[rng.random((M, N)) < 0.05] = value
    return InteractionTable(M, N, np.argwhere(train)), InteractionTable(M, N, np.argwhere(held)), scores


@pytest.mark.parametrize("block_rows", [1, 3, 7, None])
def test_blocked_evaluate_equals_per_user_reference(monkeypatch, block_rows):
    rng = np.random.default_rng(block_rows or 0)
    for trial in range(25):
        M, N = int(rng.choice([1, 2, 5, 11, 23])), int(rng.integers(1, 30))
        if block_rows is not None:  # M is often not a multiple of the block rows
            monkeypatch.setattr(evaluation, "_BLOCK_CELLS", block_rows * N)
        train, heldout, scores = random_case(rng, M, N)
        for ks in ((2, 5, 10, 20), (1, 3)):
            got = evaluate(lambda u: scores[u], heldout, train, ks)
            want = evaluate_reference(lambda u: scores[u], heldout, train, ks)
            assert got == want, (trial, M, N, ks)


def test_blocked_evaluate_equals_reference_across_default_blocks():
    M, N = 90, 4000  # 32 rows per block at the default budget: three blocks, the last partial
    assert evaluation._BLOCK_CELLS // N < M
    train, heldout, scores = random_case(np.random.default_rng(7), M, N)
    assert evaluate(lambda u: scores[u], heldout, train) == evaluate_reference(lambda u: scores[u], heldout, train)


def test_single_cutoff_sums_users_in_order():
    # a lone column would be summed pairwise; with 200 users of varied metrics that differs from a running +=
    M, N = 200, 30
    rng = np.random.default_rng(11)
    train, heldout, scores = random_case(rng, M, N)
    for k in (1, 2, 7):
        got = evaluate(lambda u: scores[u], heldout, train, (k,))
        assert got == evaluate_reference(lambda u: scores[u], heldout, train, (k,)), k
