"""Acceptance criteria, one test per criterion.

Criteria 7, 8 and 10 need the MovieLens-1M ratings file; point the
NOISYREC_ML1M environment variable at ratings.dat (default location:
data/ml-1m/ratings.dat under the repository root).  They skip when the
file is absent.
"""

import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from noisyrec.corpus import (
    InteractionTable,
    binarize_and_index,
    kcore_filter,
    load_amazon_reviews,
    load_movielens,
    split,
)
from noisyrec.experiment import (
    DESK_REPEATS,
    ExperimentSpec,
    desk_preset,
    run,
)
from noisyrec.objective import (
    RegSpec,
    SampleTerm,
    bpo_loglik,
    log_sigmoid,
    nbpo_loglik,
    nbpo_lower_bound,
    nbpo_surrogate,
    sigmoid,
    surrogate_coefficients,
    surrogate_coefficients_vec,
)
from noisyrec.trainer import Optimizer, dense_gradient

from conftest import fd_gradient, make_terms, random_params

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def ml1m_path():
    path = os.environ.get(
        "NOISYREC_ML1M", os.path.join(REPO_ROOT, "data", "ml-1m", "ratings.dat")
    )
    return path if os.path.exists(path) else None


requires_ml1m = pytest.mark.skipif(
    ml1m_path() is None,
    reason="MovieLens-1M ratings.dat not available (set NOISYREC_ML1M)",
)


# ---------------------------------------------------------------------------
# 1. Gradient correctness: analytic gradients match central finite differences
#    with relative error <= 1e-5 per coordinate on 100 seeded instances, < 10 s.


def test_criterion_01_gradients_match_finite_differences():
    cases = {
        Optimizer.BPO: lambda terms, theta, phi, reg: bpo_loglik(terms, theta, reg),
        Optimizer.NBPO_O: nbpo_loglik,
        Optimizer.NBPO_S: nbpo_surrogate,
    }
    reg = RegSpec(lambda_theta=0.1, lambda_phi=0.05)
    start = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        theta, phi = random_params(rng, 5, 5, 3, 2)
        pairs = [(u, i) for u in range(5) for i in range(5)]
        chosen = [pairs[j] for j in rng.choice(25, size=12, replace=False)]
        pos, neg = chosen[:6], chosen[6:]
        for opt, objective in cases.items():

            def value():
                return objective(make_terms(theta, phi, pos, neg), theta, phi, reg)

            analytic = dense_gradient(opt, make_terms(theta, phi, pos, neg), theta, phi, reg)
            for mat, grad in zip((theta.U, theta.V, phi.P, phi.Q), analytic):
                fd = fd_gradient(value, mat)
                err = np.abs(grad - fd) / np.maximum(1.0, np.abs(grad))
                assert err.max() <= 1e-5, (opt, seed, err.max())
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 2. Surrogate-gradient identity: the shipped coefficients equal closed forms
#    re-derived here from scratch; L=0 reductions are exact; the negative-term
#    coefficient vanishes at score = -ln 2.


def _sig(x):
    return 1.0 / (1.0 + math.exp(-x))


def independent_coefficients(label, r, g):
    if label == 1:
        return _sig(-g) * _sig(-r), -_sig(g) * _sig(r)
    return -_sig(r) + _sig(g) * _sig(-r), _sig(-g) * _sig(r)


def test_criterion_02_surrogate_coefficients_closed_form():
    rng = np.random.default_rng(42)
    labels = rng.integers(0, 2, size=10_000)
    rs = rng.uniform(-6, 6, size=10_000)
    gs = rng.uniform(-6, 6, size=10_000)
    ct, cp = surrogate_coefficients_vec(labels, rs, gs)
    for n in range(10_000):
        et, ep = independent_coefficients(int(labels[n]), rs[n], gs[n])
        assert abs(ct[n] - et) <= 1e-12
        assert abs(cp[n] - ep) <= 1e-12

    # L = 0 (zero noise logit) reductions
    for r in rng.uniform(-6, 6, size=1000):
        ct_pos, _ = surrogate_coefficients(SampleTerm(0, 0, 1, r, 0.0))
        ct_neg, _ = surrogate_coefficients(SampleTerm(0, 0, 0, r, 0.0))
        assert ct_pos == 0.5 * sigmoid(-r)
        # one-ulp slack: sigma(r) + sigma(-r) = 1 holds only to machine epsilon
        assert abs(ct_neg - 0.5 * (1 - 3 * sigmoid(r))) <= 1e-15

    ct_zero, _ = surrogate_coefficients(SampleTerm(0, 0, 0, -math.log(2), 0.0))
    assert abs(ct_zero) <= 1e-15


# ---------------------------------------------------------------------------
# 3. Jensen bound: lower bound never exceeds the exact log-likelihood on 1e4
#    draws, strictly below it for negative terms with both mixture parts < 1.


def test_criterion_03_jensen_bound():
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(10_000):
        label = int(rng.integers(0, 2))
        t = SampleTerm(0, 0, label, rng.uniform(-4, 4), rng.uniform(-4, 4))
        lb, ll = nbpo_lower_bound([t]), nbpo_loglik([t])
        if lb > ll:
            violations += 1
        if label == 0:
            # both mixture components sigma(-r) and sigma(g)sigma(r) are in
            # (0, 1) for finite draws, so the bound must be strict
            assert lb < ll
    assert violations == 0


# ---------------------------------------------------------------------------
# 4. Numeric kernels: log_sigmoid finite on |x| <= 1000; complement identity.


def test_criterion_04_numeric_kernels():
    xs = np.linspace(-1000, 1000, 20_001)
    assert np.all(np.isfinite(log_sigmoid(xs)))
    for x in np.linspace(-50, 50, 2001):
        assert abs(sigmoid(x) + sigmoid(-x) - 1.0) <= 1e-15


# ---------------------------------------------------------------------------
# 5. Corpus invariants: 14-core on an Amazon-format fixture; split invariants
#    over 100 seeds.


def write_amazon_fixture(path):
    lines = []
    # dense block that survives 14-core: 20 reviewers x 18 products
    for u in range(20):
        for i in range(18):
            lines.append(json.dumps(
                {"reviewerID": f"A{u}", "asin": f"B{i}", "overall": 5.0,
                 "reviewText": "ok"}
            ))
    # low-degree fringe that must be pruned
    for u in range(20, 30):
        lines.append(json.dumps(
            {"reviewerID": f"A{u}", "asin": f"C{u}", "overall": 1.0}
        ))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_criterion_05_corpus_invariants(tmp_path):
    fixture = tmp_path / "reviews.json"
    write_amazon_fixture(fixture)
    raw = load_amazon_reviews(str(fixture))
    _, table = binarize_and_index(raw)
    core = kcore_filter(table, 14)
    assert core.positives, "14-core must keep the dense block"
    assert min(core.user_degrees()) >= 14
    assert min(core.item_degrees()) >= 14
    assert core.M < table.M  # fringe removed

    rng = np.random.default_rng(11)
    for seed in range(100):
        mask = rng.random((15, 12)) < 0.4
        synth = InteractionTable(15, 12, list(zip(*np.nonzero(mask))))
        if len(synth.positives) < 10:
            continue
        ds = split(synth, seed=seed)
        parts = [ds.train.positives, ds.validation.positives, ds.test.positives]
        assert parts[0] | parts[1] | parts[2] <= synth.positives
        assert not (parts[0] & parts[1]) and not (parts[0] & parts[2])
        assert not (parts[1] & parts[2])
        train_users = {u for u, _ in parts[0]}
        train_items = {i for _, i in parts[0]}
        for heldout in parts[1:]:
            assert {u for u, _ in heldout} <= train_users
            assert {i for _, i in heldout} <= train_items


# ---------------------------------------------------------------------------
# 6. Metric unit values.


def test_criterion_06_metric_units():
    from noisyrec.evaluation import evaluate, f1_at_k, ndcg_at_k

    assert f1_at_k([0, 9], {0, 1, 2}, 2) == pytest.approx(0.4, abs=1e-12)
    assert ndcg_at_k([9, 0], {0}, 2) == pytest.approx(0.63093, abs=1e-5)

    rng = np.random.default_rng(3)
    M, N = 12, 25
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
        assert report.ndcg[k] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# 7 & 8. MovieLens-1M desk-scale ordering experiments (skipped without data).

DESK_METHODS = ("BPO", "NBPO_O", "NBPO_S", "NBPO_SS", "ITEMPOP")


@pytest.fixture(scope="module")
def desk_summaries(tmp_path_factory):
    path = ml1m_path()
    if path is None:
        pytest.skip("MovieLens-1M ratings.dat not available (set NOISYREC_ML1M)")
    root = tmp_path_factory.mktemp("ml1m_desk")
    cache = str(root / "cache")
    summaries = {}
    for method in DESK_METHODS:
        spec = ExperimentSpec(
            output_dir=str(root / method),
            dataset="movielens",
            raw_path=path,
            kcore=1,
            split_seed=0,
            method=method,
            config=desk_preset(),
            repeat_count=DESK_REPEATS,
            cache_dir=cache,
        )
        summaries[method] = run(spec)
    return summaries


@requires_ml1m
def test_criterion_07_movielens_ordering(desk_summaries):
    f1 = {m: desk_summaries[m]["mean_test"]["f1"]["2"] for m in DESK_METHODS}
    assert f1["NBPO_SS"] >= 1.03 * f1["BPO"]
    assert f1["NBPO_SS"] >= f1["NBPO_S"]
    assert f1["NBPO_SS"] >= f1["NBPO_O"]


@requires_ml1m
def test_criterion_08_personalization_beats_itempop(desk_summaries):
    pop = desk_summaries["ITEMPOP"]["mean_test"]["f1"]["2"]
    assert desk_summaries["BPO"]["mean_test"]["f1"]["2"] >= 1.5 * pop
    assert desk_summaries["NBPO_SS"]["mean_test"]["f1"]["2"] >= 1.5 * pop


# ---------------------------------------------------------------------------
# 9. Determinism: identical spec + seed give bit-identical metric CSVs.


def test_criterion_09_determinism(tmp_path):
    rng = np.random.default_rng(5)
    mask = rng.random((14, 11)) < 0.5
    table = InteractionTable(14, 11, list(zip(*np.nonzero(mask))))
    ds = split(table, seed=4)

    config = replace(desk_preset(), eta=0.1, batch_size=32, K=4, L=2,
                     rho=2, max_epochs=3, seed=9)

    def csv_bytes(name):
        spec = ExperimentSpec(
            output_dir=str(tmp_path / name),
            dataset="split",
            split_dir=str(tmp_path / "split"),
            method="NBPO_SS",
            config=config,
            repeat_count=2,
        )
        run(spec, dataset=ds)
        return {
            f: (tmp_path / name / f).read_bytes()
            for f in sorted(os.listdir(tmp_path / name))
            if f.endswith(".csv")
        }

    first, second = csv_bytes("run1"), csv_bytes("run2")
    assert first and first == second


# ---------------------------------------------------------------------------
# 10. MovieLens-1M dataset statistics (skipped without data).


@requires_ml1m
def test_criterion_10_movielens_statistics():
    raw = load_movielens(ml1m_path())
    assert len(raw) == 1_000_209
    _, table = binarize_and_index(raw)
    assert table.M == 6_040
    assert table.N == 3_900
    sparsity = 100.0 * (1.0 - len(table.positives) / (table.M * table.N))
    assert round(sparsity, 4) == 95.7535
