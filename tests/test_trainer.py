import itertools
import math

import numpy as np
import pytest

from noisyrec.corpus import InteractionTable, SplitDataset, sorted_unique, split
from noisyrec.experiment import ExperimentSpec
from noisyrec.model import PreferenceParams
from noisyrec.objective import (
    bpo_loglik,
    log_sigmoid,
    nbpo_loglik,
    nbpo_surrogate,
    sigmoid,
    surrogate_coefficients_vec,
)
from noisyrec.trainer import (
    PAIRWISE,
    Batch,
    Optimizer,
    TrainConfig,
    _BatchSampler,
    _point_terms,
    pairwise_step,
    point_step,
    train,
)

from conftest import make_terms, random_params


def make_train_table():
    # 4 users x 6 items with varied degrees
    pairs = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 3), (2, 4), (3, 5)]
    return InteractionTable(4, 6, pairs)


# --------------------------------------------------------------------------
# negative sampling


def test_sample_negatives_single_candidate():
    table = InteractionTable(1, 5, [(0, 0), (0, 1), (0, 2), (0, 3)])
    rng = np.random.default_rng(0)
    assert _BatchSampler(table).sample(np.array([0]), 3, rng).tolist() == [4, 4, 4]


def test_sample_negatives_no_positives_never_errors():
    table = InteractionTable(2, 4, [(1, 0)])
    rng = np.random.default_rng(1)
    out = _BatchSampler(table).sample(np.array([0]), 2, rng)
    assert len(out) == 2 and all(0 <= j < 4 for j in out)


def test_sample_negatives_degenerate_user():
    table = InteractionTable(1, 3, [(0, 0), (0, 1), (0, 2)])
    with pytest.raises(ValueError):
        _BatchSampler(table).sample(np.array([0]), 1, np.random.default_rng(0))


def test_sample_negatives_uniformity():
    table = InteractionTable(1, 100, [(0, j) for j in range(10)])
    rng = np.random.default_rng(2)
    draws = _BatchSampler(table).sample(np.array([0]), 100_000, rng)
    counts = np.bincount(draws, minlength=100)
    assert counts[:10].sum() == 0
    n, p = 100_000, 1 / 90
    sigma = math.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts[10:] - n * p) < 3.5 * sigma)


def test_wbpr_popularity_ratio():
    table = InteractionTable(1, 3, [(0, 0)])
    popularity = np.array([5.0, 1.0, 3.0])
    rng = np.random.default_rng(3)
    draws = _BatchSampler(table, popularity).sample(np.array([0]), 100_000, rng)
    counts = np.bincount(draws, minlength=3)
    assert counts[0] == 0
    assert counts[1] / counts[2] == pytest.approx(1 / 3, rel=0.05)


def test_wbpr_zero_popularity_fallback():
    table = InteractionTable(1, 4, [(0, 0)])
    popularity = np.array([9.0, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(4)
    draws = _BatchSampler(table, popularity).sample(np.array([0]), 3000, rng)
    counts = np.bincount(draws, minlength=4)
    assert counts[0] == 0 and all(c > 0 for c in counts[1:])


def test_wbpr_single_candidate():
    table = InteractionTable(1, 2, [(0, 0)])
    popularity = np.array([1.0, 1.0])
    draws = _BatchSampler(table, popularity).sample(np.array([0]), 4, np.random.default_rng(5))
    assert draws.tolist() == [1, 1, 1, 1]


# --------------------------------------------------------------------------
# steps


def config(**kw):
    defaults = dict(optimizer=Optimizer.NBPO_SS, eta=1.0, rho=1, batch_size=10, K=1, L=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_bpr_step_hand_example():
    theta = PreferenceParams(U=np.array([[1.0]]), V=np.array([[1.0], [0.0]]))
    batch = Batch(
        pos_u=np.array([0]), pos_i=np.array([0]),
        neg_j=np.array([1]),
    )
    pairwise_step(theta, batch, config(optimizer=Optimizer.BPR, eta=1.0))
    c = sigmoid(-1.0)  # 0.26894...
    assert theta.U[0, 0] == pytest.approx(1.0 + c, abs=1e-12)
    assert theta.V[0, 0] == pytest.approx(1.0 + c, abs=1e-12)
    assert theta.V[1, 0] == pytest.approx(0.0 - c, abs=1e-12)


def test_bpo_step_coefficients():
    # positive with score 0 adds 0.5 * V_i to U_u
    theta = PreferenceParams(U=np.array([[0.0, 0.0]]), V=np.array([[1.0, 2.0], [3.0, 4.0]]))
    batch = Batch(
        pos_u=np.array([0]), pos_i=np.array([0]),
        neg_j=np.array([1]),
    )
    cfg = config(optimizer=Optimizer.BPO, eta=1.0, K=2)
    point_step(theta, None, batch, cfg)
    # pos coeff +0.5, neg coeff -0.5 at score 0
    assert np.allclose(theta.U[0], 0.5 * np.array([1.0, 2.0]) - 0.5 * np.array([3.0, 4.0]))


def test_bpo_step_saturated_negative():
    theta = PreferenceParams(U=np.array([[1.0]]), V=np.array([[30.0], [-30.0]]))
    batch = Batch(pos_u=np.array([0]), pos_i=np.array([0]), neg_j=np.array([1]))
    before = theta.U.copy()
    point_step(theta, None, batch, config(optimizer=Optimizer.BPO, eta=1.0))
    # scores are +30 and -30: sigma(-30) ~ 0, positive and negative already settled
    assert np.allclose(theta.U, before, atol=1e-10)


def test_nbpo_ss_step_coefficients():
    rng = np.random.default_rng(6)
    theta, phi = random_params(rng, 3, 3, 2, 2)
    U0, V0, P0, Q0 = theta.U.copy(), theta.V.copy(), phi.P.copy(), phi.Q.copy()
    batch = Batch(
        pos_u=np.array([0]), pos_i=np.array([1]),
        neg_j=np.array([2]),
    )
    eta = 0.1
    cfg = config(optimizer=Optimizer.NBPO_SS, eta=eta, K=2, L=2)
    point_step(theta, phi, batch, cfg)

    def expected_coeffs(label, r, g):
        if label == 1:
            return sigmoid(-g) * sigmoid(-r), -sigmoid(g) * sigmoid(r)
        return -sigmoid(r) + sigmoid(g) * sigmoid(-r), sigmoid(-g) * sigmoid(r)

    r1, g1 = U0[0] @ V0[1], P0[0] @ Q0[1]
    r2, g2 = U0[0] @ V0[2], P0[0] @ Q0[2]
    ct1, cp1 = expected_coeffs(1, r1, g1)
    ct2, cp2 = expected_coeffs(0, r2, g2)
    assert np.allclose(theta.U[0], U0[0] + eta * (ct1 * V0[1] + ct2 * V0[2]), atol=1e-12)
    assert np.allclose(theta.V[1], V0[1] + eta * ct1 * U0[0], atol=1e-12)
    assert np.allclose(phi.P[0], P0[0] + eta * (cp1 * Q0[1] + cp2 * Q0[2]), atol=1e-12)
    assert np.allclose(phi.Q[2], Q0[2] + eta * cp2 * P0[0], atol=1e-12)


def test_nbpo_ss_point_terms_equal_surrogate_coefficients_vec():
    # the step's NBPO_SS coefficients are the ones criterion 02 checks in closed form, bit for bit
    rng = np.random.default_rng(18)
    for _ in range(200):
        m = int(rng.integers(1, 40))
        n = int(rng.integers(0, m + 1))
        r, g = rng.normal(scale=10.0 ** rng.uniform(-1, 3), size=(2, m))
        _, ct, cp = _point_terms(Optimizer.NBPO_SS, r, g, n)
        want_ct, want_cp = surrogate_coefficients_vec(np.arange(m) < n, r, g)
        assert np.array_equal(ct, want_ct) and np.array_equal(cp, want_cp), (m, n)


def test_nbpo_ss_l0_matches_degenerate_closed_form():
    # with no noise embeddings the update uses 0.5*sigma(-r) / 0.5*(1-3*sigma(r))
    rng = np.random.default_rng(7)
    for _ in range(20):
        theta, phi = random_params(rng, 5, 5, 3, 0)
        U0, V0 = theta.U.copy(), theta.V.copy()
        pos_u = rng.integers(0, 5, size=4)
        pos_i = rng.integers(0, 5, size=4)
        neg_j = rng.integers(0, 5, size=4)
        batch = Batch(pos_u=pos_u, pos_i=pos_i, neg_j=neg_j)
        eta = 0.05
        point_step(theta, phi, batch, config(eta=eta, K=3, L=0))

        dU = np.zeros_like(U0)
        dV = np.zeros_like(V0)
        for u, i in zip(pos_u, pos_i):
            r = U0[u] @ V0[i]
            c = 0.5 * sigmoid(-r)
            dU[u] += c * V0[i]
            dV[i] += c * U0[u]
        for u, j in zip(pos_u, neg_j):
            r = U0[u] @ V0[j]
            c = 0.5 * (1 - 3 * sigmoid(r))
            dU[u] += c * V0[j]
            dV[j] += c * U0[u]
        assert np.allclose(theta.U, U0 + eta * dU, atol=1e-12)
        assert np.allclose(theta.V, V0 + eta * dV, atol=1e-12)


def test_vanishing_gradient_contrast():
    # at a badly-scored positive the true surrogate gradient dies, the
    # log-derivative form does not
    r, g = -30.0, 0.0
    true_coeff = sigmoid(-g) * sigmoid(r) * sigmoid(-r)
    ss_coeff = sigmoid(-g) * sigmoid(-r)
    assert true_coeff < 1e-12
    assert ss_coeff == pytest.approx(0.5, abs=1e-10)


def test_step_touches_only_batch_rows():
    rng = np.random.default_rng(8)
    for optimizer in Optimizer:
        theta, phi = random_params(rng, 8, 9, 3, 2)
        U0, V0, P0, Q0 = theta.U.copy(), theta.V.copy(), phi.P.copy(), phi.Q.copy()
        batch = Batch(
            pos_u=np.array([1, 2]), pos_i=np.array([3, 4]),
            neg_j=np.array([5, 6]),
        )
        cfg = config(optimizer=optimizer, eta=0.1, K=3, L=2,
                     lambda_theta=0.2, lambda_phi=0.2)
        if optimizer in (Optimizer.BPR, Optimizer.WBPR):
            pairwise_step(theta, batch, cfg)
        else:
            point_step(theta, phi, batch, cfg)
        touched_u = {1, 2}
        touched_i = {3, 4, 5, 6}
        for u in range(8):
            if u not in touched_u:
                assert np.array_equal(theta.U[u], U0[u])
                assert np.array_equal(phi.P[u], P0[u])
        for i in range(9):
            if i not in touched_i:
                assert np.array_equal(theta.V[i], V0[i])
                assert np.array_equal(phi.Q[i], Q0[i])


def test_balance_positives_scales_positive_update():
    rng = np.random.default_rng(9)
    theta1, _ = random_params(rng, 3, 3, 2, 0)
    theta2 = theta1.copy()
    U0, V0 = theta1.U.copy(), theta1.V.copy()
    batch = Batch(
        pos_u=np.array([0]), pos_i=np.array([0]),
        neg_j=np.array([1, 2]),
    )
    eta = 0.1
    cfg1 = config(optimizer=Optimizer.BPO, eta=eta, rho=2, K=2)
    cfg2 = config(optimizer=Optimizer.BPO, eta=eta, rho=2, K=2, balance_positives=True)
    point_step(theta1, None, batch, cfg1)
    point_step(theta2, None, batch, cfg2)
    # rho=2 doubles the positive-term contribution, negatives are unchanged
    ct_pos = sigmoid(-(U0[0] @ V0[0]))
    assert np.allclose(theta2.U[0] - theta1.U[0], eta * ct_pos * V0[0], atol=1e-12)
    assert np.allclose(theta2.V[1], theta1.V[1], atol=1e-15)


def test_step_objective_matches_scalar_references():
    rng = np.random.default_rng(10)
    theta, phi = random_params(rng, 4, 5, 3, 2)
    pos = [(0, 0), (1, 1), (2, 2)]
    neg = [(0, 3), (1, 4), (2, 3)]
    batch = Batch(
        pos_u=np.array([0, 1, 2]), pos_i=np.array([0, 1, 2]),
        neg_j=np.array([3, 4, 3]),
    )
    terms = make_terms(theta, phi, pos, neg)
    references = {
        Optimizer.BPO: bpo_loglik(terms),
        Optimizer.NBPO_O: nbpo_loglik(terms),
        Optimizer.NBPO_S: nbpo_surrogate(terms),
        Optimizer.NBPO_SS: nbpo_surrogate(terms),
    }
    for optimizer, expected in references.items():
        value = point_step(theta.copy(), phi.copy(), batch, config(optimizer=optimizer, K=3, L=2))
        assert value == pytest.approx(expected, rel=1e-12), optimizer

    x = [theta.U[u] @ theta.V[i] - theta.U[u] @ theta.V[j] for (u, i), (_, j) in zip(pos, neg)]
    value = pairwise_step(theta.copy(), batch, config(optimizer=Optimizer.BPR, K=3))
    assert value == pytest.approx(sum(log_sigmoid(float(v)) for v in x), rel=1e-12)


def test_point_terms_finite_at_saturated_logits():
    grid = np.array([-1e3, -800.0, -40.0, -1.0, 0.0, 1.0, 40.0, 800.0, 1e3])
    r, g = (a.ravel() for a in np.meshgrid(grid, grid))
    for optimizer in Optimizer:
        if optimizer in PAIRWISE:
            continue
        value, *coefficients = _point_terms(optimizer, np.concatenate([r, r]), np.concatenate([g, g]), len(r))
        assert np.isfinite(value), optimizer
        for c in coefficients:
            assert c is None or np.all(np.isfinite(c)), optimizer

    # NBPO_O negative at r=800, g=-800: both mixture parts are ~exp(-800)
    _, ct, cp = _point_terms(Optimizer.NBPO_O, np.array([800.0]), np.array([-800.0]), 0)
    assert ct[0] == pytest.approx(-0.5) and cp[0] == pytest.approx(0.5)

    # pairwise: r_ui - r_uj reaches +-2e3
    for pos_i, neg_j in ((0, 1), (1, 0)):
        theta = PreferenceParams(U=np.array([[1.0]]), V=np.array([[1e3], [-1e3]]))
        batch = Batch(
            pos_u=np.array([0]), pos_i=np.array([pos_i]),
            neg_j=np.array([neg_j]),
        )
        value = pairwise_step(theta, batch, config(optimizer=Optimizer.BPR, eta=0.1))
        assert np.isfinite(value)
        assert np.all(np.isfinite(theta.U)) and np.all(np.isfinite(theta.V))


# reference steps: one 2-D np.add.at per row group, the positive group first, and fresh
# temporaries for every gather and gradient. The steps must match them bit for bit.


def reference_apply_sparse(mat, rows, grad_rows, eta, lam, touched):
    acc = np.zeros((len(touched), mat.shape[1]))
    for r, g in zip(rows, grad_rows):
        np.add.at(acc, np.searchsorted(touched, r), g)
    if lam > 0:
        acc -= lam * mat[touched]
    mat[touched] += eta * acc


def reference_dots(A, rows_a, B, rows_b):
    return np.einsum("ij,ij->i", A[rows_a], B[rows_b])


def reference_point_step(theta, phi, batch, config):
    U, V = theta.U, theta.V
    has_phi = phi is not None and phi.L > 0
    neg_u = np.repeat(batch.pos_u, batch.rho)  # the user of every negative
    r_pos = reference_dots(U, batch.pos_u, V, batch.pos_i)
    r_neg = reference_dots(U, neg_u, V, batch.neg_j)
    if has_phi:
        g_pos = reference_dots(phi.P, batch.pos_u, phi.Q, batch.pos_i)
        g_neg = reference_dots(phi.P, neg_u, phi.Q, batch.neg_j)
    else:
        g_pos = np.zeros_like(r_pos)
        g_neg = np.zeros_like(r_neg)
    n = len(r_pos)
    value, ct, cp = _point_terms(config.optimizer, np.concatenate([r_pos, r_neg]), np.concatenate([g_pos, g_neg]), n)
    ct_pos, ct_neg = ct[:n], ct[n:]
    cp_pos, cp_neg = (None, None) if cp is None else (cp[:n], cp[n:])
    if config.balance_positives:
        ct_pos = ct_pos * config.rho
        if cp_pos is not None:
            cp_pos = cp_pos * config.rho
    touched_u = sorted_unique(np.concatenate([batch.pos_u, neg_u]))
    touched_i = sorted_unique(np.concatenate([batch.pos_i, batch.neg_j]))
    dU_pos = ct_pos[:, None] * V[batch.pos_i]
    dU_neg = ct_neg[:, None] * V[batch.neg_j]
    dV_pos = ct_pos[:, None] * U[batch.pos_u]
    dV_neg = ct_neg[:, None] * U[neg_u]
    if has_phi and cp_pos is not None:
        dP_pos = cp_pos[:, None] * phi.Q[batch.pos_i]
        dP_neg = cp_neg[:, None] * phi.Q[batch.neg_j]
        dQ_pos = cp_pos[:, None] * phi.P[batch.pos_u]
        dQ_neg = cp_neg[:, None] * phi.P[neg_u]
    reference_apply_sparse(U, (batch.pos_u, neg_u), (dU_pos, dU_neg), config.eta, config.lambda_theta, touched_u)
    reference_apply_sparse(V, (batch.pos_i, batch.neg_j), (dV_pos, dV_neg), config.eta, config.lambda_theta, touched_i)
    if has_phi and cp_pos is not None:
        reference_apply_sparse(phi.P, (batch.pos_u, neg_u), (dP_pos, dP_neg), config.eta, config.lambda_phi, touched_u)
        reference_apply_sparse(phi.Q, (batch.pos_i, batch.neg_j), (dQ_pos, dQ_neg), config.eta, config.lambda_phi, touched_i)
    return value


def reference_pairwise_step(theta, batch, config):
    U, V = theta.U, theta.V
    rho = batch.rho
    pu = np.repeat(batch.pos_u, rho)
    pi = np.repeat(batch.pos_i, rho)
    x = reference_dots(U, pu, V, pi) - reference_dots(U, pu, V, batch.neg_j)
    c = sigmoid(-x)
    touched_u = sorted_unique(pu)
    touched_i = sorted_unique(np.concatenate([pi, batch.neg_j]))
    dU = c[:, None] * (V[pi] - V[batch.neg_j])
    dVi = c[:, None] * U[pu]
    dVj = -c[:, None] * U[pu]
    reference_apply_sparse(U, (pu,), (dU,), config.eta, config.lambda_theta, touched_u)
    reference_apply_sparse(V, (pi, batch.neg_j), (dVi, dVj), config.eta, config.lambda_theta, touched_i)
    return float(np.sum(log_sigmoid(x)))


def test_steps_bit_identical_to_reference():
    rng = np.random.default_rng(12)
    M, N, K = 5, 6, 4  # few rows, so users and items repeat within and across the groups
    seen = {"repeat_within": 0, "repeat_across": 0}
    cases = itertools.product(Optimizer, (False, True), (0.0, 0.3), (0, 3), (1, 3))
    for optimizer, balance, lam, L, rho in cases:
        cfg = config(optimizer=optimizer, eta=0.7, rho=rho, K=K, L=L, lambda_theta=lam,
                     lambda_phi=lam, balance_positives=balance)
        theta, phi = random_params(rng, M, N, K, L, scale=1.0)
        ref_theta, ref_phi = theta.copy(), phi.copy()
        for step in range(4):
            n = int(rng.integers(1, 9))
            pos_u = rng.integers(0, M, n)
            batch = Batch(pos_u, rng.integers(0, N, n), rng.integers(0, N, n * rho))
            seen["repeat_within"] += len(np.unique(batch.neg_j)) < len(batch.neg_j)
            seen["repeat_across"] += bool(np.intersect1d(batch.pos_i, batch.neg_j).size)
            if optimizer in PAIRWISE:
                value = pairwise_step(theta, batch, cfg)
                expected = reference_pairwise_step(ref_theta, batch, cfg)
            else:
                value = point_step(theta, phi, batch, cfg)
                expected = reference_point_step(ref_theta, ref_phi, batch, cfg)
            case = (optimizer, balance, lam, L, rho, step)
            assert value == expected, case
            for got, want in ((theta.U, ref_theta.U), (theta.V, ref_theta.V), (phi.P, ref_phi.P), (phi.Q, ref_phi.Q)):
                assert np.array_equal(got, want), case
    assert min(seen.values()) >= 50, seen


# --------------------------------------------------------------------------
# training loop


def make_split():
    pairs = [(u, i) for u in range(6) for i in range(6) if (u + i) % 2 == 0]
    table = InteractionTable(6, 6, pairs)
    return split(table, seed=5)


def test_train_epoch_count_and_history():
    ds = make_split()
    cfg = TrainConfig(optimizer=Optimizer.BPO, eta=0.1, rho=1, batch_size=1000,
                      K=4, max_epochs=3, seed=0)
    hist = train(ds, cfg)
    assert len(hist.epochs) == 3
    assert [rec.epoch for rec in hist.epochs] == [0, 1, 2]
    assert 0 <= hist.best_epoch < 3
    assert hist.best_theta is not None


def test_train_divergence_guard_stops_and_warns(blocky_split):
    # NBPO_SS at a large learning rate: the embedding norms blow up within a few epochs
    cfg = TrainConfig(optimizer=Optimizer.NBPO_SS, eta=2.0, rho=2, batch_size=50,
                      K=4, L=2, max_epochs=30, seed=1, init_scale=0.1)
    with pytest.warns(RuntimeWarning, match=r"NBPO_SS diverged at epoch \d+") as caught:
        hist = train(blocky_split, cfg)
    assert 0 < hist.diverged_at < 30
    assert f"epoch {hist.diverged_at} " in str(caught[-1].message)
    assert [rec.epoch for rec in hist.epochs] == list(range(hist.diverged_at))  # the blown epoch is not kept
    assert np.isfinite([rec.objective for rec in hist.epochs]).all()
    assert hist.best_epoch < hist.diverged_at and np.isfinite(hist.best_theta.U).all()


def test_train_without_divergence_records_none():
    hist = train(make_split(), TrainConfig(optimizer=Optimizer.NBPO_SS, eta=0.1, K=3, L=2, max_epochs=2))
    assert hist.diverged_at is None and len(hist.epochs) == 2


def test_train_determinism():
    ds = make_split()
    cfg = TrainConfig(optimizer=Optimizer.NBPO_SS, eta=0.1, rho=2, batch_size=7,
                      K=3, L=2, max_epochs=4, seed=11)
    h1 = train(ds, cfg)
    h2 = train(ds, cfg)
    assert h1.to_csv_lines() == h2.to_csv_lines()
    assert np.array_equal(h1.best_theta.U, h2.best_theta.U)
    assert np.array_equal(h1.best_phi.P, h2.best_phi.P)


def test_train_all_optimizers_run():
    ds = make_split()
    for optimizer in Optimizer:
        cfg = TrainConfig(optimizer=optimizer, eta=0.1, rho=1, batch_size=16,
                          K=3, L=2, max_epochs=2, seed=1)
        hist = train(ds, cfg)
        assert len(hist.epochs) == 2
        assert np.isfinite(hist.epochs[-1].objective)


def test_wbpr_train_returns_when_user_voted_every_popular_item():
    # item 2 has no train positive, so every item WBPR can draw is voted by user 0
    train_table = InteractionTable(2, 3, [(0, 0), (0, 1), (1, 0)])
    ds = SplitDataset(
        train=train_table,
        validation=InteractionTable(2, 3, [(1, 1)]),
        test=InteractionTable(2, 3, [(0, 2)]),
        seed=0,
    )
    cfg = TrainConfig(optimizer=Optimizer.WBPR, eta=0.1, rho=2, batch_size=2,
                      K=2, max_epochs=2, seed=0)
    hist = train(ds, cfg)
    assert len(hist.epochs) == 2
    assert np.isfinite(hist.epochs[-1].objective)


def test_train_patience_stops_early():
    ds = make_split()
    cfg = TrainConfig(optimizer=Optimizer.BPO, eta=1e-6, rho=1, batch_size=1000,
                      K=2, max_epochs=50, seed=0, patience=2)
    hist = train(ds, cfg)
    assert len(hist.epochs) < 50


def test_train_learns_block_structure(blocky_split):
    cfg = TrainConfig(optimizer=Optimizer.NBPO_SS, eta=0.05, rho=2, batch_size=200,
                      K=8, L=4, max_epochs=15, seed=0, lambda_theta=0.01, lambda_phi=0.01)
    hist = train(blocky_split, cfg)
    first = hist.epochs[0].report.f1[2]
    assert hist.best_f1_at_2() > max(first, 0.05)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(eta=0.0)
    with pytest.raises(ValueError):
        TrainConfig(rho=0)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="NOPE")
    bad = {"max_epochs": 0, "K": 0, "L": -1, "lambda_theta": -0.1, "lambda_phi": -1e-9,
           "patience": -1, "rho": 0, "batch_size": 0, "eta": -0.5, "init_scale": 0.0, "seed": -5}
    for name, value in bad.items():
        with pytest.raises(ValueError, match=rf"^{name} must be .*{value}"):
            TrainConfig(**{name: value})
    for name, value in {"kcore": 0, "split_seed": -1, "knn_neighbors": 0, "repeat_count": 0}.items():
        with pytest.raises(ValueError, match=rf"^{name} must be .*{value}"):
            ExperimentSpec("out", **{name: value})
    with pytest.raises(ValueError, match=r"^init_scale must be positive, got -1.0"):
        TrainConfig(init_scale=-1.0)
    for name in ("eta", "init_scale", "lambda_theta", "lambda_phi"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value}$"):
                TrainConfig(**{name: value})
    TrainConfig(max_epochs=1, K=1, L=0, lambda_theta=0.0, lambda_phi=0.0, patience=0)


def test_train_leaves_no_pairs_cache():
    for optimizer in (Optimizer.NBPO_SS, Optimizer.WBPR):
        ds = make_split()
        train(ds, TrainConfig(optimizer=optimizer, eta=0.1, rho=2, batch_size=5, K=3, L=2, max_epochs=2))
        for table in (ds.train, ds.validation, ds.test):
            assert "pairs" not in table.__dict__, optimizer


def test_effective_l_ignored_for_point_baselines():
    cfg = TrainConfig(optimizer=Optimizer.BPO, L=16)
    assert cfg.effective_L == 0
    cfg = TrainConfig(optimizer=Optimizer.NBPO_SS, L=16)
    assert cfg.effective_L == 16
