import math

import numpy as np
import pytest

from noisyrec.model import NoiseParams, PreferenceParams
from noisyrec.objective import (
    RegSpec,
    SampleTerm,
    bpo_loglik,
    log_sigmoid,
    nbpo_loglik,
    nbpo_lower_bound,
    nbpo_observed_prob,
    nbpo_surrogate,
    sigmoid,
    surrogate_coefficients,
    surrogate_coefficients_vec,
)

from conftest import make_terms, random_params


def term(label, score, noise_logit=0.0):
    return SampleTerm(u=0, i=0, label=label, score=score, noise_logit=noise_logit)


def test_log_sigmoid_values():
    assert log_sigmoid(0.0) == pytest.approx(-math.log(2), abs=1e-12)
    assert log_sigmoid(-100.0) == pytest.approx(-100.0, abs=1e-6)
    # high-precision value of -ln(1 + e^-100)
    assert log_sigmoid(100.0) == pytest.approx(-3.7200759760208356e-44, abs=1e-50)


def test_log_sigmoid_stable_to_1000():
    xs = np.linspace(-1000, 1000, 4001)
    vals = log_sigmoid(xs)
    assert np.all(np.isfinite(vals))
    # -ln(1 + e^-1000) underflows to -0.0, which is the correct asymptote
    assert np.all(vals <= 0)


def masked_sigmoid(x):
    # the array path before it became branch-free: each branch on its own masked subset
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def masked_log_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = -np.log1p(np.exp(-x[pos]))
    out[~pos] = x[~pos] - np.log1p(np.exp(x[~pos]))
    return out


def test_array_paths_bit_identical_to_masked_formulas():
    special = [0.0, 5e-324, 2.2e-308, 1e-310, 36.7, 709.0, 745.0, 1e3, 1e308, np.inf]
    special = np.array(special + [-v for v in special])
    rng = np.random.default_rng(17)
    draws = [rng.normal(0, scale, 100_000) for scale in (1e-3, 1.0, 10.0, 40.0, 800.0)]
    for x in [special, *draws]:
        for fast, ref in ((sigmoid, masked_sigmoid), (log_sigmoid, masked_log_sigmoid)):
            got, want = fast(x), ref(x)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), fast.__name__
    for fast in (sigmoid, log_sigmoid):
        assert np.isnan(fast(np.array([np.nan, 1.0, -np.nan]))).tolist() == [True, False, True]


def test_sigmoid_complement_identity():
    for x in np.linspace(-50, 50, 1001):
        assert abs(sigmoid(x) + sigmoid(-x) - 1.0) <= 1e-15


def test_log_sigmoid_exp_complement():
    for x in np.linspace(-30, 30, 601):
        a, b = log_sigmoid(x), log_sigmoid(-x)
        assert abs(math.exp(a) + math.exp(b) - 1.0) <= 1e-12


def test_bpo_loglik_single_terms():
    assert bpo_loglik([term(1, 0.0)]) == pytest.approx(-0.693147, abs=1e-6)
    assert bpo_loglik([term(1, 0.0), term(0, 0.0)]) == pytest.approx(-1.386294, abs=1e-6)


def test_bpo_loglik_penalty():
    theta = PreferenceParams(U=np.zeros((1, 2)), V=np.zeros((1, 2)))
    theta.U[0, 0] = 3.0
    base = bpo_loglik([term(1, 0.0)])
    reg = bpo_loglik([term(1, 0.0)], theta, RegSpec(lambda_theta=2.0))
    assert reg - base == pytest.approx(-9.0, abs=1e-12)


def test_nbpo_observed_prob_values():
    assert nbpo_observed_prob(term(1, 0.0, 0.0)) == pytest.approx(0.25, abs=1e-12)
    assert nbpo_observed_prob(term(0, 0.0, 0.0)) == pytest.approx(0.75, abs=1e-12)


def test_nbpo_observed_prob_zero_flip_limit():
    # flip logit -> -inf: the negative factor degenerates to sigma(-score)
    for r in (-2.0, 0.0, 1.5):
        assert nbpo_observed_prob(term(0, r, -40.0)) == pytest.approx(sigmoid(-r), abs=1e-12)


def test_nbpo_loglik_values():
    assert nbpo_loglik([term(1, 0.0, 0.0)]) == pytest.approx(math.log(0.25), abs=1e-9)
    assert nbpo_loglik([term(0, 0.0, 0.0)]) == pytest.approx(math.log(0.75), abs=1e-9)


def test_nbpo_limit_reduction_to_bpo():
    rng = np.random.default_rng(0)
    theta, phi = random_params(rng, 4, 4, 3, 2)
    pos = [(0, 1), (1, 2), (3, 0)]
    neg = [(0, 2), (2, 3)]
    terms = make_terms(theta, phi, pos, neg)
    shifted = [
        SampleTerm(t.u, t.i, t.label, t.score, -30.0) for t in terms
    ]
    reg = RegSpec(lambda_theta=0.3, lambda_phi=0.7)
    diff = nbpo_loglik(shifted, theta, phi, reg) - bpo_loglik(shifted, theta, reg)
    assert diff == pytest.approx(-0.5 * reg.lambda_phi * phi.sq_norm(), abs=1e-9)


def test_lower_bound_single_values():
    lb = nbpo_lower_bound([term(0, 0.0, 0.0)])
    assert lb == pytest.approx(math.log(0.5) + math.log(0.25), abs=1e-9)
    assert lb <= math.log(0.75)
    # positive terms pass through unchanged
    assert nbpo_lower_bound([term(1, 0.3, -0.2)]) == pytest.approx(
        nbpo_loglik([term(1, 0.3, -0.2)]), abs=1e-12
    )


def test_lower_bound_property():
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        t = term(int(rng.integers(0, 2)), rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert nbpo_lower_bound([t]) <= nbpo_loglik([t]) + 1e-12


def test_surrogate_values():
    assert nbpo_surrogate([term(1, 0.0, 0.0)]) == pytest.approx(0.25, abs=1e-12)
    assert nbpo_surrogate([term(0, 0.0, 0.0)]) == pytest.approx(0.75, abs=1e-12)


def test_surrogate_saturation():
    terms = [term(0, -40.0, 0.0) for _ in range(5)]
    assert nbpo_surrogate(terms) == pytest.approx(5.0, abs=1e-9)


def test_surrogate_coefficient_values():
    assert surrogate_coefficients(term(1, 0.0, 0.0)) == pytest.approx((0.25, -0.25), abs=1e-12)
    assert surrogate_coefficients(term(0, 0.0, 0.0)) == pytest.approx((-0.25, 0.25), abs=1e-12)


def test_surrogate_coefficient_stationary_negative():
    # negative-term coefficient vanishes where sigma(score) = 1/3
    r = math.log(0.5)
    c_theta, _ = surrogate_coefficients(term(0, r, 0.0))
    assert abs(c_theta) <= 1e-15


def test_degenerate_coefficients_match_closed_form():
    # with zero flip logit: positive 0.5 * sigma(-r), negative 0.5 * (1 - 3 sigma(r))
    rng = np.random.default_rng(2)
    for _ in range(1000):
        r = rng.uniform(-5, 5)
        ct_pos, _ = surrogate_coefficients(term(1, r, 0.0))
        ct_neg, _ = surrogate_coefficients(term(0, r, 0.0))
        assert abs(ct_pos - 0.5 * sigmoid(-r)) <= 1e-15
        assert abs(ct_neg - 0.5 * (1 - 3 * sigmoid(r))) <= 1e-15


def test_vectorized_coefficients_match_scalar():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 2, size=200)
    rs = rng.uniform(-4, 4, size=200)
    gs = rng.uniform(-4, 4, size=200)
    ct, cp = surrogate_coefficients_vec(labels, rs, gs)
    for n in range(200):
        st, sp = surrogate_coefficients(term(int(labels[n]), rs[n], gs[n]))
        assert abs(ct[n] - st) <= 1e-15 and abs(cp[n] - sp) <= 1e-15


def test_regspec_rejects_negative():
    with pytest.raises(ValueError):
        RegSpec(lambda_theta=-1.0)


def test_sample_term_label_validation():
    with pytest.raises(ValueError):
        SampleTerm(0, 0, 2, 0.0)


@pytest.mark.parametrize("labels", [[2, -1, 0], [0, 1, 0.5], [1, 0, np.nan]])
def test_vectorized_coefficients_reject_labels_outside_0_1(labels):
    # 2 and -1 were taken as negatives with no error, unlike SampleTerm
    with pytest.raises(ValueError, match=r"label must be 0 or 1, got (2|0\.5|nan)$"):
        surrogate_coefficients_vec(labels, [0.1, 0.2, 0.3], [0.0, 0.0, 0.0])

