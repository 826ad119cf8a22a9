from dataclasses import dataclass

import numpy as np
import pytest

from noisyrec.corpus import InteractionTable, SplitDataset, split
from noisyrec.model import NoiseParams, PreferenceParams
from noisyrec.objective import SampleTerm, sigmoid


def random_table(rng, M=None, N=None, density=0.3) -> InteractionTable:
    M = M or int(rng.integers(3, 12))
    N = N or int(rng.integers(3, 12))
    mask = rng.random((M, N)) < density
    pairs = list(zip(*np.nonzero(mask)))
    return InteractionTable(M, N, pairs)


def random_params(rng, M, N, K, L, scale=0.5):
    theta = PreferenceParams(
        U=rng.normal(0, scale, (M, K)), V=rng.normal(0, scale, (N, K))
    )
    phi = NoiseParams(P=rng.normal(0, scale, (M, L)), Q=rng.normal(0, scale, (N, L)))
    return theta, phi


def make_terms(theta, phi, pos_pairs, neg_pairs):
    """SampleTerms with scores/logits read from the current parameters."""
    terms = []
    for label, pairs in ((1, pos_pairs), (0, neg_pairs)):
        for u, i in pairs:
            r = float(theta.U[u] @ theta.V[i])
            g = float(phi.P[u] @ phi.Q[i]) if phi.L > 0 else 0.0
            terms.append(SampleTerm(u=u, i=i, label=label, score=r, noise_logit=g))
    return terms


def fd_gradient(objective, mat, rel_step=1e-6):
    """Central finite differences of objective() w.r.t. every entry of mat."""
    grad = np.zeros_like(mat)
    it = np.nditer(mat, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = mat[idx]
        h = rel_step * (1.0 + abs(orig))
        mat[idx] = orig + h
        fp = objective()
        mat[idx] = orig - h
        fm = objective()
        mat[idx] = orig
        grad[idx] = (fp - fm) / (2 * h)
    return grad


@pytest.fixture
def blocky_split() -> SplitDataset:
    """Two user/item communities with dense in-block interactions."""
    rng = np.random.default_rng(7)
    M, N = 40, 30
    pairs = set()
    for u in range(M):
        block = 0 if u < M // 2 else 1
        items = range(0, N // 2) if block == 0 else range(N // 2, N)
        for i in items:
            if rng.random() < 0.7:
                pairs.add((u, i))
        # a little cross-block noise
        for i in range(N):
            if rng.random() < 0.03:
                pairs.add((u, i))
    table = InteractionTable(M, N, pairs)
    return split(table, seed=3)


@dataclass
class PlantedSplit:
    """A split observed through planted flips, with the truth it was drawn from (each (M, N))."""

    split: SplitDataset
    preference: np.ndarray  # true preference logits
    flip: np.ndarray  # flip logits g: a true positive is hidden with probability sigma(g)
    hidden: np.ndarray  # the true positives that were hidden (observed as 0)


def planted_split(seed, M=600, N=400, rank=6, flip_rank=2, positive_share=0.05, split_seed=0) -> PlantedSplit:
    """Seeded planted data: the top positive_share of noisy preference logits are true positives.

    The preference logit is a rank-`rank` product times 2 plus an item-popularity
    term (0.5 x a normal draw per item); logistic noise on it picks the true
    positives. Each is hidden with probability sigma(g), g an independent
    rank-`flip_rank` logit of mean 0, and the rest are split 80/10/10.
    """
    rng = np.random.default_rng(seed)
    preference = 2 * (rng.normal(size=(M, rank)) @ rng.normal(size=(rank, N)))
    preference += 0.5 * rng.normal(size=N)
    noisy = preference + rng.logistic(size=(M, N))
    true = noisy >= np.quantile(noisy, 1 - positive_share)
    flip = rng.normal(size=(M, flip_rank)) @ rng.normal(size=(flip_rank, N))
    hidden = true & (rng.random((M, N)) < sigmoid(flip))
    observed = InteractionTable(M, N, np.argwhere(true & ~hidden))
    return PlantedSplit(split(observed, seed=split_seed), preference, flip, hidden)
