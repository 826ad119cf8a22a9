"""Seeded synthetic inputs for the benchmark, generated with numpy only.

Two data sets, both a pure function of the seed and the size:

* an ML-1M-shaped split (users x items, Zipf item popularity times a
  per-user genre mixture, every user at degree >= 20), written as the
  ``train.txt``/``valid.txt``/``test.txt`` files ``noisyrec.corpus.load_split``
  reads;
* an Amazon-like raw review file (JSON lines with ``reviewerID``/``asin``/
  ``overall``): Zipf item popularity, one genre per user, a fifth of the
  users active and the rest with 1-3 reviews. ``experiment.prepare`` parses,
  binarizes, 5-cores and splits it; the 5-core keeps about a sixth of the
  users and 40% of the items.

Nothing here imports the package: the program only ever sees the files.

    python3 bench/gen.py --seed 1 --out DIR [--size bench|tiny|full] [--only ml|amazon]
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MlShape:
    M: int = 6040
    N: int = 3706
    genres: int = 18
    min_degree: int = 20
    mean_extra: float = 68.0  # mean degree above the minimum (lognormal)
    max_degree: int = 1500
    zipf: float = 0.8


@dataclass(frozen=True)
class AmazonShape:
    users: int = 60000
    items: int = 25000
    genres: int = 40
    active_share: float = 0.2  # users with many reviews; the rest review 1-3 times
    active_mean: float = 17.0
    item_zipf: float = 0.82
    in_genre: float = 0.8  # share of a user's reviews drawn from their genre


# "full" is the shape of MovieLens-1M and of a 5-core Amazon category; "bench"
# halves ML-1M on each side (same density and skew) and shrinks the Amazon set
# to about a third on each side, so one main flow takes 8-15 s and a run fits
# at least two of them in the benchmark's time budget; "tiny" is for the
# smoke test.
SIZES = {
    "full": (MlShape(), AmazonShape()),
    "bench": (MlShape(M=3020, N=1853, mean_extra=23.0), AmazonShape(users=20000, items=8000)),
    "tiny": (MlShape(M=300, N=200, genres=6, mean_extra=10.0, max_degree=120),
             AmazonShape(users=1500, items=500, genres=6)),
}


def _shape_rng():
    """The stream that draws the user-degree multiset, the same for every seed.

    The seed decides which user gets which degree and what everyone rates;
    a fixed multiset keeps the amount of work (positives, and which users and
    items survive the 5-core) from moving with the seed.
    """
    return np.random.default_rng(0)


def _zipf_weights(n: int, exponent: float, rng) -> np.ndarray:
    """Zipf weights over n ids, assigned to ids in a random order."""
    w = 1.0 / np.arange(1, n + 1, dtype=float) ** exponent
    return w[rng.permutation(n)]


def _genres(weights: np.ndarray, genres: int) -> np.ndarray:
    """Genres dealt out in popularity order, so each gets the same popularity profile.

    Random genres would let a seed put the head items in one genre and move
    every quality metric with it.
    """
    out = np.empty(len(weights), dtype=np.int64)
    out[np.argsort(-weights, kind="stable")] = np.arange(len(weights)) % genres
    return out


def ml_positives(shape: MlShape, seed: int) -> np.ndarray:
    """Sorted (user, item) positives as an (n, 2) int64 array."""
    rng = np.random.default_rng([seed, 1])
    pop = _zipf_weights(shape.N, shape.zipf, rng)
    item_genre = _genres(pop, shape.genres)
    mixture = rng.dirichlet(np.full(shape.genres, 0.3), size=shape.M)
    extra = _shape_rng().lognormal(np.log(shape.mean_extra) - 0.5, 1.0, size=shape.M)
    degree = np.minimum(shape.min_degree + extra.astype(np.int64), min(shape.max_degree, shape.N))
    degree = degree[rng.permutation(shape.M)]
    log_pop = np.log(pop)
    rows = []
    block = 256
    for start in range(0, shape.M, block):
        users = np.arange(start, min(start + block, shape.M))
        # Gumbel top-k: sampling without replacement with weight pop * taste
        taste = 0.05 + mixture[users][:, item_genre]
        keys = log_pop + np.log(taste) + rng.gumbel(size=(len(users), shape.N))
        order = np.argsort(-keys, axis=1)
        for row, u in enumerate(users):
            items = np.sort(order[row, : degree[u]])
            rows.append(np.column_stack([np.full(len(items), u), items]))
    return np.concatenate(rows).astype(np.int64)


def split_positives(pairs: np.ndarray, seed: int, ratios=(0.8, 0.1, 0.1)):
    """80/10/10 shuffle split; held-out pairs with a cold user or item are pruned."""
    rng = np.random.default_rng([seed, 2])
    shuffled = pairs[rng.permutation(len(pairs))]
    n_val = int(ratios[1] * len(pairs))
    n_test = int(ratios[2] * len(pairs))
    n_train = len(pairs) - n_val - n_test
    train = shuffled[:n_train]
    warm_u = np.zeros(pairs[:, 0].max() + 1, dtype=bool)
    warm_i = np.zeros(pairs[:, 1].max() + 1, dtype=bool)
    warm_u[train[:, 0]] = True
    warm_i[train[:, 1]] = True

    def prune(part):
        keep = warm_u[part[:, 0]] & warm_i[part[:, 1]]
        return part[keep]

    val = prune(shuffled[n_train : n_train + n_val])
    test = prune(shuffled[n_train + n_val :])
    return train, val, test


def _sorted(pairs: np.ndarray) -> np.ndarray:
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def write_split(directory: str, M: int, N: int, seed: int, parts) -> None:
    """The plain-text split format: header "M N seed", then u<TAB>i per line."""
    os.makedirs(directory, exist_ok=True)
    for name, pairs in zip(("train", "valid", "test"), parts):
        body = "".join(f"{u}\t{i}\n" for u, i in _sorted(pairs).tolist())
        with open(os.path.join(directory, f"{name}.txt"), "w", encoding="utf-8") as fh:
            fh.write(f"{M} {N} {seed}\n")
            fh.write(body)


def write_ml_split(directory: str, seed: int, shape: MlShape) -> None:
    pairs = ml_positives(shape, seed)
    write_split(directory, shape.M, shape.N, seed, split_positives(pairs, seed))


def amazon_reviews(shape: AmazonShape, seed: int) -> np.ndarray:
    """(user, item, rating) review rows in file order, duplicates included."""
    rng = np.random.default_rng([seed, 3])
    shape_rng = _shape_rng()
    active = np.arange(shape.users) < round(shape.active_share * shape.users)
    degree = np.where(
        active,
        1 + shape_rng.geometric(1.0 / shape.active_mean, size=shape.users),
        shape_rng.integers(1, 4, size=shape.users),
    )[rng.permutation(shape.users)]
    users = rng.permutation(np.repeat(np.arange(shape.users), degree))
    n = len(users)
    item_w = _zipf_weights(shape.items, shape.item_zipf, rng)
    item_genre = _genres(item_w, shape.genres)
    user_genre = rng.integers(0, shape.genres, size=shape.users)
    # global draws by popularity; in-genre draws from that genre's items by popularity
    items = rng.choice(shape.items, size=n, p=item_w / item_w.sum())
    in_genre = rng.random(n) < shape.in_genre
    by_genre = np.argsort(item_genre, kind="stable")
    bounds = np.searchsorted(item_genre[by_genre], np.arange(shape.genres + 1))
    cum = np.cumsum(item_w[by_genre])
    cum0 = np.concatenate([[0.0], cum])
    g = user_genre[users[in_genre]]
    lo, hi = cum0[bounds[g]], cum0[bounds[g + 1]]
    target = lo + rng.random(len(g)) * (hi - lo)
    pick = np.minimum(np.searchsorted(cum, target, side="right"), bounds[g + 1] - 1)
    items[in_genre] = by_genre[pick]
    ratings = rng.integers(1, 6, size=n)
    return np.column_stack([users, items, ratings]).astype(np.int64)


def write_amazon_raw(path: str, seed: int, shape: AmazonShape) -> None:
    rows = amazon_reviews(shape, seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(
            f'{{"reviewerID": "A{u:07X}", "asin": "B{i:09d}", "overall": {r}.0}}\n'
            for u, i, r in rows.tolist()
        ))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--size", choices=sorted(SIZES), default="bench")
    p.add_argument("--only", choices=("ml", "amazon"), help="write one data set only")
    args = p.parse_args(argv)
    ml, amazon = SIZES[args.size]
    os.makedirs(args.out, exist_ok=True)
    if args.only in (None, "ml"):
        write_ml_split(os.path.join(args.out, "ml"), args.seed, ml)
    if args.only in (None, "amazon"):
        write_amazon_raw(os.path.join(args.out, "amazon.jsonl"), args.seed, amazon)


if __name__ == "__main__":
    main()
