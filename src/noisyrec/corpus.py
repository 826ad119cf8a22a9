"""Dataset ingestion: raw rating files -> binarized, k-core filtered, split tables."""

from __future__ import annotations

import itertools
import json
import operator
import os
import re
from collections.abc import Set
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np


class ParseError(ValueError):
    """Raised for malformed input lines; carries the 1-based line number."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of non-negative ints, by sort-and-mask (~60x faster than numpy's unique on 2.4).

    Strictly increasing input, such as the codes of a split file's rows, is
    returned as it is, unsorted and uncopied.
    """
    if np.all(values[1:] > values[:-1]):
        return values
    values = np.sort(values)
    return values[np.diff(values, prepend=-1) > 0]


def dense_index(rows: np.ndarray, n: int):
    """numpy's unique(rows, return_inverse=True) for rows in range(n), from n flags and no sort."""
    seen = np.zeros(n, dtype=bool)
    seen[rows] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[rows]


def _int_objects(values: np.ndarray, n: int) -> list:
    """values (each in 0..n-1) as Python ints, one shared int object per value.

    tolist() alone makes a new int object per element: on a 100k-pair table
    that put `per_user` at 3.5 MB of RSS, against 1.1 MB shared.
    """
    ints = list(range(n))
    return [ints[v] for v in values.tolist()]


def _contains(codes: np.ndarray, M: int, N: int, users, items):
    """Whether each pair's code u * N + i is among the sorted codes; int or bool arrays or scalars. False off M x N."""
    users, items = np.asarray(users), np.asarray(items)
    for name, values in (("users", users), ("items", items)):
        if values.size and values.dtype.kind not in "biu":
            raise ValueError(f"{name} must be ints, got dtype {values.dtype}")  # a cast would truncate floats
    users, items = users.astype(np.int64, copy=False), items.astype(np.int64, copy=False)
    q = users * N + items
    if not len(codes):
        return np.zeros(np.shape(q), dtype=bool)
    at = np.minimum(np.searchsorted(codes, q), len(codes) - 1)
    return (codes[at] == q) & (users >= 0) & (users < M) & (items >= 0) & (items < N)  # u * N wraps for a far-off user


class PairSet(Set):
    """Read-only set of the (user, item) pairs behind sorted, unique codes u*N + i.

    Holds no Python objects per pair: membership is a binary search, and
    iteration yields tuples of Python ints in ascending order, a chunk at a
    time. Equal to, and hashed like, the frozenset of the same pairs; set
    operators return frozensets.
    """

    _CHUNK = 1 << 14  # codes decoded per step of iteration

    def __init__(self, codes: np.ndarray, M: int, N: int):
        self._codes, self._M, self._N = codes, M, N

    def __contains__(self, pair) -> bool:
        try:
            u, i = map(operator.index, pair)  # ints, numpy ints and bools; nothing else
        except (TypeError, ValueError):
            return False
        return 0 <= u < self._M and 0 <= i < self._N and bool(_contains(self._codes, self._M, self._N, u, i))

    def __iter__(self):
        for lo in range(0, len(self._codes), self._CHUNK):
            users, items = np.divmod(self._codes[lo : lo + self._CHUNK], self._N)
            yield from zip(users.tolist(), items.tolist())

    def __len__(self) -> int:
        return len(self._codes)

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)

    __hash__ = Set._hash


class InteractionTable:
    """Sparse binary observation matrix of (user, item) positives, in CSR form.

    Stores the sorted, unique int64 codes u*N + i of the positives and the row
    bounds ``indptr``: user u's items are ``codes[indptr[u]:indptr[u + 1]] - u*N``.
    ``pairs`` and the degrees are derived from these on each use; ``per_user``
    and the ``positives`` set view on first use, and kept.
    """

    def __init__(self, M: int, N: int, pairs):
        self.M = int(M)
        self.N = int(N)
        if self.M < 0 or self.N < 0:
            raise ValueError(f"table shape {self.M}x{self.N} has a negative side")
        arr = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs))
        if arr.size and arr.dtype.kind not in "iu":  # a cast would truncate floats and read bools as 0/1
            raise ValueError(f"pairs must be ints, got dtype {arr.dtype}")
        if arr.size and (arr.ndim != 2 or arr.shape[1] != 2):
            raise ValueError(f"pairs must be (user, item) rows, got shape {arr.shape}")
        u, i = arr.reshape(-1, 2).T
        if arr.size and (arr.min() < 0 or u.max() >= self.M or i.max() >= self.N):  # then find the first bad pair
            bad = (u < 0) | (u >= self.M) | (i < 0) | (i >= self.N)
            raise ValueError(f"pair ({u[bad][0]}, {i[bad][0]}) out of range for {self.M}x{self.N}")
        u, i = arr.reshape(-1, 2).astype(np.int64, copy=False).T  # after the check: a uint64 past int64 wraps
        self.codes = sorted_unique(u * self.N + i)
        self.indptr = np.searchsorted(self.codes, np.arange(self.M + 1) * self.N)

    def contains(self, users, items):
        """Whether each (users, items) pair is a positive, for arrays, lists or scalars; a pair off the table is not."""
        return _contains(self.codes, self.M, self.N, users, items)

    def dense_rows(self, lo: int, hi: int) -> np.ndarray:
        """Users lo..hi-1 as a dense (hi - lo, N) boolean block."""
        block = np.zeros((hi - lo, self.N), dtype=bool)
        block.flat[self.codes[self.indptr[lo] : self.indptr[hi]] - lo * self.N] = True
        return block

    @property
    def pairs(self) -> np.ndarray:
        """(n, 2) int64 (user, item) rows in ascending order."""
        return np.column_stack(np.divmod(self.codes, self.N))

    @cached_property
    def positives(self) -> PairSet:
        """The (user, item) pairs as a read-only set of Python-int tuples."""
        return PairSet(self.codes, self.M, self.N)

    @cached_property
    def per_user(self) -> list:
        """Ascending item lists, one per user."""
        flat, bounds = _int_objects(self.codes % self.N, self.N), self.indptr.tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]

    def __len__(self):
        return len(self.codes)

    def __eq__(self, other):
        return (
            isinstance(other, InteractionTable)
            and self.M == other.M
            and self.N == other.N
            and np.array_equal(self.codes, other.codes)
        )

    def user_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def item_degrees(self) -> np.ndarray:
        return np.bincount(self.codes % self.N, minlength=self.N)


@dataclass
class SplitDataset:
    train: InteractionTable
    validation: InteractionTable
    test: InteractionTable
    seed: int


def load_movielens(path) -> list[tuple[str, str]]:
    """Parse a MovieLens "::"-separated ratings file into (user_key, item_key) rows.

    Every nonblank line is one row, in file order. A line holds four fields:
    non-empty user and item keys, a rating float() accepts and an int()
    timestamp; the rating and timestamp are checked, then dropped. Repeated
    keys share one str object.
    """
    out, keys = [], {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("::")
            if len(fields) != 4:
                raise ParseError(path, lineno, f"expected 4 '::'-separated fields, got {len(fields)}")
            user, item, rating, ts = fields
            try:
                float(rating), int(ts)
            except ValueError as exc:
                raise ParseError(path, lineno, str(exc)) from exc
            if not (user and item):
                raise ParseError(path, lineno, f"empty user or item key in {line!r}")
            out.append((keys.setdefault(user, user), keys.setdefault(item, item)))
    return out


def load_amazon_reviews(path) -> list[tuple[str, str]]:
    """Parse a one-JSON-object-per-line review file into (user_key, item_key) rows.

    Every nonblank line is one row, in file order. A line must be a JSON object
    with non-empty string fields "reviewerID" and "asin" and an "overall" that
    float() accepts; the rating is checked, then dropped. Repeated keys share
    one str object.
    """
    # raw_decode is json.loads without its whitespace scans and type checks; on a
    # stripped line both accept the same text once the object must end the line
    decode = json.JSONDecoder().raw_decode
    out, keys = [], {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = decode(line)
                user, item = obj["reviewerID"], obj["asin"]
                float(obj["overall"])
            except (ValueError, KeyError, TypeError, OverflowError, RecursionError):
                end = -1
            if end != len(line) or type(user) is not str or type(item) is not str or not (user and item):
                raise ParseError(path, lineno, _review_error(line))
            out.append((keys.setdefault(user, user), keys.setdefault(item, item)))
    return out


def _review_error(line: str) -> str:
    """Why load_amazon_reviews rejects a stripped line: its checks again, in order."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        return f"invalid JSON: {exc}"
    if not isinstance(obj, dict):
        return f"expected a JSON object, got {type(obj).__name__}"
    for field in ("reviewerID", "asin", "overall"):
        if field not in obj:
            return f"missing field {field!r}"
    try:
        float(obj["overall"])
    except (TypeError, ValueError, OverflowError) as exc:
        return f"bad 'overall' {obj['overall']!r}: {exc}"
    return f"reviewerID and asin must be non-empty strings, got {obj['reviewerID']!r} and {obj['asin']!r}"


def binarize_and_index(raw: Sequence[tuple[str, str]]):
    """Collapse (user_key, item_key) rows to binary positives; indices in first-appearance order.

    Returns ((user_keys, item_keys), table): the key lists give each index its key.
    """
    user_index, item_index = {}, {}  # dicts keep first-insertion order
    users = np.fromiter((user_index.setdefault(u, len(user_index)) for u, _ in raw),
                        dtype=np.int64, count=len(raw))
    items = np.fromiter((item_index.setdefault(i, len(item_index)) for _, i in raw),
                        dtype=np.int64, count=len(raw))
    table = InteractionTable(len(user_index), len(item_index), np.column_stack((users, items)))
    return (list(user_index), list(item_index)), table


def kcore_filter(table: InteractionTable, k: int) -> InteractionTable:
    """Iteratively drop users/items with degree < k until a fixed point.

    Surviving users/items are reindexed densely, preserving relative order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pairs = table.pairs
    while True:
        u, i = pairs[:, 0], pairs[:, 1]
        keep = (np.bincount(u)[u] >= k) & (np.bincount(i)[i] >= k)
        if keep.all():
            break
        pairs = pairs[keep]
    keep_u, new_u = dense_index(pairs[:, 0], table.M)
    keep_i, new_i = dense_index(pairs[:, 1], table.N)
    return InteractionTable(len(keep_u), len(keep_i), np.column_stack((new_u, new_i)))


def split(table: InteractionTable, seed: int = 0) -> SplitDataset:
    """Shuffle positives and partition them 80/10/10 into train/validation/test, then prune cold pairs.

    Validation and test take floor(0.1 * |positives|) pairs each; train takes
    the remainder. Validation/test pairs whose user or item has no train
    positive are removed. Train is never pruned.
    """
    # the rows rng.shuffle would give, without its slow row-by-row swaps
    pairs = table.pairs[np.random.default_rng(seed).permutation(len(table))]
    cut = int(0.1 * len(pairs))  # the validation size, and the test size
    train_pairs, val_pairs, test_pairs = np.split(pairs, [len(pairs) - 2 * cut, len(pairs) - cut])

    warm_u = np.bincount(train_pairs[:, 0], minlength=table.M) > 0
    warm_i = np.bincount(train_pairs[:, 1], minlength=table.N) > 0

    def prune(ps):
        return ps[warm_u[ps[:, 0]] & warm_i[ps[:, 1]]]

    return SplitDataset(
        train=InteractionTable(table.M, table.N, train_pairs),
        validation=InteractionTable(table.M, table.N, prune(val_pairs)),
        test=InteractionTable(table.M, table.N, prune(test_pairs)),
        seed=seed,
    )


def write_text(path, parts):
    """Write an iterable of strings to path + ".tmp", then os.replace it over path.

    path is replaced whole: an exception on the way removes the temporary file and
    leaves path's old bytes, or no file. A symlink at path becomes a regular file.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


_WRITE_ROWS = 1 << 16  # rows formatted by one "%d\t%d\n" template


def save_split(dataset: SplitDataset, directory):
    """Write train/valid/test files: header "M N seed", then one u<TAB>i per positive."""
    os.makedirs(directory, exist_ok=True)
    for name, table in (("train", dataset.train), ("valid", dataset.validation), ("test", dataset.test)):
        codes = (table.codes[lo : lo + _WRITE_ROWS] for lo in range(0, len(table), _WRITE_ROWS))
        chunks = (("%d\t%d\n" * len(c)) % tuple(np.column_stack(np.divmod(c, table.N)).ravel().tolist())
                  for c in codes)
        write_text(os.path.join(directory, f"{name}.txt"),
                   itertools.chain([f"{table.M} {table.N} {dataset.seed}\n"], chunks))


_ROW = re.compile(r"-?[0-9]+\t-?[0-9]+")


def _read_table(path, first=None):
    """One split file as (table, header); a malformed line raises ParseError naming it.

    first: (path, header) of a file whose "M N seed" header this one must repeat.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header, body = fh.readline(), fh.read()
    try:
        M, N, seed = (int(f) for f in header.split())
        if min(M, N, seed) < 0:
            raise ValueError
    except ValueError:
        raise ParseError(path, 1, f"expected header 'M N seed' of ints >= 0, got {header.rstrip()!r}") from None
    if first is not None and (M, N, seed) != first[1]:
        raise ParseError(path, 1, f"header (M, N, seed) {(M, N, seed)} differs from {first[1]} in {first[0]}")
    # numpy parses the rows from the file itself (it warns on an empty body, so
    # that one is not passed); when it or the table rejects them, the scan of
    # the text names the first malformed or out-of-range line
    try:
        rows = []
        if body.strip():
            rows = np.loadtxt(path, np.int64, delimiter="\t", comments=None, skiprows=1,
                              encoding="utf-8", ndmin=2)
        return InteractionTable(M, N, rows), (M, N, seed)
    except ValueError:
        for lineno, line in enumerate(body.splitlines(), start=2):
            if not _ROW.fullmatch(line):
                raise ParseError(path, lineno, f"expected two tab-separated ints, got {line!r}") from None
            u, i = (int(f) for f in line.split("\t"))
            if not (0 <= u < M and 0 <= i < N):
                raise ParseError(path, lineno, f"pair ({u}, {i}) out of range for {M}x{N}") from None
        raise


def load_split(directory) -> SplitDataset:
    """Read the train/valid/test files save_split writes; their headers must agree."""
    tables, first = {}, None
    for name in ("train", "valid", "test"):
        path = os.path.join(directory, f"{name}.txt")
        tables[name], header = _read_table(path, first)
        first = first or (path, header)
    return SplitDataset(
        train=tables["train"], validation=tables["valid"], test=tables["test"], seed=header[2]
    )
