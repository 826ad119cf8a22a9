import hashlib
import json
import os
import re
import warnings
from collections.abc import Set

import numpy as np
import pytest

from noisyrec.corpus import (
    InteractionTable,
    PairSet,
    ParseError,
    SplitDataset,
    binarize_and_index,
    dense_index,
    kcore_filter,
    load_amazon_reviews,
    load_movielens,
    load_split,
    save_split,
    sorted_unique,
    split,
    write_text,
)

from conftest import random_table


def test_load_movielens_line(tmp_path):
    path = tmp_path / "ratings.dat"
    path.write_text("1::1193::5::978300760\n")
    assert load_movielens(path) == [("1", "1193")]
    # the rating and the timestamp are parsed before they are dropped
    for text in ("1::1193::x::978300760\n", "1::1193::5::97830.0760\n"):
        path.write_text(text)
        with pytest.raises(ParseError, match="ratings.dat:1:"):
            load_movielens(path)


def test_load_movielens_empty(tmp_path):
    path = tmp_path / "empty.dat"
    path.write_text("")
    assert load_movielens(path) == []


def test_load_movielens_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_movielens(tmp_path / "missing.dat")
    path = tmp_path / "bad.dat"
    for bad in ("1::2000", "1::2000::five::978300760", "1::2000::5::", "::2000::5::978300760", "1::::5::978300760"):
        path.write_text(f"1::1193::5::978300760\n{bad}\n")
        with pytest.raises(ParseError, match="2") as exc:
            load_movielens(path)
        assert (exc.value.path, exc.value.lineno) == (path, 2)
        assert "bad.dat:2:" in str(exc.value)


def test_load_amazon_line(tmp_path):
    path = tmp_path / "reviews.json"
    path.write_text(json.dumps({"reviewerID": "A1", "asin": "B0", "overall": 4.0, "helpful": [0, 0]}) + "\n")
    assert load_amazon_reviews(path) == [("A1", "B0")]


def test_load_amazon_missing_field(tmp_path):
    path = tmp_path / "reviews.json"
    path.write_text(json.dumps({"reviewerID": "A1", "overall": 4.0}) + "\n")
    with pytest.raises(ParseError, match="asin"):
        load_amazon_reviews(path)


def test_load_amazon_bad_json(tmp_path):
    path = tmp_path / "reviews.json"
    path.write_text('{"reviewerID": "A1"\n')
    with pytest.raises(ParseError, match="1"):
        load_amazon_reviews(path)
    good = json.dumps({"reviewerID": "A1", "asin": "B0", "overall": 5.0})
    for bad, match in (
        ("[1, 2]", "JSON object, got list"),
        ('"hello"', "JSON object, got str"),
        ('{"reviewerID": "A1", "asin": "B0", "overall": null}', "overall"),
        ('{"reviewerID": "A1", "asin": "B0", "overall": "five"}', "overall"),
        ('{"reviewerID": "A1", "asin": "B0", "overall": 1%s}' % ("0" * 400), "overall"),
        ('{"reviewerID": "A1", "asin": "", "overall": 5.0}', "non-empty strings"),
        ('{"reviewerID": "", "asin": "B0", "overall": 5.0}', "non-empty strings"),
        ('{"reviewerID": [1], "asin": "B0", "overall": 5.0}', "non-empty strings"),
        ('{"reviewerID": "A1", "asin": 7, "overall": 5.0}', "non-empty strings"),
        ('{"reviewerID": "A1", "asin": null, "overall": 5.0}', "non-empty strings"),
        (good + " x", "Extra data"),
        ("[" * 100_000, "invalid JSON"),
    ):
        path.write_text(f"{good}\n{bad}\n")
        with pytest.raises(ParseError, match=match) as exc:
            load_amazon_reviews(path)
        assert (exc.value.path, exc.value.lineno) == (path, 2)
        assert "reviews.json:2:" in str(exc.value)


def test_raw_loaders_reject_empty_keys(tmp_path):
    ml, amazon = tmp_path / "ratings.dat", tmp_path / "reviews.json"
    ml.write_text("::i::1::0\n")
    amazon.write_text('{"reviewerID": "u", "asin": "", "overall": 1.0}\n')
    for load, path in ((load_movielens, ml), (load_amazon_reviews, amazon)):
        with pytest.raises(ValueError):
            load(path)


def test_binarize_collapses_duplicates():
    raw = [("u", "i"), ("u", "i")]
    _, table = binarize_and_index(raw)
    assert len(table) == 1


def test_binarize_counts():
    raw = [
        ("u1", "a"),
        ("u1", "b"),
        ("u2", "a"),
        ("u3", "b"),
    ]
    (user_keys, item_keys), table = binarize_and_index(raw)
    assert (table.M, table.N, len(table)) == (3, 2, 4)
    # first-appearance order
    assert user_keys == ["u1", "u2", "u3"]
    assert item_keys == ["a", "b"]


def test_binarize_bound_property():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        raw = [(f"u{rng.integers(0, 5)}", f"i{rng.integers(0, 5)}") for _ in range(n)]
        _, table = binarize_and_index(raw)
        assert len(table) <= len(raw)
        if len(set(raw)) == len(raw):
            assert len(table) == len(raw)



def reference_binarize(raw):
    user_index, item_index = {}, {}
    pairs = [(user_index.setdefault(u, len(user_index)),
              item_index.setdefault(i, len(item_index))) for u, i in raw]
    return (list(user_index), list(item_index)), InteractionTable(len(user_index), len(item_index), pairs)


def test_binarize_equals_tuple_list_reference():
    rng = np.random.default_rng(3)
    for n in [0, 1, 2] + [int(x) for x in rng.integers(3, 200, 30)]:
        raw = [(f"u{rng.integers(0, 12)}", f"i{rng.integers(0, 9)}") for _ in range(n)]
        keys, table = binarize_and_index(raw)
        ref_keys, ref = reference_binarize(raw)
        assert keys == ref_keys
        assert (table.M, table.N) == (ref.M, ref.N)
        for got, want in ((table.codes, ref.codes), (table.indptr, ref.indptr)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_load_amazon_shares_repeated_keys(tmp_path):
    path = tmp_path / "reviews.json"
    rows = [("A1", "B0"), ("A2", "B0"), ("A1", "B1")]
    path.write_text("".join(json.dumps({"reviewerID": u, "asin": i, "overall": 5.0}) + "\n" for u, i in rows))
    raw = load_amazon_reviews(path)
    assert raw == rows
    assert raw[0][0] is raw[2][0] and raw[0][1] is raw[1][1]


def reference_load_amazon(path):
    """json.loads per stripped line: the plain loader load_amazon_reviews must agree with."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                user, item = obj["reviewerID"], obj["asin"]
                float(obj["overall"])
            except (ValueError, KeyError, TypeError, OverflowError):
                raise ParseError(path, lineno, "rejected") from None
            if not (isinstance(user, str) and isinstance(item, str) and user and item):
                raise ParseError(path, lineno, "bad key")
            rows.append((user, item))
    return rows


def fuzz_review_line(rng) -> str:
    """One review line, usually valid; sometimes broken in a way a loader must reject."""
    obj = {"reviewerID": f"A{rng.integers(0, 5)}", "asin": f"B{rng.integers(0, 5)}",
           "overall": [5.0, 1, "4", 2.5, float("nan")][rng.integers(0, 5)]}
    if rng.random() < 0.5:  # extra fields
        obj.update(reviewText="ok \u00e9 \\ \"q\"", helpful=[0, 1], meta={"x": None})
    if rng.random() < 0.2:  # a non-ASCII key, which ensure_ascii writes as a \uXXXX escape
        obj["asin"] = "B\u00e9\u4e2d"
    if rng.random() < 0.05:
        obj[["reviewerID", "asin"][rng.integers(0, 2)]] = ["", 7, [1], None][rng.integers(0, 4)]
    if rng.random() < 0.05:
        obj["overall"] = [None, "five", True, {}][rng.integers(0, 4)]
    if rng.random() < 0.03:
        del obj[["reviewerID", "asin", "overall"][rng.integers(0, 3)]]
    keys = list(obj)
    keys = [keys[k] for k in rng.permutation(len(keys))]  # reordered keys
    seps = [(", ", ": "), (",", ":"), (" ,\t", " : ")][rng.integers(0, 3)]
    line = json.dumps({k: obj[k] for k in keys}, separators=seps, ensure_ascii=bool(rng.integers(0, 2)))
    line = line.replace('"B0"', '"\\u0042\\u0030"')  # an escaped spelling of a plain key
    roll = rng.random()
    if roll < 0.03:
        line = line[: rng.integers(1, len(line))]  # truncated object
    elif roll < 0.06:
        line += [" x", " {}", "}", ","][rng.integers(0, 4)]  # trailing "Extra data"
    elif roll < 0.08:
        line = ["[1, 2]", '"hello"', "5", "null", "{}"][rng.integers(0, 5)]
    pad = ["", " ", "\t", "\x0b", "\xa0", "\u3000"]
    return pad[rng.integers(0, 6)] + line + pad[rng.integers(0, 6)]


def test_load_amazon_equals_json_loads_reference(tmp_path):
    rng = np.random.default_rng(12)
    path = tmp_path / "reviews.json"
    outcomes = {"rows": 0, "error": 0}
    for _ in range(400):
        lines = [fuzz_review_line(rng) if rng.random() < 0.85 else ["", "  ", "\t"][rng.integers(0, 3)]
                 for _ in range(rng.integers(0, 12))]
        text = "".join(line + ["\n", "\r\n"][rng.integers(0, 2)] for line in lines)
        if rng.random() < 0.1:
            text = "\ufeff" + text  # a leading BOM, which json.loads rejects
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        results = []
        for load in (reference_load_amazon, load_amazon_reviews):
            try:
                results.append(("rows", load(path)))
            except ParseError as exc:
                results.append(("error", exc.lineno))
        assert results[0] == results[1], text
        outcomes[results[0][0]] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_kcore_hand_example():
    # u0:{a,b}, u1:{a}, u2:{a,b,c}; k=2 removes u1 then item c
    table = InteractionTable(3, 3, [(0, 0), (0, 1), (1, 0), (2, 0), (2, 1), (2, 2)])
    out = kcore_filter(table, 2)
    assert (out.M, out.N, len(out)) == (2, 2, 4)


def test_kcore_k1_keeps_everything():
    rng = np.random.default_rng(1)
    table = random_table(rng)
    out = kcore_filter(table, 1)
    assert len(out) == len(table)


def test_kcore_total_removal():
    table = InteractionTable(2, 2, [(0, 0), (1, 1)])
    out = kcore_filter(table, 3)
    assert (out.M, out.N, len(out)) == (0, 0, 0)


def kcore_reference(table, k):
    """Set-loop k-core with dense reindexing, the reference for kcore_filter."""
    pairs = set(table.positives)
    while True:
        users = [u for u, _ in pairs]
        items = [i for _, i in pairs]
        kept = {(u, i) for u, i in pairs if users.count(u) >= k and items.count(i) >= k}
        if kept == pairs:
            break
        pairs = kept
    umap = {u: n for n, u in enumerate(sorted({u for u, _ in pairs}))}
    imap = {i: n for n, i in enumerate(sorted({i for _, i in pairs}))}
    return InteractionTable(len(umap), len(imap), [(umap[u], imap[i]) for u, i in pairs])


def test_kcore_min_degree_and_idempotence():
    rng = np.random.default_rng(2)
    for _ in range(30):
        table = random_table(rng, density=0.4)
        k = int(rng.integers(1, 5))
        out = kcore_filter(table, k)
        assert out == kcore_reference(table, k)
        if len(out):
            assert out.user_degrees().min() >= k
            assert out.item_degrees().min() >= k
        again = kcore_filter(out, k)
        assert again == out


def test_split_proportions():
    table = InteractionTable(5, 5, [(u, i) for u in range(5) for i in range(2)])
    ds = split(table, seed=11)
    # 10 positives -> 8/1/1 before cold pruning; pruning can only shrink val/test
    assert len(ds.train) == 8
    assert len(ds.validation) <= 1 and len(ds.test) <= 1


def test_split_determinism():
    rng = np.random.default_rng(4)
    table = random_table(rng, M=10, N=10, density=0.5)
    a = split(table, seed=9)
    b = split(table, seed=9)
    assert a.train == b.train and a.validation == b.validation and a.test == b.test


def test_split_invariants_over_seeds():
    rng = np.random.default_rng(5)
    table = random_table(rng, M=12, N=12, density=0.5)
    for seed in range(100):
        ds = split(table, seed=seed)
        train, val, test = ds.train.positives, ds.validation.positives, ds.test.positives
        assert not (train & val) and not (train & test) and not (val & test)
        train_users = {u for u, _ in train}
        train_items = {i for _, i in train}
        for u, i in val | test:
            assert u in train_users and i in train_items


def test_save_load_split_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    table = random_table(rng, M=8, N=9, density=0.5)
    ds = split(table, seed=13)
    save_split(ds, tmp_path / "ds")
    loaded = load_split(tmp_path / "ds")
    assert loaded.seed == 13
    assert loaded.train == ds.train
    assert loaded.validation == ds.validation
    assert loaded.test == ds.test


def test_save_split_leaves_no_pairs_cache(tmp_path):
    raw = random_table(np.random.default_rng(9), M=10, N=8, density=0.5)
    filtered = kcore_filter(raw, 2)
    ds = split(filtered, seed=3)
    save_split(ds, tmp_path / "ds")
    for table in (raw, filtered, ds.train, ds.validation, ds.test):
        assert "pairs" not in table.__dict__


def test_split_file_format(tmp_path):
    table = InteractionTable(3, 4, [(0, 1), (1, 2), (2, 3), (0, 0), (1, 0)])
    ds = split(table, seed=1)
    save_split(ds, tmp_path / "ds")
    lines = (tmp_path / "ds" / "train.txt").read_text().splitlines()
    assert lines[0] == "3 4 1"
    for line in lines[1:]:
        u, i = line.split("\t")
        int(u), int(i)


def test_split_golden_bytes(tmp_path):
    # digest of the split files written by the set/tuple implementation this
    # CSR core replaced: pins the shuffle permutation across versions
    table = kcore_filter(random_table(np.random.default_rng(21), M=40, N=30, density=0.3), 7)
    assert (table.M, table.N, len(table)) == (32, 27, 287)
    save_split(split(table, seed=7), tmp_path / "ds")
    digest = hashlib.sha256()
    for name in ("train", "valid", "test"):
        digest.update((tmp_path / "ds" / f"{name}.txt").read_bytes())
    assert digest.hexdigest() == "a321759a4a8b41feca70cb3c70ed92380fb86326098a21c7960cf60450ce4bb7"



def test_write_text_failure_keeps_the_old_file(tmp_path):
    def broken():
        yield "first line\n"
        raise RuntimeError("write failed")

    path = tmp_path / "out.txt"
    with pytest.raises(RuntimeError, match="write failed"):
        write_text(path, broken())
    assert os.listdir(tmp_path) == []  # no file, and no out.txt.tmp
    path.write_bytes(b"old\n")
    with pytest.raises(RuntimeError, match="write failed"):
        write_text(path, broken())
    assert path.read_bytes() == b"old\n" and os.listdir(tmp_path) == ["out.txt"]
    write_text(path, iter(["a\n", "b\n"]))
    assert path.read_bytes() == b"a\nb\n" and os.listdir(tmp_path) == ["out.txt"]


def test_write_text_replaces_a_symlink_with_a_file(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("kept\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    write_text(link, ["new\n"])
    assert not link.is_symlink() and link.read_text() == "new\n" and target.read_text() == "kept\n"


def test_save_split_failed_replace_keeps_the_old_files(tmp_path, monkeypatch):
    table = random_table(np.random.default_rng(4), M=9, N=7, density=0.5)
    save_split(split(table, seed=1), tmp_path / "ds")
    before = {name: (tmp_path / "ds" / name).read_bytes() for name in os.listdir(tmp_path / "ds")}

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        save_split(split(table, seed=2), tmp_path / "ds")
    assert {name: (tmp_path / "ds" / name).read_bytes() for name in os.listdir(tmp_path / "ds")} == before


def test_table_views_match_brute_force():
    rng = np.random.default_rng(8)
    for case in range(60):
        M, N = (0, 0) if case == 0 else (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        n = int(rng.integers(0, 3 * M * N + 1)) if M else 0
        raw = np.column_stack((rng.integers(0, M, n), rng.integers(0, N, n))) if n else []
        pairs = raw if case % 2 else [(u, i) for u, i in raw]  # np.int64 array or tuple list
        table = InteractionTable(M, N, pairs)
        want = {(int(u), int(i)) for u, i in raw}
        assert len(table) == len(want)
        assert table.positives == want
        assert all(type(u) is int and type(i) is int for u, i in table.positives)
        assert table.per_user == [sorted(i for v, i in want if v == u) for u in range(M)]
        assert table.user_degrees().tolist() == [sum(v == u for v, _ in want) for u in range(M)]
        assert table.item_degrees().tolist() == [sum(j == i for _, j in want) for i in range(N)]
        assert table.pairs.tolist() == [list(p) for p in sorted(want)]
        lo = M // 2  # a block starting mid-table
        assert np.argwhere(table.dense_rows(lo, M)).tolist() == [[u - lo, i] for u, i in sorted(want) if u >= lo]
        assert np.all(np.diff(table.codes) > 0)
        assert table == InteractionTable(M, N, sorted(want))
        assert table != InteractionTable(M + 1, N, sorted(want))


def test_positives_set_view_equals_frozenset(monkeypatch):
    monkeypatch.setattr(PairSet, "_CHUNK", 3)  # iteration crosses chunk bounds
    rng = np.random.default_rng(9)
    for case in range(40):
        table = random_table(rng, density=rng.uniform(0.0, 1.0))
        M, N = table.M, table.N
        pos, want = table.positives, frozenset(map(tuple, table.pairs.tolist()))
        assert isinstance(pos, Set) and len(pos) == len(want) and bool(pos) == bool(want)
        assert pos == want and want == pos and not pos != want and not want != pos
        assert hash(pos) == hash(want)
        assert list(pos) == sorted(want)
        assert all(type(u) is int and type(i) is int for u, i in pos)
        assert all((np.int64(u), np.int32(i)) in pos for u, i in want)
        other = frozenset(map(tuple, rng.integers(0, max(M, N), size=(int(rng.integers(0, 8)), 2)).tolist()))
        other |= set(list(want)[: int(rng.integers(0, 4))])
        for got, ref in [
            (pos | other, want | other), (other | pos, other | want),
            (pos & other, want & other), (other & pos, other & want),
            (pos - other, want - other), (other - pos, other - want),
        ]:
            assert type(got) is frozenset and got == ref
        assert (pos <= other, other <= pos, pos >= other) == (want <= other, other <= want, want >= other)
        assert pos <= want and want <= pos and pos != other | {(M, N)}
    table = InteractionTable(2, 3, [(0, 0), (1, 2)])
    absent = [(2, 0), (0, 3), (-1, 0), (0, -1), (2**70, 0), (1, 1), (0.0, 0), ("0", "0"), (0,), (0, 0, 0), 0, None, "ab"]
    assert not any(x in table.positives for x in absent)
    assert (False, 0) in table.positives and (np.int8(1), np.uint64(2)) in table.positives
    assert InteractionTable(0, 0, []).positives == frozenset() and (0, 0) not in InteractionTable(0, 0, []).positives


def test_sorted_unique_matches_np_unique():
    rng = np.random.default_rng(9)
    for dtype in (np.int64, np.int32, np.intp):
        for n in (0, 1, 7, 500):
            values = rng.integers(0, 40, n).astype(dtype)
            # shuffled, sorted with repeats, and strictly increasing input
            for case in (values, np.sort(values), np.unique(values)):
                got = sorted_unique(case)
                assert got.dtype == values.dtype and np.array_equal(got, np.unique(values))


def test_dense_index_matches_np_unique_inverse():
    # the step's slot table and kcore_filter's reindex: empty rows, n = 0, repeats, rows up to n - 1
    rng = np.random.default_rng(30)
    cases = [(np.array([], dtype=np.int64), 0), (np.array([], dtype=np.int64), 5), (np.array([3, 3, 3]), 4),
             (np.array([0, 4, 0, 4]), 5)]
    cases += [(rng.integers(0, n, size), n) for n in (1, 2, 7, 300) for size in (1, 5, 40, 1000)]
    for rows, n in cases:
        distinct, index = dense_index(rows, n)
        want_distinct, want_index = np.unique(rows, return_inverse=True)
        assert np.array_equal(distinct, want_distinct) and np.array_equal(index, want_index), (rows, n)
        assert index.shape == rows.shape and np.array_equal(distinct[index], rows)
        assert distinct.dtype == want_distinct.dtype and index.dtype == want_index.dtype


def test_table_rejects_out_of_range_pair():
    with pytest.raises(ValueError, match=r"\(2, 0\)"):
        InteractionTable(2, 2, [(0, 0), (2, 0)])


def test_table_names_the_first_out_of_range_pair():
    for pairs, first in [([(0, 0), (1, -1), (5, 0)], "(1, -1)"), ([(1, 1), (0, 3), (-2, 0)], "(0, 3)"),
                         ([(0, 0), (2, 2)], "(2, 2)")]:
        with pytest.raises(ValueError, match=rf"^pair {re.escape(first)} out of range for 2x3$"):
            InteractionTable(2, 3, np.array(pairs))


def test_table_names_a_uint64_pair_past_int64_as_given():
    # a cast to int64 before the range check reported (2**63, 0) as (-9223372036854775808, 0)
    for pairs, first in [([[2**63, 0]], "(9223372036854775808, 0)"),
                         ([[0, 0], [1, 2**64 - 1]], "(1, 18446744073709551615)")]:
        with pytest.raises(ValueError, match=rf"^pair {re.escape(first)} out of range for 3x3$"):
            InteractionTable(3, 3, np.array(pairs, dtype=np.uint64))
    table = InteractionTable(3, 3, np.array([[2, 1], [0, 2]], dtype=np.uint64))
    assert table.codes.dtype == np.int64 and table.pairs.tolist() == [[0, 2], [2, 1]]


def test_table_rejects_pairs_that_are_not_ints():
    # a cast to int64 would store (0.5, 1.7) as the pair (0, 1), and a bool pair as 0/1
    for pairs in (np.array([[0.5, 1.7]]), [(0.0, 1.0)], np.array([[True, False]]), np.array([[1, 2]], dtype=object)):
        dtype = np.asarray(pairs).dtype
        with pytest.raises(ValueError, match=rf"^pairs must be ints, got dtype {dtype}$"):
            InteractionTable(3, 3, pairs)
    for dtype in (np.int8, np.uint8, np.int32, np.uint64):
        assert InteractionTable(3, 3, np.array([[2, 1]], dtype=dtype)).pairs.tolist() == [[2, 1]]
    for empty in ([], np.zeros((0, 2)), np.array([], dtype=bool)):  # no pair: any dtype
        assert len(InteractionTable(3, 3, empty)) == 0


def test_table_rejects_negative_shape():
    for M, N in [(2, -3), (-1, 5), (-1, -1)]:
        with pytest.raises(ValueError, match=rf"^table shape {M}x{N} has a negative side$"):
            InteractionTable(M, N, [])
    assert len(InteractionTable(0, 0, [])) == 0 and InteractionTable(0, 4, []).indptr.tolist() == [0]


@pytest.mark.parametrize("header", ["-1 5 0", "3 -1 0", "3 5 -2"])
def test_load_split_rejects_negative_header(tmp_path, header):
    for name in ("train", "valid", "test"):
        (tmp_path / f"{name}.txt").write_text(f"{header}\n")
    with pytest.raises(ParseError) as exc:
        load_split(tmp_path)
    assert (exc.value.path, exc.value.lineno) == (str(tmp_path / "train.txt"), 1)
    assert repr(header) in str(exc.value)


def test_contains_matches_pair_set_and_brute_force():
    rng = np.random.default_rng(23)
    for case in range(60):
        if case < 3:  # empty tables: 0x0, and shapes without a pair
            table = InteractionTable(*[(0, 0), (3, 4), (1, 1)][case], [])
        else:
            table = random_table(rng, density=rng.uniform(0.0, 1.0))
        M, N = table.M, table.N
        want = {(int(u), int(i)) for u, i in table.pairs}
        users, items = np.divmod(np.arange(M * N), max(N, 1))  # every in-range pair, in code order
        got = table.contains(users, items)
        assert got.dtype == bool and got.shape == users.shape
        assert got.tolist() == [(u, i) in want for u, i in zip(users.tolist(), items.tolist())]
        assert got.tolist() == [(u, i) in table.positives for u, i in zip(users.tolist(), items.tolist())]
        draws = (rng.integers(0, max(M, 1), 7), rng.integers(0, max(N, 1), 7)) if M and N else (users, items)
        assert table.contains(*draws).tolist() == [p in want for p in zip(*(d.tolist() for d in draws))]
        for u, i in list(want)[:3] + [(0, 0), (M - 1, N - 1)]:  # scalars: Python and numpy ints
            if 0 <= u < M and 0 <= i < N:
                assert bool(table.contains(u, i)) == bool(table.contains(np.int64(u), np.int32(i))) == ((u, i) in want)
        for pair in [(M, 0), (0, N), (-1, 0), (0, -1), (M, N), (2**70, 0)]:  # out of range: only the set view
            assert pair not in table.positives and pair not in want


def test_table_views_on_degenerate_shapes_match_brute_force():
    rng = np.random.default_rng(25)
    shapes = [(0, 0), (0, 5), (4, 0), (5, 1), (1, 1), (3, 4)]
    shapes += [tuple(rng.integers(1, 8, 2).tolist()) for _ in range(30)]
    for case, (M, N) in enumerate(shapes):
        mask = rng.random((M, N)) < rng.uniform(0.0, 1.0)
        if case % 3 == 0:
            mask[:] = False  # an empty table
        elif M:
            mask[int(rng.integers(0, M))] = True  # a user who voted every item
        want = sorted(map(tuple, np.argwhere(mask).tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = InteractionTable(M, N, want)
            assert table.pairs.shape == (len(want), 2) and table.pairs.tolist() == [list(p) for p in want]
            assert table.item_degrees().tolist() == mask.sum(axis=0).tolist()
            assert table.user_degrees().tolist() == mask.sum(axis=1).tolist()
            assert table.per_user == [np.flatnonzero(row).tolist() for row in mask]
            assert all(type(i) is int for row in table.per_user for i in row)
            assert np.array_equal(table.dense_rows(0, M), mask)
            users, items = np.meshgrid(np.arange(-1, M + 1), np.arange(-1, N + 1), indexing="ij")
            inside = (users >= 0) & (users < M) & (items >= 0) & (items < N)
            brute = np.zeros(users.shape, bool)
            brute[inside] = mask[users[inside], items[inside]]
            assert table.contains(users, items).tolist() == brute.tolist()
            assert table.contains(users.tolist(), items.tolist()).tolist() == brute.tolist()
            assert [bool(table.contains(u, i)) for u, i in zip(users.flat, items.flat)] == brute.ravel().tolist()


def test_contains_is_false_for_items_out_of_range():
    assert not InteractionTable(2, 3, [(1, 0)]).contains(0, 3)
    # (u, -1) has the code of (u - 1, N - 1), and (u, N) that of (u + 1, 0)
    table = InteractionTable(3, 3, [(0, 2), (1, 0), (1, 2), (2, 0)])
    for item in (-1, 3, -2**62):
        users = np.arange(3)
        assert table.contains(users, np.full(3, item)).tolist() == [False] * 3
        got = table.contains(users[:, None], np.array([[item, 0]]))
        assert got.tolist() == [[False, False], [False, True], [False, True]]
        assert not any(bool(table.contains(u, item)) or bool(table.contains(np.int64(u), np.int64(item)))
                       for u in range(3))


def test_contains_is_false_for_users_out_of_range():
    # u * N + i wraps in int64 for a user far off the table: 2**62 * 4 + 1 is the code of (0, 1)
    table = InteractionTable(1, 4, [(0, 1)])
    for user in (2**62, -2**62, 1, -1):
        assert not table.contains(user, 1) and not table.contains(np.int64(user), np.int64(1))
        assert (user, 1) not in table.positives
    assert table.contains(np.array([2**62, -2**62, 0]), np.array([1, 1, 1])).tolist() == [False, False, True]
    assert table.contains([0, 0], [1, 2]).tolist() == [True, False]  # lists are read as arrays


def test_contains_rejects_pairs_that_are_not_ints():
    # a cast to int64 would read (0.7, 1.2) as the positive (0, 1)
    table = InteractionTable(3, 3, [(0, 1)])
    assert (0.7, 1.2) not in table.positives
    for users, items, name, dtype in [(0.7, 1.2, "users", "float64"), (0, np.array([1.0]), "items", "float64"),
                                      (np.array(["0"]), 1, "users", "<U1"), ([0], [None], "items", "object")]:
        with pytest.raises(ValueError, match=rf"^{name} must be ints, got dtype {re.escape(dtype)}$"):
            table.contains(users, items)
    assert table.contains(np.int8(0), np.uint64(1)) and not table.contains(True, True)  # ints and bools pass
    for empty in ([], np.zeros(0), np.array([], dtype=object)):  # no pair: any dtype
        assert table.contains(empty, empty).tolist() == []


def test_load_split_names_file_and_line(tmp_path):
    empty = InteractionTable(3, 3, [])
    save_split(SplitDataset(InteractionTable(3, 3, [(0, 0), (1, 2)]), empty, empty, seed=4), tmp_path)
    train = tmp_path / "train.txt"
    for text, lineno in (
        ("3 3 4\n0\t0\n1 2\n", 3),  # a space instead of a tab
        ("3 3 4\n0\t0\t1\n1\t2\n", 2),  # a third column on one row
        ("3 3 4\n0\t0\t1\n1\t2\t0\n", 2),  # a third column on every row
        ("3 3 4\n0\tx\n", 2),
        ("3 3\n0\t0\n", 1),  # header without the seed
        ("3 3 4\n0\t0\n5\t0\n", 3),  # well-formed, but user 5 is out of range
        ("3 3 4\n0\t-1\n", 2),
        ("", 1),
    ):
        train.write_text(text)
        with pytest.raises(ParseError) as exc:
            load_split(tmp_path)
        assert (exc.value.path, exc.value.lineno) == (str(train), lineno)
        assert f"train.txt:{lineno}:" in str(exc.value)


def test_load_split_empty_table_without_warning(tmp_path):
    empty = InteractionTable(2, 2, [])
    ds = SplitDataset(InteractionTable(2, 2, [(0, 0), (1, 1)]), empty, empty, seed=5)
    save_split(ds, tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_split(tmp_path) == ds


@pytest.mark.parametrize("name, header", [("valid", "9 9 5"), ("test", "4 3 2")])  # M and N; the seed alone
def test_load_split_headers_must_agree(tmp_path, name, header):
    ds = SplitDataset(InteractionTable(4, 3, [(0, 0), (3, 2)]), InteractionTable(4, 3, [(1, 1)]),
                      InteractionTable(4, 3, [(2, 0)]), seed=1)
    save_split(ds, tmp_path)
    path = tmp_path / f"{name}.txt"
    path.write_text(path.read_text().replace("4 3 1", header, 1))
    with pytest.raises(ParseError) as exc:
        load_split(tmp_path)
    assert (exc.value.path, exc.value.lineno) == (str(path), 1)
    assert str(tuple(map(int, header.split()))) in str(exc.value) and "(4, 3, 1)" in str(exc.value)


def test_split_io_past_one_chunk(tmp_path):
    # more train rows than one write chunk (65,536) and one np.loadtxt read chunk (50,000)
    rng = np.random.default_rng(16)
    M, N = 400, 300
    codes = rng.choice(M * N, size=90_000, replace=False)
    parts = [np.column_stack(np.divmod(c, N)) for c in np.split(codes, [80_000, 85_000])]
    ds = SplitDataset(*(InteractionTable(M, N, part) for part in parts), seed=11)
    save_split(ds, tmp_path)
    for name, table in (("train", ds.train), ("valid", ds.validation), ("test", ds.test)):
        want = f"{M} {N} 11\n" + "".join(f"{u}\t{i}\n" for u, i in table.pairs.tolist())
        assert (tmp_path / f"{name}.txt").read_bytes() == want.encode()
    assert len(ds.train) == 80_000 and load_split(tmp_path) == ds
    for name in ("train", "valid", "test"):  # CRLF line endings read the same
        path = tmp_path / f"{name}.txt"
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert load_split(tmp_path) == ds
    train = tmp_path / "train.txt"
    for lineno, bad in ((60_123, "7\tx"), (79_990, f"{M}\t0")):  # malformed; out of range
        save_split(ds, tmp_path)
        lines = train.read_text().splitlines(keepends=True)
        lines[lineno - 1] = bad + "\n"
        train.write_text("".join(lines))
        with pytest.raises(ParseError) as exc:
            load_split(tmp_path)
        assert (exc.value.path, exc.value.lineno) == (str(train), lineno)
