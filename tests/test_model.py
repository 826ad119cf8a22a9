import os

import numpy as np
import pytest

from noisyrec.corpus import ParseError
from noisyrec.model import (
    InitSpec,
    NoiseParams,
    PreferenceParams,
    init_params,
    load_checkpoint,
    rank_topk,
    save_checkpoint,
)


def test_init_shapes_l_zero():
    theta, phi = init_params(2, 2, 3, 0, InitSpec(seed=1))
    assert theta.U.shape == (2, 3) and theta.V.shape == (2, 3)
    assert phi.P.shape == (2, 0) and phi.Q.shape == (2, 0)
    assert phi.L == 0


def test_init_determinism():
    a = init_params(4, 5, 3, 2, InitSpec(seed=42))
    b = init_params(4, 5, 3, 2, InitSpec(seed=42))
    assert np.array_equal(a[0].U, b[0].U) and np.array_equal(a[0].V, b[0].V)
    assert np.array_equal(a[1].P, b[1].P) and np.array_equal(a[1].Q, b[1].Q)


def test_init_gaussian_tail():
    # 1e4 draws at scale 0.01: P(|x| > 10 sigma) ~ 1.5e-23, so all stay below 0.1
    theta, phi = init_params(50, 50, 50, 50, InitSpec(seed=7, scale=0.01))
    entries = np.concatenate([theta.U.ravel(), theta.V.ravel(), phi.P.ravel(), phi.Q.ravel()])
    assert entries.size >= 10_000
    assert np.abs(entries).max() < 0.1
    assert abs(entries.std() - 0.01) < 0.001


def test_init_rejects_bad_args():
    with pytest.raises(ValueError):
        init_params(0, 1, 1, 0, InitSpec(seed=0))
    with pytest.raises(ValueError):
        InitSpec(seed=0, scale=0.0)
    # NaN fails `scale <= 0` as well as `scale > 0`, and inf passes both: neither may draw embeddings
    for scale in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=rf"^scale must be finite and positive, got {scale}$"):
            init_params(3, 4, 2, 1, InitSpec(scale=scale))


def test_rank_topk_basic():
    theta = PreferenceParams(U=np.array([[1.0]]), V=np.array([[0.1], [0.9], [0.5]]))
    assert rank_topk(theta, 0, 2) == [1, 2]


def test_rank_topk_tie_by_index():
    V = np.zeros((8, 1))
    V[3, 0] = 0.7
    V[7, 0] = 0.7
    theta = PreferenceParams(U=np.array([[1.0]]), V=V)
    assert rank_topk(theta, 0, 2) == [3, 7]


def test_rank_topk_exclusion_and_short_list():
    theta = PreferenceParams(U=np.array([[1.0]]), V=np.array([[0.1], [0.9], [0.5]]))
    assert rank_topk(theta, 0, 2, excluded={1}) == [2, 0]
    assert rank_topk(theta, 0, 10, excluded={1}) == [2, 0]
    assert rank_topk(theta, 0, 3, excluded={0, 1, 2}) == []


def test_rank_topk_ordering_property():
    rng = np.random.default_rng(9)
    theta = PreferenceParams(U=rng.normal(size=(3, 4)), V=rng.normal(size=(20, 4)))
    excluded = {0, 5, 11}
    for u in range(3):
        out = rank_topk(theta, u, 8, excluded)
        assert not (set(out) & excluded)
        scores = theta.U[u] @ theta.V.T
        keys = [(-scores[i], i) for i in out]
        assert keys == sorted(keys)


@pytest.mark.parametrize("u", [-1, 3, 10])
def test_rank_topk_rejects_user_out_of_range(u):
    # u = -1 returned user 2's list, [3, 2]; u = 3 failed with numpy's IndexError
    theta = PreferenceParams(U=np.arange(6.0).reshape(3, 2), V=np.arange(8.0).reshape(4, 2))
    with pytest.raises(ValueError, match=rf"^user {u} is out of range for 3 users$"):
        rank_topk(theta, u, 2)
    assert rank_topk(theta, 2, 2) == [3, 2]


def test_block_scores_equal_per_user_gemv_property():
    # every row of the block must be U[u] @ V.T bit for bit, not close: the plain gemm
    # U[users] @ V.T sums in another order and differs in the last bits
    rng = np.random.default_rng(13)
    for trial in range(60):
        M, N, K = int(rng.integers(1, 200)), int(rng.integers(1, 4000)), int(rng.integers(1, 201))
        scale = 10.0 ** rng.uniform(-3, 3)
        theta = PreferenceParams(U=rng.normal(0, scale, (M, K)), V=rng.normal(0, scale, (N, K)))
        users = rng.integers(0, M, size=int(rng.integers(0, 2 * M)))  # unsorted, with repeats, maybe empty
        if trial == 0:
            users = users[:0]
        block = theta.scores(users)
        assert block.shape == (len(users), N) and block.dtype == np.float64
        for row, u in zip(block, users.tolist()):
            assert np.array_equal(row, theta.U[u] @ theta.V.T), (trial, M, N, K, scale, u)


def test_noise_params_never_affect_ranking():
    rng = np.random.default_rng(10)
    theta = PreferenceParams(U=rng.normal(size=(4, 3)), V=rng.normal(size=(15, 3)))
    before = [rank_topk(theta, u, 5) for u in range(4)]
    # perturbing flip-logit parameters is irrelevant: ranking reads theta only
    _ = NoiseParams(P=rng.normal(size=(4, 6)), Q=rng.normal(size=(15, 6)))
    after = [rank_topk(theta, u, 5) for u in range(4)]
    assert before == after


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    theta = PreferenceParams(U=rng.normal(size=(3, 4)), V=rng.normal(size=(5, 4)))
    phi = NoiseParams(P=rng.normal(size=(3, 2)), Q=rng.normal(size=(5, 2)))
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, theta, phi)
    theta2, phi2 = load_checkpoint(path)
    assert np.array_equal(theta.U, theta2.U) and np.array_equal(theta.V, theta2.V)
    assert np.array_equal(phi.P, phi2.P) and np.array_equal(phi.Q, phi2.Q)


def test_checkpoint_roundtrip_l_zero(tmp_path):
    theta, phi = init_params(4, 6, 3, 0, InitSpec(seed=2))
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, theta, phi)
    theta2, phi2 = load_checkpoint(path)
    assert np.array_equal(theta.U, theta2.U)
    assert phi2.L == 0 and phi2.P.shape == (4, 0) and phi2.Q.shape == (6, 0)


def _edit_line(lineno, edit):
    return lambda lines: lines[: lineno - 1] + edit(lines[lineno - 1]) + lines[lineno:]


@pytest.mark.parametrize("edit, lineno, match", [
    (_edit_line(3, lambda row: [row.rsplit(" ", 1)[0]]), 3, "expected 4 values, got 3"),  # short U row
    (_edit_line(6, lambda row: [row + " 0.5"]), 6, "expected 4 values, got 5"),  # long V row
    (_edit_line(10, lambda row: ["x " + row.split(" ", 1)[1]]), 10, "could not convert"),  # P token
    (lambda lines: lines[:-1], 17, "missing rows"),  # the last Q row
    (lambda lines: lines + [lines[-1]], 18, "extra row"),
    (lambda lines: [row + " 0.5" if 1 < i <= 4 else row for i, row in enumerate(lines, 1)], 2, "got 5"),  # U rows K+1 wide
    (lambda lines: ["3 5 4"] + lines[1:], 1, "header"),
])
def test_checkpoint_defects_name_their_line(tmp_path, edit, lineno, match):
    rng = np.random.default_rng(3)
    theta = PreferenceParams(U=rng.normal(size=(3, 4)), V=rng.normal(size=(5, 4)))
    phi = NoiseParams(P=rng.normal(size=(3, 2)), Q=rng.normal(size=(5, 2)))
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, theta, phi)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ParseError, match=match) as exc:
        load_checkpoint(path)
    assert exc.value.lineno == lineno and exc.value.path == path


def test_checkpoint_text_is_unchanged(tmp_path):
    theta = PreferenceParams(U=np.array([[0.1, -2.0]]), V=np.array([[1 / 3, 1e-300], [np.pi, 5.0]]))
    phi = NoiseParams(P=np.array([[0.5]]), Q=np.array([[-0.25], [7.0]]))
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, theta, phi)
    assert path.read_text() == (
        "1 2 2 1\n0.10000000000000001 -2\n0.33333333333333331 1e-300\n"
        "3.1415926535897931 5\n0.5\n-0.25\n7\n"
    )


def test_save_checkpoint_failed_replace_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, *init_params(4, 6, 3, 2, InitSpec(seed=1)))
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        save_checkpoint(path, *init_params(4, 6, 3, 2, InitSpec(seed=2)))
    assert path.read_bytes() == before and os.listdir(tmp_path) == ["ckpt.txt"]
