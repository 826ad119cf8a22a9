import hashlib
import json
import os
import re
import shlex
import warnings
from dataclasses import replace

import numpy as np
import pytest

from noisyrec import cli, corpus, experiment
from noisyrec.corpus import InteractionTable, save_split, split
from noisyrec.evaluation import EVAL_KS, MetricReport, evaluate, mf_scorer
from noisyrec.experiment import ExperimentSpec, desk_preset, fine_values, grid_search, prepare, run
from noisyrec.model import InitSpec, init_params, save_checkpoint
from noisyrec.trainer import EpochRecord, Optimizer, TrainConfig, TrainHistory


def write_tiny_split(tmp_path):
    rng = np.random.default_rng(0)
    mask = rng.random((12, 10)) < 0.5
    table = InteractionTable(12, 10, list(zip(*np.nonzero(mask))))
    ds = split(table, seed=2)
    directory = tmp_path / "split"
    save_split(ds, directory)
    return str(directory)


def write_movielens_raw(tmp_path, n_users=10, n_items=8, density=0.6):
    rng = np.random.default_rng(1)
    lines = []
    for u in range(n_users):
        for i in range(n_items):
            if rng.random() < density:
                lines.append(f"{u}::{i}::{int(rng.integers(1, 6))}::{100 + u}")
    path = tmp_path / "ratings.dat"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_amazon_raw(tmp_path, n_users=120, n_items=60, n_reviews=900):
    """Seeded Amazon-format reviews: popularity-skewed items, repeated pairs, extra fields, mixed key order."""
    rng = np.random.default_rng(2)
    weights = 1.0 / np.arange(1, n_items + 1)
    users = rng.integers(0, n_users, n_reviews)
    items = rng.choice(n_items, n_reviews, p=weights / weights.sum())
    lines = []
    for u, i, r in zip(users.tolist(), items.tolist(), rng.integers(1, 6, n_reviews).tolist()):
        if u % 2:
            lines.append(json.dumps({"asin": f"B{i:04d}", "overall": float(r), "reviewerID": f"A{u:03d}"}))
        else:
            lines.append(json.dumps({"reviewerID": f"A{u:03d}", "asin": f"B{i:04d}", "overall": r,
                                     "reviewText": "ok", "helpful": [0, u % 3]}))
    path = tmp_path / "reviews.json"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def tiny_config(**kw):
    defaults = dict(optimizer="NBPO_SS", eta=0.1, rho=1, batch_size=64,
                    K=3, L=2, max_epochs=2, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def small_grid(monkeypatch, **values):
    """Sweep the named TrainConfig fields over `values` in place of GRID's, for this test only."""
    monkeypatch.setattr(experiment, "GRID", {**experiment.GRID, **values})


def test_run_repeats_and_summary(tmp_path):
    spec = ExperimentSpec(
        output_dir=str(tmp_path / "out"),
        dataset="split",
        split_dir=write_tiny_split(tmp_path),
        method="NBPO_SS",
        config=tiny_config(),
        repeat_count=3,
    )
    summary = run(spec)
    assert len(summary["repeats"]) == 3
    seeds = [r["seed"] for r in summary["repeats"]]
    assert seeds == [0, 1, 2]
    for seed in seeds:
        assert os.path.exists(tmp_path / "out" / f"epochs_seed{seed}.csv")
    assert os.path.exists(tmp_path / "out" / "summary.json")
    vals = [r["test"]["f1"]["2"] for r in summary["repeats"]]
    assert summary["mean_test"]["f1"]["2"] == pytest.approx(np.mean(vals))
    assert summary["std_test"]["f1"]["2"] == pytest.approx(np.std(vals))


def test_run_records_divergence(tmp_path):
    # NBPO_SS at eta 50 blows up after a few epochs on the tiny split; the run still finishes
    spec = ExperimentSpec(
        output_dir=str(tmp_path / "out"),
        dataset="split",
        split_dir=write_tiny_split(tmp_path),
        method="NBPO_SS",
        config=tiny_config(eta=50.0, max_epochs=10),
        repeat_count=1,
    )
    with pytest.warns(RuntimeWarning, match="NBPO_SS diverged at epoch"):
        summary = run(spec)
    rep = summary["repeats"][0]
    assert 0 < rep["diverged_at"] < 10 and rep["best_epoch"] < rep["diverged_at"]
    on_disk = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert on_disk["repeats"][0]["diverged_at"] == rep["diverged_at"]
    # the diverged epoch is not evaluated, so the CSV holds only the epochs before it
    assert len((tmp_path / "out" / "epochs_seed0.csv").read_text().splitlines()) == 1 + rep["diverged_at"]


def test_run_rejects_divergence_in_first_epoch(tmp_path):
    spec = ExperimentSpec(
        output_dir=str(tmp_path / "out"),
        dataset="split",
        split_dir=write_tiny_split(tmp_path),
        method="BPO",
        config=tiny_config(optimizer="BPO", eta=1e3, batch_size=4),
        repeat_count=1,
    )
    with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="BPO seed 0 diverged at epoch 0"):
        run(spec)


def test_spec_without_method_trains_config_optimizer(tmp_path, monkeypatch):
    split_dir = write_tiny_split(tmp_path)

    def spec(name, **kw):
        return ExperimentSpec(output_dir=str(tmp_path / name), dataset="split", split_dir=split_dir,
                              config=tiny_config(optimizer="BPO"), repeat_count=1, **kw)

    summary = run(spec("unnamed"))
    assert summary["method"] == "BPO" and summary["config"]["optimizer"] == "BPO"
    run(spec("named", method="BPO"))
    csv = "epochs_seed0.csv"
    assert (tmp_path / "unnamed" / csv).read_bytes() == (tmp_path / "named" / csv).read_bytes()
    small_grid(monkeypatch, eta=(0.05,), lambda_theta=(0.01,))
    best, _ = grid_search(spec("grid"), stages=("coarse",))
    assert best.optimizer == Optimizer.BPO


def test_run_records_the_optimizer_that_trained(tmp_path):
    # the method wins over the config's optimizer (NBPO_SS here), and summary.json says so
    spec = ExperimentSpec(output_dir=str(tmp_path / "out"), dataset="split", split_dir=write_tiny_split(tmp_path),
                          method="BPO", config=tiny_config(), repeat_count=1)
    run(spec)
    on_disk = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert on_disk["method"] == "BPO" and on_disk["config"]["optimizer"] == "BPO"


def test_run_determinism_byte_identical(tmp_path):
    split_dir = write_tiny_split(tmp_path)

    def once(name):
        spec = ExperimentSpec(
            output_dir=str(tmp_path / name),
            dataset="split",
            split_dir=split_dir,
            method="BPO",
            config=tiny_config(optimizer="BPO"),
            repeat_count=2,
        )
        run(spec)
        return {
            f: (tmp_path / name / f).read_bytes()
            for f in sorted(os.listdir(tmp_path / name))
        }

    assert once("a") == once("b")


def test_run_baseline_methods(tmp_path):
    split_dir = write_tiny_split(tmp_path)
    for method in ("ITEMPOP", "ITEMKNN"):
        spec = ExperimentSpec(
            output_dir=str(tmp_path / method),
            dataset="split",
            split_dir=split_dir,
            method=method,
        )
        summary = run(spec)
        assert "mean_test" in summary
        # a baseline is evaluated once, whatever the spec's repeat_count (10 by default)
        assert spec.repeat_count == 10 and summary["repeat_count"] == len(summary["repeats"]) == 1
        with open(tmp_path / method / "summary.json") as f:
            assert json.load(f)["repeat_count"] == 1


def fixed_history(dataset, objectives, f1_at_2=0.5):
    """A TrainHistory of one EpochRecord per objective, each with the same report; the first epoch is best."""
    report = MetricReport(f1={2: f1_at_2, 5: 1 / 3, 10: 0.0, 20: 1.0},
                          ndcg={2: 2.5e-7, 5: 0.123456789012, 10: 1e-12, 20: 2 / 3}, n_users_evaluated=4)
    theta, phi = init_params(dataset.train.M, dataset.train.N, 2, 0, InitSpec(seed=0))
    return TrainHistory(epochs=[EpochRecord(e, obj, report) for e, obj in enumerate(objectives)],
                        best_epoch=0, best_theta=theta, best_phi=phi)


def test_run_epoch_csv_text(tmp_path, monkeypatch):
    ds = corpus.load_split(write_tiny_split(tmp_path))
    monkeypatch.setattr(experiment, "train", lambda dataset, cfg: fixed_history(
        dataset, [1 / 3, -12.3456789012345, 1e20]))
    run(ExperimentSpec(str(tmp_path / "out"), dataset="split", method="BPO", repeat_count=1), dataset=ds)
    row = "0.5,0.3333333333,0,1,2.5e-07,0.123456789,1e-12,0.6666666667"
    assert (tmp_path / "out" / "epochs_seed0.csv").read_text() == (
        "epoch,objective,f1@2,f1@5,f1@10,f1@20,ndcg@2,ndcg@5,ndcg@10,ndcg@20\n"
        f"0,0.3333333333,{row}\n1,-12.3456789,{row}\n2,1e+20,{row}\n"
    )


def test_run_failed_replace_keeps_the_old_summary(tmp_path, monkeypatch):
    split_dir = write_tiny_split(tmp_path)
    spec = ExperimentSpec(str(tmp_path / "out"), dataset="split", split_dir=split_dir, method="ITEMPOP",
                          repeat_count=1)
    run(spec)
    before = (tmp_path / "out" / "summary.json").read_bytes()

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        run(replace(spec, method="ITEMKNN"))
    assert (tmp_path / "out" / "summary.json").read_bytes() == before
    assert os.listdir(tmp_path / "out") == ["summary.json"]


def test_run_invalid_config_fails_before_training(tmp_path):
    with pytest.raises(ValueError, match="NOT_A_METHOD"):
        spec = ExperimentSpec(
            output_dir=str(tmp_path / "out"),
            dataset="split",
            split_dir="nowhere",
            method="NOT_A_METHOD",
        )
        run(spec)
    assert not os.path.exists(tmp_path / "out")


def test_spec_rejects_unknown_dataset_and_method_when_made(tmp_path):
    out = str(tmp_path / "out")
    with pytest.raises(ValueError, match="unknown dataset 'movielense'; valid: movielens, amazon, split"):
        ExperimentSpec(out, dataset="movielense", raw_path="ratings.dat")
    with pytest.raises(ValueError, match="'bpo' is not an optimizer; valid: BPR, WBPR, BPO"):
        ExperimentSpec(out, dataset="split", split_dir="nowhere", method="bpo")
    assert os.listdir(tmp_path) == []


def test_spec_method_sets_the_config_that_trains(tmp_path):
    spec = ExperimentSpec(str(tmp_path / "a"), method="BPO", config=desk_preset())
    assert spec.config.optimizer is Optimizer.BPO
    assert spec.config == replace(desk_preset(), optimizer=Optimizer.BPO)
    assert replace(spec, output_dir=str(tmp_path / "b")).config.optimizer is Optimizer.BPO
    for method in (None, *experiment.BASELINE_METHODS):
        assert ExperimentSpec(str(tmp_path / "c"), method=method, config=desk_preset()).config == desk_preset()


def test_prepare_names_the_missing_path(tmp_path):
    with pytest.raises(ValueError, match="dataset='split' requires split_dir"):
        prepare(ExperimentSpec(str(tmp_path / "out"), dataset="split"))
    with pytest.raises(ValueError, match="dataset='amazon' requires raw_path"):
        prepare(ExperimentSpec(str(tmp_path / "out"), dataset="amazon"))
    assert os.listdir(tmp_path) == []


def test_run_and_grid_with_a_dataset_need_no_path(tmp_path, monkeypatch):
    ds = corpus.load_split(write_tiny_split(tmp_path))
    spec = ExperimentSpec(str(tmp_path / "out"), dataset="split", method="BPO",
                          config=tiny_config(max_epochs=1), repeat_count=1)
    assert run(spec, dataset=ds)["method"] == "BPO"
    small_grid(monkeypatch, eta=(0.05,), lambda_theta=(0.01,))
    best, _ = grid_search(spec, stages=("coarse",), dataset=ds)
    assert best.optimizer is Optimizer.BPO
    assert sorted(os.listdir(tmp_path / "out")) == ["epochs_seed0.csv", "grid_best.json", "grid_results.csv",
                                                    "summary.json"]


def test_prepare_caching_byte_identical(tmp_path):
    raw = write_movielens_raw(tmp_path)
    spec = ExperimentSpec(
        output_dir=str(tmp_path / "out"),
        dataset="movielens",
        raw_path=raw,
        kcore=2,
        split_seed=3,
        repeat_count=1,
    )
    ds1 = experiment.prepare(spec)
    cache_root = tmp_path / "out" / "cache"
    (cache_key,) = os.listdir(cache_root)
    before = {
        f: (cache_root / cache_key / f).read_bytes()
        for f in os.listdir(cache_root / cache_key)
    }
    ds2 = experiment.prepare(spec)
    after = {
        f: (cache_root / cache_key / f).read_bytes()
        for f in os.listdir(cache_root / cache_key)
    }
    assert before == after
    assert ds1.train == ds2.train


def test_prepare_amazon_split_files_pinned(tmp_path):
    # digests of the split files the RawInteraction-row loader wrote: pins
    # first-appearance indexing, the k-core and the split across loader rewrites
    spec = ExperimentSpec(output_dir=str(tmp_path / "out"), dataset="amazon",
                          raw_path=write_amazon_raw(tmp_path), kcore=5, split_seed=4,
                          cache_dir=str(tmp_path / "cache"), repeat_count=1)
    ds = experiment.prepare(spec)
    (cache_key,) = os.listdir(tmp_path / "cache")
    digests = {name: hashlib.sha256((tmp_path / "cache" / cache_key / f"{name}.txt").read_bytes()).hexdigest()
               for name in ("train", "valid", "test")}
    assert (ds.train.M, ds.train.N, len(ds.train), len(ds.validation), len(ds.test)) == (87, 40, 435, 54, 54)
    assert digests == {
        "train": "067e4d93ae329d78f5947e9a0ee89534601136f0378af043cd156c80a8ae82b6",
        "valid": "5103a5c31a9b76056512b887af80caa1e2ee57f76a1986f273fd1aae77ada8ca",
        "test": "b9f1e7b2dafc9d623e31fe8be7be88207dd0733ee2c2a799f202cc34c416179a",
    }


def test_prepare_recovers_from_interrupted_write(tmp_path, monkeypatch):
    raw = write_movielens_raw(tmp_path)
    spec = ExperimentSpec(output_dir=str(tmp_path / "out"), dataset="movielens",
                          raw_path=raw, kcore=2, split_seed=3, repeat_count=1)
    clean = experiment.prepare(replace(spec, cache_dir=str(tmp_path / "clean")))

    def interrupted(dataset, directory):  # dies after a partial train.txt
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "train.txt"), "w", encoding="utf-8") as fh:
            fh.write(f"{dataset.train.M} {dataset.train.N} {dataset.seed}\n0\t0\n")
        raise KeyboardInterrupt

    monkeypatch.setattr(corpus, "save_split", interrupted)
    with pytest.raises(KeyboardInterrupt):
        experiment.prepare(spec)
    monkeypatch.undo()
    assert experiment.prepare(spec) == clean
    cache_root = tmp_path / "out" / "cache"
    (cache_key,) = os.listdir(cache_root)
    assert experiment.prepare(spec) == clean  # now read back from the cache
    assert sorted(os.listdir(cache_root / cache_key)) == ["test.txt", "train.txt", "valid.txt"]


def test_prepare_loses_a_cache_race_to_the_same_split(tmp_path, monkeypatch):
    spec = ExperimentSpec(output_dir=str(tmp_path / "out"), dataset="movielens", raw_path=write_movielens_raw(tmp_path),
                          kcore=2, split_seed=3, cache_dir=str(tmp_path / "cache"))
    clean = experiment.prepare(replace(spec, cache_dir=str(tmp_path / "clean")))
    build_split = experiment.build_split

    def racing(*args):  # another prepare of the same file puts its entry in place while this one builds
        dataset = build_split(*args)
        save_split(dataset, tmp_path / "cache" / experiment._content_hash(spec))
        return dataset

    monkeypatch.setattr(experiment, "build_split", racing)
    assert experiment.prepare(spec) == clean
    (cache_key,) = os.listdir(tmp_path / "cache")  # the temporary entry is gone
    assert experiment.prepare(spec) == clean  # read back from the winner's entry


def test_prepare_failed_replace_raises_and_leaves_no_entry(tmp_path, monkeypatch):
    spec = ExperimentSpec(output_dir=str(tmp_path / "out"), dataset="movielens", raw_path=write_movielens_raw(tmp_path),
                          cache_dir=str(tmp_path / "cache"))
    os_replace = os.replace

    def fail(src, dst):  # only the rename of the whole entry fails
        if os.path.isdir(src):
            raise OSError("replace failed")
        os_replace(src, dst)

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        experiment.prepare(spec)
    assert os.listdir(tmp_path / "cache") == []


@pytest.mark.parametrize("kind, write_raw, kcore, split_seed", [
    ("movielens", write_movielens_raw, 2, 3),
    ("amazon", write_amazon_raw, 5, 4),
])
def test_cli_prep_matches_prepare(tmp_path, kind, write_raw, kcore, split_seed):
    raw = write_raw(tmp_path)
    out = tmp_path / "prep"
    assert cli.main(["prep", "--dataset", kind, "--raw", raw, "--kcore", str(kcore),
                     "--split-seed", str(split_seed), "--out", str(out)]) == 0
    experiment.prepare(ExperimentSpec(output_dir=str(tmp_path / "out"), dataset=kind, raw_path=raw,
                                      kcore=kcore, split_seed=split_seed, cache_dir=str(tmp_path / "cache")))
    (cache_key,) = os.listdir(tmp_path / "cache")
    for name in ("train.txt", "valid.txt", "test.txt"):
        assert (out / name).read_bytes() == (tmp_path / "cache" / cache_key / name).read_bytes(), name


def test_fine_values_paper_example():
    assert fine_values(0.01) == [0.002, 0.005, 0.01, 0.02, 0.05]
    assert fine_values(0.1) == [0.02, 0.05, 0.1, 0.2, 0.5]


def test_grid_single_cell(tmp_path, monkeypatch):
    spec = ExperimentSpec(
        output_dir=str(tmp_path / "out"),
        dataset="split",
        split_dir=write_tiny_split(tmp_path),
        method="BPO",
        config=tiny_config(optimizer="BPO", max_epochs=1),
        repeat_count=1,
    )
    small_grid(monkeypatch, eta=(0.05,), lambda_theta=(0.1,))
    best, table = grid_search(spec, stages=("coarse",))
    assert best.eta == 0.05 and best.lambda_theta == 0.1
    assert len(table) == 1


def test_grid_coarse_enumeration_and_tie_rule(tmp_path, monkeypatch):
    spec = ExperimentSpec(
        output_dir=str(tmp_path / "out"),
        dataset="split",
        split_dir=write_tiny_split(tmp_path),
        method="BPO",
        config=tiny_config(optimizer="BPO", max_epochs=1),
        repeat_count=1,
    )
    small_grid(monkeypatch, eta=(0.01, 0.02), lambda_theta=(0.1, 0.2))
    best, table = grid_search(spec, stages=("coarse",))
    assert len(table) == 4
    # winner is the first cell achieving the max score in enumeration order
    scores = [row["val_f1@2"] for row in table]
    win_idx = scores.index(max(scores))
    assert best.eta == table[win_idx]["eta"]
    assert best.lambda_theta == table[win_idx]["lambda_theta"]
    # no test metrics anywhere in the grid table (selection uses validation only)
    assert all("test" not in key for row in table for key in row)


def test_grid_results_files(tmp_path, monkeypatch):
    spec = ExperimentSpec(
        output_dir=str(tmp_path / "out"),
        dataset="split",
        split_dir=write_tiny_split(tmp_path),
        method="NBPO_SS",
        config=tiny_config(max_epochs=1),
        repeat_count=1,
    )
    small_grid(monkeypatch, eta=(0.05,), lambda_theta=(0.1,), rho=(1, 2), L=(0, 2))
    best, table = grid_search(spec, stages=("coarse", "rho", "L"))
    assert os.path.exists(tmp_path / "out" / "grid_results.csv")
    assert os.path.exists(tmp_path / "out" / "grid_best.json")
    stages = [row["stage"] for row in table]
    assert stages == ["coarse", "rho", "rho", "L", "L"]


def test_grid_results_csv_text(tmp_path, monkeypatch):
    ds = corpus.load_split(write_tiny_split(tmp_path))
    # the score of a cell is a function of its config, so the winner and every row are fixed
    monkeypatch.setattr(experiment, "train", lambda dataset, cfg: fixed_history(
        dataset, [0.0], f1_at_2=cfg.eta + cfg.lambda_theta / 4 - cfg.rho / 8))
    spec = ExperimentSpec(str(tmp_path / "out"), dataset="split", method="BPO", config=tiny_config(optimizer="BPO"))
    small_grid(monkeypatch, eta=(1 / 3, 0.25), lambda_theta=(1.0,), rho=(1, 2))
    grid_search(spec, stages=("coarse", "rho"), dataset=ds)
    # the rho rows lack the coarse columns, which come first: an empty field for each
    assert (tmp_path / "out" / "grid_results.csv").read_text() == (
        "stage,eta,lambda_theta,lambda_phi,val_f1@2,rho\n"
        "coarse,0.3333333333333333,1.0,0.0,0.45833333333333326,\n"
        "coarse,0.25,1.0,0.0,0.375,\n"
        "rho,,,,0.45833333333333326,1\n"
        "rho,,,,0.33333333333333326,2\n"
    )


def test_grid_results_identical_with_two_workers(tmp_path, monkeypatch):
    split_dir = write_tiny_split(tmp_path)
    small_grid(monkeypatch, eta=(0.05, 50.0), lambda_theta=(0.01, 0.1))

    def once(workers):
        monkeypatch.setenv("NOISYREC_WORKERS", str(workers))
        spec = ExperimentSpec(
            output_dir=str(tmp_path / f"w{workers}"),
            dataset="split",
            split_dir=split_dir,
            method="NBPO_SS",
            config=tiny_config(max_epochs=6),
            repeat_count=1,
        )
        # eta 50 diverges: its cells stop early and the grid goes on
        grid_search(spec, stages=("coarse",))
        return (tmp_path / f"w{workers}" / "grid_results.csv").read_bytes()

    with pytest.warns(RuntimeWarning, match="diverged"):
        serial = once(1)
    # a worker's warning never reaches this process, so pytest.warns cannot see it; the forked
    # workers inherit this filter instead, and an "error" filter from the command line stays out
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        parallel = once(2)
    assert parallel == serial


def test_grid_cell_diverging_in_first_epoch_scores_zero(tmp_path, monkeypatch):
    spec = ExperimentSpec(
        output_dir=str(tmp_path / "out"),
        dataset="split",
        split_dir=write_tiny_split(tmp_path),
        method="BPO",
        config=tiny_config(optimizer="BPO", batch_size=4),
        repeat_count=1,
    )
    # the first cell (eta 1e3) leaves no evaluated epoch; the second wins on its own score
    small_grid(monkeypatch, eta=(1e3, 0.1), lambda_theta=(0.01,))
    with pytest.warns(RuntimeWarning, match="BPO diverged at epoch 0"):
        best, table = grid_search(spec, stages=("coarse",))
    assert table[0]["val_f1@2"] == 0.0 and table[1]["val_f1@2"] > 0.0
    assert best.eta == 0.1


def test_grid_fine_and_lambda_split_stages(tmp_path, monkeypatch):
    spec = ExperimentSpec(
        output_dir=str(tmp_path / "out"),
        dataset="split",
        split_dir=write_tiny_split(tmp_path),
        method="NBPO_SS",
        config=tiny_config(max_epochs=1),
        repeat_count=1,
    )
    small_grid(monkeypatch, eta=(0.05, 0.2), lambda_theta=(0.01, 0.1))
    best, table = grid_search(spec, stages=("coarse", "fine", "lambda_split"))

    def rows(stage):
        return [{k: v for k, v in row.items() if k not in ("stage", "val_f1@2")}
                for row in table if row["stage"] == stage]

    def winner(stage):  # the first cell of the stage's best validation F1@2
        scores = [row["val_f1@2"] for row in table if row["stage"] == stage]
        return rows(stage)[scores.index(max(scores))]

    assert [row["stage"] for row in table] == ["coarse"] * 4 + ["fine"] * 25 + ["lambda_split"] * 25
    coarse = winner("coarse")
    assert rows("fine") == [{"eta": e, "lambda_theta": lam, "lambda_phi": lam}
                            for e in fine_values(coarse["eta"]) for lam in fine_values(coarse["lambda_theta"])]
    fine = winner("fine")
    assert rows("lambda_split") == [{"lambda_theta": lt, "lambda_phi": lp}
                                    for lt in fine_values(fine["lambda_theta"])
                                    for lp in fine_values(fine["lambda_phi"])]
    split_best = winner("lambda_split")
    assert (best.eta, best.lambda_theta, best.lambda_phi) == (
        fine["eta"], split_best["lambda_theta"], split_best["lambda_phi"])

    plots = tmp_path / "plots"
    written = experiment.emit_plots(table, str(plots))
    assert [os.path.basename(p) for p in written] == ["eta_lambda_coarse.csv", "eta_lambda_fine.csv",
                                                      "lambda_grid.csv"]
    assert (plots / "eta_lambda_fine.csv").read_text().splitlines()[0] == "stage,eta,lambda_theta,lambda_phi,val_f1@2"
    assert (plots / "lambda_grid.csv").read_text().splitlines()[0] == "stage,lambda_theta,lambda_phi,val_f1@2"
    for name in ("eta_lambda_fine.csv", "lambda_grid.csv"):
        assert len((plots / name).read_text().splitlines()) == 1 + 25


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
def test_grid_rejects_bad_worker_count(tmp_path, monkeypatch, value):
    monkeypatch.setenv("NOISYREC_WORKERS", value)
    spec = ExperimentSpec(output_dir=str(tmp_path / "out"), dataset="split",
                          split_dir=write_tiny_split(tmp_path), method="BPO", config=tiny_config())
    small_grid(monkeypatch, eta=(0.05,), lambda_theta=(0.01,))
    with pytest.raises(ValueError, match=re.escape(f"NOISYREC_WORKERS must be a positive int, got {value!r}")):
        grid_search(spec, stages=("coarse",))
    assert not (tmp_path / "out").exists()  # rejected before any cell trains or writes


def test_emit_plots_schemas(tmp_path):
    table = [
        {"stage": "coarse", "eta": 0.01, "lambda_theta": 0.1, "lambda_phi": 0.1, "val_f1@2": 0.1},
        {"stage": "coarse", "eta": 0.01, "lambda_theta": 1.0, "lambda_phi": 1.0, "val_f1@2": 0.2},
        {"stage": "L", "L": 0, "val_f1@2": 0.15},
        {"stage": "L", "L": 2, "val_f1@2": 0.18},
    ]
    summaries = [
        {"method": m, "mean_test": {"f1": {str(k): 0.1 for k in (2, 5, 10, 20)},
                                    "ndcg": {str(k): 0.2 for k in (2, 5, 10, 20)}}}
        for m in ("BPO", "NBPO_SS")
    ]
    written = experiment.emit_plots(table, str(tmp_path / "plots"), summaries)
    names = {os.path.basename(p) for p in written}
    assert {"eta_lambda_coarse.csv", "l_sweep.csv", "metric_vs_k.csv"} <= names
    l_lines = (tmp_path / "plots" / "l_sweep.csv").read_text().splitlines()
    assert any(line.startswith("L,0") or ",0," in line or line.split(",")[1] == "0"
               for line in l_lines[1:])
    mk = (tmp_path / "plots" / "metric_vs_k.csv").read_text().splitlines()
    assert mk[0] == "method,k,f1,ndcg"
    assert len(mk) == 1 + 2 * 4  # one row per k per method
    el = (tmp_path / "plots" / "eta_lambda_coarse.csv").read_text().splitlines()
    assert len(el) == 1 + 2


def test_emit_plots_metric_vs_k_text(tmp_path):
    summaries = [
        {"method": "BPO", "mean_test": {"f1": {"2": 1 / 3, "5": 0.1, "10": 0.0, "20": 1.0},
                                        "ndcg": {"2": 2.5e-7, "5": 0.123456789012, "10": 1e-12, "20": 2 / 3}}},
        {"method": "NBPO_SS", "mean_test": {"f1": {"2": 0.5, "5": 0.25, "10": 0.125, "20": 1e20},
                                            "ndcg": {"2": -0.0, "5": 1.0, "10": 0.9999999999999, "20": 0.3}}},
    ]
    (path,) = experiment.emit_plots([], str(tmp_path / "plots"), summaries)
    assert os.path.basename(path) == "metric_vs_k.csv"
    assert (tmp_path / "plots" / "metric_vs_k.csv").read_text() == (
        "method,k,f1,ndcg\n"
        "BPO,2,0.3333333333,2.5e-07\nBPO,5,0.1,0.123456789\nBPO,10,0,1e-12\nBPO,20,1,0.6666666667\n"
        "NBPO_SS,2,0.5,-0\nNBPO_SS,5,0.25,1\nNBPO_SS,10,0.125,1\nNBPO_SS,20,1e+20,0.3\n"
    )


# --------------------------------------------------------------------------
# CLI


def test_cli_prep_train_eval_plots(tmp_path, capsys):
    raw = write_movielens_raw(tmp_path)
    split_dir = str(tmp_path / "split")
    assert cli.main(["prep", "--dataset", "movielens", "--raw", raw,
                     "--kcore", "2", "--split-seed", "1", "--out", split_dir]) == 0
    assert os.path.exists(os.path.join(split_dir, "train.txt"))

    out_dir = str(tmp_path / "train_out")
    assert cli.main(["train", "--split-dir", split_dir, "--out", out_dir,
                     "--optimizer", "NBPO_SS", "--eta", "0.1", "--rho", "1",
                     "--batch-size", "64", "--k", "3", "--l", "2",
                     "--epochs", "2", "--seed", "0", "--repeats", "1"]) == 0
    assert os.path.exists(os.path.join(out_dir, "summary.json"))

    grid_dir = str(tmp_path / "grid_out")
    assert cli.main(["grid", "--split-dir", split_dir, "--out", grid_dir,
                     "--optimizer", "BPO", "--eta", "0.1", "--rho", "1",
                     "--batch-size", "64", "--k", "3", "--epochs", "1",
                     "--stage", "rho"]) == 0
    assert os.path.exists(os.path.join(grid_dir, "grid_results.csv"))

    assert cli.main(["eval", "--split-dir", split_dir, "--method", "ITEMPOP"]) == 0
    out = capsys.readouterr().out
    assert '"f1"' in out

    plots_dir = str(tmp_path / "plots_out")
    assert cli.main(["plots", "--results", os.path.join(grid_dir, "grid_results.csv"),
                     "--summary", os.path.join(out_dir, "summary.json"),
                     "--out", plots_dir]) == 0
    assert os.path.exists(os.path.join(plots_dir, "rho_sweep.csv"))
    assert os.path.exists(os.path.join(plots_dir, "metric_vs_k.csv"))


def test_cli_eval_rejects_bad_method_arguments(tmp_path, capsys):
    split_dir = write_tiny_split(tmp_path)
    assert cli.main(["eval", "--split-dir", split_dir]) == 2
    assert "--checkpoint" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--split-dir", split_dir, "--method", "itempop"])
    assert exc.value.code == 2
    assert "ITEMPOP" in capsys.readouterr().err


def test_cli_eval_checkpoint(tmp_path, capsys):
    split_dir = write_tiny_split(tmp_path)
    dataset = corpus.load_split(split_dir)
    theta, phi = init_params(dataset.train.M, dataset.train.N, 3, 0, InitSpec(seed=7, scale=0.5))
    path = str(tmp_path / "model.txt")
    save_checkpoint(path, theta, phi)
    for split_name, heldout in (("test", dataset.test), ("validation", dataset.validation)):
        assert cli.main(["eval", "--split-dir", split_dir, "--split", split_name, "--checkpoint", path]) == 0
        report = evaluate(mf_scorer(theta), heldout, dataset.train)
        expected = {"f1": report.f1, "ndcg": report.ndcg, "n_users": report.n_users_evaluated}
        assert report.n_users_evaluated > 0
        assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n", split_name


@pytest.mark.parametrize("split_shape, checkpoint_shape, warm_users", [
    ((30, 8), (1, 8), 30),  # held-out users past the checkpoint's rows
    ((6, 5), (6, 7), 6),  # score rows longer than the split's items
    # users 3-5 hold one positive each, so every held-out user has a checkpoint row
    ((6, 8), (3, 8), 3),
], ids=["one-user", "seven-items", "three-users"])
def test_cli_eval_rejects_checkpoint_of_another_shape(tmp_path, capsys, split_shape, checkpoint_shape, warm_users):
    M, N = split_shape
    mask = np.random.default_rng(4).random((M, N)) < 0.6
    mask[warm_users:] = np.arange(N) == 0
    save_split(split(InteractionTable(M, N, list(zip(*np.nonzero(mask)))), seed=0), tmp_path / "split")
    path = str(tmp_path / "model.txt")
    save_checkpoint(path, *init_params(*checkpoint_shape, 2, 0, InitSpec(seed=1)))
    assert cli.main(["eval", "--split-dir", str(tmp_path / "split"), "--method", "checkpoint",
                     "--checkpoint", path]) == 2
    err = capsys.readouterr().err
    assert path in err
    assert "{}x{}".format(*checkpoint_shape) in err and f"{M}x{N}" in err


def test_readme_cli_commands_parse():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = re.search(r"## CLI\n+```sh\n(.*?)```", readme, re.S).group(1)
    commands = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("noisyrec ")]
    assert len(commands) >= 5
    parser = cli.build_parser()
    for command in commands:
        argv = shlex.split(command)[1:]
        assert parser.parse_args(argv).command == argv[0], command


def test_cli_config_file_and_flag_override(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "optimizer = BPO\n"
        "eta = 0.2   # overridden by the flag below\n"
        "rho = 2\n"
        "batch_size = 32\n"
        "k = 3\n"
        "epochs = 1\n"
    )
    parser = cli.build_parser()
    args = parser.parse_args(["train", "--split-dir", "x", "--out", "y",
                              "--config", str(cfg_path), "--eta", "0.05"])
    config = cli.build_spec(args).config
    assert config.optimizer is Optimizer.BPO
    assert config.eta == 0.05  # flag wins
    assert config.rho == 2 and config.K == 3


def test_cli_config_file_rejects_repeated_key(tmp_path):
    # the second value would silently win: the error names the key and the line of its first use
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("eta = 0.1\n# a comment\nrho = 2\n\neta = 0.2\n")
    with pytest.raises(corpus.ParseError, match=rf"^{re.escape(str(cfg_path))}:5: config key 'eta' repeats line 1$"):
        cli.load_config_file(cfg_path)
    cfg_path.write_text("eta = 0.1\nrho = 2\n")
    assert cli.load_config_file(cfg_path) == {"eta": 0.1, "rho": 2}


def test_cli_train_config_defaults_come_from_train_config():
    # without file or flags: TrainConfig's defaults, and one repeat
    spec = cli.build_spec(cli.build_parser().parse_args(["train", "--split-dir", "x", "--out", "y"]))
    assert spec.config == TrainConfig() and spec.repeat_count == 1


def test_cli_unknown_config_key(tmp_path):
    # (file text, the failing line, a word the error must name): an unknown key, a line without
    # '=', values their parsers reject, and values that parse but that the field's check rejects
    cases = [
        ("etaa = 0.1\n", 1, "etaa"),
        ("# a comment\neta 0.1\n", 2, "eta 0.1"),
        ("eta = 0.1\nrho = 2.5\n", 2, "rho"),
        ("k = ten\n", 1, "'k'"),
        ("optimizer = BPOO\n", 1, "'optimizer'"),
        ("eta = 0.1\n\nrho = 0\n", 3, "'rho'"),
        ("repeats = 0\n", 1, "'repeats'"),
    ]
    parser = cli.build_parser()
    for text, lineno, word in cases:
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(text)
        args = parser.parse_args(["train", "--split-dir", "x", "--out", "y",
                                  "--config", str(cfg_path)])
        with pytest.raises(corpus.ParseError) as exc:
            cli.build_spec(args)
        assert str(exc.value).startswith(f"{cfg_path}:{lineno}: "), text
        assert word in str(exc.value), text


def test_cli_flag_value_errors_name_the_flag(capsys):
    # (flags, words the argparse error must name)
    cases = [
        (["--optimizer", "bpo"], ["--optimizer", "'bpo'", "BPR, WBPR, BPO, NBPO_O, NBPO_S, NBPO_SS"]),
        (["--rho", "0"], ["--rho", "got 0"]),
        (["--repeats", "0"], ["--repeats", "got 0"]),
        (["--seed", "-5"], ["--seed", "got -5"]),
        (["--kcore", "0"], ["--kcore", "got 0"]),
        (["--kcore", "-3"], ["--kcore", "got -3"]),
        (["--split-seed", "-1"], ["--split-seed", "got -1"]),
        (["--lambda-theta", "nan"], ["--lambda-theta", "lambda_theta must be finite, got nan"]),
    ]
    runs = [([command, "--split-dir", "x", "--out", "y", *flags], words)
            for flags, words in cases for command in ("train", "grid")]
    runs += [(["prep", "--dataset", "movielens", "--raw", "x", "--out", "y", *flags], words)
             for flags, words in cases if flags[0] in ("--kcore", "--split-seed")]
    runs += [(["eval", "--split-dir", "x", "--neighbors", "0"], ["--neighbors", "knn_neighbors must be >= 1, got 0"])]
    for argv, words in runs:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert all(word in err for word in words), (argv, err)


def test_removed_options_fail_loudly(tmp_path, capsys):
    # naming an option the package does not have is an error, never a silent no-op
    parser = cli.build_parser()
    for n, line in enumerate(["balance_positives = 1", "exclude_train = 0"]):
        cfg_path = tmp_path / f"old{n}.cfg"
        cfg_path.write_text(f"eta = 0.1\n{line}\n")
        args = parser.parse_args(["train", "--split-dir", "x", "--out", "y", "--config", str(cfg_path)])
        with pytest.raises(corpus.ParseError, match=rf"^{re.escape(str(cfg_path))}:2: unknown config key"):
            cli.build_spec(args)
    for argv in (["train", "--split-dir", "x", "--out", "y", "--balance-positives"],
                 ["train", "--split-dir", "x", "--out", "y", "--no-exclude-train"],
                 ["eval", "--split-dir", "x", "--no-exclude-train"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments: " + argv[-1] in capsys.readouterr().err, argv
    with pytest.raises(TypeError, match="balance_positives"):
        TrainConfig(balance_positives=True)
    with pytest.raises(TypeError, match="exclude_train"):
        ExperimentSpec("o", exclude_train=False)


def test_cli_plots_rejects_ragged_results_row(tmp_path, capsys):
    results = tmp_path / "grid_results.csv"
    results.write_text("stage,rho,val_f1@2\nrho,1,0.5\nrho,2\n")
    assert cli.main(["plots", "--results", str(results), "--out", str(tmp_path / "plots")]) == 2
    assert f"{results}:3: expected 3 fields, got 2" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("", " has no grid rows and no --summary is given"),
    ("stage,rho,val_f1@2\n", " has no grid rows and no --summary is given"),
    ("stage,rho,val_f1@2\nrhoo,1,0.5\n", ":2: stage 'rhoo' is missing or unknown; valid stages: "),
    ("stage,rho,val_f1@2\nrho,1,0.5\n,2,0.5\n", ":3: stage None is missing or unknown; valid stages: "),
    ("stage,rho\nrho,1\n", ":1: header has no 'val_f1@2' column"),
    ("rho,val_f1@2\n1,0.5\n", ":1: header has no 'stage' column"),
    ("stage,rho,val_f1@2\nrho,1,\nrho,2,abc\n", ":2: val_f1@2 None is missing or not a number in [0, 1]"),
    ("stage,rho,val_f1@2\nrho,1,0.5\nrho,2,abc\n", ":3: val_f1@2 'abc' is missing or not a number in [0, 1]"),
    ("stage,rho,val_f1@2\nrho,1,nan\nrho,2,inf\n", ":2: val_f1@2 'nan' is missing or not a number in [0, 1]"),
    ("stage,rho,val_f1@2\nrho,1,0.5\nrho,2,inf\n", ":3: val_f1@2 'inf' is missing or not a number in [0, 1]"),
    ("stage,rho,val_f1@2\nrho,1,1.5\n", ":2: val_f1@2 '1.5' is missing or not a number in [0, 1]"),
    ("stage,rho,val_f1@2\nrho,1,-0.1\n", ":2: val_f1@2 '-0.1' is missing or not a number in [0, 1]"),
], ids=["empty", "header-only", "unknown-stage", "no-stage", "no-metric-column", "no-stage-column",
        "empty-metric", "text-metric", "nan-metric", "inf-metric", "metric-above-1", "negative-metric"])
def test_cli_plots_rejects_results_it_cannot_plot(tmp_path, capsys, text, message):
    results = tmp_path / "grid_results.csv"
    results.write_text(text)
    out = tmp_path / "plots"
    assert cli.main(["plots", "--results", str(results), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {results}{message}")
    assert (",".join(experiment.ALL_STAGES) in err) == ("valid stages" in message)
    assert not out.exists()


def test_cli_plots_summary_with_header_only_results(tmp_path, capsys):
    results = tmp_path / "grid_results.csv"
    results.write_text("stage,rho,val_f1@2\n")
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps({"method": "BPO", "mean_test": GOOD_MEAN_TEST}))
    out = tmp_path / "plots"
    assert cli.main(["plots", "--results", str(results), "--summary", str(summary), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [str(out / "metric_vs_k.csv")]
    assert os.listdir(out) == ["metric_vs_k.csv"]


def test_cli_plots_rejects_summary_without_mean_test(tmp_path, capsys):
    results = tmp_path / "grid_results.csv"
    results.write_text("stage,rho,val_f1@2\nrho,1,0.5\n")
    summary = tmp_path / "summary.json"
    summary.write_text('{"method": "BPO"}\n')
    assert cli.main(["plots", "--results", str(results), "--summary", str(summary),
                     "--out", str(tmp_path / "plots")]) == 2
    err = capsys.readouterr().err
    assert str(summary) in err and "'mean_test'" in err


GOOD_MEAN_TEST = {m: {str(k): 0.5 for k in EVAL_KS} for m in ("f1", "ndcg")}


@pytest.mark.parametrize("text, key", [
    (json.dumps({"method": "BPO", "mean_test": {**GOOD_MEAN_TEST, "f1": {"5": 0.1, "10": 0.1, "20": 0.1}}}),
     "['mean_test']['f1']['2'] is missing or not a number, got None"),
    (json.dumps({"method": "BPO", "mean_test": 3}), "['mean_test'] is missing or not an object, got 3"),
    (json.dumps({"method": "BPO", "mean_test": {**GOOD_MEAN_TEST, "ndcg": {**GOOD_MEAN_TEST["ndcg"], "20": True}}}),
     "['mean_test']['ndcg']['20'] is missing or not a number, got True"),
    (json.dumps({"method": 7, "mean_test": GOOD_MEAN_TEST}), "['method'] is missing or not a string, got 7"),
    (json.dumps([GOOD_MEAN_TEST]), "['method'] is missing or not a string, got None"),
    ("{not json", "Expecting property name"),
], ids=["f1-lacks-2", "mean-test-is-3", "bool-metric", "int-method", "top-level-list", "not-json"])
def test_cli_plots_checks_every_summary_before_writing(tmp_path, capsys, text, key):
    results = tmp_path / "grid_results.csv"
    results.write_text("stage,eta,lambda_theta,val_f1@2\ncoarse,0.1,0.01,0.5\n")
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"method": "NBPO_SS", "mean_test": GOOD_MEAN_TEST}))
    bad.write_text(text)
    out = tmp_path / "plots"
    assert cli.main(["plots", "--results", str(results), "--summary", str(good), "--summary", str(bad),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad} is not a run summary: {key}")
    assert not out.exists()  # nothing is written before every input is read


def test_read_results_table_reads_what_grid_search_writes(tmp_path):
    table = [{"stage": "coarse", "eta": 0.1, "lambda_theta": 0.01, "val_f1@2": 0.25},
             {"stage": "rho", "rho": 3, "val_f1@2": 0.5}]
    path = str(tmp_path / "grid_results.csv")
    experiment._write_results_table(table, path)
    assert experiment.read_results_table(path) == [{k: str(v) for k, v in row.items()} for row in table]


def test_cli_grid_rejects_unknown_stage(tmp_path, capsys):
    out_dir = tmp_path / "grid_out"
    assert cli.main(["grid", "--split-dir", write_tiny_split(tmp_path), "--out", str(out_dir),
                     "--optimizer", "BPO", "--epochs", "1", "--stage", "coarse,rhoo"]) == 2
    err = capsys.readouterr().err
    assert "'rhoo'" in err and ",".join(experiment.ALL_STAGES) in err
    assert not (out_dir / "grid_results.csv").exists()


def test_cli_grid_rejects_empty_stage(tmp_path, monkeypatch, capsys):
    # an empty --stage names no stage: it is rejected as "rho," is, never read as the whole grid
    monkeypatch.setattr(experiment, "train", lambda dataset, cfg: fixed_history(dataset, [0.0]))
    out_dir = tmp_path / "grid_out"
    assert cli.main(["grid", "--split-dir", write_tiny_split(tmp_path), "--out", str(out_dir),
                     "--optimizer", "BPO", "--epochs", "1", "--stage", ""]) == 2
    assert "unknown grid stage ''" in capsys.readouterr().err
    assert not (out_dir / "grid_results.csv").exists()


def test_stage_table_runs_the_one_field_sweeps(tmp_path, monkeypatch):
    spec = ExperimentSpec(output_dir=str(tmp_path / "out"), dataset="split",
                          split_dir=write_tiny_split(tmp_path), method="BPO",
                          config=tiny_config(optimizer="BPO", max_epochs=1), repeat_count=1)
    small_grid(monkeypatch, rho=(1, 2), batch_size=(32,), K=(2, 3), L=(0, 1))
    _, table = grid_search(spec, stages=("L", "K", "batch", "rho", "lambda_split"))
    # in table order; L and lambda_split are for noise-aware optimizers only
    assert [(row["stage"], {k: v for k, v in row.items() if k not in ("stage", "val_f1@2")}) for row in table] == [
        ("rho", {"rho": 1}), ("rho", {"rho": 2}), ("batch", {"batch_size": 32}), ("K", {"K": 2}), ("K", {"K": 3}),
    ]


@pytest.mark.parametrize("optimizer, cells", [("NBPO_SS", 86), ("BPO", 51)])
def test_paper_grid_cell_count(tmp_path, monkeypatch, optimizer, cells):
    ds = corpus.load_split(write_tiny_split(tmp_path))
    trained = []

    def stub_train(dataset, cfg):
        trained.append(cfg)
        return fixed_history(dataset, [0.0])

    monkeypatch.setattr(experiment, "train", stub_train)
    spec = ExperimentSpec(str(tmp_path / "out"), dataset="split", method=optimizer, config=tiny_config(seed=7))
    _, table = grid_search(spec, dataset=ds)
    sizes = {"coarse": 9, "fine": 25, "lambda_split": 25, "rho": 7, "batch": 5, "K": 5, "L": 10}
    stages = [stage.name for stage in experiment.STAGES if optimizer == "NBPO_SS" or not stage.noise_aware_only]
    assert [row["stage"] for row in table] == [name for name in stages for _ in range(sizes[name])]
    assert len(trained) == len(table) == cells
    assert [cfg.seed for cfg in trained] == list(range(7, 7 + cells))  # each cell's seed offset is its row
    grid = experiment.GRID
    assert [(row["eta"], row["lambda_theta"]) for row in table[:9]] == [
        (eta, lam) for eta in grid["eta"] for lam in grid["lambda_theta"]]
    for stage in experiment.STAGES:
        if stage.sweep and stage.name in stages:
            assert tuple(row[stage.sweep] for row in table if row["stage"] == stage.name) == grid[stage.sweep]


def test_grid_values_build_train_configs():
    assert set(experiment.GRID) == {"eta", "lambda_theta"} | {stage.sweep for stage in experiment.STAGES if stage.sweep}
    for name, values in experiment.GRID.items():
        assert values, name
        for value in values:
            TrainConfig(**{name: value})


def test_cli_error_exit_code(tmp_path, capsys):
    a_file = tmp_path / "file.txt"
    a_file.write_text("")
    out = str(tmp_path / "out")
    # a missing path, a file where a directory belongs and a directory where a file belongs
    for argv in (["train", "--split-dir", str(tmp_path / "missing"), "--out", out],
                 ["eval", "--split-dir", str(a_file), "--method", "ITEMPOP"],
                 ["plots", "--results", str(tmp_path), "--out", out],
                 ["train", "--split-dir", str(tmp_path), "--config", str(tmp_path), "--out", out]):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv
