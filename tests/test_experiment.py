import hashlib
import json
import os
import re
import shlex
from dataclasses import replace

import numpy as np
import pytest

from noisyrec import cli, corpus, experiment
from noisyrec.corpus import InteractionTable, save_split, split
from noisyrec.experiment import ExperimentSpec, GridSpec, desk_preset, fine_values, grid_search, prepare, run
from noisyrec.model import InitSpec, init_params, save_checkpoint
from noisyrec.trainer import Optimizer, TrainConfig


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


def test_spec_without_method_trains_config_optimizer(tmp_path):
    split_dir = write_tiny_split(tmp_path)

    def spec(name, **kw):
        return ExperimentSpec(output_dir=str(tmp_path / name), dataset="split", split_dir=split_dir,
                              config=tiny_config(optimizer="BPO"), repeat_count=1, **kw)

    summary = run(spec("unnamed"))
    assert summary["method"] == "BPO" and summary["config"]["optimizer"] == "BPO"
    run(spec("named", method="BPO"))
    csv = "epochs_seed0.csv"
    assert (tmp_path / "unnamed" / csv).read_bytes() == (tmp_path / "named" / csv).read_bytes()
    best, _ = grid_search(spec("grid"), GridSpec(coarse_eta=(0.05,), coarse_lambda=(0.01,)), stages=("coarse",))
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
            repeat_count=1,
        )
        summary = run(spec)
        assert "mean_test" in summary


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


def test_run_and_grid_with_a_dataset_need_no_path(tmp_path):
    ds = corpus.load_split(write_tiny_split(tmp_path))
    spec = ExperimentSpec(str(tmp_path / "out"), dataset="split", method="BPO",
                          config=tiny_config(max_epochs=1), repeat_count=1)
    assert run(spec, dataset=ds)["method"] == "BPO"
    best, _ = grid_search(spec, GridSpec(coarse_eta=(0.05,), coarse_lambda=(0.01,)), stages=("coarse",), dataset=ds)
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


def test_grid_single_cell(tmp_path):
    spec = ExperimentSpec(
        output_dir=str(tmp_path / "out"),
        dataset="split",
        split_dir=write_tiny_split(tmp_path),
        method="BPO",
        config=tiny_config(optimizer="BPO", max_epochs=1),
        repeat_count=1,
    )
    grid = GridSpec(coarse_eta=(0.05,), coarse_lambda=(0.1,))
    best, table = grid_search(spec, grid, stages=("coarse",))
    assert best.eta == 0.05 and best.lambda_theta == 0.1
    assert len(table) == 1


def test_grid_coarse_enumeration_and_tie_rule(tmp_path):
    spec = ExperimentSpec(
        output_dir=str(tmp_path / "out"),
        dataset="split",
        split_dir=write_tiny_split(tmp_path),
        method="BPO",
        config=tiny_config(optimizer="BPO", max_epochs=1),
        repeat_count=1,
    )
    grid = GridSpec(coarse_eta=(0.01, 0.02), coarse_lambda=(0.1, 0.2))
    best, table = grid_search(spec, grid, stages=("coarse",))
    assert len(table) == 4
    # winner is the first cell achieving the max score in enumeration order
    scores = [row["val_f1@2"] for row in table]
    win_idx = scores.index(max(scores))
    assert best.eta == table[win_idx]["eta"]
    assert best.lambda_theta == table[win_idx]["lambda_theta"]
    # no test metrics anywhere in the grid table (selection uses validation only)
    assert all("test" not in key for row in table for key in row)


def test_grid_results_files(tmp_path):
    spec = ExperimentSpec(
        output_dir=str(tmp_path / "out"),
        dataset="split",
        split_dir=write_tiny_split(tmp_path),
        method="NBPO_SS",
        config=tiny_config(max_epochs=1),
        repeat_count=1,
    )
    grid = GridSpec(coarse_eta=(0.05,), coarse_lambda=(0.1,),
                    rho_range=(1, 2), L_range=(0, 2))
    best, table = grid_search(spec, grid, stages=("coarse", "rho", "L"))
    assert os.path.exists(tmp_path / "out" / "grid_results.csv")
    assert os.path.exists(tmp_path / "out" / "grid_best.json")
    stages = [row["stage"] for row in table]
    assert stages == ["coarse", "rho", "rho", "L", "L"]


def test_grid_results_identical_with_two_workers(tmp_path, monkeypatch):
    split_dir = write_tiny_split(tmp_path)

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
        grid_search(spec, GridSpec(coarse_eta=(0.05, 50.0), coarse_lambda=(0.01, 0.1)), stages=("coarse",))
        return (tmp_path / f"w{workers}" / "grid_results.csv").read_bytes()

    with pytest.warns(RuntimeWarning, match="diverged"):
        serial = once(1)
    assert once(2) == serial


def test_grid_cell_diverging_in_first_epoch_scores_zero(tmp_path):
    spec = ExperimentSpec(
        output_dir=str(tmp_path / "out"),
        dataset="split",
        split_dir=write_tiny_split(tmp_path),
        method="BPO",
        config=tiny_config(optimizer="BPO", batch_size=4),
        repeat_count=1,
    )
    # the first cell (eta 1e3) leaves no evaluated epoch; the second wins on its own score
    with pytest.warns(RuntimeWarning, match="BPO diverged at epoch 0"):
        best, table = grid_search(spec, GridSpec(coarse_eta=(1e3, 0.1), coarse_lambda=(0.01,)), stages=("coarse",))
    assert table[0]["val_f1@2"] == 0.0 and table[1]["val_f1@2"] > 0.0
    assert best.eta == 0.1


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
def test_grid_rejects_bad_worker_count(tmp_path, monkeypatch, value):
    monkeypatch.setenv("NOISYREC_WORKERS", value)
    spec = ExperimentSpec(output_dir=str(tmp_path / "out"), dataset="split",
                          split_dir=write_tiny_split(tmp_path), method="BPO", config=tiny_config())
    with pytest.raises(ValueError, match=re.escape(f"NOISYREC_WORKERS must be a positive int, got {value!r}")):
        grid_search(spec, GridSpec(coarse_eta=(0.05,), coarse_lambda=(0.01,)), stages=("coarse",))
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
    opts = cli.resolve_train_options(args)
    assert opts["optimizer"] == "BPO"
    assert opts["eta"] == 0.05  # flag wins
    assert opts["rho"] == 2
    config = cli.build_train_config(opts)
    assert config.eta == 0.05 and config.rho == 2 and config.K == 3


def test_cli_train_config_defaults_come_from_train_config():
    assert cli.build_train_config({}) == TrainConfig()


def test_cli_unknown_config_key(tmp_path):
    # (file text, the failing line, a word the error must name): an unknown key, a line without
    # '=', values their parsers reject, and values that parse but that the field's check rejects
    cases = [
        ("etaa = 0.1\n", 1, "etaa"),
        ("# a comment\neta 0.1\n", 2, "eta 0.1"),
        ("eta = 0.1\nrho = 2.5\n", 2, "rho"),
        ("exclude_train = ture\n", 1, "exclude_train"),
        ("\nbalance_positives = 2\n", 2, "balance_positives"),
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
            cli.resolve_train_options(args)
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


def test_cli_boolean_config_values(tmp_path):
    parser = cli.build_parser()
    cfg_path = tmp_path / "run.cfg"
    for text, value in [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("NO", False)]:
        cfg_path.write_text(f"exclude_train = {text}\nbalance_positives = {text}\n")
        args = parser.parse_args(["train", "--split-dir", "x", "--out", "y", "--config", str(cfg_path)])
        opts = cli.resolve_train_options(args)
        assert opts["exclude_train"] is value and opts["balance_positives"] is value, text
        spec = cli.build_spec(args)
        assert spec.exclude_train is value and spec.config.balance_positives is value
    # the flags win over the file
    cfg_path.write_text("exclude_train = yes\nbalance_positives = no\n")
    args = parser.parse_args(["train", "--split-dir", "x", "--out", "y", "--config", str(cfg_path),
                              "--no-exclude-train", "--balance-positives"])
    opts = cli.resolve_train_options(args)
    assert opts["exclude_train"] is False and opts["balance_positives"] is True
    # without file or flags: TrainConfig's and ExperimentSpec's defaults, and one repeat
    spec = cli.build_spec(parser.parse_args(["train", "--split-dir", "x", "--out", "y"]))
    assert spec.exclude_train is True and spec.repeat_count == 1 and spec.config == TrainConfig()


def test_cli_plots_rejects_ragged_results_row(tmp_path, capsys):
    results = tmp_path / "grid_results.csv"
    results.write_text("stage,rho,val_f1@2\nrho,1,0.5\nrho,2\n")
    assert cli.main(["plots", "--results", str(results), "--out", str(tmp_path / "plots")]) == 2
    assert f"{results}:3: expected 3 fields, got 2" in capsys.readouterr().err


def test_cli_plots_rejects_summary_without_mean_test(tmp_path, capsys):
    results = tmp_path / "grid_results.csv"
    results.write_text("stage,rho,val_f1@2\nrho,1,0.5\n")
    summary = tmp_path / "summary.json"
    summary.write_text('{"method": "BPO"}\n')
    assert cli.main(["plots", "--results", str(results), "--summary", str(summary),
                     "--out", str(tmp_path / "plots")]) == 2
    err = capsys.readouterr().err
    assert str(summary) in err and "'mean_test'" in err


def test_cli_grid_rejects_unknown_stage(tmp_path, capsys):
    out_dir = tmp_path / "grid_out"
    assert cli.main(["grid", "--split-dir", write_tiny_split(tmp_path), "--out", str(out_dir),
                     "--optimizer", "BPO", "--epochs", "1", "--stage", "coarse,rhoo"]) == 2
    err = capsys.readouterr().err
    assert "'rhoo'" in err and ",".join(experiment.ALL_STAGES) in err
    assert not (out_dir / "grid_results.csv").exists()


def test_stage_table_runs_the_one_field_sweeps(tmp_path):
    spec = ExperimentSpec(output_dir=str(tmp_path / "out"), dataset="split",
                          split_dir=write_tiny_split(tmp_path), method="BPO",
                          config=tiny_config(optimizer="BPO", max_epochs=1), repeat_count=1)
    grid = GridSpec(rho_range=(1, 2), batch_range=(32,), K_range=(2, 3), L_range=(0, 1))
    _, table = grid_search(spec, grid, stages=("L", "K", "batch", "rho", "lambda_split"))
    # in table order; L and lambda_split are for noise-aware optimizers only
    assert [(row["stage"], {k: v for k, v in row.items() if k not in ("stage", "val_f1@2")}) for row in table] == [
        ("rho", {"rho": 1}), ("rho", {"rho": 2}), ("batch", {"batch_size": 32}), ("K", {"K": 2}), ("K", {"K": 3}),
    ]


def test_cli_error_exit_code(tmp_path):
    assert cli.main(["train", "--split-dir", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "out")]) == 2
