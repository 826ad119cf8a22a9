"""Command-line experiment harness: prep, train, grid, eval, plots."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from noisyrec import baselines, corpus, experiment
from noisyrec.evaluation import evaluate, mf_scorer
from noisyrec.model import load_checkpoint
from noisyrec.trainer import TrainConfig


def load_config_file(path) -> dict:
    """Flat key=value config file; '#' starts a comment."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            values[key] = val
    return values


def add_dataset_flags(p: argparse.ArgumentParser):
    p.add_argument("--dataset", default="split", choices=["movielens", "amazon", "split"])
    p.add_argument("--raw", default=None)
    p.add_argument("--split-dir", default=None, dest="split_dir")
    p.add_argument("--kcore", type=int, default=1)
    p.add_argument("--split-seed", type=int, default=0, dest="split_seed")
    p.add_argument("--out", required=True)


def add_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--optimizer", default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--lambda-theta", type=float, default=None)
    p.add_argument("--lambda-phi", type=float, default=None)
    p.add_argument("--rho", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--k", type=int, default=None, help="preference latent dimension")
    p.add_argument("--l", type=int, default=None, help="noise latent dimension")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--balance-positives", action="store_true", default=None)
    p.add_argument("--no-exclude-train", action="store_true", default=None)
    p.add_argument("--config", default=None, help="flat key=value config file")


_CONFIG_KEYS = {
    "optimizer": str,
    "eta": float,
    "lambda_theta": float,
    "lambda_phi": float,
    "rho": int,
    "batch_size": int,
    "k": int,
    "l": int,
    "epochs": int,
    "seed": int,
    "repeats": int,
    "balance_positives": lambda s: s.lower() in ("1", "true", "yes"),
    "exclude_train": lambda s: s.lower() in ("1", "true", "yes"),
}


def resolve_train_options(args) -> dict:
    """Merge config file values with CLI flags; flags override the file."""
    merged = {}
    if args.config:
        file_values = load_config_file(args.config)
        for key, raw in file_values.items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            merged[key] = _CONFIG_KEYS[key](raw)
    for key in _CONFIG_KEYS:  # a flag left out is None; exclude_train has only the inverted flag below
        if vars(args).get(key) is not None:
            merged[key] = vars(args)[key]
    if args.no_exclude_train:
        merged["exclude_train"] = False
    return merged


# option names that differ from the TrainConfig field they set
_RENAMED = {"k": "K", "l": "L", "epochs": "max_epochs"}


def build_train_config(opts: dict) -> TrainConfig:
    """TrainConfig from resolved options; options left out keep TrainConfig's defaults."""
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    kwargs = {_RENAMED.get(key, key): val for key, val in opts.items()}
    return TrainConfig(**{key: val for key, val in kwargs.items() if key in fields})


def build_spec(args, opts: dict) -> experiment.ExperimentSpec:
    config = build_train_config(opts)
    return experiment.ExperimentSpec(
        output_dir=args.out,
        dataset=args.dataset,
        raw_path=getattr(args, "raw", None),
        split_dir=getattr(args, "split_dir", None),
        kcore=getattr(args, "kcore", 1),
        split_seed=getattr(args, "split_seed", 0),
        method=config.optimizer.value,
        config=config,
        repeat_count=opts.get("repeats", 1),
        exclude_train=opts.get("exclude_train", True),
    )


def cmd_prep(args):
    dataset = experiment.build_split(args.dataset, args.raw, args.kcore, args.split_seed)
    corpus.save_split(dataset, args.out)
    print(f"split written to {args.out}: {dataset.train.M} users x {dataset.train.N} items "
          f"(train {len(dataset.train)}, valid {len(dataset.validation)}, test {len(dataset.test)})")


def cmd_train(args):
    opts = resolve_train_options(args)
    spec = build_spec(args, opts)
    summary = experiment.run(spec)
    print(json.dumps(summary["mean_test"], indent=2, sort_keys=True))
    print(f"summary written to {spec.output_dir}/summary.json")


def cmd_grid(args):
    opts = resolve_train_options(args)
    spec = build_spec(args, opts)
    stages = args.stage.split(",") if args.stage else None
    best, table = experiment.grid_search(spec, experiment.GridSpec(), stages=stages)
    print(json.dumps(experiment.config_to_dict(best), indent=2, sort_keys=True))
    print(f"{len(table)} cells evaluated; results in {spec.output_dir}/grid_results.csv")


def cmd_eval(args):
    if args.method == "checkpoint" and args.checkpoint is None:
        raise ValueError("eval --method checkpoint requires --checkpoint")
    dataset = corpus.load_split(args.split_dir)
    heldout = dataset.test if args.split == "test" else dataset.validation
    if args.method == "ITEMPOP":
        scorer = baselines.itempop_scorer(baselines.fit_itempop(dataset.train))
    elif args.method == "ITEMKNN":
        model = baselines.fit_itemknn(dataset.train, args.neighbors)
        scorer = baselines.itemknn_scorer(model, dataset.train)
    else:
        theta, _ = load_checkpoint(args.checkpoint)
        shape, split_shape = (len(theta.U), len(theta.V)), (dataset.train.M, dataset.train.N)
        if shape != split_shape:
            raise ValueError(f"checkpoint {args.checkpoint} is {shape[0]}x{shape[1]} (users x items), "
                             f"but the split in {args.split_dir} is {split_shape[0]}x{split_shape[1]}")
        scorer = mf_scorer(theta)
    report = evaluate(scorer, heldout, dataset.train,
                      exclude_train=not args.no_exclude_train)
    out = {"f1": report.f1, "ndcg": report.ndcg, "n_users": report.n_users_evaluated}
    print(json.dumps(out, indent=2, sort_keys=True))


def cmd_plots(args):
    with open(args.results, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        table = []
        for line in fh:
            vals = line.rstrip("\n").split(",")
            table.append({k: v for k, v in zip(header, vals) if v != ""})
    summaries = []
    for path in args.summary or []:
        with open(path, "r", encoding="utf-8") as fh:
            summaries.append(json.load(fh))
    written = experiment.emit_plots(table, args.out, summaries or None)
    for path in written:
        print(path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="noisyrec")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prep", help="ingest raw ratings, filter, split")
    p.add_argument("--dataset", choices=["movielens", "amazon"], required=True)
    p.add_argument("--raw", required=True, help="raw ratings file")
    p.add_argument("--kcore", type=int, default=1)
    p.add_argument("--split-seed", type=int, default=0, dest="split_seed")
    p.add_argument("--out", required=True, help="output split directory")
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("train", help="train an optimizer and report test metrics")
    add_dataset_flags(p)
    add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid", help="staged hyperparameter grid search")
    add_dataset_flags(p)
    p.add_argument("--stage", default=None,
                   help="comma-separated subset of: coarse,fine,lambda_split,rho,batch,K,L")
    add_train_flags(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("eval", help="evaluate a checkpoint or baseline on a split")
    p.add_argument("--split-dir", required=True, dest="split_dir")
    p.add_argument("--split", default="test", choices=["validation", "test"])
    p.add_argument("--method", default="checkpoint", choices=["checkpoint", "ITEMPOP", "ITEMKNN"])
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--neighbors", type=int, default=50)
    p.add_argument("--no-exclude-train", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plots", help="emit plot-data CSVs from grid results")
    p.add_argument("--results", required=True, help="grid_results.csv path")
    p.add_argument("--summary", action="append", default=None,
                   help="run summary JSON (repeatable)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plots)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
