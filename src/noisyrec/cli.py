"""Command-line experiment harness: prep, train, grid, eval, plots."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Callable, NamedTuple, Optional

from noisyrec import baselines, corpus, experiment
from noisyrec.evaluation import evaluate, mf_scorer
from noisyrec.model import load_checkpoint
from noisyrec.trainer import TrainConfig


TRAIN_FIELDS = frozenset(f.name for f in dataclasses.fields(TrainConfig))  # the rest set ExperimentSpec fields


class TrainOption(NamedTuple):
    key: str  # config-file key; the flag is --key with '-' for '_'
    field: str  # the TrainConfig or ExperimentSpec field it sets
    parse: Callable[[str], object]
    help: Optional[str] = None

    def read(self, text: str):
        """text parsed, once the TrainConfig or ExperimentSpec check of the field accepts it.

        Raises ArgumentTypeError, whose message argparse shows after the flag's name.
        """
        try:
            value = self.parse(text)
            if self.field in TRAIN_FIELDS:
                TrainConfig(**{self.field: value})
            else:
                experiment.ExperimentSpec("", **{self.field: value})
            return value
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None


TRAIN_OPTIONS = (
    TrainOption("optimizer", "optimizer", str),
    TrainOption("eta", "eta", float),
    TrainOption("lambda_theta", "lambda_theta", float),
    TrainOption("lambda_phi", "lambda_phi", float),
    TrainOption("rho", "rho", int),
    TrainOption("batch_size", "batch_size", int),
    TrainOption("k", "K", int, "preference latent dimension"),
    TrainOption("l", "L", int, "noise latent dimension"),
    TrainOption("epochs", "max_epochs", int),
    TrainOption("seed", "seed", int),
    TrainOption("repeats", "repeat_count", int),
)


def load_config_file(path) -> dict:
    """Flat key = value file of TRAIN_OPTIONS keys, each set once and parsed; '#' starts a comment."""
    options = {opt.key: opt for opt in TRAIN_OPTIONS}
    values, first = {}, {}  # first: the line each key is set on
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, raw = (s.strip() for s in line.partition("="))
            if not eq:
                raise corpus.ParseError(path, lineno, f"expected key = value, got {line!r}")
            if key not in options:
                raise corpus.ParseError(path, lineno, f"unknown config key {key!r}")
            if key in first:
                raise corpus.ParseError(path, lineno, f"config key {key!r} repeats line {first[key]}")
            first[key] = lineno
            try:
                values[key] = options[key].read(raw)
            except argparse.ArgumentTypeError as exc:
                raise corpus.ParseError(path, lineno, f"bad value for {key!r}: {exc}") from None
    return values


def add_split_flags(p: argparse.ArgumentParser):
    """--kcore and --split-seed, each checked by the ExperimentSpec field it sets."""
    p.add_argument("--kcore", type=TrainOption("kcore", "kcore", int).read, default=1)
    p.add_argument("--split-seed", type=TrainOption("split_seed", "split_seed", int).read, default=0)


def add_dataset_flags(p: argparse.ArgumentParser):
    p.add_argument("--dataset", default="split", choices=experiment.DATASETS)
    p.add_argument("--raw", default=None)
    p.add_argument("--split-dir", default=None, dest="split_dir")
    add_split_flags(p)
    p.add_argument("--out", required=True)


def add_train_flags(p: argparse.ArgumentParser):
    for opt in TRAIN_OPTIONS:
        p.add_argument("--" + opt.key.replace("_", "-"), type=opt.read, default=None, dest=opt.key, help=opt.help)
    p.add_argument("--config", default=None, help="flat key=value config file")


def build_spec(args) -> experiment.ExperimentSpec:
    """The train/grid spec: the config file's values, the flags over them, and the dataset flags.

    An option set by neither keeps its TrainConfig or ExperimentSpec default, but for repeats:
    the CLI runs once by default.
    """
    values = load_config_file(args.config) if args.config else {}
    values.update({opt.key: getattr(args, opt.key) for opt in TRAIN_OPTIONS if getattr(args, opt.key) is not None})
    config, spec = {}, {"repeat_count": 1}
    for opt in TRAIN_OPTIONS:
        if opt.key in values:
            (config if opt.field in TRAIN_FIELDS else spec)[opt.field] = values[opt.key]
    return experiment.ExperimentSpec(
        output_dir=args.out, dataset=args.dataset, raw_path=args.raw, split_dir=args.split_dir,
        kcore=args.kcore, split_seed=args.split_seed, config=TrainConfig(**config), **spec,
    )


def cmd_prep(args):
    dataset = experiment.build_split(args.dataset, args.raw, args.kcore, args.split_seed)
    corpus.save_split(dataset, args.out)
    print(f"split written to {args.out}: {dataset.train.M} users x {dataset.train.N} items "
          f"(train {len(dataset.train)}, valid {len(dataset.validation)}, test {len(dataset.test)})")


def cmd_train(args):
    spec = build_spec(args)
    summary = experiment.run(spec)
    print(json.dumps(summary["mean_test"], indent=2, sort_keys=True))
    print(f"summary written to {spec.output_dir}/summary.json")


def cmd_grid(args):
    spec = build_spec(args)
    stages = args.stage.split(",") if args.stage is not None else None
    best, table = experiment.grid_search(spec, stages=stages)
    print(json.dumps(dataclasses.asdict(best), indent=2, sort_keys=True))
    print(f"{len(table)} cells evaluated; results in {spec.output_dir}/grid_results.csv")


def cmd_eval(args):
    if args.method == "checkpoint" and args.checkpoint is None:
        raise ValueError("eval --method checkpoint requires --checkpoint")
    dataset = corpus.load_split(args.split_dir)
    heldout = dataset.test if args.split == "test" else dataset.validation
    if args.method in experiment.BASELINE_METHODS:
        scorer = baselines.baseline_scorer(args.method, dataset.train, args.neighbors)
    else:
        theta, _ = load_checkpoint(args.checkpoint)
        shape, split_shape = (len(theta.U), len(theta.V)), (dataset.train.M, dataset.train.N)
        if shape != split_shape:
            raise ValueError(f"checkpoint {args.checkpoint} is {shape[0]}x{shape[1]} (users x items), "
                             f"but the split in {args.split_dir} is {split_shape[0]}x{split_shape[1]}")
        scorer = mf_scorer(theta)
    report = evaluate(scorer, heldout, dataset.train)
    out = {"f1": report.f1, "ndcg": report.ndcg, "n_users": report.n_users_evaluated}
    print(json.dumps(out, indent=2, sort_keys=True))


def cmd_plots(args):
    table = experiment.read_results_table(args.results)
    summaries = [experiment.read_summary(path) for path in args.summary or []]  # all read before any write
    if not table and not summaries:
        raise ValueError(f"{args.results} has no grid rows and no --summary is given: no plot to write")
    for path in experiment.emit_plots(table, args.out, summaries or None):
        print(path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="noisyrec")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prep", help="ingest raw ratings, filter, split")
    p.add_argument("--dataset", choices=["movielens", "amazon"], required=True)
    p.add_argument("--raw", required=True, help="raw ratings file")
    add_split_flags(p)
    p.add_argument("--out", required=True, help="output split directory")
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("train", help="train an optimizer and report test metrics")
    add_dataset_flags(p)
    add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid", help="staged hyperparameter grid search")
    add_dataset_flags(p)
    p.add_argument("--stage", default=None,
                   help="comma-separated subset of: " + ",".join(experiment.ALL_STAGES))
    add_train_flags(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("eval", help="evaluate a checkpoint or baseline on a split")
    p.add_argument("--split-dir", required=True, dest="split_dir")
    p.add_argument("--split", default="test", choices=["validation", "test"])
    p.add_argument("--method", default="checkpoint", choices=("checkpoint", *experiment.BASELINE_METHODS))
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--neighbors", type=TrainOption("knn_neighbors", "knn_neighbors", int).read, default=50)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
