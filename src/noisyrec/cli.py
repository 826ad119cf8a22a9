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


def parse_bool(text: str) -> bool:
    """1/0/true/false/yes/no, in any case."""
    value = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}.get(text.lower())
    if value is None:
        raise ValueError(f"expected 1/0/true/false/yes/no, got {text!r}")
    return value


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
            if self.field in {f.name for f in dataclasses.fields(TrainConfig)}:
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
    TrainOption("balance_positives", "balance_positives", parse_bool),
    TrainOption("exclude_train", "exclude_train", parse_bool),
)


def load_config_file(path) -> dict:
    """Flat key = value file of TRAIN_OPTIONS keys, each value parsed; '#' starts a comment."""
    options = {opt.key: opt for opt in TRAIN_OPTIONS}
    values = {}
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
    fields = dataclasses.fields(TrainConfig) + dataclasses.fields(experiment.ExperimentSpec)
    defaults = {f.name: f.default for f in fields}
    for opt in TRAIN_OPTIONS:
        flag = "--" + opt.key.replace("_", "-")
        if opt.parse is parse_bool:  # the flag sets the opposite of the field's default
            on = defaults[opt.field]
            p.add_argument(flag.replace("--", "--no-") if on else flag, action="store_const", const=not on,
                           default=None, dest=opt.key, help=opt.help)
        else:
            p.add_argument(flag, type=opt.read, default=None, dest=opt.key, help=opt.help)
    p.add_argument("--config", default=None, help="flat key=value config file")


def resolve_train_options(args) -> dict:
    """Merge config file values with CLI flags; flags override the file. A flag left out is None."""
    merged = load_config_file(args.config) if args.config else {}
    merged.update({opt.key: getattr(args, opt.key) for opt in TRAIN_OPTIONS if getattr(args, opt.key) is not None})
    return merged


def _fields_of(cls, opts: dict) -> dict:
    """The resolved options that set a field of `cls`, keyed by that field."""
    names = {f.name for f in dataclasses.fields(cls)}
    return {opt.field: opts[opt.key] for opt in TRAIN_OPTIONS if opt.key in opts and opt.field in names}


def build_train_config(opts: dict) -> TrainConfig:
    """TrainConfig from resolved options; options left out keep TrainConfig's defaults."""
    return TrainConfig(**_fields_of(TrainConfig, opts))


def build_spec(args) -> experiment.ExperimentSpec:
    """The train/grid spec: resolved options over the dataset flags."""
    opts = resolve_train_options(args)
    config = build_train_config(opts)
    return experiment.ExperimentSpec(
        output_dir=args.out,
        dataset=args.dataset,
        raw_path=args.raw,
        split_dir=args.split_dir,
        kcore=args.kcore,
        split_seed=args.split_seed,
        config=config,
        **{"repeat_count": 1, **_fields_of(experiment.ExperimentSpec, opts)},  # the CLI runs once by default
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
    stages = args.stage.split(",") if args.stage else None
    best, table = experiment.grid_search(spec, experiment.GridSpec(), stages=stages)
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
    report = evaluate(scorer, heldout, dataset.train,
                      exclude_train=not args.no_exclude_train)
    out = {"f1": report.f1, "ndcg": report.ndcg, "n_users": report.n_users_evaluated}
    print(json.dumps(out, indent=2, sort_keys=True))


def cmd_plots(args):
    with open(args.results, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        table = []
        for lineno, line in enumerate(fh, 2):
            vals = line.rstrip("\n").split(",")
            if len(vals) != len(header):
                raise corpus.ParseError(args.results, lineno, f"expected {len(header)} fields, got {len(vals)}")
            table.append({k: v for k, v in zip(header, vals) if v != ""})
    summaries = []
    for path in args.summary or []:
        with open(path, "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        if not (isinstance(summary, dict) and {"method", "mean_test"} <= summary.keys()):
            raise ValueError(f"{path} is not a run summary: it needs 'method' and 'mean_test'")
        summaries.append(summary)
    written = experiment.emit_plots(table, args.out, summaries or None)
    for path in written:
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
