"""Experiment harness: preprocessing cache, repeated runs, staged grid search, plot data."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from noisyrec import baselines, corpus
from noisyrec.evaluation import EVAL_KS, evaluate, mf_scorer
from noisyrec.trainer import NOISE_AWARE, Optimizer, TrainConfig, train

BASELINE_METHODS = ("ITEMPOP", "ITEMKNN")
DATASETS = ("movielens", "amazon", "split")


@dataclass
class ExperimentSpec:
    """One experiment, checked when it is made; for a trained method, `config` is what trains."""

    output_dir: str
    dataset: str = "movielens"  # one of DATASETS
    raw_path: Optional[str] = None  # raw ratings file (dataset="movielens" or "amazon")
    split_dir: Optional[str] = None  # pre-made canonical split (dataset="split")
    kcore: int = 1
    split_seed: int = 0
    method: Optional[str] = None  # ITEMPOP / ITEMKNN, or an optimizer name that replaces config.optimizer
    config: TrainConfig = field(default_factory=TrainConfig)
    knn_neighbors: int = 50
    repeat_count: int = 10
    exclude_train: bool = True
    cache_dir: Optional[str] = None

    def __post_init__(self):
        for name in ("kcore", "knn_neighbors", "repeat_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.split_seed < 0:
            raise ValueError(f"split_seed must be >= 0, got {self.split_seed}")
        if self.dataset not in DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}; valid: {', '.join(DATASETS)}")
        if self.method is not None and self.method not in BASELINE_METHODS:
            self.config = replace(self.config, optimizer=self.method)  # an unknown name raises here


def _content_hash(spec: ExperimentSpec) -> str:
    h = hashlib.sha256()
    with open(spec.raw_path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    h.update(f"|{spec.dataset}|{spec.kcore}|{spec.split_seed}".encode())
    return h.hexdigest()[:16]


def build_split(dataset: str, raw_path, kcore: int, split_seed: int) -> corpus.SplitDataset:
    """Load a "movielens" or "amazon" raw file, binarize, k-core filter (kcore > 1) and split; uncached."""
    loader = corpus.load_movielens if dataset == "movielens" else corpus.load_amazon_reviews
    _, table = corpus.binarize_and_index(loader(raw_path))
    if kcore > 1:
        table = corpus.kcore_filter(table, kcore)
    return corpus.split(table, seed=split_seed)


def prepare(spec: ExperimentSpec) -> corpus.SplitDataset:
    """build_split for the spec's raw file, cached by content hash; or the spec's split files."""
    if spec.dataset == "split":
        if not spec.split_dir:
            raise ValueError("dataset='split' requires split_dir")
        return corpus.load_split(spec.split_dir)
    if not spec.raw_path:
        raise ValueError(f"dataset='{spec.dataset}' requires raw_path")
    cache_dir = spec.cache_dir or os.path.join(spec.output_dir, "cache")
    key = _content_hash(spec)
    cached = os.path.join(cache_dir, key)
    if os.path.isdir(cached):
        return corpus.load_split(cached)
    dataset = build_split(spec.dataset, spec.raw_path, spec.kcore, spec.split_seed)
    # write beside the entry and rename it into place: no interrupted write is ever trusted
    os.makedirs(cache_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f".{key}-", dir=cache_dir)
    try:
        corpus.save_split(dataset, tmp)
        os.replace(tmp, cached)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return dataset


def _report_dict(report) -> dict:
    return {
        "f1": {str(k): report.f1[k] for k in EVAL_KS},
        "ndcg": {str(k): report.ndcg[k] for k in EVAL_KS},
        "n_users": report.n_users_evaluated,
    }


def _run_baseline(spec: ExperimentSpec, dataset: corpus.SplitDataset) -> dict:
    scorer = baselines.baseline_scorer(spec.method, dataset.train, spec.knn_neighbors)
    val = evaluate(scorer, dataset.validation, dataset.train, EVAL_KS, spec.exclude_train)
    test = evaluate(scorer, dataset.test, dataset.train, EVAL_KS, spec.exclude_train)
    return {"validation": _report_dict(val), "test": _report_dict(test)}


def run(spec: ExperimentSpec, dataset: Optional[corpus.SplitDataset] = None) -> dict:
    """Execute one experiment: repeat_count seeded runs, per-epoch CSVs, summary JSON."""
    if dataset is None:
        dataset = prepare(spec)
    os.makedirs(spec.output_dir, exist_ok=True)

    summary = {
        "method": spec.method or spec.config.optimizer.value,
        "dataset": spec.dataset,
        "kcore": spec.kcore,
        "split_seed": spec.split_seed,
        "repeat_count": spec.repeat_count,
        "schema_version": 1,
    }
    if spec.method in BASELINE_METHODS:
        summary["repeats"] = [_run_baseline(spec, dataset)]
    else:
        summary["config"] = dataclasses.asdict(spec.config)
        repeats = []
        for rep in range(spec.repeat_count):
            cfg = replace(spec.config, seed=spec.config.seed + rep)
            history = train(dataset, cfg, exclude_train=spec.exclude_train)
            if history.best_epoch < 0:
                raise ValueError(f"{cfg.optimizer.value} seed {cfg.seed} diverged at epoch 0: no snapshot to test")
            csv_path = os.path.join(spec.output_dir, f"epochs_seed{cfg.seed}.csv")
            with open(csv_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(history.to_csv_lines()) + "\n")
            test = evaluate(
                mf_scorer(history.best_theta), dataset.test, dataset.train,
                EVAL_KS, spec.exclude_train,
            )
            best = history.epochs[history.best_epoch].report
            repeats.append({
                "seed": cfg.seed,
                "best_epoch": history.best_epoch,
                "diverged_at": history.diverged_at,
                "validation": _report_dict(best),
                "test": _report_dict(test),
            })
        summary["repeats"] = repeats

    for split_name in ("validation", "test"):
        for metric in ("f1", "ndcg"):
            for k in EVAL_KS:
                vals = [r[split_name][metric][str(k)] for r in summary["repeats"]]
                summary.setdefault(f"mean_{split_name}", {}).setdefault(metric, {})[str(k)] = float(np.mean(vals))
                summary.setdefault(f"std_{split_name}", {}).setdefault(metric, {})[str(k)] = float(np.std(vals))

    with open(os.path.join(spec.output_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


# ---------------------------------------------------------------------------
# grid search


@dataclass
class GridSpec:
    coarse_eta: Sequence[float] = (0.001, 0.01, 0.1)
    coarse_lambda: Sequence[float] = (0.01, 0.1, 1.0)
    rho_range: Sequence[int] = (1, 2, 3, 4, 5, 6, 7)
    batch_range: Sequence[int] = (1000, 2000, 3000, 4000, 5000)
    K_range: Sequence[int] = (10, 20, 50, 100, 200)
    L_range: Sequence[int] = (0, 1, 2, 5, 10, 20, 50, 100, 200, 500)

    def __post_init__(self):
        for name in ("coarse_eta", "coarse_lambda", "rho_range", "batch_range", "K_range", "L_range"):
            if not len(getattr(self, name)):
                raise ValueError(f"{name} must be nonempty")


class Stage(NamedTuple):
    name: str
    plot_file: str  # emit_plots writes the stage's rows of the results table here
    sweep: Optional[Tuple[str, str]] = None  # (GridSpec range, TrainConfig field) of a one-field sweep
    noise_aware_only: bool = False


# in the order grid_search runs them
STAGES = (
    Stage("coarse", "eta_lambda_coarse.csv"),
    Stage("fine", "eta_lambda_fine.csv"),
    Stage("lambda_split", "lambda_grid.csv", noise_aware_only=True),
    Stage("rho", "rho_sweep.csv", ("rho_range", "rho")),
    Stage("batch", "batch_sweep.csv", ("batch_range", "batch_size")),
    Stage("K", "k_sweep.csv", ("K_range", "K")),
    Stage("L", "l_sweep.csv", ("L_range", "L"), noise_aware_only=True),
)
ALL_STAGES = tuple(stage.name for stage in STAGES)


def fine_values(v: float) -> List[float]:
    """Fine sweep around a coarse winner: {v/5, v/2, v, 2v, 5v}."""
    return sorted({v / 5, v / 2, v, 2 * v, 5 * v})


def _stage_cells(stage: Stage, grid: GridSpec, best: TrainConfig, noise_aware: bool) -> List[dict]:
    """The stage's cells, each a dict of the TrainConfig fields it sets on top of `best`."""
    if stage.sweep is not None:
        grid_range, field_name = stage.sweep
        return [{field_name: v} for v in getattr(grid, grid_range)]
    if stage.name == "lambda_split":
        return [{"lambda_theta": lt, "lambda_phi": lp}
                for lt in fine_values(best.lambda_theta) for lp in fine_values(best.lambda_phi)]
    # coarse and fine: eta x lambda with the two regularizers tied
    etas, lams = ((grid.coarse_eta, grid.coarse_lambda) if stage.name == "coarse"
                  else (fine_values(best.eta), fine_values(best.lambda_theta)))
    return [{"eta": e, "lambda_theta": lam, "lambda_phi": lam if noise_aware else 0.0} for e in etas for lam in lams]


def _eval_cell(args) -> float:
    dataset, config, exclude_train = args
    history = train(dataset, config, exclude_train=exclude_train)
    return history.best_f1_at_2()


def _run_cells(dataset, configs, exclude_train) -> List[float]:
    value = os.environ.get("NOISYREC_WORKERS", "1")
    workers = int(value) if value.strip().isdecimal() else 0
    if workers < 1:
        raise ValueError(f"NOISYREC_WORKERS must be a positive int, got {value!r}")
    args = [(dataset, cfg, exclude_train) for cfg in configs]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_eval_cell, args))
    return [_eval_cell(a) for a in args]


def grid_search(
    spec: ExperimentSpec,
    grid: GridSpec,
    stages: Optional[Sequence[str]] = None,
    dataset: Optional[corpus.SplitDataset] = None,
) -> Tuple[TrainConfig, List[dict]]:
    """Staged grid search selecting by validation F1@2.

    Stages run in STAGES order: coarse and fine eta x lambda sweeps with the
    two regularizers tied, then an independent lambda_theta x lambda_phi sweep
    (noise-aware variants only), then rho, batch size, K, and L (noise-aware
    only). Ties go to the earlier cell in enumeration order. An unknown stage
    name raises ValueError before any cell trains.
    """
    if spec.method in BASELINE_METHODS:
        raise ValueError("grid search applies to trained optimizers only")
    stages = list(stages) if stages is not None else list(ALL_STAGES)
    unknown = [name for name in stages if name not in ALL_STAGES]
    if unknown:
        raise ValueError(f"unknown grid stage {unknown[0]!r}; valid stages: {','.join(ALL_STAGES)}")
    if dataset is None:
        dataset = prepare(spec)
    best = spec.config
    noise_aware = best.optimizer in NOISE_AWARE
    table: List[dict] = []
    for stage in STAGES:
        if stage.name not in stages or (stage.noise_aware_only and not noise_aware):
            continue
        cells = _stage_cells(stage, grid, best, noise_aware)
        # a cell's seed offset is its row in the results table
        configs = [replace(best, **cell, seed=spec.config.seed + len(table) + n) for n, cell in enumerate(cells)]
        scores = _run_cells(dataset, configs, spec.exclude_train)
        table.extend({"stage": stage.name, **cell, "val_f1@2": score} for cell, score in zip(cells, scores))
        best = replace(configs[scores.index(max(scores))], seed=spec.config.seed)

    os.makedirs(spec.output_dir, exist_ok=True)
    _write_results_table(table, os.path.join(spec.output_dir, "grid_results.csv"))
    with open(os.path.join(spec.output_dir, "grid_best.json"), "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(best), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return best, table


def _write_results_table(table: List[dict], path: str):
    cols: List[str] = []
    for row in table:
        for key in row:
            if key not in cols:
                cols.append(key)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in table:
            fh.write(",".join(str(row.get(c, "")) for c in cols) + "\n")


# ---------------------------------------------------------------------------
# plot-data emission


def emit_plots(table: List[dict], outdir: str, summaries: Optional[List[dict]] = None) -> List[str]:
    """Write one labeled CSV series per figure family.

    `table` is a grid-search results table; `summaries` are run() summaries
    whose mean test metrics become the metric-vs-k comparison series.
    """
    os.makedirs(outdir, exist_ok=True)
    written = []
    for stage in STAGES:
        rows = [r for r in table if r.get("stage") == stage.name]
        if not rows:
            continue
        path = os.path.join(outdir, stage.plot_file)
        _write_results_table(rows, path)
        written.append(path)
    if summaries:
        path = os.path.join(outdir, "metric_vs_k.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("method,k,f1,ndcg\n")
            for s in summaries:
                for k in EVAL_KS:
                    f1 = s["mean_test"]["f1"][str(k)]
                    ndcg = s["mean_test"]["ndcg"][str(k)]
                    fh.write(f"{s['method']},{k},{f1:.10g},{ndcg:.10g}\n")
        written.append(path)
    return written


# Desk-scale preset: paper-tuned MovieLens values with K and epochs cut down
# so the full ordering experiment stays laptop-feasible.
def desk_preset() -> TrainConfig:
    return TrainConfig(
        optimizer=Optimizer.NBPO_SS,
        eta=0.005,
        lambda_theta=0.5,
        lambda_phi=0.5,
        rho=3,
        batch_size=2000,
        K=50,
        L=10,
        max_epochs=30,
        seed=0,
    )


DESK_REPEATS = 3
