"""The benchmark's three workloads: set-up, one pass of the main flow, output checks.

Each workload is single-process and closed-loop: one caller that waits for
every call to return. A workload is set up several times (each set-up is
timed on its own) and then its main flow runs again and again with the same
seed, so every pass must produce the same outputs.

* ``ml1m-nbpo-ss``: dense ML-1M-shaped split. Set-up ``corpus.load_split``;
  main flow ``experiment.run`` with NBPO_SS (train, validate every epoch, test
  the best snapshot, write the epoch CSV). SGD and validation ranking each
  take about half an epoch.
* ``amazon-wbpr``: sparse Amazon-like raw reviews. Set-up is a cold-cache
  ``experiment.prepare`` (parse, binarize, 5-core, split, write split files);
  main flow ``experiment.run`` with WBPR, the only run of the pairwise step
  and the popularity sampler. Ranking over many items dominates its epochs.
* ``ml1m-rank``: the dense split with no SGD. Main flow: checkpoint write and
  read of a seeded model, then test evaluations of MF, ItemPop (integer
  scores, heavy ties at the top-k boundary) and ItemKNN (dense M x N and
  N x N matrices: the memory-heavy flow).

Phase boundaries are taken from outside the package: ``PhaseProbe`` wraps the
``train`` and ``evaluate`` bindings the flows call.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from tracer import Tracer

EVAL_KS = (2, 5, 10, 20)
CHECK_USERS = 64  # users whose rank_topk lists are checked for train positives


@dataclass
class Eval:
    label: str
    seconds: float
    end: float
    report: object
    heldout: object


@dataclass
class Flow:
    """What one pass of the main flow did, as seen from outside the package."""

    wall: float
    traced: bool
    evals: List[Eval]
    train_spans: List[tuple] = field(default_factory=list)  # (start, end, history, dataset)
    csv: Optional[bytes] = None
    ndcg10: float = 0.0
    model: object = None  # PreferenceParams ranked by the flow's final test
    checkpoint: Optional[tuple] = None  # (written, read) parameter pairs

    @property
    def epochs(self) -> List[float]:
        """Wall time of each epoch, its validation pass included."""
        out = []
        for start, end, history, _ in self.train_spans:
            marks = [e.end for e in self.evals if start <= e.end <= end][: len(history.epochs)]
            out += list(np.diff([start] + marks))
        return out

    @property
    def sgd_seconds(self) -> float:
        total = sum(end - start for start, end, _, _ in self.train_spans)
        val = sum(e.seconds for e in self.evals if e.label == "validation")
        return total - val

    @property
    def train_positives(self) -> int:
        """Train positives stepped over (each carries rho negatives)."""
        return sum(len(h.epochs) * len(ds.train) for _, _, h, ds in self.train_spans)


class PhaseProbe:
    """Times ``train`` and ``evaluate`` calls from outside the package."""

    def __init__(self, patcher: Tracer):
        self.evals: List[Eval] = []
        self.trains: List[tuple] = []
        self._label = "test"
        from noisyrec import evaluation, experiment

        def probe_evaluate(original):
            def evaluate(scorer, heldout, train, *args, **kwargs):
                t0 = time.perf_counter()
                report = original(scorer, heldout, train, *args, **kwargs)
                t1 = time.perf_counter()
                self.evals.append(Eval(self._label, t1 - t0, t1, report, heldout))
                return report
            return evaluate

        def probe_train(original):
            def train(dataset, config, *args, **kwargs):
                self._label = "validation"
                t0 = time.perf_counter()
                try:
                    history = original(dataset, config, *args, **kwargs)
                finally:
                    self._label = "test"
                self.trains.append((t0, time.perf_counter(), history, dataset))
                return history
            return train

        for mod in (evaluation, experiment):
            patcher.patch(mod, "evaluate", probe_evaluate)
        patcher.patch(experiment, "train", probe_train)

    def take(self):
        evals, trains = self.evals, self.trains
        self.evals, self.trains = [], []
        return evals, trains


@dataclass
class Context:
    work: str  # per-run working directory inside the checkout
    data: str  # generated inputs
    seed: int
    epochs: int
    dataset: object = None
    spec: object = None
    setup_digests: List[str] = field(default_factory=list)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


# -- set-up -----------------------------------------------------------------


def setup_ml(ctx: Context, k: int):
    from noisyrec import corpus
    ctx.dataset = corpus.load_split(os.path.join(ctx.data, "ml"))


def setup_amazon(ctx: Context, k: int):
    from noisyrec import experiment
    cache = os.path.join(ctx.work, f"cache{k}")
    spec = replace(ctx.spec, cache_dir=cache)
    ctx.dataset = experiment.prepare(spec)
    (key,) = os.listdir(cache)
    ctx.setup_digests.append("".join(
        _sha256(os.path.join(cache, key, f"{name}.txt")) for name in ("train", "valid", "test")))


# -- main flows -------------------------------------------------------------


def _train_config(optimizer: str, ctx: Context):
    from noisyrec.trainer import TrainConfig
    # learning rates that learn within a few epochs, so the quality check can
    # see a broken gradient (the paper-tuned desk preset barely moves in 3)
    return TrainConfig(
        optimizer=optimizer, eta=0.05 if optimizer == "NBPO_SS" else 0.1, lambda_theta=0.01,
        lambda_phi=0.01 if optimizer == "NBPO_SS" else 0.0,
        rho=3, batch_size=2000, K=50, L=10 if optimizer == "NBPO_SS" else 0,
        max_epochs=ctx.epochs, seed=ctx.seed, init_scale=0.1,
    )


def spec_for(workload: str, ctx: Context):
    from noisyrec.experiment import ExperimentSpec
    if workload == "amazon-wbpr":
        return ExperimentSpec(
            output_dir=os.path.join(ctx.work, "out"), dataset="amazon",
            raw_path=os.path.join(ctx.data, "amazon.jsonl"), kcore=5, split_seed=ctx.seed,
            method="WBPR", config=_train_config("WBPR", ctx), repeat_count=1,
        )
    return ExperimentSpec(
        output_dir=os.path.join(ctx.work, "out"), dataset="split",
        split_dir=os.path.join(ctx.data, "ml"), method="NBPO_SS",
        config=_train_config("NBPO_SS", ctx), repeat_count=1,
    )


def trained_flow(ctx: Context, j: int) -> dict:
    from noisyrec import experiment
    spec = replace(ctx.spec, output_dir=os.path.join(ctx.work, f"flow{j}"))
    summary = experiment.run(spec, dataset=ctx.dataset)
    with open(os.path.join(spec.output_dir, f"epochs_seed{spec.config.seed}.csv"), "rb") as fh:
        csv = fh.read()
    return {"csv": csv, "ndcg10": summary["repeats"][0]["test"]["ndcg"]["10"]}


def rank_flow(ctx: Context, j: int) -> dict:
    from noisyrec import baselines, evaluation, model
    ds = ctx.dataset
    theta, phi = model.init_params(ds.train.M, ds.train.N, 50, 10, model.InitSpec(seed=ctx.seed, scale=0.1))
    path = os.path.join(ctx.work, f"flow{j}.ckpt")
    model.save_checkpoint(path, theta, phi)
    read = model.load_checkpoint(path)
    evaluation.evaluate(evaluation.mf_scorer(read[0]), ds.test, ds.train, EVAL_KS)
    pop = baselines.fit_itempop(ds.train)
    evaluation.evaluate(baselines.itempop_scorer(pop), ds.test, ds.train, EVAL_KS)
    knn = baselines.fit_itemknn(ds.train, 50)
    report = evaluation.evaluate(baselines.itemknn_scorer(knn, ds.train), ds.test, ds.train, EVAL_KS)
    return {"ndcg10": report.ndcg[10], "model": read[0], "checkpoint": ((theta, phi), read)}


@dataclass(frozen=True)
class Workload:
    name: str
    data: str  # which generated input it needs: "ml" or "amazon"
    setup: Callable
    flow: Callable
    trained: bool


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("ml1m-nbpo-ss", "ml", setup_ml, trained_flow, True),
        Workload("amazon-wbpr", "amazon", setup_amazon, trained_flow, True),
        Workload("ml1m-rank", "ml", setup_ml, rank_flow, False),
    )
}


def run_flow(workload: Workload, ctx: Context, probe: PhaseProbe, j: int, traced: bool) -> Flow:
    t0 = time.perf_counter()
    out = workload.flow(ctx, j)
    wall = time.perf_counter() - t0
    evals, trains = probe.take()
    flow = Flow(wall=wall, traced=traced, evals=evals, train_spans=trains,
                csv=out.get("csv"), ndcg10=out["ndcg10"], model=out.get("model"),
                checkpoint=out.get("checkpoint"))
    if trains:
        flow.model = trains[-1][2].best_theta
    return flow


# -- output checks ----------------------------------------------------------


def _users_with_heldout(table) -> int:
    return len({u for u, _ in table.positives})


def check_flows(workload: Workload, ctx: Context, flows: List[Flow], seed: int) -> List[tuple]:
    """(check name, passed) for every output check on the flows' results."""
    from noisyrec import model
    checks = []
    for j, flow in enumerate(flows):
        for k, e in enumerate(flow.evals):
            values = list(e.report.f1.values()) + list(e.report.ndcg.values())
            checks.append((f"flow{j}.eval{k}.{e.label}.metrics_in_unit_range",
                           all(0.0 <= v <= 1.0 for v in values)))
            checks.append((f"flow{j}.eval{k}.{e.label}.users_evaluated",
                           e.report.n_users_evaluated == _users_with_heldout(e.heldout)))
        for _, _, history, _ in flow.train_spans:
            checks.append((f"flow{j}.objectives_finite",
                           all(math.isfinite(r.objective) for r in history.epochs)))
            checks.append((f"flow{j}.val_f1@2_beats_epoch0",
                           history.best_f1_at_2() > history.epochs[0].report.f1[2]))
        if flow.checkpoint is not None:
            (theta, phi), (theta2, phi2) = flow.checkpoint
            checks.append((f"flow{j}.checkpoint_round_trip", all(
                np.array_equal(a, b) for a, b in
                ((theta.U, theta2.U), (theta.V, theta2.V), (phi.P, phi2.P), (phi.Q, phi2.Q)))))
        if j > 0:
            same = [a.report == b.report for a, b in zip(flows[0].evals, flow.evals)]
            checks.append((f"flow{j}.same_metrics_as_flow0",
                           len(flow.evals) == len(flows[0].evals) and all(same)))
            if workload.trained:
                checks.append((f"flow{j}.epoch_csv_identical", flow.csv == flows[0].csv))
    train = ctx.dataset.train
    rng = np.random.default_rng([seed, 4])
    users = rng.choice(train.M, size=min(CHECK_USERS, train.M), replace=False)
    clean = all(
        (int(u), i) not in train.positives
        for u in users
        for i in model.rank_topk(flows[-1].model, int(u), 20, set(train.per_user[u]))
    )
    checks.append(("rank_topk_excludes_train_positives", clean))
    if ctx.setup_digests:
        checks.append(("setup_split_files_identical", len(set(ctx.setup_digests)) == 1))
    return checks
