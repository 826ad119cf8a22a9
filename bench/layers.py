"""The package's layers as the traced run sees them, and their per-layer metrics.

``install`` wraps the public functions of each module (``corpus``, ``model``,
``objective``, ``trainer``, ``evaluation``, ``baselines``, ``experiment``) at
every binding the workloads reach, so spans come from outside the package.
``metrics`` turns the spans and counts into the per-layer metrics listed in
``PER_LAYER``: each is the median, over the traced runs of its phase (set-ups
or flows), of that run's total.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, NamedTuple

import numpy as np

from tracer import Tracer

SETUP, FLOW = "setup", "flow"


def install(tr: Tracer) -> None:
    from noisyrec import baselines, corpus, evaluation, experiment, model, trainer

    def add(name, value):
        tr.count(name, value)

    # corpus: experiment.prepare reaches these through the `corpus.` module
    tr.wrap(corpus, "load_amazon_reviews", "corpus.parse",
            after=lambda rows, *a, **k: add("corpus.raw_rows", len(rows)))
    tr.wrap(corpus, "binarize_and_index", "corpus.binarize")

    def kcore_after(result, table, *a, **k):
        kept = result[0] if isinstance(result, tuple) else result
        add("corpus.kcore_in", len(table))
        add("corpus.kcore_out", len(kept))

    tr.wrap(corpus, "kcore_filter", "corpus.kcore", after=kcore_after)
    tr.wrap(corpus, "split", "corpus.split")

    def save_after(result, dataset, directory, *a, **k):
        for name in os.listdir(directory):
            add("corpus.split_bytes", os.path.getsize(os.path.join(directory, name)))

    tr.wrap(corpus, "save_split", "corpus.save_split", after=save_after)
    tr.wrap(corpus, "load_split", "corpus.load_split")

    # model, including the names trainer and evaluation imported
    for mod in (model, trainer):
        tr.wrap(mod, "init_params", "model.init_params")
    for mod in (model, evaluation):
        tr.wrap(mod, "topk_from_scores", "model.topk")
    tr.wrap(model, "save_checkpoint", "model.save_checkpoint",
            after=lambda r, path, *a, **k: add("model.checkpoint_bytes", os.path.getsize(path)))
    tr.wrap(model, "load_checkpoint", "model.load_checkpoint")

    # objective, as the trainer calls it
    for attr in ("sigmoid", "log_sigmoid", "surrogate_coefficients_vec"):
        tr.wrap(trainer, attr, "objective")

    # trainer
    def step_after(batch):
        add("trainer.positives", len(batch.pos_u))
        add("trainer.negatives", len(batch.neg_j))

    tr.wrap(trainer, "point_step", "trainer.step", after=lambda r, th, ph, batch, cfg: step_after(batch))
    tr.wrap(trainer, "pairwise_step", "trainer.step", after=lambda r, th, batch, cfg: step_after(batch))
    for mod in (trainer, experiment):
        tr.wrap(mod, "train", "trainer.train")

    # evaluation: the scorer it is handed is timed per call
    def traced_evaluate(original):
        def evaluate(scorer, heldout, train, *args, **kwargs):
            if tr.active:
                scorer = tr.traced("evaluation.score", scorer)
            report = tr.call("evaluation.evaluate", original, scorer, heldout, train, *args, **kwargs)
            if tr.active:
                exclude = kwargs.get("exclude_train", args[1] if len(args) > 1 else True)
                users = [u for u in range(heldout.M) if heldout.per_user[u]]
                add("evaluation.evaluate.calls", 1)
                add("evaluation.users", report.n_users_evaluated)
                add("evaluation.items_ranked", sum(
                    train.N - (len(train.per_user[u]) if exclude else 0) for u in users))
            return report
        return evaluate

    for mod in (evaluation, experiment):
        tr.patch(mod, "evaluate", traced_evaluate)

    # baselines
    tr.wrap(baselines, "fit_itempop", "baselines.fit_itempop")
    tr.wrap(baselines, "fit_itemknn", "baselines.fit_itemknn")
    tr.wrap(baselines, "itemknn_scorer", "baselines.itemknn_scorer")

    # experiment: prepare's self time is hashing the raw file and the cache check
    tr.wrap(experiment, "prepare", "experiment.prepare")


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    value: Callable  # (tracer, {phase: [run ids]}) -> float


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _total(span, phase, own=False):
    return lambda tr, runs: _median(tr.per_run([span], runs[phase], self_time=own))


def _count(counter, phase):
    return lambda tr, runs: _median(tr.counts_per_run(counter, runs[phase]))


def _step_ms(q):
    def value(tr, runs):
        d = tr.durations(["trainer.step"], runs[FLOW])
        return float(np.percentile(d, q) * 1e3) if d else 0.0
    return value


def _kept_ratio(tr, runs):
    kept = sum(tr.counts_per_run("corpus.kcore_out", runs[SETUP]))
    seen = sum(tr.counts_per_run("corpus.kcore_in", runs[SETUP]))
    return kept / seen if seen else 0.0


PER_LAYER: List[Layer] = [
    Layer("corpus.parse_s", "s", "lower", _total("corpus.parse", SETUP)),
    Layer("corpus.binarize_s", "s", "lower", _total("corpus.binarize", SETUP)),
    Layer("corpus.kcore_s", "s", "lower", _total("corpus.kcore", SETUP)),
    Layer("corpus.split_s", "s", "lower", _total("corpus.split", SETUP)),
    Layer("corpus.save_split_s", "s", "lower", _total("corpus.save_split", SETUP)),
    Layer("corpus.load_split_s", "s", "lower", _total("corpus.load_split", SETUP)),
    Layer("corpus.raw_rows", "count", "higher", _count("corpus.raw_rows", SETUP)),
    Layer("corpus.kcore_kept_ratio", "ratio", "higher", _kept_ratio),
    Layer("corpus.split_bytes", "bytes", "lower", _count("corpus.split_bytes", SETUP)),
    Layer("trainer.train_s", "s", "lower", _total("trainer.train", FLOW)),
    Layer("trainer.step_s", "s", "lower", _total("trainer.step", FLOW)),
    Layer("trainer.step_ms_p50", "ms", "lower", _step_ms(50)),
    Layer("trainer.step_ms_p95", "ms", "lower", _step_ms(95)),
    Layer("trainer.steps", "count", "lower", _count("trainer.step.calls", FLOW)),
    Layer("trainer.positives", "count", "higher", _count("trainer.positives", FLOW)),
    Layer("trainer.negatives", "count", "higher", _count("trainer.negatives", FLOW)),
    Layer("trainer.step_self_s", "s", "lower", _total("trainer.step", FLOW, own=True)),
    Layer("trainer.self_s", "s", "lower", _total("trainer.train", FLOW, own=True)),
    Layer("objective.s", "s", "lower", _total("objective", FLOW)),
    Layer("objective.calls", "count", "lower", _count("objective.calls", FLOW)),
    Layer("model.topk_s", "s", "lower", _total("model.topk", FLOW)),
    Layer("model.topk_calls", "count", "lower", _count("model.topk.calls", FLOW)),
    Layer("evaluation.evaluate_s", "s", "lower", _total("evaluation.evaluate", FLOW)),
    Layer("evaluation.calls", "count", "lower", _count("evaluation.evaluate.calls", FLOW)),
    Layer("evaluation.users", "count", "higher", _count("evaluation.users", FLOW)),
    Layer("evaluation.items_ranked", "count", "higher", _count("evaluation.items_ranked", FLOW)),
    Layer("evaluation.score_s", "s", "lower", _total("evaluation.score", FLOW)),
    Layer("evaluation.self_s", "s", "lower", _total("evaluation.evaluate", FLOW, own=True)),
    Layer("model.init_params_s", "s", "lower", _total("model.init_params", FLOW)),
    Layer("model.save_checkpoint_s", "s", "lower", _total("model.save_checkpoint", FLOW)),
    Layer("model.load_checkpoint_s", "s", "lower", _total("model.load_checkpoint", FLOW)),
    Layer("model.checkpoint_bytes", "bytes", "lower", _count("model.checkpoint_bytes", FLOW)),
    Layer("baselines.fit_itempop_s", "s", "lower", _total("baselines.fit_itempop", FLOW)),
    Layer("baselines.fit_itemknn_s", "s", "lower", _total("baselines.fit_itemknn", FLOW)),
    Layer("baselines.itemknn_scorer_s", "s", "lower", _total("baselines.itemknn_scorer", FLOW)),
    Layer("experiment.prepare_s", "s", "lower", _total("experiment.prepare", SETUP)),
    Layer("experiment.self_s", "s", "lower", _total("experiment.prepare", SETUP, own=True)),
]


def metrics(tr: Tracer, runs: Dict[str, List[str]]) -> Dict[str, float]:
    return {layer.name: layer.value(tr, runs) for layer in PER_LAYER}
