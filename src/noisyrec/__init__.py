"""Implicit-feedback matrix factorization with noisy-label robust negative sampling.

Point-wise optimizers (BPO and its noisy-label robust variants), pairwise
baselines (BPR/WBPR), non-gradient baselines (ItemPop/ItemKNN), dataset
ingestion with k-core filtering, top-k ranking evaluation, and a grid-search
experiment harness.
"""

from noisyrec.corpus import (
    InteractionTable,
    SplitDataset,
    binarize_and_index,
    kcore_filter,
    load_amazon_reviews,
    load_movielens,
    split,
)
from noisyrec.model import InitSpec, NoiseParams, PreferenceParams, init_params, rank_topk
from noisyrec.trainer import Optimizer, TrainConfig, TrainHistory, train

__all__ = [
    "InteractionTable",
    "SplitDataset",
    "binarize_and_index",
    "kcore_filter",
    "load_amazon_reviews",
    "load_movielens",
    "split",
    "InitSpec",
    "NoiseParams",
    "PreferenceParams",
    "init_params",
    "rank_topk",
    "Optimizer",
    "TrainConfig",
    "TrainHistory",
    "train",
]
