"""Implicit-feedback matrix factorization with noisy-label robust negative sampling.

Point-wise optimizers (BPO and its noisy-label robust variants), pairwise
baselines (BPR/WBPR), non-gradient baselines (ItemPop/ItemKNN), dataset
ingestion with k-core filtering, top-k ranking evaluation, and a grid-search
experiment harness. Import the modules by name, e.g.
``from noisyrec.trainer import TrainConfig, train``.
"""
