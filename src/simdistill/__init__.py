"""Desk-scale lab for similarity-distillation self-supervised learning.

A slowly moving EMA teacher scores each query's cosine similarities
against a FIFO bank of anchor embeddings; the student learns to
reproduce that distribution for an independently augmented view. The
contrastive (one-hot target) and bootstrap (direct regression) baselines
share the same machinery for matched comparisons.
"""

from .augment import AGGRESSIVE, IDENTITY, MILD, NOISY, AugmentPolicy, augment, mean_distortion
from .bank import AnchorBank
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import RunConfig, apply_overrides, load_config, parse_config, serialize_config
from .data import LabeledDataset, gen_gaussian_mixture, load_dataset, make_unbalanced, save_dataset
from .evaluation import EmbeddingTable, embed_dataset, knn_eval, linear_probe, recall_at_k
from .losses import (LossConfig, anchor_cross_entropy_batch, anchor_distribution_batch,
                     byol_loss_batch, distribution_entropy, isd_loss_batch, moco_loss_batch)
from .nn import (MlpParams, MlpSpec, ModelPair, SgdState, default_encoder_spec,
                 default_predictor_spec, ema_update, init_params, mlp_forward, sgd_step)
from .tensor import grad_check
from .train import StepMetrics, Trainer, distill, train

# the name bench/workloads.py builds its config with
TrainConfig = RunConfig

__version__ = "0.1.0"

__all__ = [
    "AGGRESSIVE", "IDENTITY", "MILD", "NOISY", "AugmentPolicy", "augment", "mean_distortion",
    "AnchorBank",
    "Checkpoint", "load_checkpoint", "save_checkpoint",
    "RunConfig", "apply_overrides", "load_config", "parse_config", "serialize_config",
    "LabeledDataset", "gen_gaussian_mixture", "load_dataset", "make_unbalanced", "save_dataset",
    "EmbeddingTable", "embed_dataset", "knn_eval", "linear_probe", "recall_at_k",
    "LossConfig", "anchor_cross_entropy_batch", "anchor_distribution_batch", "byol_loss_batch",
    "distribution_entropy", "isd_loss_batch", "moco_loss_batch",
    "MlpParams", "MlpSpec", "ModelPair", "SgdState", "default_encoder_spec",
    "default_predictor_spec", "ema_update", "init_params", "mlp_forward", "sgd_step",
    "grad_check",
    "StepMetrics", "Trainer", "distill", "train",
]
