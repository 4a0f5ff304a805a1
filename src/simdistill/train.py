"""The iterative training loop: augment, forward both networks, distill, update.

Each step draws two independent views of every query, embeds one with the
teacher (constant) and one with the student, scores the selected objective
against the current anchor snapshot, carries its gradient back through the
student, applies one SGD step to the student and one EMA step to the
teacher, and only then enqueues the teacher embeddings. That ordering
guarantees a query is never scored against its own current view.
"""

from __future__ import annotations

import csv
import functools
import os
import platform
from dataclasses import dataclass, replace

import numpy as np

from .augment import AugmentPolicy, augment
from .bank import AnchorBank
from .checkpoint import Checkpoint, load_checkpoint
from .config import RunConfig
from .data import LabeledDataset
from .errors import CheckpointError, ColdStartError, ConfigError, ContractError
from .evaluation import embed_dataset, knn_eval
from .losses import byol_loss_batch, distribution_entropy, isd_loss_batch, moco_loss_batch
from .nn import MlpSpec, ModelPair, SgdState, ema_update, mlp_forward, sgd_step

# A step reads H(p_t) off the teacher softmax and no longer calls
# distribution_entropy; the name stays here, re-exported, because
# bench/tracer.py still wraps simdistill.train.distribution_entropy and the
# benchmark's tests require every name it wraps to exist.
__all__ = ["StepMetrics", "MetricsWriter", "knn_accuracies", "Trainer", "train",
           "encoder_mismatch", "distill_config", "distill", "distill_trainer",
           "distribution_entropy", "backward"]


@dataclass
class StepMetrics:
    """Per-step observability record: one row of the metrics CSV."""

    epoch: int
    step: int
    loss: float
    teacher_entropy: float | None
    lr: float


class MetricsWriter:
    """Append-only CSV: epoch, step, loss, h_pt, lr, teacher_knn, student_knn."""

    COLUMNS = ("epoch", "step", "loss", "h_pt", "lr", "teacher_knn", "student_knn")

    def __init__(self, path: str):
        self._file = open(path, "w", newline="")
        self._writer = csv.writer(self._file)
        self._writer.writerow(self.COLUMNS)

    def step_row(self, m: StepMetrics) -> None:
        h = repr(m.teacher_entropy) if m.teacher_entropy is not None else ""
        self._writer.writerow([m.epoch, m.step, repr(m.loss), h, repr(m.lr), "", ""])

    def eval_row(self, epoch: int, step: int, teacher_knn: float, student_knn: float) -> None:
        self._writer.writerow([epoch, step, "", "", "", repr(teacher_knn), repr(student_knn)])

    def close(self) -> None:
        self._file.close()


def knn_accuracies(pair: ModelPair, train_ds: LabeledDataset, eval_ds: LabeledDataset,
                   k: int) -> tuple[float, float]:
    """k-NN accuracy of the teacher and the student encoder embeddings."""
    t_train = embed_dataset(pair.teacher_encoder, train_ds)
    t_eval = embed_dataset(pair.teacher_encoder, eval_ds)
    s_train = embed_dataset(pair.student_encoder, train_ds)
    s_eval = embed_dataset(pair.student_encoder, eval_ds)
    return knn_eval(t_train, t_eval, k), knn_eval(s_train, s_eval, k)


def backward(grad: np.ndarray, predictor_vjp, encoder_vjp) -> None:
    """Carry the objective's gradient back through the predictor and the student encoder."""
    encoder_vjp(predictor_vjp(grad), input_grad=False)


@functools.cache
def _keep_step_buffers_on_heap() -> None:
    """Raise glibc's mmap and trim thresholds to 1 MiB and 8 MiB, once per process.

    A step's temporaries of 128 KiB or more (first-layer activations, the
    flat gradient, the [b, K] logit blocks) would otherwise be mapped and
    unmapped, or trimmed off the heap, and page-faulted back in every step.
    Processes forked afterwards inherit the setting; it cannot be undone,
    since glibc has no getter and ``mallopt`` ends its adaptive threshold.
    Does nothing when the user has set a ``MALLOC_*`` variable or
    ``GLIBC_TUNABLES``, or when the C library is not glibc.
    """
    if (platform.libc_ver()[0] != "glibc" or "GLIBC_TUNABLES" in os.environ
            or any(name.startswith("MALLOC_") for name in os.environ)):
        return
    import ctypes
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_trim_threshold, 8 << 20)      # returns 0 on failure: the defaults stay
    mallopt(m_mmap_threshold, 1 << 20)


class Trainer:
    """Owns the model pair, optimizer, anchor bank and RNG streams for one run."""

    def __init__(self, config: RunConfig, input_dim: int, pair: ModelPair | None = None):
        config.validate()
        _keep_step_buffers_on_heap()
        self.config = config
        self.teacher_policy = config.augment_policy(config.teacher_policy)
        self.student_policy = config.augment_policy(config.student_policy)
        if pair is None:
            pair = ModelPair.create(*config.model_specs(input_dim), config.momentum,
                                    config.seed_init)
        encoder_spec = pair.student_encoder.spec
        if encoder_spec.input_dim != input_dim:
            raise ConfigError(f"encoder input width {encoder_spec.input_dim} does not match "
                              f"data dim {input_dim}")
        self.pair = pair
        self.networks = [pair.student_encoder, pair.student_predictor]
        self.sgd = SgdState.for_params(self.networks, lr=config.lr,
                                       momentum=config.sgd_momentum,
                                       weight_decay=config.weight_decay)
        # BYOL regresses onto the teacher embedding and keeps no anchors
        self.bank = (AnchorBank(config.bank_capacity, encoder_spec.output_dim)
                     if config.objective in ("isd", "moco") else None)
        self.rng_data = np.random.default_rng([config.seed_data])
        self.rng_augment = np.random.default_rng([config.seed_augment])
        self.epoch = 0
        self.global_step = 0
        self._prefilled = False

    def _view(self, batch: np.ndarray, policy: AugmentPolicy) -> np.ndarray:
        """One view of every sample, flattened to [b, features]."""
        return augment(batch, policy, self.rng_augment).reshape(len(batch), -1)

    def _views(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The teacher's and the student's views. Under two identity policies both
        are one copy of the batch: neither network writes to its input."""
        teacher_view = self._view(batch, self.teacher_policy)
        if self.teacher_policy.is_identity and self.student_policy.is_identity:
            return teacher_view, teacher_view
        return teacher_view, self._view(batch, self.student_policy)

    def prefill(self, ds: LabeledDataset) -> None:
        """Fill the bank with teacher embeddings before any optimization step.

        Processes ceil(capacity / batch_size) teacher batches, cycling
        through seeded shuffles of the data when the corpus is smaller
        than the bank.
        """
        if self._prefilled or self.bank is None:
            self._prefilled = True
            return
        needed = -(-self.bank.capacity // self.config.batch_size)
        done = 0
        while done < needed:
            order = self.rng_data.permutation(len(ds))
            for start in range(0, len(order), self.config.batch_size):
                if done >= needed:
                    break
                batch = ds.samples[order[start:start + self.config.batch_size]]
                views = self._view(batch, self.teacher_policy)
                self.bank.enqueue(mlp_forward(self.pair.teacher_encoder, views))
                done += 1
        self._prefilled = True

    def step(self, batch: np.ndarray) -> StepMetrics:
        """One training step over a raw sample batch (unaugmented)."""
        cfg = self.config
        objective = cfg.objective
        tau = cfg.temperature
        if self.bank is not None and self.bank.count < 2:
            raise ColdStartError("anchor bank not pre-filled; call prefill() before stepping")
        if len(batch) == 0:
            raise ConfigError("empty batch")

        qt_views, qs_views = self._views(batch)
        t_emb = mlp_forward(self.pair.teacher_encoder, qt_views)
        s_emb, encoder_vjp = mlp_forward(self.pair.student_encoder, qs_views, grad=True)
        s_pred, predictor_vjp = mlp_forward(self.pair.student_predictor, s_emb, grad=True)

        h_pt: float | None
        if objective == "isd":
            loss, grad, _, h_t = isd_loss_batch(t_emb, s_pred, self.bank.unit_snapshot(), tau)
            h_pt = float(h_t.mean())
        elif objective == "moco":
            loss, grad = moco_loss_batch(s_pred, t_emb, self.bank.unit_snapshot(), tau)
            h_pt = 0.0          # one-hot teacher target
        else:
            loss, grad = byol_loss_batch(s_pred, t_emb)
            h_pt = None

        backward(grad, predictor_vjp, encoder_vjp)
        self.sgd.lr = cfg.lr_at(self.epoch)
        sgd_step(self.networks, self.sgd)
        ema_update(self.pair)
        if self.bank is not None:
            # strictly after the loss: a query never meets its own view
            self.bank.enqueue(t_emb)

        if self.pair.teacher_encoder.grad is not None:
            raise ContractError("teacher parameter received gradient")

        self.global_step += 1
        return StepMetrics(
            epoch=self.epoch,
            step=self.global_step,
            loss=loss,
            teacher_entropy=h_pt,
            lr=self.sgd.lr,
        )

    def checkpoint(self) -> Checkpoint:
        return Checkpoint(pair=self.pair, epoch=self.epoch, step=self.global_step)

    def run(self, train_ds: LabeledDataset, eval_ds: LabeledDataset | None = None,
            metrics_path: str | None = None, on_eval=None) -> Checkpoint:
        """Run the configured number of epochs and return the final checkpoint.

        With ``metrics_path`` set, the run writes its metrics CSV there. With
        ``eval_ds`` set, k-NN against ``train_ds`` scores both networks every
        ``eval_every`` epochs and after the last.
        """
        cfg = self.config
        if eval_ds is not None and cfg.eval_k > len(train_ds):
            raise ConfigError(f"eval_k={cfg.eval_k} exceeds the {len(train_ds)} samples "
                              f"of the k-NN train set")
        metrics = MetricsWriter(metrics_path) if metrics_path else None
        try:
            if cfg.epochs > 0:
                self.prefill(train_ds)
            for epoch in range(cfg.epochs):
                self.epoch = epoch
                order = self.rng_data.permutation(len(train_ds))
                for start in range(0, len(order), cfg.batch_size):
                    batch = train_ds.samples[order[start:start + cfg.batch_size]]
                    m = self.step(batch)
                    if metrics:
                        metrics.step_row(m)
                last = epoch == cfg.epochs - 1
                if eval_ds is not None and (epoch % cfg.eval_every == 0 or last):
                    t_acc, s_acc = knn_accuracies(self.pair, train_ds, eval_ds, cfg.eval_k)
                    if metrics:
                        metrics.eval_row(epoch, self.global_step, t_acc, s_acc)
                    if on_eval:
                        on_eval(epoch, t_acc, s_acc)
            self.epoch = cfg.epochs     # the checkpoint saves the count of epochs done
        finally:
            if metrics:
                metrics.close()
        return self.checkpoint()


def train(config: RunConfig, train_ds: LabeledDataset,
          eval_ds: LabeledDataset | None = None,
          metrics_path: str | None = None) -> Checkpoint:
    """Train from scratch on a dataset; fully deterministic given the seeds."""
    return Trainer(config, train_ds.feature_dim).run(train_ds, eval_ds, metrics_path)


def encoder_mismatch(found: MlpSpec, wanted: str) -> CheckpointError:
    """The error of a checkpoint network that does not fit the run, for ``eval`` and ``distill``."""
    return CheckpointError(f"checkpoint encoder {found.layer_widths} does not fit {wanted}")


def distill_config(config: RunConfig) -> RunConfig:
    """The config a distillation runs: the caller's, validated, with the settings
    distillation forces whatever it says, momentum 1 and mild views on both sides."""
    config.validate()    # a bad value stays an error where distillation overrides it
    return replace(config, momentum=1.0, teacher_policy="mild", student_policy="mild")


def distill(config: RunConfig, teacher_path: str, train_ds: LabeledDataset,
            eval_ds: LabeledDataset | None = None,
            metrics_path: str | None = None) -> Checkpoint:
    """Frozen-teacher distillation: the :func:`distill_trainer` run on ``train_ds``."""
    return distill_trainer(config, teacher_path, train_ds.feature_dim).run(
        train_ds, eval_ds, metrics_path)


def distill_trainer(config: RunConfig, teacher_path: str, input_dim: int) -> Trainer:
    """The trainer of a frozen-teacher distillation, run with :func:`distill_config`.

    The student starts from scratch, and the teacher encoder of the
    checkpoint file at ``teacher_path`` is the frozen teacher: the output
    checkpoint's teacher weights are bitwise those of the input. A teacher
    that is not the configured encoder for ``input_dim`` features raises
    :class:`CheckpointError`.
    """
    loaded = load_checkpoint(teacher_path).pair.teacher_encoder
    cfg = distill_config(config)
    encoder_spec, predictor_spec = cfg.model_specs(input_dim)
    if loaded.spec != encoder_spec:
        raise encoder_mismatch(loaded.spec, f"the configured encoder {encoder_spec.layer_widths}")
    fresh = ModelPair.create(encoder_spec, predictor_spec, cfg.momentum, cfg.seed_init)
    pair = ModelPair(fresh.student_encoder, fresh.student_predictor,
                     loaded.copy(trainable=False), momentum=cfg.momentum)
    return Trainer(cfg, input_dim, pair=pair)
