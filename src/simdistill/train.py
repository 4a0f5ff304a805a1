"""The iterative training loop: augment, forward both networks, distill, update.

Each step draws two independent views of every query, embeds one with the
teacher (constant) and one with the student (graph-linked), scores the
selected objective against the current anchor snapshot, applies one SGD
step to the student and one EMA step to the teacher, and only then
enqueues the teacher embeddings. That ordering guarantees a query is
never scored against its own current view.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace

import numpy as np

from .augment import AugmentPolicy, augment
from .bank import AnchorBank
from .checkpoint import Checkpoint, load_checkpoint
from .config import RunConfig
from .data import LabeledDataset
from .errors import CheckpointError, ColdStartError, ConfigError
from .evaluation import embed_dataset, knn_eval
from .losses import byol_loss_batch, distribution_entropy, isd_loss_batch, moco_loss_batch
from .nn import (MlpSpec, ModelPair, SgdState, default_encoder_spec,
                 default_predictor_spec, ema_update, mlp_forward, sgd_step)
from .tensor import Tensor, backward


@dataclass
class StepMetrics:
    """Per-step observability record (wall clock stays out of the CSV)."""

    epoch: int
    step: int
    loss: float
    teacher_entropy: float | None
    lr: float
    wall_ms: float


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


def _encoder_spec(config: RunConfig, input_dim: int) -> MlpSpec:
    if config.encoder_widths:
        return MlpSpec(config.encoder_widths, final_normalize=True)
    return default_encoder_spec(input_dim)


def knn_accuracies(pair: ModelPair, train_ds: LabeledDataset, eval_ds: LabeledDataset,
                   k: int) -> tuple[float, float]:
    """k-NN accuracy of the teacher and the student encoder embeddings."""
    t_train = embed_dataset(pair.teacher_encoder, train_ds)
    t_eval = embed_dataset(pair.teacher_encoder, eval_ds)
    s_train = embed_dataset(pair.student_encoder, train_ds)
    s_eval = embed_dataset(pair.student_encoder, eval_ds)
    return knn_eval(t_train, t_eval, k), knn_eval(s_train, s_eval, k)


class Trainer:
    """Owns the model pair, optimizer, anchor bank and RNG streams for one run."""

    def __init__(self, config: RunConfig, input_dim: int, pair: ModelPair | None = None):
        config.validate()
        self.config = config
        self.teacher_policy = config.augment_policy(config.teacher_policy)
        self.student_policy = config.augment_policy(config.student_policy)
        if pair is None:
            encoder_spec = _encoder_spec(config, input_dim)
            predictor_spec = default_predictor_spec(encoder_spec.output_dim,
                                                    config.predictor_hidden)
            pair = ModelPair.create(encoder_spec, predictor_spec, config.momentum, config.seed_init)
        else:
            encoder_spec = pair.student_encoder.spec
        if encoder_spec.input_dim != input_dim:
            raise ConfigError(
                f"encoder input width {encoder_spec.input_dim} does not match data dim {input_dim}"
            )
        embed_dim = encoder_spec.output_dim
        self.pair = pair
        # one leaf per student network: zeroing, SGD and EMA work on whole buffers
        self.leaves = [pair.student_encoder.flat, pair.student_predictor.flat]
        self.sgd = SgdState.for_params(self.leaves, lr=config.lr,
                                       momentum=config.sgd_momentum,
                                       weight_decay=config.weight_decay)
        self.bank = AnchorBank(config.bank_capacity, embed_dim)
        self.rng_data = np.random.default_rng([config.seed_data])
        self.rng_augment = np.random.default_rng([config.seed_augment])
        self.epoch = 0
        self.global_step = 0
        self._prefilled = False

    @property
    def needs_bank(self) -> bool:
        return self.config.objective in ("isd", "moco")

    def _view(self, batch: np.ndarray, policy: AugmentPolicy) -> np.ndarray:
        """One view of every sample, flattened to [b, features]."""
        return augment(batch, policy, self.rng_augment).reshape(len(batch), -1)

    def _views(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (self._view(batch, self.teacher_policy),
                self._view(batch, self.student_policy))

    def _teacher_embed(self, views: np.ndarray) -> np.ndarray:
        return mlp_forward(self.pair.teacher_encoder, Tensor(views)).data

    def prefill(self, ds: LabeledDataset) -> None:
        """Fill the bank with teacher embeddings before any optimization step.

        Processes ceil(capacity / batch_size) teacher batches, cycling
        through seeded shuffles of the data when the corpus is smaller
        than the bank.
        """
        if self._prefilled or not self.needs_bank:
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
                self.bank.enqueue(self._teacher_embed(views))
                done += 1
        self._prefilled = True

    def step(self, batch: np.ndarray) -> StepMetrics:
        """One training step over a raw sample batch (unaugmented)."""
        cfg = self.config
        objective = cfg.objective
        tau = cfg.temperature
        if self.needs_bank and self.bank.count < 2:
            raise ColdStartError("anchor bank not pre-filled; call prefill() before stepping")
        if len(batch) == 0:
            raise ConfigError("empty batch")
        started = time.perf_counter()

        qt_views, qs_views = self._views(batch)
        t_emb = self._teacher_embed(qt_views)
        s_emb = mlp_forward(self.pair.student_encoder, Tensor(qs_views))
        s_pred = mlp_forward(self.pair.student_predictor, s_emb)

        h_pt: float | None
        if objective == "isd":
            snapshot = self.bank.snapshot()
            loss, p_t = isd_loss_batch(t_emb, s_pred, snapshot, tau)
            h_pt = float(distribution_entropy(p_t).mean())
        elif objective == "moco":
            snapshot = self.bank.snapshot()
            loss = moco_loss_batch(s_pred, t_emb, snapshot, tau)
            h_pt = 0.0          # one-hot teacher target
        else:
            loss = byol_loss_batch(s_pred, t_emb)
            h_pt = None

        for leaf in self.leaves:
            leaf.zero_grad()
        backward(loss)
        self.sgd.lr = cfg.lr_at(self.epoch)
        sgd_step(self.leaves, self.sgd)
        ema_update(self.pair)
        if self.needs_bank:
            # strictly after the loss: a query never meets its own view
            self.bank.enqueue(t_emb)

        if __debug__:
            assert not self.pair.teacher_encoder.flat.grad.any(), "teacher parameter received gradient"

        self.global_step += 1
        return StepMetrics(
            epoch=self.epoch,
            step=self.global_step,
            loss=float(loss.data),
            teacher_entropy=h_pt,
            lr=self.sgd.lr,
            wall_ms=(time.perf_counter() - started) * 1e3,
        )

    def checkpoint(self) -> Checkpoint:
        return Checkpoint(
            pair=self.pair,
            sgd=self.sgd,
            bank=self.bank,
            epoch=self.epoch,
            step=self.global_step,
            rng_states={
                "data": self.rng_data.bit_generator.state,
                "augment": self.rng_augment.bit_generator.state,
            },
        )

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
        finally:
            if metrics:
                metrics.close()
        return self.checkpoint()


def train(config: RunConfig, train_ds: LabeledDataset,
          eval_ds: LabeledDataset | None = None,
          metrics_path: str | None = None) -> Checkpoint:
    """Train from scratch on a dataset; fully deterministic given the seeds."""
    return Trainer(config, train_ds.feature_dim).run(train_ds, eval_ds, metrics_path)


def distill(config: RunConfig, teacher_checkpoint, train_ds: LabeledDataset,
            eval_ds: LabeledDataset | None = None,
            metrics_path: str | None = None) -> Checkpoint:
    """Frozen-teacher distillation: teacher loaded, momentum 1, mild views.

    The student starts from scratch; the output checkpoint's teacher
    weights are bitwise those of the input. ``config.distill_source``
    selects which network of the loaded checkpoint becomes the frozen
    teacher.
    """
    if isinstance(teacher_checkpoint, str):
        teacher_checkpoint = load_checkpoint(teacher_checkpoint)
    config.validate()    # a bad value stays an error where distillation overrides it
    cfg = replace(config, momentum=1.0, teacher_policy="mild", student_policy="mild")

    source = teacher_checkpoint.pair
    loaded = source.teacher_encoder if cfg.distill_source == "teacher" else source.student_encoder
    encoder_spec = _encoder_spec(cfg, train_ds.feature_dim)
    if loaded.spec != encoder_spec:
        raise CheckpointError(
            f"checkpoint encoder {loaded.spec.layer_widths} does not match "
            f"configured encoder {encoder_spec.layer_widths}"
        )

    fresh = ModelPair.create(encoder_spec,
                             default_predictor_spec(encoder_spec.output_dim, cfg.predictor_hidden),
                             momentum=1.0, seed=cfg.seed_init)
    pair = ModelPair(fresh.student_encoder, fresh.student_predictor,
                     loaded.copy(trainable=False), momentum=1.0)
    return Trainer(cfg, train_ds.feature_dim, pair=pair).run(train_ds, eval_ds, metrics_path)
