"""Flat key=value run configuration: parse, validate, serialize.

One dataclass holds every training, dataset and evaluation knob, and it
is the only configuration every command reads: the trainer reads it
directly, ``gen-data`` writes the synthetic corpus its ``data_*`` fields
describe, and ``unbalanced`` takes its protocol seed from ``seed_init``.
A config file's lines and ``--set`` pairs are the same key=value entries,
and one parser applies both, in order, on a base config: ``RunConfig()``
unless the caller passes another, as the CLI passes each command's base.
Unknown keys are rejected, and ``parse_config(serialize_config(c)) == c``
holds exactly, so the config echo a run writes is sufficient to reproduce
it. ``validate()`` judges each value, a string also by whether the echo
can carry it; ``experiments.build_datasets`` calls it, then checks
whether ``eval_k`` and the encoder fit the corpus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .augment import POLICIES, AugmentPolicy
from .errors import ConfigError, ContractError
from .losses import LossConfig
from .nn import MlpSpec, default_encoder_spec, default_predictor_spec

# the step schedule multiplies lr by LR_STEP_FACTOR at each of these fractions of the run
LR_STEP_FRACS = (0.7, 0.9)
LR_STEP_FACTOR = 0.2


@dataclass
class RunConfig:
    # objective
    objective: str = "isd"               # isd | moco | byol
    temperature: float = 0.02
    # model / optimizer
    momentum: float = 0.99
    bank_capacity: int = 1024
    batch_size: int = 64
    epochs: int = 200
    lr: float = 0.01
    lr_schedule: str = "step"            # step | cosine
    encoder_widths: tuple[int, ...] = () # empty: [dim, 256, 128, 64]
    # augmentation: none | mild | aggressive | noisy
    teacher_policy: str = "none"
    student_policy: str = "none"
    # seeds
    seed_init: int = 0
    seed_data: int = 1
    seed_augment: int = 2
    # evaluation
    eval_every: int = 10
    eval_k: int = 5
    probe_epochs: int = 200
    probe_lr: float = 1.0
    recall_ks: tuple[int, ...] = (1, 2, 4, 8)
    # data: explicit container paths, or synthetic generation parameters
    data_train: str = ""
    data_eval: str = ""
    data_classes: int = 3
    data_per_class: int = 200
    data_eval_per_class: int = 50
    data_dim: int = 32
    data_sep: float = 6.0
    data_seed: int = 7

    def __post_init__(self):
        # bench/workloads.py passes objective=LossConfig("byol"): unpack it
        if isinstance(self.objective, LossConfig):
            self.temperature = self.objective.temperature
            self.objective = self.objective.objective

    def augment_policy(self, name: str) -> AugmentPolicy:
        """The view policy of that name: none, mild, aggressive or noisy."""
        if name not in POLICIES:
            raise ContractError(f"unknown augmentation policy {name!r}")
        return POLICIES[name]

    def model_specs(self, input_dim: int) -> tuple[MlpSpec, MlpSpec]:
        """The student's encoder (``encoder_widths``, else the default one for
        ``input_dim`` features) and the predictor head on its embedding."""
        encoder = (MlpSpec(self.encoder_widths, final_normalize=True) if self.encoder_widths
                   else default_encoder_spec(input_dim))
        return encoder, default_predictor_spec(encoder.output_dim)

    def validate(self) -> None:
        """Raise ConfigError for any value no run could use."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not np.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
            if f.type == "str" and (not isinstance(value, str) or "#" in value
                                    or len(value.splitlines()) > 1 or value != value.strip()):
                raise ConfigError(f"{f.name}={value!r} cannot be written to resolved.cfg")
        for name in ("epochs", "lr", "probe_epochs", "seed_init", "seed_data", "seed_augment",
                     "data_seed", "data_sep"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        for name in ("batch_size", "bank_capacity", "eval_every", "eval_k", "data_per_class",
                     "data_eval_per_class"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.momentum <= 1.0:
            raise ConfigError(f"momentum must lie in [0, 1], got {self.momentum}")
        if self.objective != "byol":     # byol keeps no anchors
            if self.bank_capacity < 2:
                raise ConfigError("bank_capacity must be at least 2 for isd/moco")
            if self.batch_size > self.bank_capacity:
                raise ConfigError("batch_size cannot exceed bank_capacity for isd/moco")
        if self.lr_schedule not in ("step", "cosine"):
            raise ConfigError(f"unknown lr_schedule {self.lr_schedule!r}")
        if self.probe_lr <= 0:
            raise ConfigError(f"probe_lr must be positive, got {self.probe_lr}")
        if any(k < 1 for k in self.recall_ks):
            raise ConfigError(f"every recall_ks entry must be positive, got {self.recall_ks}")
        if bool(self.data_train) != bool(self.data_eval):
            raise ConfigError("data_train and data_eval must be set together")
        if self.data_classes < 2 or self.data_dim < 2:
            raise ConfigError("data_classes and data_dim must be at least 2")
        try:
            LossConfig(self.objective, self.temperature)
            self.augment_policy(self.teacher_policy)
            self.augment_policy(self.student_policy)
            encoder, predictor = self.model_specs(self.data_dim)
        except ContractError as e:
            raise ConfigError(str(e)) from e
        # every float64 array the config implies needs a byte size numpy can index
        corpus = self.data_classes * self.data_dim
        for name, floats in (("the synthetic train split", corpus * self.data_per_class),
                             ("the synthetic eval split", corpus * self.data_eval_per_class),
                             ("the encoder", encoder.num_parameters),
                             ("the predictor", predictor.num_parameters),
                             ("the anchor bank", self.bank_capacity * encoder.output_dim)):
            if 8 * floats > np.iinfo(np.intp).max:
                raise ConfigError(f"{name} needs {floats} floats, more bytes than numpy can index")

    def lr_at(self, epoch: int) -> float:
        if self.lr_schedule == "cosine":
            if self.epochs <= 0:
                return self.lr
            return self.lr * 0.5 * (1.0 + math.cos(math.pi * epoch / self.epochs))
        lr = self.lr
        for frac in LR_STEP_FRACS:
            if epoch >= int(frac * self.epochs):
                lr *= LR_STEP_FACTOR
        return lr


_FIELDS = {f.name: f for f in fields(RunConfig)}


_PARSERS = {"int": int, "float": float, "str": str}


def _parse_value(where: str, name: str, text: str):
    kind = _FIELDS[name].type    # one of the _PARSERS names, or a tuple of one
    try:
        if kind.startswith("tuple["):
            item = _PARSERS[kind[len("tuple["):kind.index(",")]]
            return tuple(item(p) for p in text.split(",") if p.strip() != "")
        return _PARSERS[kind](text)
    except ValueError as e:
        raise ConfigError(f"{where}: bad value for {name!r}: {e}") from e


def _format_value(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _apply_entries(cfg: RunConfig, entries) -> RunConfig:
    """``cfg`` with each ``(where, "key=value")`` entry applied in order; errors name ``where``."""
    updates = {}
    for where, entry in entries:
        if "=" not in entry:
            raise ConfigError(f"{where}: expected key=value, got {entry!r}")
        key, _, raw = entry.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        updates[key] = _parse_value(where, key, raw.strip())
    return replace(cfg, **updates)


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Layer key=value lines ('#' starts a comment) on ``base`` (default ``RunConfig()``)."""
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        entry = line.split("#", 1)[0].strip()
        if entry:
            entries.append((f"config line {lineno}", entry))
    return _apply_entries(RunConfig() if base is None else base, entries)


def load_config(path: str, base: RunConfig | None = None) -> RunConfig:
    """Layer the key=value file at ``path`` on ``base`` (default ``RunConfig()``)."""
    try:
        with open(path) as f:
            text = f.read()
    except OSError:
        raise ConfigError(f"config not found: {path}")
    except UnicodeDecodeError as e:
        raise ConfigError(f"cannot decode config {path}: {e}") from e
    return parse_config(text, base)


def serialize_config(cfg: RunConfig) -> str:
    """One key=value line per field; raises ConfigError unless the text parses back to cfg."""
    lines = [f"{f.name}={_format_value(getattr(cfg, f.name))}" for f in fields(RunConfig)]
    text = "\n".join(lines) + "\n"
    # resolved.cfg must reproduce the run: no '#' or line break in a string, no list
    try:
        echo = parse_config(text)
    except ConfigError as e:
        raise ConfigError(f"config would not survive serialization: {e}") from e
    lost = [f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(RunConfig)
            if getattr(echo, f.name) != getattr(cfg, f.name)]
    if lost:
        raise ConfigError(f"{', '.join(lost)} would not survive serialization")
    return text


def apply_overrides(cfg: RunConfig, pairs: list[str]) -> RunConfig:
    """Apply --set key=value overrides on top of a config."""
    return _apply_entries(cfg, [("override", pair) for pair in pairs])
