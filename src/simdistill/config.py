"""Flat key=value run configuration: parse, validate, serialize.

One dataclass holds every training, dataset and evaluation knob, and it
is the only configuration every command reads: the trainer reads it
directly, ``gen-data`` writes the synthetic corpus its ``data_*`` fields
describe, and ``unbalanced`` takes its protocol seed from ``seed_init``.
Unknown keys are rejected, and ``parse_config(serialize_config(c)) == c``
holds exactly, so the config echo a run writes is sufficient to reproduce
it. ``validate()`` judges each value on its own; whether ``eval_k`` fits
the k-NN train set is checked where that set is known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .augment import AugmentPolicy, policy_by_name
from .errors import ConfigError, ContractError
from .losses import LossConfig
from .nn import MlpSpec


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
    lr_step_fracs: tuple[float, ...] = (0.7, 0.9)
    lr_step_factor: float = 0.2
    sgd_momentum: float = 0.9
    weight_decay: float = 1e-4
    encoder_widths: tuple[int, ...] = () # empty: [dim, 256, 128, 64]
    predictor_hidden: int = 64
    # augmentation (policy names; "custom" reads the custom_* fields)
    teacher_policy: str = "none"
    student_policy: str = "none"
    custom_noise_std: float = 0.25
    custom_mask_prob: float = 0.2
    custom_scale_min: float = 0.5
    custom_scale_max: float = 1.5
    custom_rotation_range: float = 0.0
    custom_crop_min: float = 0.6
    custom_crop_max: float = 1.0
    custom_flip_prob: float = 0.5
    # seeds
    seed_init: int = 0
    seed_data: int = 1
    seed_augment: int = 2
    # distillation
    distill_source: str = "teacher"      # which network of a loaded checkpoint
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
        """The named view policy; "custom" is built from the custom_* fields."""
        custom = AugmentPolicy(
            name="custom",
            noise_std=self.custom_noise_std,
            mask_prob=self.custom_mask_prob,
            scale_range=(self.custom_scale_min, self.custom_scale_max),
            rotation_range=self.custom_rotation_range,
            crop_range=(self.custom_crop_min, self.custom_crop_max),
            flip_prob=self.custom_flip_prob,
        )
        return policy_by_name(name, custom=custom)

    def validate(self) -> None:
        """Raise ConfigError for any value no run could use."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type.startswith(("float", "tuple[float")) and not np.all(np.isfinite(value)):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        try:
            LossConfig(self.objective, self.temperature)
            self.augment_policy(self.teacher_policy)
            self.augment_policy(self.student_policy)
            if self.encoder_widths:
                MlpSpec(self.encoder_widths, final_normalize=True)
        except ContractError as e:
            raise ConfigError(str(e)) from e
        for name in ("epochs", "lr", "probe_epochs", "seed_init", "seed_data", "seed_augment",
                     "data_seed", "data_sep"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        for name in ("batch_size", "predictor_hidden", "eval_every", "eval_k", "data_per_class",
                     "data_eval_per_class"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.momentum <= 1.0:
            raise ConfigError(f"momentum must lie in [0, 1], got {self.momentum}")
        if self.distill_source not in ("teacher", "student"):
            raise ConfigError(f"distill_source must be teacher or student, "
                              f"got {self.distill_source!r}")
        if self.batch_size > self.bank_capacity:
            raise ConfigError("batch_size cannot exceed bank_capacity")
        if self.objective != "byol" and self.bank_capacity < 2:
            raise ConfigError("bank_capacity must be at least 2 for isd/moco")
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

    def lr_at(self, epoch: int) -> float:
        if self.lr_schedule == "cosine":
            if self.epochs <= 0:
                return self.lr
            return self.lr * 0.5 * (1.0 + math.cos(math.pi * epoch / self.epochs))
        lr = self.lr
        for frac in self.lr_step_fracs:
            if epoch >= int(frac * self.epochs):
                lr *= self.lr_step_factor
        return lr


_FIELDS = {f.name: f for f in fields(RunConfig)}


def _parse_value(name: str, text: str):
    f = _FIELDS[name]
    base = f.type
    try:
        if base == "int":
            return int(text)
        if base == "float":
            return float(text)
        if base == "str":
            return text
        if base.startswith("tuple[int"):
            return tuple(int(p) for p in text.split(",") if p.strip() != "")
        if base.startswith("tuple[float"):
            return tuple(float(p) for p in text.split(",") if p.strip() != "")
    except ValueError as e:
        raise ConfigError(f"config key {name}: {e}") from e
    raise ConfigError(f"config key {name}: unhandled field type {base}")


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config(text: str) -> RunConfig:
    """Parse key=value lines ('#' starts a comment); unknown keys are rejected."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw.strip())
    return RunConfig(**values)


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as f:
            text = f.read()
    except OSError:
        raise ConfigError(f"config not found: {path}")
    except UnicodeDecodeError as e:
        raise ConfigError(f"cannot decode config {path}: {e}") from e
    return parse_config(text)


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
    """Apply --set key=value overrides on top of a parsed config."""
    updates = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must look like key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        updates[key] = _parse_value(key, raw.strip())
    return replace(cfg, **updates)
