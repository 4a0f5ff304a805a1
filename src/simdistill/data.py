"""Dataset generation, the dataset container, and unbalanced subsampling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .container import read_container, write_container
from .errors import ContractError, FormatError, LengthError
from .tensor import unit_rows

_DATASET_MAGIC = b"SDDS"
_DATASET_VERSION = 3
_DATASET_FIELDS = {"n": int, "sample_shape": list, "split": str}


@dataclass
class LabeledDataset:
    """Samples (feature matrix [N, d] or image stack [N, h, w]) with int labels."""

    samples: np.ndarray
    labels: np.ndarray
    split: str = "train"

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.samples.ndim not in (2, 3):
            raise ContractError(f"samples must be [N, d] or [N, h, w], got shape {self.samples.shape}")
        if self.labels.ndim != 1 or len(self.labels) != len(self.samples):
            raise ContractError("labels must be one integer per sample")
        if len(self.labels) and self.labels.min() < 0:
            raise ContractError("labels must be non-negative")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0

    @property
    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)

    def as_matrix(self) -> np.ndarray:
        """Samples flattened to [N, features] (images become pixel vectors)."""
        return self.samples.reshape(len(self.samples), -1)

    @property
    def feature_dim(self) -> int:
        return int(np.prod(self.samples.shape[1:]))


def gen_gaussian_mixture(classes: int, per_class: int, dim: int, sep: float,
                         seed: int, split: str = "train") -> LabeledDataset:
    """Isotropic unit-variance clusters around class means on a sphere of radius ``sep``.

    The means depend only on ``seed``, so train and eval splits drawn with
    the same seed share the same mixture; the noise stream is keyed by the
    split tag, keeping the two splits disjoint draws.
    """
    if classes < 2 or dim < 2:
        raise ContractError(f"need classes >= 2 and dim >= 2, got {classes}, {dim}")
    if sep < 0:
        raise ContractError("sep must be non-negative")
    mean_rng = np.random.default_rng([seed, 0])
    means = unit_rows(mean_rng.standard_normal((classes, dim))) * sep

    noise_rng = np.random.default_rng([seed, 1 if split == "train" else 2])
    samples = np.empty((classes * per_class, dim))
    labels = np.empty(classes * per_class, dtype=np.int64)
    for c in range(classes):
        block = slice(c * per_class, (c + 1) * per_class)
        samples[block] = means[c] + noise_rng.standard_normal((per_class, dim))
        labels[block] = c
    return LabeledDataset(samples, labels, split=split)


def make_unbalanced(ds: LabeledDataset, large_classes: list[int], small_count: int,
                    seed: int) -> LabeledDataset:
    """Keep large classes whole; subsample every other class to ``small_count``.

    For each small class, in ascending class id order, a seeded permutation
    of its sample indices is truncated to ``small_count``. Retained indices
    are then sorted, so surviving samples keep their original order and bytes.
    """
    present = set(int(c) for c in np.unique(ds.labels))
    large = set(int(c) for c in large_classes)
    unknown = large - present
    if unknown:
        raise ContractError(f"make_unbalanced: unknown class ids {sorted(unknown)}")
    counts = ds.class_counts
    small = [c for c in sorted(present) if c not in large]
    for c in small:
        if small_count > counts[c]:
            raise ContractError(
                f"make_unbalanced: class {c} has {counts[c]} samples, fewer than {small_count}"
            )
    rng = np.random.default_rng(seed)
    keep: list[np.ndarray] = [np.flatnonzero(np.isin(ds.labels, sorted(large)))]
    for c in small:
        idx = np.flatnonzero(ds.labels == c)
        keep.append(rng.permutation(idx)[:small_count])
    order = np.sort(np.concatenate(keep))
    return LabeledDataset(ds.samples[order].copy(), ds.labels[order].copy(), split=ds.split)


def save_dataset(ds: LabeledDataset, path: str) -> None:
    """Write the dataset container: float64 samples, then int64 labels."""
    header = {"n": len(ds), "sample_shape": list(ds.samples.shape[1:]), "split": ds.split}
    write_container(path, _DATASET_MAGIC, _DATASET_VERSION, header, [ds.samples, ds.labels])


def load_dataset(path: str) -> LabeledDataset:
    container = read_container(path, _DATASET_MAGIC, _DATASET_VERSION, _DATASET_FIELDS,
                               FormatError, LengthError)
    header = container.header
    dims = [header["n"], *header["sample_shape"]]
    if len(dims) not in (2, 3) or not all(type(d) is int and d >= 0 for d in dims):
        raise FormatError(f"{path}: n and the 1 or 2 sample_shape entries must be "
                          f"non-negative integers, got {dims[0]!r} and {dims[1:]!r}")
    samples, labels = container.blocks(("<f8", math.prod(dims)), ("<i8", dims[0]))
    if len(labels) and labels.min() < 0:
        raise FormatError(f"{path}: label {int(labels.min())} is negative")
    if not np.isfinite(samples).all():
        raise FormatError(f"{path}: samples contain NaN or Inf")
    return LabeledDataset(samples.reshape(dims).copy(), labels.copy(), split=header["split"])
