"""Dataset generation, IDX image loading, and unbalanced subsampling."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .container import read_container, write_container
from .errors import ContractError, FormatError, LengthError
from .tensor import unit_rows

_IDX_UBYTE = 0x08
_DATASET_MAGIC = b"SDDS"
_DATASET_VERSION = 1
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


def _read_idx_array(path: str, expect_ndim: int | None = None) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 4:
        raise FormatError(f"{path}: bad magic at offset 0 (file shorter than 4 bytes)")
    if raw[0] != 0 or raw[1] != 0:
        raise FormatError(f"{path}: bad magic at offset 0: {raw[0]:#04x} {raw[1]:#04x}")
    if raw[2] != _IDX_UBYTE:
        raise FormatError(f"{path}: unsupported type byte {raw[2]:#04x} at offset 2 (only unsigned byte)")
    ndim = raw[3]
    if expect_ndim is not None and ndim != expect_ndim:
        raise FormatError(f"{path}: expected {expect_ndim} dimensions, header says {ndim}")
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise LengthError(f"{path}: truncated header, need {header_len} bytes, have {len(raw)}")
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    payload = raw[header_len:]
    expected = int(np.prod(dims)) if ndim else 0
    if len(payload) != expected:
        raise LengthError(
            f"{path}: payload of {len(payload)} bytes does not match dimension product {expected}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_idx(images_path: str, labels_path: str | None = None,
             split: str = "train") -> LabeledDataset:
    """Load an IDX image file and its paired label file.

    Pixel values are scaled to [0, 1]. When ``labels_path`` is omitted it
    is derived by the usual naming convention (images -> labels, idx3 -> idx1).
    """
    if labels_path is None:
        labels_path = images_path.replace("images", "labels").replace("idx3", "idx1")
        if labels_path == images_path:
            raise FormatError(f"{images_path}: cannot derive a paired label file name")
    images = _read_idx_array(images_path, expect_ndim=3)
    labels = _read_idx_array(labels_path, expect_ndim=1)
    if len(labels) != len(images):
        raise LengthError(
            f"{labels_path}: {len(labels)} labels for {len(images)} images"
        )
    return LabeledDataset(images.astype(np.float64) / 255.0, labels.astype(np.int64), split=split)


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
    return LabeledDataset(samples.reshape(dims).copy(), labels.copy(), split=header["split"])
