"""Fixed-capacity FIFO queue of unit-norm teacher anchor embeddings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, EmptyBankError, NumericDomainError, ShapeError
from .tensor import off_unit


@dataclass(frozen=True)
class UnitAnchors:
    """An AnchorBank's rows, oldest first: checked finite, and unit-norm or
    zero, when they entered it.

    The objectives take these as they are; any other anchor array they
    check and normalise at every call.
    """

    rows: np.ndarray


def _check_unit(where: str, rows: np.ndarray) -> None:
    """A row that is not all zero and whose norm is off unit by more than 1e-6
    raises a contract error."""
    off = off_unit(rows)
    if off > 1e-6:
        raise ContractError(f"{where}: row norm off unit by {off:.3g} (> 1e-6)")


class AnchorBank:
    """Ring buffer of the most recent teacher embeddings.

    Rows are stored as plain float64 values with no graph linkage. Once
    the bank has seen at least ``capacity`` rows it stays permanently full,
    always evicting the oldest row first.
    """

    def __init__(self, capacity: int, dim: int):
        if capacity < 1 or dim < 1:
            raise ContractError(f"AnchorBank: capacity and dim must be positive, got {capacity}, {dim}")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self.storage = np.zeros((self.capacity, self.dim))
        self.head = 0      # next write position
        self.count = 0     # valid rows, <= capacity

    def enqueue(self, batch) -> None:
        """Append rows FIFO, overwriting the oldest once full.

        A batch holding NaN or Inf raises :class:`NumericDomainError` and
        leaves the bank unchanged. Rows must arrive already unit-normalised
        (the teacher encoder ends in L2 normalization); a row that is not all
        zero and is off unit norm by more than 1e-6 raises a contract error.
        """
        rows = np.ascontiguousarray(batch, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise ShapeError(f"enqueue: expected rows of width {self.dim}, got shape {rows.shape}")
        b = rows.shape[0]
        if b > self.capacity:
            raise ContractError(f"enqueue: batch of {b} rows exceeds capacity {self.capacity}")
        if not np.isfinite(rows).all():
            raise NumericDomainError("anchors contain NaN or Inf")
        _check_unit("enqueue", rows)
        idx = (self.head + np.arange(b)) % self.capacity
        self.storage[idx] = rows
        self.head = (self.head + b) % self.capacity
        self.count = min(self.count + b, self.capacity)

    def _valid(self) -> np.ndarray:
        """Positions of the valid rows, oldest first."""
        if self.count == 0:
            raise EmptyBankError("snapshot: bank is empty; pre-fill it with teacher embeddings first")
        start = (self.head - self.count) % self.capacity
        return (start + np.arange(self.count)) % self.capacity

    def snapshot(self) -> np.ndarray:
        """A copy of the valid rows, oldest first; later enqueues do not change it."""
        return self.storage[self._valid()]    # fancy indexing already copies

    def unit_snapshot(self) -> UnitAnchors:
        """:meth:`snapshot` marked as rows the objectives need not check or normalise."""
        return UnitAnchors(self.snapshot())
