"""Fixed-capacity FIFO queue of unit-norm teacher anchor embeddings."""

from __future__ import annotations

import numpy as np

from .errors import ContractError, EmptyBankError, ShapeError
from .tensor import Tensor


class AnchorBank:
    """Ring buffer of the most recent teacher embeddings.

    Rows are stored as plain float64 values with no graph linkage. Once
    the bank has seen at least ``capacity`` rows it stays permanently
    full, always evicting the oldest row first.
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

        Rows must arrive already unit-normalised (the teacher encoder ends
        in L2 normalization); in debug mode a row whose norm is off by
        more than 1e-6 raises a contract error.
        """
        rows = batch.data if isinstance(batch, Tensor) else np.asarray(batch, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise ShapeError(f"enqueue: expected rows of width {self.dim}, got shape {rows.shape}")
        b = rows.shape[0]
        if b > self.capacity:
            raise ContractError(f"enqueue: batch of {b} rows exceeds capacity {self.capacity}")
        if __debug__ and b:
            norms = np.linalg.norm(rows, axis=1)
            off = np.abs(norms - 1.0)
            if off.max() > 1e-6:
                raise ContractError(f"enqueue: row norm off unit by {off.max():.3g} (> 1e-6)")
        self.storage[(self.head + np.arange(b)) % self.capacity] = rows
        self.head = (self.head + b) % self.capacity
        self.count = min(self.count + b, self.capacity)

    def snapshot(self) -> Tensor:
        """Immutable copy of the valid rows, oldest first, detached from all graphs."""
        if self.count == 0:
            raise EmptyBankError("snapshot: bank is empty; pre-fill it with teacher embeddings first")
        start = (self.head - self.count) % self.capacity
        idx = (start + np.arange(self.count)) % self.capacity
        return Tensor(self.storage[idx])    # fancy indexing already copies

    def state(self) -> tuple[np.ndarray, int, int]:
        """Raw (storage copy, head, count) for checkpointing."""
        return self.storage.copy(), self.head, self.count

    @staticmethod
    def from_state(storage: np.ndarray, head: int, count: int) -> "AnchorBank":
        """Rebuild a bank from :meth:`state`; head and count must fit the storage."""
        bank = AnchorBank(storage.shape[0], storage.shape[1])
        if not 0 <= head < bank.capacity:
            raise ContractError(f"from_state: head {head} outside [0, {bank.capacity})")
        if not 0 <= count <= bank.capacity:
            raise ContractError(f"from_state: count {count} outside [0, {bank.capacity}]")
        bank.storage[...] = storage
        bank.head = int(head)
        bank.count = int(count)
        return bank
