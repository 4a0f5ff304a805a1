"""Tests for the FIFO anchor bank against a list-based oracle."""

import numpy as np
import pytest

import simdistill.tensor as T
from oracles import graph_ops
from simdistill.bank import AnchorBank
from simdistill.errors import ContractError, EmptyBankError, ShapeError
from simdistill.tensor import Tensor


def unit_rows(n, d, rng):
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class ListQueueOracle:
    """Reference FIFO queue: plain python list, oldest first."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.rows = []

    def enqueue(self, batch):
        for row in batch:
            self.rows.append(np.array(row))
        self.rows = self.rows[-self.capacity:]

    def snapshot(self):
        return np.stack(self.rows)


class TestEnqueue:
    def test_two_plus_two_preserves_order(self):
        rng = np.random.default_rng(0)
        bank = AnchorBank(4, 3)
        r = unit_rows(4, 3, rng)
        bank.enqueue(r[:2])
        bank.enqueue(r[2:])
        assert bank.count == 4
        assert np.array_equal(bank.snapshot().data, r)

    def test_fifo_eviction(self):
        """Capacity 4, six rows r1..r6: the bank retains r3..r6."""
        rng = np.random.default_rng(1)
        bank = AnchorBank(4, 3)
        r = unit_rows(6, 3, rng)
        bank.enqueue(r[:3])
        bank.enqueue(r[3:])
        assert np.array_equal(bank.snapshot().data, r[2:])

    def test_dimension_mismatch(self):
        bank = AnchorBank(4, 3)
        with pytest.raises(ShapeError):
            bank.enqueue(np.zeros((2, 5)))

    def test_non_normalized_row_rejected(self):
        bank = AnchorBank(4, 3)
        with pytest.raises(ContractError):
            bank.enqueue(np.array([[1.0, 1.0, 0.0]]))

    def test_batch_larger_than_capacity_rejected(self):
        bank = AnchorBank(2, 3)
        with pytest.raises(ContractError):
            bank.enqueue(unit_rows(3, 3, np.random.default_rng(2)))

    def test_full_bank_stays_full(self):
        rng = np.random.default_rng(3)
        bank = AnchorBank(4, 2)
        for _ in range(10):
            bank.enqueue(unit_rows(3, 2, rng))
            assert bank.count <= 4
        assert bank.count == 4


class TestSnapshot:
    def test_partial_fill_shape(self):
        bank = AnchorBank(8, 2)
        bank.enqueue(unit_rows(3, 2, np.random.default_rng(4)))
        assert bank.snapshot().data.shape == (3, 2)

    def test_snapshot_is_a_copy(self):
        rng = np.random.default_rng(5)
        bank = AnchorBank(2, 2)
        first = unit_rows(2, 2, rng)
        bank.enqueue(first)
        snap = bank.snapshot()
        bank.enqueue(unit_rows(2, 2, rng))
        assert np.array_equal(snap.data, first)

    def test_empty_bank_raises(self):
        with pytest.raises(EmptyBankError):
            AnchorBank(4, 2).snapshot()

    def test_snapshot_rows_never_receive_gradient(self):
        rng = np.random.default_rng(6)
        bank = AnchorBank(4, 3)
        bank.enqueue(unit_rows(4, 3, rng))
        snap = bank.snapshot()
        assert not snap.requires_grad
        q = Tensor.parameter(rng.standard_normal((3, 1)))
        loss = T.tensor_sum(graph_ops.matmul(snap, q))
        T.backward(loss)
        assert snap.grad is None


class TestAgainstListOracle:
    def test_random_scripts_match(self):
        """Random interleavings of enqueue/snapshot equal the list oracle."""
        rng = np.random.default_rng(7)
        for script in range(200):
            capacity = int(rng.integers(1, 12))
            d = int(rng.integers(2, 5))
            bank = AnchorBank(capacity, d)
            oracle = ListQueueOracle(capacity)
            for _ in range(int(rng.integers(1, 20))):
                if oracle.rows and rng.random() < 0.3:
                    assert np.array_equal(bank.snapshot().data, oracle.snapshot())
                else:
                    batch = unit_rows(int(rng.integers(1, capacity + 1)), d, rng)
                    bank.enqueue(batch)
                    oracle.enqueue(batch)
            if oracle.rows:
                assert np.array_equal(bank.snapshot().data, oracle.snapshot())

    def test_state_round_trip(self):
        rng = np.random.default_rng(8)
        bank = AnchorBank(5, 3)
        bank.enqueue(unit_rows(4, 3, rng))
        restored = AnchorBank.from_state(*bank.state())
        assert np.array_equal(restored.snapshot().data, bank.snapshot().data)
        assert restored.head == bank.head and restored.count == bank.count

    @pytest.mark.parametrize("head,count", [(5, 4), (-1, 4), (0, 6), (0, -5)])
    def test_state_out_of_range_rejected(self, head, count):
        with pytest.raises(ContractError):
            AnchorBank.from_state(np.zeros((5, 3)), head, count)
