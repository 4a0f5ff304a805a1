"""Tests for the FIFO anchor bank against a list-based oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simdistill.bank import AnchorBank
from simdistill.errors import ContractError, EmptyBankError, NumericDomainError, ShapeError


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
        assert np.array_equal(bank.snapshot(), r)

    def test_fifo_eviction(self):
        """Capacity 4, six rows r1..r6: the bank retains r3..r6."""
        rng = np.random.default_rng(1)
        bank = AnchorBank(4, 3)
        r = unit_rows(6, 3, rng)
        bank.enqueue(r[:3])
        bank.enqueue(r[3:])
        assert np.array_equal(bank.snapshot(), r[2:])

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected_and_bank_unchanged(self, bad):
        """A batch holding NaN or Inf raises before anything is written, also where
        the unit-norm check cannot see it (a NaN norm is not off by more than 1e-6)."""
        bank = AnchorBank(4, 2)
        with pytest.raises(NumericDomainError, match="anchors contain NaN or Inf"):
            bank.enqueue(np.array([[bad, 0.0], [1.0, 0.0]]))
        assert bank.count == 0 and bank.head == 0
        bank.enqueue(unit_rows(3, 2, np.random.default_rng(9)))

        def contents():
            storage, head, count = bank.state()
            return [storage.tobytes(), bank.unit_snapshot().rows.tobytes(), head, count]
        before = contents()
        with pytest.raises(NumericDomainError, match="anchors contain NaN or Inf"):
            bank.enqueue(np.array([[1.0, 0.0], [0.0, bad]]))
        assert contents() == before

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
        assert bank.snapshot().shape == (3, 2)

    def test_snapshot_is_a_copy(self):
        """A later enqueue does not change a snapshot, nor a write into it the bank."""
        rng = np.random.default_rng(5)
        bank = AnchorBank(2, 2)
        first = unit_rows(2, 2, rng)
        bank.enqueue(first)
        snap = bank.snapshot()
        bank.enqueue(unit_rows(2, 2, rng))
        assert np.array_equal(snap, first)
        later = bank.snapshot()
        snap[...] = 0.0
        assert np.array_equal(bank.snapshot(), later)

    def test_empty_bank_raises(self):
        with pytest.raises(EmptyBankError):
            AnchorBank(4, 2).snapshot()


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
                    assert np.array_equal(bank.snapshot(), oracle.snapshot())
                else:
                    batch = unit_rows(int(rng.integers(1, capacity + 1)), d, rng)
                    bank.enqueue(batch)
                    oracle.enqueue(batch)
            if oracle.rows:
                assert np.array_equal(bank.snapshot(), oracle.snapshot())

    def test_state_round_trip(self):
        rng = np.random.default_rng(8)
        bank = AnchorBank(5, 3)
        bank.enqueue(unit_rows(4, 3, rng))
        restored = AnchorBank.from_state(*bank.state())
        assert np.array_equal(restored.snapshot(), bank.snapshot())
        assert restored.head == bank.head and restored.count == bank.count

    def test_non_finite_state_rejected(self):
        storage = np.zeros((5, 3))
        storage[4, 1] = np.nan
        with pytest.raises(ContractError, match="NaN or Inf"):
            AnchorBank.from_state(storage, 0, 5)

    @pytest.mark.parametrize("head,count", [(5, 4), (-1, 4), (0, 6), (0, -5)])
    def test_state_out_of_range_rejected(self, head, count):
        with pytest.raises(ContractError):
            AnchorBank.from_state(np.zeros((5, 3)), head, count)


class TestUnitSnapshot:
    """The rows the objectives score unchecked are the bank's rows as they entered."""

    @given(seed=st.integers(0, 2**32 - 1), capacity=st.integers(2, 80),
           d=st.sampled_from([1, 2, 3, 7, 64]),
           script=st.lists(st.integers(1, 80), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_rows_are_the_snapshot(self, seed, capacity, d, script):
        """After every enqueue of a script that wraps around, and after a
        state()/from_state() round trip, bitwise the list oracle's rows."""
        rng = np.random.default_rng(seed)
        bank = AnchorBank(capacity, d)
        oracle = ListQueueOracle(capacity)
        for b in script:
            batch = unit_rows(min(b, capacity), d, rng)
            bank.enqueue(batch)
            oracle.enqueue(batch)
            assert bank.unit_snapshot().rows.tobytes() == oracle.snapshot().tobytes()
        restored = AnchorBank.from_state(*bank.state())
        assert restored.unit_snapshot().rows.tobytes() == oracle.snapshot().tobytes()

    def test_unit_snapshot_is_a_copy(self):
        rng = np.random.default_rng(10)
        bank = AnchorBank(2, 2)
        bank.enqueue(unit_rows(2, 2, rng))
        units = bank.unit_snapshot().rows
        kept = units.copy()
        bank.enqueue(unit_rows(2, 2, rng))
        assert np.array_equal(units, kept)

    def test_non_unit_state_rejected(self):
        """A loaded bank's rows reach the objectives unnormalised, so from_state
        checks them as enqueue does; rows past ``count`` are not read."""
        storage = unit_rows(5, 3, np.random.default_rng(11))
        storage[4] *= 2.0
        AnchorBank.from_state(storage, 4, 4)
        with pytest.raises(ContractError, match="norm off unit"):
            AnchorBank.from_state(storage, 0, 5)
