"""Tests for dataset generation, the dataset container, and unbalanced subsampling."""

import numpy as np
import pytest

from simdistill.data import (LabeledDataset, gen_gaussian_mixture, load_dataset, make_unbalanced,
                             save_dataset)
from simdistill.errors import ContractError, FormatError, LengthError
from simdistill.evaluation import EmbeddingTable, knn_eval
from simdistill.tensor import unit_rows


class TestGaussianMixture:
    def test_same_seed_identical(self):
        a = gen_gaussian_mixture(3, 10, 4, 2.0, seed=5)
        b = gen_gaussian_mixture(3, 10, 4, 2.0, seed=5)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.labels, b.labels)

    def test_extreme_separation_is_perfectly_separable(self):
        """C=2, sep=100, d=2: raw-feature k-NN is perfect on a held-out split."""
        train = gen_gaussian_mixture(2, 100, 2, 100.0, seed=6, split="train")
        test = gen_gaussian_mixture(2, 50, 2, 100.0, seed=6, split="eval")
        acc = knn_eval(EmbeddingTable(unit_rows(train.samples), train.labels),
                       EmbeddingTable(unit_rows(test.samples), test.labels), 5)
        assert acc == 1.0

    def test_zero_separation_is_chance_level(self):
        """sep=0 makes class-conditionals identical; k-NN sits at 1/C."""
        train = gen_gaussian_mixture(2, 400, 8, 0.0, seed=7, split="train")
        test = gen_gaussian_mixture(2, 200, 8, 0.0, seed=7, split="eval")
        acc = knn_eval(EmbeddingTable(unit_rows(train.samples), train.labels),
                       EmbeddingTable(unit_rows(test.samples), test.labels), 5)
        assert abs(acc - 0.5) <= 0.05

    def test_splits_share_means_but_not_noise(self):
        train = gen_gaussian_mixture(2, 50, 4, 3.0, seed=8, split="train")
        ev = gen_gaussian_mixture(2, 50, 4, 3.0, seed=8, split="eval")
        assert not np.array_equal(train.samples, ev.samples)
        for c in (0, 1):
            mu_t = train.samples[train.labels == c].mean(axis=0)
            mu_e = ev.samples[ev.labels == c].mean(axis=0)
            assert np.linalg.norm(mu_t - mu_e) < 1.5

    def test_class_counts(self):
        ds = gen_gaussian_mixture(4, 25, 3, 1.0, seed=9)
        assert ds.class_counts.tolist() == [25, 25, 25, 25]
        assert ds.num_classes == 4

    def test_parameter_validation(self):
        with pytest.raises(ContractError):
            gen_gaussian_mixture(1, 10, 4, 1.0, seed=0)
        with pytest.raises(ContractError):
            gen_gaussian_mixture(3, 10, 4, -1.0, seed=0)


class TestLabeledDataset:
    @pytest.mark.parametrize("samples,labels,message", [
        (np.zeros(4), np.zeros(4, dtype=int), r"samples must be \[N, d\] or \[N, h, w\], "
                                              r"got shape \(4,\)"),
        (np.zeros((2, 2, 2, 2)), np.zeros(2, dtype=int), r"got shape \(2, 2, 2, 2\)"),
        (np.zeros((3, 2)), np.zeros(2, dtype=int), "labels must be one integer per sample"),
        (np.zeros((2, 2)), np.zeros((2, 1), dtype=int), "labels must be one integer per sample"),
        (np.zeros((2, 2)), np.array([0, -1]), "labels must be non-negative"),
    ], ids=["samples-1d", "samples-4d", "label-count", "labels-2d", "label-negative"])
    def test_malformed_dataset_rejected(self, samples, labels, message):
        with pytest.raises(ContractError, match=message):
            LabeledDataset(samples, labels)


class TestMakeUnbalanced:
    def _dataset(self, counts, d=4, seed=0):
        rng = np.random.default_rng(seed)
        samples = []
        labels = []
        for c, n in enumerate(counts):
            samples.append(rng.standard_normal((n, d)))
            labels.extend([c] * n)
        return LabeledDataset(np.concatenate(samples), np.array(labels))

    def test_all_classes_large_is_identity(self):
        ds = self._dataset([10, 12, 9])
        out = make_unbalanced(ds, [0, 1, 2], 5, seed=1)
        assert np.array_equal(out.samples, ds.samples)
        assert np.array_equal(out.labels, ds.labels)

    def test_histogram_arithmetic(self):
        """2 large of 500, 6 small cut to 50: N = 1300 with the stated histogram."""
        ds = self._dataset([500, 500, 500, 500, 500, 500, 500, 500], d=2)
        out = make_unbalanced(ds, [0, 1], 50, seed=2)
        assert len(out) == 1300
        assert out.class_counts.tolist() == [500, 500, 50, 50, 50, 50, 50, 50]

    def test_matches_shuffle_and_truncate_oracle(self):
        """Kept indices equal a seeded permutation truncation, class by class."""
        ds = self._dataset([20, 30, 25, 15], seed=3)
        seed = 11
        out = make_unbalanced(ds, [1], 7, seed=seed)

        rng = np.random.default_rng(seed)
        keep = list(np.flatnonzero(ds.labels == 1))
        for c in (0, 2, 3):
            idx = np.flatnonzero(ds.labels == c)
            keep.extend(rng.permutation(idx)[:7])
        keep = np.sort(np.array(keep))
        assert np.array_equal(out.samples, ds.samples[keep])
        assert np.array_equal(out.labels, ds.labels[keep])

    def test_retained_samples_keep_their_bytes(self):
        ds = self._dataset([8, 8], seed=4)
        out = make_unbalanced(ds, [0], 3, seed=5)
        for i in range(len(out)):
            matches = np.all(ds.samples == out.samples[i], axis=1)
            assert matches.any()

    def test_unknown_class_rejected(self):
        ds = self._dataset([5, 5])
        with pytest.raises(ContractError):
            make_unbalanced(ds, [4], 2, seed=0)

    def test_small_count_exceeding_class_rejected(self):
        ds = self._dataset([5, 5])
        with pytest.raises(ContractError):
            make_unbalanced(ds, [0], 9, seed=0)


class TestContainer:
    def test_round_trip(self, tmp_path):
        ds = gen_gaussian_mixture(3, 7, 5, 2.0, seed=10, split="eval")
        path = str(tmp_path / "ds.bin")
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.samples, ds.samples)
        assert np.array_equal(back.labels, ds.labels)
        assert back.split == "eval"

    def test_round_trip_images(self, tmp_path):
        ds = LabeledDataset(np.random.default_rng(11).random((4, 3, 2)), np.arange(4))
        path = str(tmp_path / "img.bin")
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.samples, ds.samples)

    def test_deterministic_bytes(self, tmp_path):
        ds = gen_gaussian_mixture(2, 5, 3, 1.0, seed=12)
        p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        save_dataset(ds, p1)
        save_dataset(ds, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FormatError):
            load_dataset(str(p))

    def test_truncated_payload(self, tmp_path):
        ds = gen_gaussian_mixture(2, 5, 3, 1.0, seed=13)
        p = str(tmp_path / "cut.bin")
        save_dataset(ds, p)
        raw = open(p, "rb").read()
        open(p, "wb").write(raw[:-8])
        with pytest.raises(LengthError):
            load_dataset(p)
