"""Tests for k-NN, linear probe, and recall@k evaluators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import knn_loop
from simdistill.data import gen_gaussian_mixture
from simdistill.errors import ContractError
from simdistill.evaluation import (EmbeddingTable, embed_dataset, knn_eval, linear_probe,
                                   recall_at_k)
from simdistill.nn import MlpSpec, init_params


def random_table(n, d, classes, seed, source=""):
    rng = np.random.default_rng(seed)
    return EmbeddingTable.from_features(rng.standard_normal((n, d)),
                                        rng.integers(0, classes, size=n), source=source)


def knn_oracle(train, test, k):
    """Brute-force reference: full sort per query, majority vote, 1-NN tie-break."""
    correct = 0
    for row, truth in zip(test.embeddings, test.labels):
        sims = [float(row @ t) for t in train.embeddings]
        order = sorted(range(len(sims)), key=lambda i: (-sims[i], i))[:k]
        votes = {}
        for i in order:
            votes[train.labels[i]] = votes.get(train.labels[i], 0) + 1
        top = max(votes.values())
        winners = [label for label, v in votes.items() if v == top]
        pred = winners[0] if len(winners) == 1 else train.labels[order[0]]
        correct += int(pred == truth)
    return correct / len(test.labels)


class TestKnnEval:
    def test_self_match_is_perfect(self):
        table = random_table(20, 6, 4, seed=0)
        assert knn_eval(table, table, 1) == 1.0

    def test_orthogonal_prototypes(self):
        """Test point equal to one of two orthogonal one-per-class rows gets its label."""
        train = EmbeddingTable(np.eye(2), np.array([0, 1]))
        test = EmbeddingTable(np.array([[0.0, 1.0]]), np.array([1]))
        assert knn_eval(train, test, 2) == 1.0

    def test_against_brute_force_oracle(self):
        """50-point random instance: identical accuracy to the exhaustive oracle."""
        train = random_table(50, 5, 3, seed=1)
        test = random_table(40, 5, 3, seed=2)
        for k in (1, 3, 5, 7):
            assert knn_eval(train, test, k) == knn_oracle(train, test, k)

    def test_k_larger_than_train_rejected(self):
        table = random_table(5, 4, 2, seed=3)
        with pytest.raises(ContractError):
            knn_eval(table, table, 6)

    def test_rescaling_invariance(self):
        """Common positive rescaling of all embeddings cannot change the result."""
        rng = np.random.default_rng(4)
        features = rng.standard_normal((30, 6))
        labels = rng.integers(0, 3, size=30)
        base = EmbeddingTable.from_features(features, labels)
        scaled = EmbeddingTable.from_features(features * 7.0, labels)
        queries = random_table(10, 6, 3, seed=5)
        assert knn_eval(base, queries, 5) == knn_eval(scaled, queries, 5)

    def test_pure_function(self):
        train = random_table(25, 4, 3, seed=6)
        test = random_table(10, 4, 3, seed=7)
        assert knn_eval(train, test, 3) == knn_eval(train, test, 3)

    @given(seed=st.integers(0, 2**32 - 1), n_train=st.integers(1, 30), n_test=st.integers(1, 12),
           dim=st.integers(1, 3), levels=st.integers(1, 3), k_pick=st.sampled_from(["1", "n", "any"]))
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_oracle_on_ties(self, seed, n_train, n_test, dim, levels, k_pick):
        """Quantised embeddings repeat rows and similarities, and the labels have gaps:
        the same accuracy as the per-row loop it replaced, for k = 1, k = n and any k."""
        rng = np.random.default_rng(seed)
        features = np.round(rng.uniform(-levels, levels, size=(n_train + n_test, dim)))
        features[~features.any(axis=1), 0] = 1.0
        labels = rng.choice([0, 3, 4, 9], size=n_train + n_test)
        train = EmbeddingTable.from_features(features[:n_train], labels[:n_train])
        test = EmbeddingTable.from_features(features[n_train:], labels[n_train:])
        k = {"1": 1, "n": n_train, "any": int(rng.integers(1, n_train + 1))}[k_pick]
        assert knn_eval(train, test, k) == knn_loop.knn_eval(train, test, k)


class TestLinearProbe:
    def test_separable_two_class_fixture(self):
        """A linearly separable 2-class layout reaches accuracy 1.0."""
        angles_a = np.linspace(0.1, 0.9, 12)
        angles_b = angles_a + np.pi
        emb = np.concatenate([np.stack([np.cos(angles_a), np.sin(angles_a)], axis=1),
                              np.stack([np.cos(angles_b), np.sin(angles_b)], axis=1)])
        labels = np.array([0] * 12 + [1] * 12)
        table = EmbeddingTable(emb, labels)
        assert linear_probe(table, table, epochs=200, lr=1.0) == 1.0

    def test_shuffled_labels_give_chance_level(self):
        """C=4 balanced with random labels sits near 25%."""
        rng = np.random.default_rng(8)
        n = 400
        emb = rng.standard_normal((n, 8))
        labels = np.repeat(np.arange(4), n // 4)
        train = EmbeddingTable.from_features(emb, rng.permutation(labels))
        test_emb = rng.standard_normal((n, 8))
        test = EmbeddingTable.from_features(test_emb, np.repeat(np.arange(4), n // 4))
        acc = linear_probe(train, test, epochs=100, lr=1.0)
        assert abs(acc - 0.25) <= 0.05

    def test_zero_epochs_zero_init_predicts_lowest_class(self):
        """All-zero scores argmax to the lowest class id, giving 1/C on balanced data."""
        table = random_table(30, 4, 3, seed=9)
        labels = np.repeat(np.arange(3), 10)
        table = EmbeddingTable(table.embeddings, labels)
        assert linear_probe(table, table, epochs=0, lr=1.0) == pytest.approx(1.0 / 3.0)

    def test_single_class_rejected(self):
        emb = np.eye(3)
        table = EmbeddingTable(emb, np.zeros(3, dtype=int))
        with pytest.raises(ContractError):
            linear_probe(table, table, epochs=1, lr=1.0)

    def test_deterministic(self):
        train = random_table(40, 5, 3, seed=10)
        test = random_table(20, 5, 3, seed=11)
        assert (linear_probe(train, test, epochs=50, lr=0.5)
                == linear_probe(train, test, epochs=50, lr=0.5))


class TestRecallAtK:
    def test_duplicated_points_give_perfect_recall_at_one(self):
        rng = np.random.default_rng(12)
        base = rng.standard_normal((4, 5))
        emb = np.repeat(base, 2, axis=0)
        labels = np.repeat(np.arange(4), 2)
        table = EmbeddingTable.from_features(emb, labels)
        assert recall_at_k(table, [1]) == [1.0]

    def test_full_neighbourhood_is_always_recalled(self):
        """R@(N-1) is 1.0 whenever every class has at least two members."""
        table = EmbeddingTable.from_features(
            np.random.default_rng(13).standard_normal((12, 4)),
            np.repeat(np.arange(3), 4))
        assert recall_at_k(table, [11]) == [1.0]

    def test_against_brute_force_oracle(self):
        """30-point instance: exact match with an exhaustive implementation."""
        rng = np.random.default_rng(14)
        emb = rng.standard_normal((30, 5))
        labels = np.repeat(np.arange(5), 6)
        table = EmbeddingTable.from_features(emb, labels)
        ks = [1, 2, 4, 8]
        got = recall_at_k(table, ks)

        e = table.embeddings
        for k, r in zip(ks, got):
            hits = 0
            for i in range(30):
                sims = [(float(e[i] @ e[j]), j) for j in range(30) if j != i]
                sims.sort(key=lambda t: (-t[0], t[1]))
                top = [j for _, j in sims[:k]]
                hits += int(any(labels[j] == labels[i] for j in top))
            assert r == hits / 30

    def test_monotone_in_k(self):
        table = EmbeddingTable.from_features(
            np.random.default_rng(15).standard_normal((40, 6)),
            np.repeat(np.arange(4), 10))
        rs = recall_at_k(table, [1, 2, 4, 8, 16, 39])
        assert all(a <= b + 1e-12 for a, b in zip(rs, rs[1:]))
        assert rs[-1] == 1.0

    def test_singleton_class_named_in_error(self):
        table = EmbeddingTable.from_features(
            np.random.default_rng(16).standard_normal((5, 3)),
            np.array([0, 0, 1, 1, 2]))
        with pytest.raises(ContractError, match="class 2"):
            recall_at_k(table, [1])


class TestEmbeddingTable:
    def test_unit_norm_contract(self):
        with pytest.raises(ContractError):
            EmbeddingTable(np.array([[1.0, 1.0]]), np.array([0]))

    def test_negative_label_rejected(self):
        with pytest.raises(ContractError, match="non-negative"):
            EmbeddingTable(np.eye(2), np.array([0, -1]))

    def test_from_features_normalises(self):
        t = EmbeddingTable.from_features(np.array([[3.0, 4.0]]), np.array([0]))
        assert np.allclose(t.embeddings, [[0.6, 0.8]])

    def test_embed_dataset_rows_unit(self):
        ds = gen_gaussian_mixture(2, 10, 4, 2.0, seed=17)
        enc = init_params(MlpSpec((4, 16, 3), final_normalize=True), 18)
        table = embed_dataset(enc, ds, source="teacher", epoch=3)
        assert np.abs(np.linalg.norm(table.embeddings, axis=1) - 1.0).max() < 1e-10
        assert table.source == "teacher" and table.epoch == 3

    def test_embed_dataset_flattens_images(self):
        from simdistill.data import LabeledDataset
        ds = LabeledDataset(np.random.default_rng(19).random((6, 2, 3)), np.zeros(6, dtype=int))
        enc = init_params(MlpSpec((6, 8, 2), final_normalize=True), 20)
        assert embed_dataset(enc, ds).embeddings.shape == (6, 2)
