"""Tests for k-NN, linear probe, and recall@k evaluators."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import knn_loop, knn_oneshot, probe_graph, recall_sort
from simdistill import evaluation
from simdistill.data import gen_gaussian_mixture
from simdistill.errors import ContractError, NumericDomainError, ShapeError
from simdistill.evaluation import (EmbeddingTable, _fit_probe, embed_dataset, knn_eval,
                                   linear_probe, recall_at_k)
from simdistill.nn import MlpSpec, init_params
from simdistill.tensor import unit_rows


def unit_table(features, labels):
    """A table of raw feature rows scaled to unit norm."""
    return EmbeddingTable(unit_rows(features), labels)


def random_table(n, d, classes, seed):
    rng = np.random.default_rng(seed)
    return EmbeddingTable(unit_rows(rng.standard_normal((n, d))),
                          rng.integers(0, classes, size=n))


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
        base = unit_table(features, labels)
        scaled = unit_table(features * 7.0, labels)
        queries = random_table(10, 6, 3, seed=5)
        assert knn_eval(base, queries, 5) == knn_eval(scaled, queries, 5)

    def test_pure_function(self):
        train = random_table(25, 4, 3, seed=6)
        test = random_table(10, 4, 3, seed=7)
        assert knn_eval(train, test, 3) == knn_eval(train, test, 3)

    @given(seed=st.integers(0, 2**32 - 1), n_train=st.integers(1, 30), n_test=st.integers(1, 40),
           dim=st.integers(1, 3), levels=st.integers(1, 3), k_pick=st.sampled_from(["1", "n", "any"]),
           block_rows=st.integers(0, 6), spare_bytes=st.integers(0, 239))
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_oracle_on_ties(self, seed, n_train, n_test, dim, levels, k_pick,
                                         block_rows, spare_bytes):
        """Quantised embeddings repeat rows and similarities, and the labels have gaps:
        the same accuracy as the per-row loop and the one-shot selection it replaced,
        for k = 1, k = n and any k. The selection budget is cut to a few rows (at
        least one, even below a row's bytes), so the test rows span several blocks,
        the last one often short."""
        rng = np.random.default_rng(seed)
        features = np.round(rng.uniform(-levels, levels, size=(n_train + n_test, dim)))
        features[~features.any(axis=1), 0] = 1.0
        labels = rng.choice([0, 3, 4, 9], size=n_train + n_test)
        train = unit_table(features[:n_train], labels[:n_train])
        test = unit_table(features[n_train:], labels[n_train:])
        k = {"1": 1, "n": n_train, "any": int(rng.integers(1, n_train + 1))}[k_pick]
        budget = block_rows * 8 * n_train + spare_bytes % (8 * n_train)
        with mock.patch.object(evaluation, "_SELECT_BUDGET", budget):
            blocked = knn_eval(train, test, k)
        assert blocked == knn_loop.knn_eval(train, test, k)
        assert blocked == knn_oneshot.knn_eval(train, test, k)

    def test_selection_memory_stays_near_the_similarity_block(self):
        """At the unbalanced protocol's shape (400 eval rows against 2080 train rows
        of 64 dims) the traced peak is the [400, 2080] similarity block plus a few
        selection budgets; the one-shot selection's partition copied the whole block."""
        train = random_table(2080, 64, 10, seed=8)
        test = random_table(400, 64, 10, seed=9)
        sims_bytes = 400 * 2080 * 8
        tracemalloc.start()
        try:
            accuracy = knn_eval(train, test, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sims_bytes < peak <= sims_bytes + 4 * evaluation._SELECT_BUDGET
        assert accuracy == knn_oneshot.knn_eval(train, test, 5)


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
        train = unit_table(emb, rng.permutation(labels))
        test_emb = rng.standard_normal((n, 8))
        test = unit_table(test_emb, np.repeat(np.arange(4), n // 4))
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

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), dim=st.integers(1, 6),
           labels=st.sampled_from([(0, 1), (2, 7), (0, 3, 4, 9)]), epochs=st.integers(0, 60),
           lr=st.sampled_from([0.1, 0.5, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_matches_graph_oracle(self, seed, n, dim, labels, epochs, lr):
        """Gapped labels and c = 2: the closed-form fit has the graph fit's weights
        within 1e-10 relative, and the same prediction on every test row whose
        top two scores are not tied to within rounding. At dim 1 rows are +-1,
        and exact score ties, which rounding may break either way, are common.

        The loss's curvature is at most 1 for unit rows plus a bias, so steps up
        to lr 1, the default, are stable. Far beyond that, gradient descent
        amplifies rounding and the two fits part: by 12% of the weights at lr 4."""
        rng = np.random.default_rng(seed)
        ys = rng.choice(labels, size=n)
        ys[:2] = labels[:2]
        train = unit_table(rng.standard_normal((n, dim)) + ys[:, None], ys)
        test = random_table(15, dim, 10, seed=seed + 1)
        w, b, classes = _fit_probe(train, epochs, lr)
        w_ref, b_ref, classes_ref = probe_graph.fit(train, epochs, lr)
        assert np.array_equal(classes, classes_ref) and w.shape == w_ref.shape
        # a weight the graph fit sums to exactly zero carries rounding of size lr
        scale = max(np.abs(w_ref).max(), np.abs(b_ref).max(), lr)
        assert np.abs(w - w_ref).max() <= 1e-10 * scale
        assert np.abs(b - b_ref).max() <= 1e-10 * scale

        scores_ref = test.embeddings @ w_ref + b_ref
        top2 = np.sort(scores_ref, axis=1)[:, -2:]
        clear = top2[:, 1] - top2[:, 0] > 1e-9 * scale * (dim + 1)
        pred = classes[np.argmax(test.embeddings @ w + b, axis=1)]
        pred_ref = classes[np.argmax(scores_ref, axis=1)]
        assert np.array_equal(pred[clear], pred_ref[clear])
        assert linear_probe(train, test, epochs, lr) == float(np.mean(pred == test.labels))
        if clear.all() or epochs == 0:
            assert (linear_probe(train, test, epochs, lr)
                    == probe_graph.linear_probe(train, test, epochs, lr))

    def test_accuracy_equal_to_graph_oracle_at_eval_scale(self):
        """The eval command's shape: 8 classes, 64 dims, 200 epochs at lr 1."""
        for seed in range(3):
            train = unit_table(*self._mixture(seed, 400))
            test = unit_table(*self._mixture(seed + 100, 200))
            assert linear_probe(train, test) == probe_graph.linear_probe(train, test)

    @staticmethod
    def _mixture(seed, n):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 8, size=n)
        return rng.standard_normal((n, 64)) + 2.0 * np.eye(8, 64)[labels], labels

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            linear_probe(random_table(10, 4, 2, seed=17), random_table(5, 3, 2, seed=18))

    def test_negative_epochs_rejected(self):
        table = random_table(10, 4, 2, seed=19)
        with pytest.raises(ContractError):
            linear_probe(table, table, epochs=-1)

    @pytest.mark.parametrize("lr", [0.0, -1.0, np.nan, np.inf])
    def test_bad_lr_rejected(self, lr):
        table = random_table(10, 4, 2, seed=20)
        with pytest.raises(ContractError):
            linear_probe(table, table, epochs=5, lr=lr)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("epochs, where", [(1, "scores"), (2, "logits"), (5, "logits")])
    def test_divergent_lr_raises_numeric_domain_error(self, epochs, where):
        """Identical rows, 91 of 100 in one class: the first step at lr 1.5e308
        sends that class's score past the float range. The fit stops at the
        next epoch; after a single epoch, scoring the test table catches it."""
        table = unit_table(
            np.ones((100, 4)), np.concatenate([np.zeros(91, dtype=int), np.arange(1, 10)]))
        with pytest.raises(NumericDomainError, match=where):
            linear_probe(table, table, epochs=epochs, lr=1.5e308)


class TestRecallAtK:
    def test_duplicated_points_give_perfect_recall_at_one(self):
        rng = np.random.default_rng(12)
        base = rng.standard_normal((4, 5))
        emb = np.repeat(base, 2, axis=0)
        labels = np.repeat(np.arange(4), 2)
        table = unit_table(emb, labels)
        assert recall_at_k(table, [1]) == [1.0]

    def test_full_neighbourhood_is_always_recalled(self):
        """R@(N-1) is 1.0 whenever every class has at least two members."""
        table = unit_table(
            np.random.default_rng(13).standard_normal((12, 4)),
            np.repeat(np.arange(3), 4))
        assert recall_at_k(table, [11]) == [1.0]

    def test_against_brute_force_oracle(self):
        """30-point instance: exact match with an exhaustive implementation."""
        rng = np.random.default_rng(14)
        emb = rng.standard_normal((30, 5))
        labels = np.repeat(np.arange(5), 6)
        table = unit_table(emb, labels)
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
        table = unit_table(
            np.random.default_rng(15).standard_normal((40, 6)),
            np.repeat(np.arange(4), 10))
        rs = recall_at_k(table, [1, 2, 4, 8, 16, 39])
        assert all(a <= b + 1e-12 for a, b in zip(rs, rs[1:]))
        assert rs[-1] == 1.0

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 30), dim=st.integers(1, 3),
           levels=st.integers(1, 3), extra=st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_matches_sort_oracle_on_ties(self, seed, n, dim, levels, extra):
        """Quantised embeddings repeat rows and similarities, and the labels have gaps:
        the same recalls as the stable argsort, for k from 1 up to beyond n - 1."""
        rng = np.random.default_rng(seed)
        features = np.round(rng.uniform(-levels, levels, size=(n, dim)))
        features[~features.any(axis=1), 0] = 1.0
        labels = rng.choice([0, 5, 6], size=n)
        values, counts = np.unique(labels, return_counts=True)
        labels[np.isin(labels, values[counts == 1])] = values[counts.argmax()]
        table = unit_table(features, labels)
        ks = [1, 2, int(rng.integers(1, n + 1)), n - 2, n - 1, n + extra]
        assert recall_at_k(table, ks) == recall_sort.recall_at_k(table, ks)

    def test_singleton_class_named_in_error(self):
        table = unit_table(
            np.random.default_rng(16).standard_normal((5, 3)),
            np.array([0, 0, 1, 1, 2]))
        with pytest.raises(ContractError, match="class 2"):
            recall_at_k(table, [1])


class TestEmbeddingTable:
    def test_unit_norm_contract(self):
        with pytest.raises(ContractError):
            EmbeddingTable(np.array([[1.0, 1.0]]), np.array([0]))

    def test_zero_row_accepted(self):
        """An all-masked or all-zero sample embeds to a zero row while the encoder's
        biases are zero; the table takes it as the bank does."""
        rows = np.array([[0.6, 0.8], [0.0, 0.0]])
        assert np.array_equal(EmbeddingTable(rows, np.array([0, 1])).embeddings, rows)
        with pytest.raises(ContractError, match="unit norm or zero"):
            EmbeddingTable(np.array([[0.0, 0.5]]), np.array([0]))

    def test_negative_label_rejected(self):
        with pytest.raises(ContractError, match="non-negative"):
            EmbeddingTable(np.eye(2), np.array([0, -1]))

    def test_from_features_normalises(self):
        t = unit_table(np.array([[3.0, 4.0]]), np.array([0]))
        assert np.allclose(t.embeddings, [[0.6, 0.8]])

    def test_embed_dataset_rows_unit(self):
        ds = gen_gaussian_mixture(2, 10, 4, 2.0, seed=17)
        enc = init_params(MlpSpec((4, 16, 3), final_normalize=True), 18)
        table = embed_dataset(enc, ds)
        assert np.abs(np.linalg.norm(table.embeddings, axis=1) - 1.0).max() < 1e-10

    def test_embed_dataset_flattens_images(self):
        from simdistill.data import LabeledDataset
        ds = LabeledDataset(np.random.default_rng(19).random((6, 2, 3)), np.zeros(6, dtype=int))
        enc = init_params(MlpSpec((6, 8, 2), final_normalize=True), 20)
        assert embed_dataset(enc, ds).embeddings.shape == (6, 2)
