"""Tests for the reverse-mode autodiff engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simdistill.tensor as T
from oracles import graph_ops
from simdistill.errors import ContractError, NumericDomainError, ShapeError
from simdistill.losses import anchor_distribution_batch
from simdistill.tensor import Tensor


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestMatmul:
    def test_identity(self):
        """Identity times a matrix returns the matrix."""
        out = T.matmul(Tensor(np.eye(2)), Tensor([[3.0, 4.0], [5.0, 6.0]]))
        assert np.array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])

    def test_hand_dot_product(self):
        """[[1,2]] x [[3],[4]] = [[11]]."""
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[11.0]])

    def test_against_triple_loop_oracle(self):
        """Random 3x4 by 4x2 matches a naive triple-loop product exactly.

        Integer-valued entries keep float64 products exact, so the BLAS
        accumulation order cannot blur the comparison.
        """
        rng = np.random.default_rng(1)
        a = rng.integers(-8, 9, size=(3, 4)).astype(np.float64)
        b = rng.integers(-8, 9, size=(4, 2)).astype(np.float64)
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        out = T.matmul(Tensor(a), Tensor(b))
        assert np.array_equal(out.data, expected)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_vector_operand_rejected(self):
        """Only matrices multiply; a 1-D query is lifted to [1, d] by reshape first."""
        with pytest.raises(ShapeError):
            T.matmul(Tensor(rand((5, 3), 3)), Tensor(rand(3, 4)))


class TestL2Normalize:
    def test_three_four_five(self):
        out = T.l2_normalize(Tensor([[3.0, 4.0]]), eps=1e-12)
        assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-15)

    def test_zero_vector_passes_through(self):
        out = T.l2_normalize(Tensor([[0.0, 0.0]]), eps=1e-12)
        assert np.array_equal(out.data, [[0.0, 0.0]])

    def test_unit_vector_idempotent(self):
        v = rand((1, 6), 5)
        v = v / np.linalg.norm(v)
        out = T.l2_normalize(Tensor(v))
        assert np.abs(out.data - v).max() < 1e-15

    def test_rowwise(self):
        m = rand((4, 3), 6)
        out = T.l2_normalize(Tensor(m))
        assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)

    def test_eps_must_be_positive(self):
        with pytest.raises(ContractError):
            T.l2_normalize(Tensor([[1.0, 2.0]]), eps=0.0)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_unit_norm_property(self, values):
        """Output norm is 1 within 1e-12 whenever the input norm clears eps."""
        v = np.asarray(values)[None, :]
        if np.linalg.norm(v) < 1e-12:
            return
        out = T.l2_normalize(Tensor(v), eps=1e-12)
        assert abs(np.linalg.norm(out.data) - 1.0) < 1e-12


def softmax_via_anchors(values):
    """``anchor_distribution_batch`` for one query whose logits are ``values``.

    The query (1, 0) meets the anchor (c_i, sqrt(1 - c_i^2)) at cosine c_i, so
    at tau = 1/max|v| and c = v * tau the logits are the values to rounding.
    """
    v = np.asarray(values, dtype=np.float64)
    tau = 1.0 / max(float(np.abs(v).max()), 1.0)
    c = v * tau
    anchors = np.stack([c, np.sqrt(np.maximum(1.0 - c * c, 0.0))], axis=1)
    return anchor_distribution_batch(np.array([[1.0, 0.0]]), anchors, tau)[0]


def cross_entropy_of_row(values, target):
    """``soft_cross_entropy`` of one row of logits against one target row."""
    return T.soft_cross_entropy(Tensor([values]), np.array([target], dtype=np.float64)).item()


class TestSoftmax:
    """The softmax inside the anchor distribution and the cross entropy."""

    def test_constant_input_is_uniform(self):
        for c in (0.0, -7.5, 123.0):
            out = softmax_via_anchors([c, c, c])
            assert np.allclose(out, 1.0 / 3.0, atol=1e-15)
            assert cross_entropy_of_row([c, c, c], [1.0, 0.0, 0.0]) == pytest.approx(
                np.log(3.0), abs=1e-15)

    def test_max_subtraction_avoids_overflow(self):
        out = softmax_via_anchors([1000.0, 0.0])
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0, abs=1e-12)
        assert out[1] < 1e-300
        assert cross_entropy_of_row([1000.0, 0.0], [1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
        assert cross_entropy_of_row([1000.0, 0.0], [0.0, 1.0]) == pytest.approx(1000.0, abs=1e-12)

    def test_against_extended_precision_oracle(self):
        """softmax([1,2,3]) and -log of it, frozen from a 50-digit mpmath evaluation."""
        expected = [0.090030573170380457998, 0.24472847105479765247, 0.66524095577482188953]
        out = softmax_via_anchors([1.0, 2.0, 3.0])
        assert np.abs(out - expected).max() < 1e-14
        neg_log = [2.4076059644443803045, 1.4076059644443803045, 0.40760596444438030448]
        for j, want in enumerate(neg_log):
            assert abs(cross_entropy_of_row([1.0, 2.0, 3.0], np.eye(3)[j]) - want) < 1e-14

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NumericDomainError):
            anchor_distribution_batch(np.array([[1.0, bad]]), np.eye(2), 0.1)
        with pytest.raises(NumericDomainError):
            T.soft_cross_entropy(Tensor([[1.0, bad]]), np.array([[0.5, 0.5]]))

    @given(st.lists(st.floats(-350, 350), min_size=2, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_distribution_property(self, values):
        """Outputs are positive, at most 1, and sum to 1 within 1e-12.

        Positivity is only representable while the logit span stays inside
        exp's underflow range (about 745); beyond that entries round to 0.0,
        as the [1000, 0] case above shows. A distribution needs 2 anchors.
        """
        out = softmax_via_anchors(values)
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out > 0) and np.all(out <= 1.0)

    def test_log_softmax_matches_log_of_softmax(self):
        """The cross entropy's log-softmax against a one-hot is -log of the softmax."""
        z = rand(7, 8)
        p = softmax_via_anchors(z)
        for j in range(7):
            assert cross_entropy_of_row(z, np.eye(7)[j]) == pytest.approx(-np.log(p[j]),
                                                                          abs=1e-12)


def _chain_cross_entropy(logits, targets):
    """Mean soft cross entropy as the five nodes it took before the fused op."""
    logp = graph_ops.log_softmax(logits)
    return T.mul(graph_ops.neg(T.tensor_sum(T.mul(logp, Tensor(targets)))),
                 1.0 / logits.data.shape[0])


class TestSoftCrossEntropy:
    @given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 6), n=st.integers(2, 9),
           spread=st.sampled_from([0.1, 3.0, 60.0]), one_hot=st.booleans(),
           weight=st.sampled_from([1.0, 0.3, -2.5]))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_node_chain(self, seed, b, n, spread, one_hot, weight):
        """Value and gradient equal the log_softmax/mul/sum/neg/scale chain byte for
        byte, for soft and one-hot targets, also under an upstream gradient other than 1."""
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((b, n)) * spread
        if one_hot:
            targets = np.zeros((b, n))
            targets[np.arange(b), rng.integers(0, n, size=b)] = 1.0
        else:
            targets = rng.dirichlet(np.ones(n), size=b)
        results = []
        for loss_of in (T.soft_cross_entropy, _chain_cross_entropy):
            x = Tensor.parameter(values.copy())
            loss = T.mul(loss_of(x, targets), weight)
            T.backward(loss)
            results.append((loss.data.tobytes(), x.grad.tobytes()))
        assert results[0] == results[1]

    def test_one_graph_node(self):
        x = Tensor.parameter(rand((3, 5), 40))
        loss = T.soft_cross_entropy(x, np.full((3, 5), 0.2))
        assert loss.op == "soft_cross_entropy" and loss.parents == (x,)

    def test_passes_grad_check(self):
        rng = np.random.default_rng(41)
        x = Tensor.parameter(rng.standard_normal((4, 7)) * 2.0)
        targets = rng.dirichlet(np.ones(7), size=4)
        assert T.grad_check(lambda: T.soft_cross_entropy(x, targets), [x], step=1e-5) < 1e-5

    @pytest.mark.parametrize("logits, targets", [((2, 3), (2, 4)), ((2, 3), (3, 3)),
                                                 ((3,), (3,)), ((2, 3), (6,))])
    def test_shape_mismatch(self, logits, targets):
        with pytest.raises(ShapeError):
            T.soft_cross_entropy(Tensor(np.zeros(logits)), np.zeros(targets))

    def test_non_finite_rejected(self):
        with pytest.raises(NumericDomainError):
            T.soft_cross_entropy(Tensor([[1.0, np.inf]]), np.array([[0.5, 0.5]]))


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor.parameter(rand((3, 4), 9))
        T.backward(T.tensor_sum(x))
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic_gives_x(self):
        x = Tensor.parameter(rand((2, 5), 10))
        loss = T.mul(T.tensor_sum(T.mul(x, x)), 0.5)
        T.backward(loss)
        assert np.allclose(x.grad, x.data, atol=1e-15)

    def test_mlp_loss_matches_finite_differences(self):
        """Composite MLP cross-entropy loss passes a central-difference check."""
        rng = np.random.default_rng(11)
        w1 = Tensor.parameter(rng.standard_normal((4, 6)))
        b1 = Tensor.parameter(rng.standard_normal(6))
        w2 = Tensor.parameter(rng.standard_normal((6, 3)))
        x = Tensor(rng.standard_normal((5, 4)))
        target = rng.dirichlet(np.ones(3), size=5)

        def f():
            h = T.relu(T.add(T.matmul(x, w1), b1))
            return T.soft_cross_entropy(T.matmul(h, w2), target)

        assert T.grad_check(f, [w1, b1, w2], step=1e-5) < 1e-5

    def test_non_scalar_loss_rejected(self):
        x = Tensor.parameter(rand(3, 12))
        with pytest.raises(ContractError):
            T.backward(T.mul(x, 2.0))

    def test_grad_accumulates_across_shared_subgraphs(self):
        x = Tensor.parameter(np.array(2.0))
        y = T.mul(x, 3.0)
        loss = T.tensor_sum(T.add(y, y))
        T.backward(loss)
        assert x.grad == pytest.approx(6.0)

    def test_non_trainable_leaf_keeps_zero_grad(self):
        """Teacher-flagged tensors receive zero gradient and stay off the graph."""
        frozen = Tensor.frozen(rand(4, 13))
        x = Tensor.parameter(rand(4, 14))
        loss = T.tensor_sum(T.mul(x, frozen))
        T.backward(loss)
        assert np.array_equal(frozen.grad, np.zeros(4))
        assert np.allclose(x.grad, frozen.data)

    def test_unreachable_tensor_grad_stays_zero(self):
        reachable = Tensor.parameter(rand(3, 15))
        unreachable = Tensor.parameter(rand(3, 16))
        T.backward(T.tensor_sum(reachable))
        assert np.array_equal(unreachable.grad, np.zeros(3))

    def test_constant_loss_is_a_no_op(self):
        T.backward(T.tensor_sum(Tensor(rand(3, 17))))


class TestGradCheck:
    def test_linear_function_is_exact(self):
        """Central differences are exact for linear maps."""
        w = Tensor.parameter(rand(5, 20))
        coef = Tensor(rand(5, 21))
        assert T.grad_check(lambda: T.tensor_sum(T.mul(w, coef)), [w], step=1e-5) < 1e-9

    def test_isd_loss_instance(self):
        """The distillation loss on random 8-dim embeddings, 16 anchors."""
        from simdistill.losses import isd_loss
        rng = np.random.default_rng(22)
        q_s = Tensor.parameter(rng.standard_normal(8))
        q_t = Tensor(rng.standard_normal(8))
        anchors = Tensor(rng.standard_normal((16, 8)))
        err = T.grad_check(lambda: isd_loss(q_t, q_s, anchors, 0.05), [q_s], step=1e-5)
        assert err < 1e-5

    def test_byol_loss_instance(self):
        from simdistill.losses import byol_loss
        rng = np.random.default_rng(23)
        q_s = Tensor.parameter(rng.standard_normal(8))
        q_t = Tensor(rng.standard_normal(8))
        assert T.grad_check(lambda: byol_loss(q_s, q_t), [q_s], step=1e-5) < 1e-5

    def test_step_must_be_positive(self):
        w = Tensor.parameter(rand(2, 24))
        with pytest.raises(ContractError):
            T.grad_check(lambda: T.tensor_sum(w), [w], step=0.0)


class TestOps:
    def test_add_bias_broadcast(self):
        m, b = rand((3, 4), 30), rand(4, 31)
        out = T.add(Tensor(m), Tensor(b))
        assert np.allclose(out.data, m + b)

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))

    def test_mul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.mul(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_operators(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 5.0])
        assert np.array_equal((a + b).data, [4.0, 7.0])
        assert np.array_equal((a * 2.0).data, [2.0, 4.0])
        assert (a * b).data.sum() == pytest.approx(13.0)
        assert a.mean().item() == pytest.approx(1.5)

    def test_reshape_gradient_is_reshaped_back(self):
        """A vector lifted to one row gets its gradient back in its own shape."""
        v = Tensor.parameter(rand(5, 32))
        row = T.reshape(v, (1, 5))
        assert row.shape == (1, 5) and row.op == "reshape"
        weights = Tensor(rand((1, 5), 34))
        assert T.grad_check(lambda: T.tensor_sum(T.mul(T.reshape(v, (1, 5)), weights)),
                            [v], step=1e-6) < 1e-9
        assert v.grad.shape == (5,)

    def test_rowwise_dot_and_prepend_column_grads(self):
        rng = np.random.default_rng(33)
        a = Tensor.parameter(rng.standard_normal((4, 5)))
        b = Tensor(rng.standard_normal((4, 5)))
        m = Tensor(rng.standard_normal((4, 6)))
        weights = Tensor(rng.standard_normal((4, 7)))

        def f():
            col = T.rowwise_dot(a, b)
            block = T.prepend_column(col, m)
            return T.tensor_sum(T.mul(block, weights))

        assert T.grad_check(f, [a], step=1e-6) < 1e-7
