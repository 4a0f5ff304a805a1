"""Tests for the row kernels and the gradient check of ``simdistill.tensor``, and
for the reference tape and graph ops the per-op oracles are built on.

``TestMatmul``, ``TestL2Normalize`` and the ``add``, ``rowwise_dot`` and
``prepend_column`` cases check the reference ops in ``oracles.graph_ops``
that the per-op loss and MLP chains are made of; ``TestBackward`` and
``TestOps`` check the sweep and the ops of ``oracles.tape``. The soft cross
entropy is checked through the objectives of ``simdistill.losses``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simdistill.tensor as T
from oracles import graph_ops, loss_chain, tape
from oracles.tape import Tensor
from simdistill.errors import ContractError, NumericDomainError, ShapeError
from simdistill.losses import (anchor_cross_entropy_batch, anchor_distribution_batch,
                               byol_loss_batch, isd_loss_batch, moco_loss_batch)


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestMatmul:
    def test_identity(self):
        """Identity times a matrix returns the matrix."""
        out = graph_ops.matmul(Tensor(np.eye(2)), Tensor([[3.0, 4.0], [5.0, 6.0]]))
        assert np.array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])

    def test_hand_dot_product(self):
        """[[1,2]] x [[3],[4]] = [[11]]."""
        out = graph_ops.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
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
        out = graph_ops.matmul(Tensor(a), Tensor(b))
        assert np.array_equal(out.data, expected)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            graph_ops.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_vector_operand_rejected(self):
        """A vector multiplies only from the right, as the per-sample oracles use it."""
        with pytest.raises(ShapeError):
            graph_ops.matmul(Tensor(rand(5, 3)), Tensor(rand((5, 3), 4)))


class TestL2Normalize:
    def test_three_four_five(self):
        out = graph_ops.l2_normalize(Tensor([[3.0, 4.0]]), eps=1e-12)
        assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-15)

    def test_zero_vector_passes_through(self):
        out = graph_ops.l2_normalize(Tensor([[0.0, 0.0]]), eps=1e-12)
        assert np.array_equal(out.data, [[0.0, 0.0]])

    def test_unit_vector_idempotent(self):
        v = rand((1, 6), 5)
        v = v / np.linalg.norm(v)
        out = graph_ops.l2_normalize(Tensor(v))
        assert np.abs(out.data - v).max() < 1e-15

    def test_rowwise(self):
        m = rand((4, 3), 6)
        out = graph_ops.l2_normalize(Tensor(m))
        assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)

    def test_eps_must_be_positive(self):
        with pytest.raises(ContractError):
            graph_ops.l2_normalize(Tensor([[1.0, 2.0]]), eps=0.0)

    def test_unit_rows_equals_the_graph_forward(self):
        m = rand((5, 3), 7)
        m[2] = 1e-14
        graph = graph_ops.l2_normalize(Tensor(m)).data
        assert np.array_equal(T.unit_rows(m), graph)
        assert np.array_equal(T.l2_rows(m)[0], graph)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_unit_norm_property(self, values):
        """Output norm is 1 within 1e-12 whenever the input norm clears eps."""
        v = np.asarray(values)[None, :]
        if np.linalg.norm(v) < 1e-12:
            return
        out = graph_ops.l2_normalize(Tensor(v), eps=1e-12)
        assert abs(np.linalg.norm(out.data) - 1.0) < 1e-12


def _l2_block(kind, seed):
    """A [5, 4] block whose rows all clear eps, or with one row below it, or one zero row."""
    m = rand((5, 4), seed)
    if kind == "tiny":
        m[1] *= 1e-14
    elif kind == "zero":
        m[3] = 0.0
    return m


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
class TestRowKernels:
    """``row_norms`` and the vjp of ``l2_rows`` byte for byte against the forms
    they replaced: ``np.linalg.norm(x, axis=1)`` and the ``np.where`` vjp of
    the reference l2_normalize node."""

    @pytest.mark.parametrize("kind", ["big", "tiny", "zero"])
    @pytest.mark.parametrize("special", [None, -0.0, np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("seed", range(4))
    def test_l2_rows_vjp_equals_the_where_form(self, kind, special, seed):
        m = _l2_block(kind, seed)
        g = rand(m.shape, seed + 100)
        if special is not None:
            g[0, 1] = g[1, 2] = g[3, 0] = special
        out, vjp = T.l2_rows(m)
        node = graph_ops.l2_normalize(Tensor.parameter(m))
        assert out.tobytes() == node.data.tobytes()
        got, (want,) = vjp(g), node._vjp(g)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_l2_rows_vjp_of_a_zero_gradient_keeps_its_signed_zeros(self):
        m = _l2_block("zero", 1)
        g = np.full(m.shape, -0.0)
        (want,) = graph_ops.l2_normalize(Tensor.parameter(m))._vjp(g)
        assert T.l2_rows(m)[1](g).tobytes() == want.tobytes()

    @pytest.mark.parametrize("scale", [1.0, 1e-310, 5e-324, 1e300, 1e-160, 1e160])
    @pytest.mark.parametrize("seed", range(3))
    def test_row_norms_equal_numpy_norm(self, scale, seed):
        """Random rows, subnormal rows, and rows whose squares overflow or underflow."""
        x = rand((6, 7), seed) * scale
        x[2] = 0.0
        x[4, 3] = -0.0
        assert T.row_norms(x).tobytes() == np.linalg.norm(x, axis=1).tobytes()
        assert T.unit_rows(x).tobytes() == graph_ops.l2_normalize(Tensor(x)).data.tobytes()

    def test_row_norms_of_non_finite_rows_equal_numpy_norm(self):
        x = rand((4, 3), 9)
        x[0, 1], x[1, 0], x[2, 2] = np.inf, np.nan, -np.inf
        assert T.row_norms(x).tobytes() == np.linalg.norm(x, axis=1).tobytes()


def logits_via_anchors(values):
    """A query, anchors and tau whose anchor logits are ``values`` to rounding.

    The query (1, 0) meets the anchor (c_i, sqrt(1 - c_i^2)) at cosine c_i, so
    at tau = 1/max|v| and c = v * tau the logits are the values to rounding.
    """
    v = np.asarray(values, dtype=np.float64)
    tau = 1.0 / max(float(np.abs(v).max()), 1.0)
    c = v * tau
    anchors = np.stack([c, np.sqrt(np.maximum(1.0 - c * c, 0.0))], axis=1)
    return np.array([[1.0, 0.0]]), anchors, tau


def softmax_via_anchors(values):
    """``anchor_distribution_batch`` for one query whose logits are ``values``."""
    return anchor_distribution_batch(*logits_via_anchors(values))[0]


def cross_entropy_of_row(values, target):
    """The soft cross entropy of one row of logits against one target row, through
    ``anchor_cross_entropy_batch``."""
    query, anchors, tau = logits_via_anchors(values)
    return anchor_cross_entropy_batch(np.array([target], dtype=np.float64), query,
                                      anchors, tau)[0]


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NumericDomainError):
            anchor_distribution_batch(np.array([[1.0, bad]]), np.eye(2), 0.1)
        with pytest.raises(NumericDomainError):
            anchor_cross_entropy_batch(np.array([[0.5, 0.5]]), np.array([[1.0, bad]]),
                                       np.eye(2), 0.1)

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
    return tape.mul(graph_ops.neg(tape.tensor_sum(tape.mul(logp, Tensor(targets)))),
                    1.0 / logits.data.shape[0])


class TestSoftCrossEntropy:
    """The soft cross entropy inside the ISD and MoCo objectives."""

    @given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 6), n=st.integers(2, 9),
           tau=st.sampled_from([1.0, 0.1, 0.005]), one_hot=st.booleans(),
           weight=st.sampled_from([1.0, 0.3, -2.5]))
    @settings(max_examples=200, deadline=None)
    def test_matches_node_chain(self, seed, b, n, tau, one_hot, weight):
        """Value and gradient agree with the per-op chain (l2_normalize, matmul,
        scale, log_softmax, mul, sum, neg, scale) to ``loss_chain.CHAIN_RTOL``,
        for soft and one-hot targets, also when the chain runs under an upstream
        gradient other than 1 and the objective's value and gradient are scaled
        by it."""
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((b, 3))
        anchors = rng.standard_normal((n, 3))
        pos = rng.standard_normal((b, 3))
        if one_hot:
            targets = np.zeros((b, n))
            targets[np.arange(b), rng.integers(0, n, size=b)] = 1.0
        else:
            targets = rng.dirichlet(np.ones(n), size=b)
        pairs = [(lambda q: anchor_cross_entropy_batch(targets, q, anchors, tau),
                  lambda q: loss_chain.anchor_cross_entropy_batch(targets, q, anchors, tau)),
                 (lambda q: moco_loss_batch(q, pos, anchors, tau),
                  lambda q: loss_chain.moco_loss_batch(q, pos, anchors, tau))]
        for objective, chain in pairs:
            value, grad = objective(values.copy())
            x = Tensor.parameter(values.copy())
            loss = tape.mul(chain(x), weight)
            tape.backward(loss)
            for got, want in ((value * weight, loss.data), (grad * weight, x.grad)):
                loss_chain.assert_close(got, want, scale=abs(weight) / tau)

    def test_passes_grad_check(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((4, 5))
        anchors = rng.standard_normal((7, 5))
        pos = rng.standard_normal((4, 5))
        targets = rng.dirichlet(np.ones(7), size=4)
        assert T.grad_check(lambda q: anchor_cross_entropy_batch(targets, q, anchors, 0.3), x,
                            step=1e-5) < 1e-5
        assert T.grad_check(lambda q: moco_loss_batch(q, pos, anchors, 0.3), x,
                            step=1e-5) < 1e-5

    @pytest.mark.parametrize("logits, targets", [((2, 3), (2, 4)), ((2, 3), (3, 3)),
                                                 ((3,), (3,)), ((2, 3), (6,))])
    def test_shape_mismatch(self, logits, targets):
        """Targets unlike the [b, n] logits of b queries against n anchors, or a
        query block that is not [b, d], are rejected."""
        queries = rand(logits[:-1] + (4,), 42)
        anchors = rand((logits[-1], 4), 43)
        with pytest.raises(ShapeError):
            anchor_cross_entropy_batch(np.zeros(targets), queries, anchors, 0.1)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_rejected(self):
        """A non-finite student block stops all three objectives with a typed error,
        before its rows are normalised (no numpy warning)."""
        for bad in (np.nan, np.inf):
            q = np.array([[1.0, bad]])
            with pytest.raises(NumericDomainError, match="student rows"):
                anchor_cross_entropy_batch(np.array([[0.5, 0.5]]), q, np.eye(2), 0.1)
            with pytest.raises(NumericDomainError, match="student rows"):
                moco_loss_batch(q, np.ones((1, 2)), np.eye(2), 0.1)
            with pytest.raises(NumericDomainError, match="student rows"):
                byol_loss_batch(q, np.ones((1, 2)))


class TestBackward:
    """The sweep of the reference tape."""

    def test_sum_gives_ones(self):
        x = Tensor.parameter(rand((3, 4), 9))
        tape.backward(tape.tensor_sum(x))
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic_gives_x(self):
        x = Tensor.parameter(rand((2, 5), 10))
        loss = tape.mul(tape.tensor_sum(tape.mul(x, x)), 0.5)
        tape.backward(loss)
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
            h = graph_ops.relu(graph_ops.add(graph_ops.matmul(x, w1), b1))
            return _chain_cross_entropy(graph_ops.matmul(h, w2), target)

        assert tape.grad_check(f, [w1, b1, w2], step=1e-5) < 1e-5

    def test_non_scalar_loss_rejected(self):
        x = Tensor.parameter(rand(3, 12))
        with pytest.raises(ContractError):
            tape.backward(tape.mul(x, 2.0))

    def test_upstream_gradient_seeds_a_non_scalar_root(self):
        x = Tensor.parameter(rand(3, 12))
        g = rand(3, 13)
        tape.backward(tape.mul(x, 2.0), g)
        assert np.array_equal(x.grad, g * 2.0)

    def test_grad_accumulates_across_shared_subgraphs(self):
        x = Tensor.parameter(np.array(2.0))
        y = tape.mul(x, 3.0)
        loss = tape.tensor_sum(graph_ops.add(y, y))
        tape.backward(loss)
        assert x.grad == pytest.approx(6.0)

    def test_shared_gradient_array_is_not_accumulated_into(self):
        """add's vjp hands one array to both parents; y1 then takes a second
        gradient, which must not be added into the array y2 also holds."""
        a = Tensor.parameter(np.array([1.0]))
        b = Tensor.parameter(np.array([1.0]))
        y1, y2 = tape.mul(a, 2.0), tape.mul(b, 3.0)
        tape.backward(tape.tensor_sum(graph_ops.add(graph_ops.add(y1, y2), y1)))
        assert a.grad[0] == 4.0 and b.grad[0] == 3.0

    def test_non_trainable_leaf_keeps_zero_grad(self):
        """Teacher-flagged tensors receive zero gradient and stay off the graph."""
        frozen = Tensor(rand(4, 13))
        frozen.grad = np.zeros(4)
        x = Tensor.parameter(rand(4, 14))
        loss = tape.tensor_sum(tape.mul(x, frozen))
        tape.backward(loss)
        assert np.array_equal(frozen.grad, np.zeros(4))
        assert np.allclose(x.grad, frozen.data)

    def test_unreachable_tensor_grad_stays_zero(self):
        reachable = Tensor.parameter(rand(3, 15))
        unreachable = Tensor.parameter(rand(3, 16))
        tape.backward(tape.tensor_sum(reachable))
        assert np.array_equal(unreachable.grad, np.zeros(3))

    def test_constant_loss_is_a_no_op(self):
        tape.backward(tape.tensor_sum(Tensor(rand(3, 17))))

    def test_value_and_grad_is_the_objectives_contract(self):
        """A chain wrapped by ``value_and_grad`` returns what the BYOL objective
        returns, byte for byte."""
        rng = np.random.default_rng(18)
        q, t = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        got = tape.value_and_grad(lambda leaf: loss_chain.byol_loss_batch(leaf, t), q)
        want = byol_loss_batch(q, t)
        assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()


class TestGradCheck:
    def test_linear_function_is_exact(self):
        """Central differences are exact for linear maps."""
        coef = rand(5, 21)
        assert T.grad_check(lambda w: (float((w * coef).sum()), coef), rand(5, 20),
                            step=1e-5) < 1e-9

    def test_a_wrong_gradient_is_caught(self):
        coef = rand(5, 21)
        assert T.grad_check(lambda w: (float((w * coef).sum()), coef * 1.01), rand(5, 20),
                            step=1e-5) > 1e-3

    def test_the_point_is_not_moved(self):
        """The function sees a copy; the caller's array keeps its bytes."""
        w = rand((2, 3), 25)
        before = w.tobytes()
        T.grad_check(lambda v: (float((v * v).sum()), 2.0 * v), w)
        assert w.tobytes() == before

    def test_isd_loss_instance(self):
        """The distillation loss on one random 8-dim embedding, 16 anchors."""
        rng = np.random.default_rng(22)
        q_s = rng.standard_normal((1, 8))
        q_t = rng.standard_normal((1, 8))
        anchors = rng.standard_normal((16, 8))
        err = T.grad_check(lambda q: isd_loss_batch(q_t, q, anchors, 0.05), q_s, step=1e-5)
        assert err < 1e-5

    def test_byol_loss_instance(self):
        rng = np.random.default_rng(23)
        q_s = rng.standard_normal((1, 8))
        q_t = rng.standard_normal((1, 8))
        assert T.grad_check(lambda q: byol_loss_batch(q, q_t), q_s, step=1e-5) < 1e-5

    def test_step_must_be_positive(self):
        with pytest.raises(ContractError):
            T.grad_check(lambda w: (float(w.sum()), np.ones_like(w)), rand(2, 24), step=0.0)

    def test_gradient_must_have_the_points_shape(self):
        with pytest.raises(ShapeError):
            T.grad_check(lambda w: (float(w.sum()), np.ones(3)), rand(2, 24))


class TestOps:
    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            graph_ops.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))

    def test_mul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tape.mul(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_rowwise_dot_and_prepend_column_grads(self):
        rng = np.random.default_rng(33)
        a = Tensor.parameter(rng.standard_normal((4, 5)))
        b = Tensor(rng.standard_normal((4, 5)))
        m = Tensor(rng.standard_normal((4, 6)))
        weights = Tensor(rng.standard_normal((4, 7)))

        def f():
            col = graph_ops.rowwise_dot(a, b)
            block = graph_ops.prepend_column(col, m)
            return tape.tensor_sum(tape.mul(block, weights))

        assert tape.grad_check(f, [a], step=1e-6) < 1e-7
