"""Tests for the three objectives, including extended-precision oracles."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simdistill.losses as library
import simdistill.tensor as T
from oracles import anchor_softmax, graph_ops, loss_chain, per_sample_losses
from simdistill.errors import (ContractError, DegenerateDistributionError, NumericDomainError,
                               ShapeError)
from simdistill.losses import (LossConfig, anchor_cross_entropy, anchor_cross_entropy_batch,
                               anchor_distribution, anchor_distribution_batch, byol_loss,
                               byol_loss_batch, distribution_entropy, isd_loss,
                               isd_loss_batch, moco_loss, moco_loss_batch)
from simdistill.tensor import Tensor

mp.mp.dps = 50


def mp_unit(v):
    n = mp.sqrt(mp.fsum(x * x for x in v))
    return [mp.mpf(x) / n for x in v]


def mp_distribution(query, anchors, tau):
    """50-digit softmax of cosine similarities, coded only with mpmath."""
    q = mp_unit(query)
    exps = []
    for row in anchors:
        a = mp_unit(row)
        cos = mp.fsum(qi * ai for qi, ai in zip(q, a))
        exps.append(mp.e ** (cos / mp.mpf(tau)))
    s = mp.fsum(exps)
    return [e / s for e in exps]


def mp_cross_entropy(p_target, p_model):
    return -mp.fsum(t * mp.log(m) for t, m in zip(p_target, p_model))


class TestAnchorDistribution:
    def test_equidistant_query_is_uniform(self):
        """Equal cosine to every anchor gives mass 1/n each."""
        anchors = Tensor(np.eye(4))
        query = Tensor(np.ones(4))
        out = anchor_distribution(query, anchors, 0.07)
        assert np.allclose(out.data, 0.25, atol=1e-12)

    def test_low_temperature_concentrates(self):
        """tau=0.001 with one aligned anchor puts at least 0.999 there."""
        anchors = Tensor(np.eye(4))
        query = Tensor(np.array([1.0, 0.0, 0.0, 0.0]))
        out = anchor_distribution(query, anchors, 0.001)
        assert out.data[0] >= 0.999

    def test_hand_set_cosines_against_oracle(self):
        """Cosines (1.0, 0.5, 0.0) at tau=0.02, frozen from 50-digit mpmath."""
        query = Tensor(np.array([1.0, 0.0]))
        anchors = Tensor(np.array([[1.0, 0.0],
                                   [0.5, np.sqrt(3.0) / 2.0],
                                   [0.0, 1.0]]))
        expected = [0.99999999998611205614, 1.388794386477114561e-11,
                    1.9287498479371314134e-22]
        out = anchor_distribution(query, anchors, 0.02)
        assert np.abs(out.data - expected).max() < 1e-12

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        out = anchor_distribution(Tensor(rng.standard_normal(5)),
                                  Tensor(rng.standard_normal((9, 5))), 0.1)
        assert abs(out.data.sum() - 1.0) < 1e-12

    def test_too_few_anchors(self):
        with pytest.raises(DegenerateDistributionError):
            anchor_distribution(Tensor(np.ones(3)), Tensor(np.ones((1, 3))), 0.1)

    def test_bad_temperature(self):
        with pytest.raises(ContractError):
            anchor_distribution(Tensor(np.ones(3)), Tensor(np.eye(3)), 0.0)

    def test_is_a_constant(self):
        """The teacher side of every loss: no graph, even from a trainable query."""
        out = anchor_distribution(Tensor.parameter(np.ones(3)), Tensor(np.eye(3)), 0.1)
        assert not out.requires_grad and out.parents == ()


class TestIsdLoss:
    def test_matched_views_give_teacher_entropy(self):
        """q_s = q_t makes p_s = p_t, so the loss is H(p_t) and KL is zero."""
        rng = np.random.default_rng(1)
        q = rng.standard_normal(6)
        anchors = Tensor(rng.standard_normal((10, 6)))
        loss = isd_loss(Tensor(q), Tensor(q.copy()), anchors, 0.1)
        p_t = anchor_distribution(Tensor(q), anchors, 0.1).data
        assert loss.item() == pytest.approx(float(distribution_entropy(p_t)), abs=1e-12)

    def test_uniform_distributions_give_log_n(self):
        """Uniform teacher and student over n anchors cost exactly ln n."""
        anchors = Tensor(np.eye(5))
        q = Tensor(np.ones(5))
        loss = isd_loss(q, Tensor(np.ones(5)), anchors, 0.3)
        assert loss.item() == pytest.approx(np.log(5.0), abs=1e-12)

    def test_random_instance_against_mpmath_oracle(self):
        """Loss equals the 50-digit brute-force cross entropy to 1e-12."""
        rng = np.random.default_rng(2)
        for trial in range(5):
            q_t = rng.standard_normal(8)
            q_s = rng.standard_normal(8)
            anchors = rng.standard_normal((12, 8))
            tau = float(rng.uniform(0.05, 0.5))
            expected = mp_cross_entropy(mp_distribution(q_t, anchors, tau),
                                        mp_distribution(q_s, anchors, tau))
            loss = isd_loss(Tensor(q_t), Tensor(q_s), Tensor(anchors), tau)
            assert abs(loss.item() - float(expected)) < 1e-12

    def test_gradient_passes_grad_check(self):
        rng = np.random.default_rng(3)
        q_s = Tensor.parameter(rng.standard_normal(8))
        q_t = Tensor(rng.standard_normal(8))
        anchors = Tensor(rng.standard_normal((16, 8)))
        assert T.grad_check(lambda: isd_loss(q_t, q_s, anchors, 0.05), [q_s]) < 1e-5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            isd_loss(Tensor(np.ones(3)), Tensor(np.ones(4)), Tensor(np.eye(4)), 0.1)


class TestMocoLoss:
    def test_closed_form_with_orthogonal_negatives(self):
        """q = pos, anchors orthogonal to q, tau=1: loss = -log(e/(e+n))."""
        n = 5
        q = np.zeros(n + 1)
        q[0] = 1.0
        anchors = np.eye(n + 1)[1:]
        loss = moco_loss(Tensor(q), Tensor(q.copy()), Tensor(anchors), 1.0)
        expected = -np.log(np.e / (np.e + n))
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_reduction_to_one_hot_cross_entropy(self):
        """Equals the distillation loss with the query key prepended and a
        one-hot teacher, in value and in student gradient."""
        rng = np.random.default_rng(4)
        for trial in range(20):
            d, n = 6, 9
            q = rng.standard_normal(d)
            pos = rng.standard_normal(d)
            anchors = rng.standard_normal((n, d))
            tau = float(rng.uniform(0.05, 0.5))

            q_a = Tensor.parameter(q.copy())
            loss_a = moco_loss(q_a, Tensor(pos), Tensor(anchors), tau)
            T.backward(loss_a)

            pos_unit = pos / np.linalg.norm(pos)
            units = anchors / np.linalg.norm(anchors, axis=1, keepdims=True)
            extended = np.concatenate([pos_unit[None, :], units], axis=0)
            onehot = np.zeros(n + 1)
            onehot[0] = 1.0
            q_b = Tensor.parameter(q.copy())
            loss_b = anchor_cross_entropy(onehot, q_b, Tensor(extended), tau)
            T.backward(loss_b)

            assert abs(loss_a.item() - loss_b.item()) < 1e-12
            assert np.abs(q_a.grad - q_b.grad).max() < 1e-10

    def test_random_instance_against_mpmath_oracle(self):
        rng = np.random.default_rng(5)
        q = rng.standard_normal(7)
        pos = rng.standard_normal(7)
        anchors = rng.standard_normal((6, 7))
        tau = 0.2
        extended = np.concatenate([pos[None, :], anchors], axis=0)
        p_model = mp_distribution(q, extended, tau)
        expected = -mp.log(p_model[0])
        loss = moco_loss(Tensor(q), Tensor(pos), Tensor(anchors), tau)
        assert abs(loss.item() - float(expected)) < 1e-12

    def test_gradient_passes_grad_check(self):
        rng = np.random.default_rng(6)
        q = Tensor.parameter(rng.standard_normal(8))
        pos = Tensor(rng.standard_normal(8))
        anchors = Tensor(rng.standard_normal((16, 8)))
        assert T.grad_check(lambda: moco_loss(q, pos, anchors, 0.07), [q]) < 1e-5


class TestByolLoss:
    def test_identical_vectors(self):
        v = np.array([0.3, -0.4, 1.2])
        assert byol_loss(Tensor(v), Tensor(v.copy())).item() == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 2.0])
        assert byol_loss(Tensor(a), Tensor(b)).item() == pytest.approx(2.0, abs=1e-12)

    def test_opposite_vectors(self):
        v = np.array([0.5, -1.0, 2.0])
        assert byol_loss(Tensor(v), Tensor(-v)).item() == pytest.approx(4.0, abs=1e-12)

    def test_gradient_passes_grad_check(self):
        rng = np.random.default_rng(7)
        q = Tensor.parameter(rng.standard_normal(8))
        t = Tensor(rng.standard_normal(8))
        assert T.grad_check(lambda: byol_loss(q, t), [q]) < 1e-5


class TestInvariants:
    def test_cross_entropy_minus_kl_equals_teacher_entropy(self):
        """H(p_t, p_s) - KL(p_t || p_s) = H(p_t), with matching student grads.

        KL is recomputed through the per-op graph of ``oracles.graph_ops``
        (softmax then log), so the gradient comparison exercises different
        derivative code.
        """
        rng = np.random.default_rng(8)
        for trial in range(10):
            q_t = rng.standard_normal(6)
            q_s_values = rng.standard_normal(6)
            anchors = rng.standard_normal((8, 6))
            tau = float(rng.uniform(0.05, 0.5))
            units = anchors / np.linalg.norm(anchors, axis=1, keepdims=True)
            p_t = anchor_distribution_batch(q_t[None, :], anchors, tau)[0]

            q_ce = Tensor.parameter(q_s_values.copy())
            ce = anchor_cross_entropy(p_t, q_ce, Tensor(anchors), tau)
            T.backward(ce)

            q_kl = Tensor.parameter(q_s_values.copy())
            logits = T.mul(graph_ops.matmul(Tensor(units), graph_ops.l2_normalize(q_kl)),
                           1.0 / tau)
            p_s = graph_ops.softmax(logits)
            log_ratio = graph_ops.sub(Tensor(np.log(p_t)), graph_ops.log(p_s))
            kl = T.tensor_sum(T.mul(Tensor(p_t), log_ratio))
            T.backward(kl)

            h_t = float(distribution_entropy(p_t))
            assert abs((ce.item() - kl.item()) - h_t) < 1e-10
            assert np.abs(q_ce.grad - q_kl.grad).max() < 1e-10

    @pytest.mark.parametrize("scale", [0.5, 2.0, 10.0])
    def test_losses_invariant_to_positive_rescaling(self, scale):
        """Cosine geometry: rescaling any input leaves each loss unchanged."""
        rng = np.random.default_rng(9)
        q_t = rng.standard_normal(5)
        q_s = rng.standard_normal(5)
        pos = rng.standard_normal(5)
        anchors = rng.standard_normal((7, 5))
        base = [isd_loss(Tensor(q_t), Tensor(q_s), Tensor(anchors), 0.1).item(),
                moco_loss(Tensor(q_s), Tensor(pos), Tensor(anchors), 0.1).item(),
                byol_loss(Tensor(q_s), Tensor(q_t)).item()]
        scaled = [isd_loss(Tensor(scale * q_t), Tensor(scale * q_s),
                           Tensor(scale * anchors), 0.1).item(),
                  moco_loss(Tensor(scale * q_s), Tensor(scale * pos),
                            Tensor(scale * anchors), 0.1).item(),
                  byol_loss(Tensor(scale * q_s), Tensor(scale * q_t)).item()]
        assert np.abs(np.array(base) - scaled).max() < 1e-10

    def test_teacher_side_gradient_is_zero(self):
        """No gradient reaches teacher-side inputs of any loss."""
        rng = np.random.default_rng(10)
        q_t = Tensor.parameter(rng.standard_normal(5))
        pos = Tensor.parameter(rng.standard_normal(5))
        anchors = Tensor.parameter(rng.standard_normal((7, 5)))
        q_s = Tensor.parameter(rng.standard_normal(5))

        T.backward(isd_loss(q_t, q_s, anchors, 0.1))
        T.backward(moco_loss(q_s, pos, anchors, 0.1))
        T.backward(byol_loss(q_s, q_t))

        assert not q_t.grad.any()
        assert not pos.grad.any()
        assert not anchors.grad.any()
        assert q_s.grad.any()

    def test_loss_config_validation(self):
        with pytest.raises(ContractError):
            LossConfig("simclr", 0.1)
        with pytest.raises(ContractError):
            LossConfig("isd", 0.0)
        LossConfig("byol", -1.0)    # temperature ignored for byol


class TestBatchForms:
    def test_isd_batch_equals_mean_of_per_sample(self):
        rng = np.random.default_rng(11)
        b, d, n = 4, 6, 9
        q_t = rng.standard_normal((b, d))
        q_s_values = rng.standard_normal((b, d))
        anchors = rng.standard_normal((n, d))
        tau = 0.1

        q_s = Tensor.parameter(q_s_values.copy())
        batch_loss, p_t = isd_loss_batch(q_t, q_s, Tensor(anchors), tau)
        T.backward(batch_loss)

        singles = []
        grads = np.zeros_like(q_s_values)
        for i in range(b):
            qi = Tensor.parameter(q_s_values[i].copy())
            li = isd_loss(Tensor(q_t[i]), qi, Tensor(anchors), tau)
            T.backward(li)
            singles.append(li.item())
            grads[i] = qi.grad
        assert batch_loss.item() == pytest.approx(np.mean(singles), abs=1e-12)
        assert np.abs(q_s.grad - grads / b).max() < 1e-12
        assert p_t.shape == (b, n)

    def test_moco_batch_equals_mean_of_per_sample(self):
        rng = np.random.default_rng(12)
        b, d, n = 3, 5, 7
        q_values = rng.standard_normal((b, d))
        pos = rng.standard_normal((b, d))
        anchors = rng.standard_normal((n, d))
        q = Tensor.parameter(q_values.copy())
        batch_loss = moco_loss_batch(q, pos, Tensor(anchors), 0.2)
        singles = [moco_loss(Tensor(q_values[i]), Tensor(pos[i]), Tensor(anchors), 0.2).item()
                   for i in range(b)]
        assert batch_loss.item() == pytest.approx(np.mean(singles), abs=1e-12)

    def test_byol_batch_equals_mean_of_per_sample(self):
        rng = np.random.default_rng(13)
        b, d = 5, 4
        q_values = rng.standard_normal((b, d))
        t_values = rng.standard_normal((b, d))
        batch = byol_loss_batch(Tensor.parameter(q_values.copy()), t_values)
        singles = [byol_loss(Tensor(q_values[i]), Tensor(t_values[i])).item()
                   for i in range(b)]
        assert batch.item() == pytest.approx(np.mean(singles), abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 5), n=st.integers(2, 12),
           d=st.integers(1, 6), tau=st.sampled_from([0.02, 0.1, 1.0]),
           zero_rows=st.integers(0, 2))
    @settings(max_examples=100, deadline=None)
    def test_fused_batch_losses_bitwise_equal_node_chain(self, seed, b, n, d, tau, zero_rows):
        """ISD, MoCo and BYOL losses and gradients are byte for byte those of the
        per-op chain, also for all-zero student rows (the eps branch of the row
        normalisation), and ISD's teacher distributions those of
        anchor_distribution_batch."""
        rng = np.random.default_rng(seed)
        q_values = rng.standard_normal((b, d))
        q_values[rng.permutation(b)[:zero_rows]] = 0.0
        assert_fused_equal_chain(q_values, rng.standard_normal((b, d)),
                                 rng.standard_normal((n, d)), tau)

    @pytest.mark.parametrize("n", [1024, 984])
    def test_fused_batch_losses_bitwise_at_reference_shape(self, n):
        """The bitwise check at batch 64 and width 64 against a full bank of 1024
        anchors, and against the 984 a default prefill leaves."""
        rng = np.random.default_rng(n)
        q_values = rng.standard_normal((64, 64))
        q_values[5] = 0.0
        assert_fused_equal_chain(q_values, rng.standard_normal((64, 64)),
                                 rng.standard_normal((n, 64)), 0.02)

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 12), n=st.integers(2, 40),
           tau=st.sampled_from([0.02, 0.1, 0.5, 1.0]))
    @settings(max_examples=100, deadline=None)
    def test_one_row_forms_match_per_sample_oracle(self, seed, d, n, tau):
        """The per-sample names, now 1-row batch calls, give the values and query
        gradients of the per-op graph forms they replaced, to 1e-12 relative to
        max(|oracle|, 1)."""
        rng = np.random.default_rng(seed)
        q_t, q_s, pos = (rng.standard_normal(d) for _ in range(3))
        anchors = Tensor(rng.standard_normal((n, d)))
        target = rng.dirichlet(np.ones(n))
        calls = [
            lambda m, q: m.anchor_cross_entropy(target, q, anchors, tau),
            lambda m, q: m.isd_loss(Tensor(q_t), q, anchors, tau),
            lambda m, q: m.moco_loss(q, Tensor(pos), anchors, tau),
            lambda m, q: m.byol_loss(q, Tensor(q_t)),
        ]

        def close(a, b):
            return np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1.0)

        for call in calls:
            results = []
            for module in (library, per_sample_losses):
                q = Tensor.parameter(q_s.copy())
                loss = call(module, q)
                T.backward(loss)
                results.append((loss.data, q.grad))
            (value, grad), (want_value, want_grad) = results
            assert close(value, want_value) and close(grad, want_grad)
        dist = anchor_distribution(Tensor(q_t), anchors, tau).data
        assert close(dist, per_sample_losses.anchor_distribution(Tensor(q_t), anchors, tau).data)

    def test_batch_target_shape_checked(self):
        with pytest.raises(ShapeError):
            anchor_cross_entropy_batch(np.ones((2, 3)), Tensor(np.ones((2, 4))),
                                       Tensor(np.ones((5, 4))), 0.1)

    @pytest.mark.parametrize("name", ["anchor_distribution_batch", "anchor_cross_entropy_batch",
                                      "isd_loss_batch", "moco_loss_batch"])
    def test_anchor_forms_raise_typed_errors(self, name):
        """Too few anchors, a wrong anchor width, a teacher-side block unlike the
        student's and a non-finite block or anchor each raise their own error."""
        call_anchor_form(name)
        with pytest.raises(DegenerateDistributionError):
            call_anchor_form(name, anchor_shape=(1, 3))
        with pytest.raises(ShapeError):
            call_anchor_form(name, anchor_shape=(4, 5))
        for block_shape in [(3,), (3, 2)]:
            with pytest.raises(ShapeError):
                call_anchor_form(name, block_shape=block_shape)
        for poison in ["block", "anchors"]:
            with pytest.raises(NumericDomainError):
                call_anchor_form(name, poison=poison)
        for tau in [0.0, np.nan, 1e-310]:
            with pytest.raises(ContractError):
                call_anchor_form(name, tau=tau)

    def test_byol_checks_the_teacher_block(self):
        rng = np.random.default_rng(16)
        q = Tensor.parameter(rng.standard_normal((2, 3)))
        with pytest.raises(ShapeError):
            byol_loss_batch(q, rng.standard_normal((2, 4)))
        with pytest.raises(ShapeError):
            byol_loss(Tensor(np.ones((1, 3))), Tensor(np.ones((1, 3))))
        t = rng.standard_normal((2, 3))
        t[1, 2] = np.nan
        with pytest.raises(NumericDomainError, match="teacher embeddings"):
            byol_loss_batch(q, t)

    def test_entropy_helper(self):
        assert float(distribution_entropy(np.array([1.0, 0.0]))) == 0.0
        assert float(distribution_entropy(np.full(4, 0.25))) == pytest.approx(np.log(4.0))


class TestTeacherSideMatchesOutOfPlaceOracle:
    """The in-place teacher softmax and the one-pass entropy give the bytes of
    their out-of-place forms in ``oracles.anchor_softmax``."""

    @staticmethod
    def assert_bitwise(queries, anchors, tau):
        p = anchor_distribution_batch(queries, anchors, tau)
        want = anchor_softmax.anchor_softmax(queries, T.unit_rows(anchors), tau)
        assert p.tobytes() == want.tobytes()
        assert (distribution_entropy(p).tobytes()
                == anchor_softmax.distribution_entropy(want).tobytes())
        return p

    @pytest.mark.parametrize("n", [512, 984, 1024])
    @pytest.mark.parametrize("tau", [0.07, 0.02])
    def test_reference_shapes(self, n, tau):
        """Batch 64 at width 64 against the unbalanced protocol's bank of 512,
        the 984 rows a default prefill leaves, and a full bank of 1024."""
        rng = np.random.default_rng(n)
        p = self.assert_bitwise(rng.standard_normal((64, 64)), rng.standard_normal((n, 64)), tau)
        assert p.min() > 0

    @pytest.mark.parametrize("tau", [0.003, 0.001])
    def test_sharp_temperature(self, tau):
        """Cosines span at most 2, so logits span at most 2 / tau. At tau 0.003
        (667) every probability stays a normal double; at 0.001 (2000) some
        underflow to exact zeros, and the entropy takes its zero-safe form."""
        rng = np.random.default_rng(3)
        queries = rng.standard_normal((64, 8))
        anchors = np.concatenate([queries[:32], -queries[32:], rng.standard_normal((448, 8))])
        p = self.assert_bitwise(queries, anchors, tau)
        assert (p.min() == 0) == (tau == 0.001)

    def test_one_row(self):
        rng = np.random.default_rng(4)
        query, anchors = rng.standard_normal(16), rng.standard_normal((40, 16))
        p = anchor_distribution(Tensor(query), Tensor(anchors), 0.07).data
        want = anchor_softmax.anchor_softmax(query[None], T.unit_rows(anchors), 0.07)[0]
        assert p.ndim == 1 and p.tobytes() == want.tobytes()
        for dist in (p, np.array([0.5, 0.0, 0.5]), np.array([0.0, 1.0]), np.zeros(0)):
            assert (distribution_entropy(dist).tobytes()
                    == anchor_softmax.distribution_entropy(dist).tobytes())


class TestInputsStayUntouched:
    """The in-place passes write only to temporaries: no anchor form, nor its
    backward pass, changes a byte of a block it was handed."""

    @pytest.mark.parametrize("name", ["anchor_distribution_batch", "anchor_cross_entropy_batch",
                                      "isd_loss_batch", "moco_loss_batch"])
    def test_inputs_byte_identical_after_backward(self, name):
        rng = np.random.default_rng(21)
        student = Tensor.parameter(rng.standard_normal((16, 8)))
        teacher = rng.standard_normal((16, 8))
        anchors = Tensor(rng.standard_normal((40, 8)))
        targets = anchor_distribution_batch(rng.standard_normal((16, 8)), anchors.data, 0.07)
        blocks = (student.data, teacher, anchors.data, targets)
        before = [block.tobytes() for block in blocks]

        if name == "anchor_distribution_batch":
            anchor_distribution_batch(teacher, anchors.data, 0.07)
        elif name == "anchor_cross_entropy_batch":
            T.backward(anchor_cross_entropy_batch(targets, student, anchors, 0.07))
        elif name == "isd_loss_batch":
            loss, p_t = isd_loss_batch(teacher, student, anchors, 0.07)
            p_t_bytes = p_t.tobytes()
            T.backward(loss)
            assert p_t.tobytes() == p_t_bytes
        else:
            T.backward(moco_loss_batch(student, teacher, anchors, 0.07))
        assert [block.tobytes() for block in blocks] == before


def call_anchor_form(name, block_shape=(2, 3), anchor_shape=(4, 3), poison=None, tau=0.1):
    """One anchor batch form on a [2, 3] student block, a teacher-side block and anchors.

    The teacher-side block is the query block of ``anchor_distribution_batch``,
    the targets' row count of ``anchor_cross_entropy_batch``, the teacher
    embeddings of ``isd_loss_batch`` and the positive keys of ``moco_loss_batch``.
    """
    rng = np.random.default_rng(15)
    block = rng.standard_normal(block_shape)
    anchors = rng.standard_normal(anchor_shape)
    if poison == "block":
        block.flat[-1] = np.nan
    elif poison == "anchors":
        anchors[-1, 0] = np.inf
    student = Tensor.parameter(rng.standard_normal((2, 3)))
    if name == "anchor_distribution_batch":
        return anchor_distribution_batch(block, anchors, tau)
    if name == "anchor_cross_entropy_batch":
        targets = np.full((block_shape[0], anchor_shape[0]), 1.0 / anchor_shape[0])
        if poison == "block":
            targets[0, 0] = np.nan
        return anchor_cross_entropy_batch(targets, student, Tensor(anchors), tau)
    if name == "isd_loss_batch":
        return isd_loss_batch(block, student, Tensor(anchors), tau)
    return moco_loss_batch(student, block, Tensor(anchors), tau)


def assert_fused_equal_chain(q_values, q_t, anchor_rows, tau):
    """Each objective node and its per-op chain in ``oracles.loss_chain`` give the
    same loss and student-gradient bytes on one student block."""
    anchors = Tensor(anchor_rows)
    p_t = anchor_distribution_batch(q_t, anchors.data, tau)

    def run(loss_of):
        q = Tensor.parameter(q_values.copy())
        loss = loss_of(q)
        T.backward(loss)
        return loss.data.tobytes(), q.grad.tobytes()

    assert (run(lambda q: isd_loss_batch(q_t, q, anchors, tau)[0])
            == run(lambda q: loss_chain.anchor_cross_entropy_batch(p_t, q, anchors, tau)))
    assert isd_loss_batch(q_t, Tensor(q_values), anchors, tau)[1].tobytes() == p_t.tobytes()
    assert (run(lambda q: moco_loss_batch(q, q_t, anchors, tau))
            == run(lambda q: loss_chain.moco_loss_batch(q, q_t, anchors, tau)))
    assert (run(lambda q: byol_loss_batch(q, q_t))
            == run(lambda q: loss_chain.byol_loss_batch(q, q_t)))
