"""Tests for the three objectives, including extended-precision oracles."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simdistill.tensor as T
from oracles import anchor_softmax, graph_ops, loss_chain, per_sample_losses, tape
from oracles.loss_chain import assert_close
from oracles.tape import Tensor
from simdistill.bank import AnchorBank
from simdistill.errors import (ContractError, DegenerateDistributionError, NumericDomainError,
                               ShapeError)
from simdistill.losses import (LossConfig, anchor_cross_entropy_batch, anchor_distribution_batch,
                               byol_loss_batch, distribution_entropy, isd_loss_batch,
                               moco_loss_batch)

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


def row(values) -> np.ndarray:
    """A vector as the [1, d] block the objectives take."""
    return np.asarray(values, dtype=np.float64)[None]


class TestAnchorDistribution:
    def test_equidistant_query_is_uniform(self):
        """Equal cosine to every anchor gives mass 1/n each."""
        out = anchor_distribution_batch(row(np.ones(4)), np.eye(4), 0.07)[0]
        assert np.allclose(out, 0.25, atol=1e-12)

    def test_low_temperature_concentrates(self):
        """tau=0.001 with one aligned anchor puts at least 0.999 there."""
        out = anchor_distribution_batch(row([1.0, 0.0, 0.0, 0.0]), np.eye(4), 0.001)[0]
        assert out[0] >= 0.999

    def test_hand_set_cosines_against_oracle(self):
        """Cosines (1.0, 0.5, 0.0) at tau=0.02, frozen from 50-digit mpmath."""
        anchors = np.array([[1.0, 0.0],
                            [0.5, np.sqrt(3.0) / 2.0],
                            [0.0, 1.0]])
        expected = [0.99999999998611205614, 1.388794386477114561e-11,
                    1.9287498479371314134e-22]
        out = anchor_distribution_batch(row([1.0, 0.0]), anchors, 0.02)[0]
        assert np.abs(out - expected).max() < 1e-12

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        out = anchor_distribution_batch(rng.standard_normal((1, 5)),
                                        rng.standard_normal((9, 5)), 0.1)
        assert abs(out.sum() - 1.0) < 1e-12

    def test_too_few_anchors(self):
        with pytest.raises(DegenerateDistributionError):
            anchor_distribution_batch(row(np.ones(3)), np.ones((1, 3)), 0.1)

    def test_bad_temperature(self):
        with pytest.raises(ContractError):
            anchor_distribution_batch(row(np.ones(3)), np.eye(3), 0.0)

    def test_is_a_constant(self):
        """The teacher side of every loss is a plain array."""
        out = anchor_distribution_batch(row(np.ones(3)), np.eye(3), 0.1)
        assert type(out) is np.ndarray and out.shape == (1, 3)


class TestIsdLoss:
    def test_matched_views_give_teacher_entropy(self):
        """q_s = q_t makes p_s = p_t, so the loss is H(p_t) and KL is zero."""
        rng = np.random.default_rng(1)
        q = rng.standard_normal((1, 6))
        anchors = rng.standard_normal((10, 6))
        loss, _, p_t, h_t = isd_loss_batch(q, q.copy(), anchors, 0.1)
        assert loss == pytest.approx(float(distribution_entropy(p_t[0])), abs=1e-12)
        assert loss == pytest.approx(h_t[0], abs=1e-12)

    def test_uniform_distributions_give_log_n(self):
        """Uniform teacher and student over n anchors cost exactly ln n."""
        loss = isd_loss_batch(row(np.ones(5)), row(np.ones(5)), np.eye(5), 0.3)[0]
        assert loss == pytest.approx(np.log(5.0), abs=1e-12)

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
            loss = isd_loss_batch(row(q_t), row(q_s), anchors, tau)[0]
            assert abs(loss - float(expected)) < 1e-12

    def test_gradient_passes_grad_check(self):
        rng = np.random.default_rng(3)
        q_s = rng.standard_normal((1, 8))
        q_t = rng.standard_normal((1, 8))
        anchors = rng.standard_normal((16, 8))
        assert T.grad_check(lambda q: isd_loss_batch(q_t, q, anchors, 0.05), q_s) < 1e-5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            isd_loss_batch(row(np.ones(3)), row(np.ones(4)), np.eye(4), 0.1)


class TestMocoLoss:
    def test_closed_form_with_orthogonal_negatives(self):
        """q = pos, anchors orthogonal to q, tau=1: loss = -log(e/(e+n))."""
        n = 5
        q = np.zeros(n + 1)
        q[0] = 1.0
        anchors = np.eye(n + 1)[1:]
        loss = moco_loss_batch(row(q), row(q), anchors, 1.0)[0]
        expected = -np.log(np.e / (np.e + n))
        assert loss == pytest.approx(expected, abs=1e-12)

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

            loss_a, grad_a = moco_loss_batch(row(q), row(pos), anchors, tau)

            pos_unit = pos / np.linalg.norm(pos)
            units = anchors / np.linalg.norm(anchors, axis=1, keepdims=True)
            extended = np.concatenate([pos_unit[None, :], units], axis=0)
            onehot = row(np.eye(n + 1)[0])
            loss_b, grad_b = anchor_cross_entropy_batch(onehot, row(q), extended, tau)

            assert abs(loss_a - loss_b) < 1e-12
            assert np.abs(grad_a - grad_b).max() < 1e-10

    def test_random_instance_against_mpmath_oracle(self):
        rng = np.random.default_rng(5)
        q = rng.standard_normal(7)
        pos = rng.standard_normal(7)
        anchors = rng.standard_normal((6, 7))
        tau = 0.2
        extended = np.concatenate([pos[None, :], anchors], axis=0)
        p_model = mp_distribution(q, extended, tau)
        expected = -mp.log(p_model[0])
        loss = moco_loss_batch(row(q), row(pos), anchors, tau)[0]
        assert abs(loss - float(expected)) < 1e-12

    def test_gradient_passes_grad_check(self):
        rng = np.random.default_rng(6)
        q = rng.standard_normal((1, 8))
        pos = rng.standard_normal((1, 8))
        anchors = rng.standard_normal((16, 8))
        assert T.grad_check(lambda x: moco_loss_batch(x, pos, anchors, 0.07), q) < 1e-5


class TestByolLoss:
    def test_identical_vectors(self):
        v = row([0.3, -0.4, 1.2])
        assert byol_loss_batch(v, v.copy())[0] == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        a = row([1.0, 0.0])
        b = row([0.0, 2.0])
        assert byol_loss_batch(a, b)[0] == pytest.approx(2.0, abs=1e-12)

    def test_opposite_vectors(self):
        v = row([0.5, -1.0, 2.0])
        assert byol_loss_batch(v, -v)[0] == pytest.approx(4.0, abs=1e-12)

    def test_gradient_passes_grad_check(self):
        rng = np.random.default_rng(7)
        q = rng.standard_normal((1, 8))
        t = rng.standard_normal((1, 8))
        assert T.grad_check(lambda x: byol_loss_batch(x, t), q) < 1e-5


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

            ce, grad_ce = anchor_cross_entropy_batch(p_t[None], row(q_s_values), anchors, tau)

            q_kl = Tensor.parameter(q_s_values.copy())
            logits = tape.mul(graph_ops.matmul(Tensor(units), graph_ops.l2_normalize(q_kl)),
                              1.0 / tau)
            p_s = graph_ops.softmax(logits)
            log_ratio = graph_ops.sub(Tensor(np.log(p_t)), graph_ops.log(p_s))
            kl = tape.tensor_sum(tape.mul(Tensor(p_t), log_ratio))
            tape.backward(kl)

            h_t = float(distribution_entropy(p_t))
            assert abs((ce - kl.item()) - h_t) < 1e-10
            assert np.abs(grad_ce[0] - q_kl.grad).max() < 1e-10

    @pytest.mark.parametrize("scale", [0.5, 2.0, 10.0])
    def test_losses_invariant_to_positive_rescaling(self, scale):
        """Cosine geometry: rescaling any input leaves each loss unchanged."""
        rng = np.random.default_rng(9)
        q_t = rng.standard_normal((1, 5))
        q_s = rng.standard_normal((1, 5))
        pos = rng.standard_normal((1, 5))
        anchors = rng.standard_normal((7, 5))

        def losses(c):
            return [isd_loss_batch(c * q_t, c * q_s, c * anchors, 0.1)[0],
                    moco_loss_batch(c * q_s, c * pos, c * anchors, 0.1)[0],
                    byol_loss_batch(c * q_s, c * q_t)[0]]

        assert np.abs(np.array(losses(1.0)) - losses(scale)).max() < 1e-10

    def test_the_gradient_is_the_student_blocks(self):
        """Each objective returns a float value and one gradient, of the student
        block's shape; the teacher-side inputs are plain arrays and get none."""
        rng = np.random.default_rng(10)
        q_t, pos = rng.standard_normal((1, 5)), rng.standard_normal((1, 5))
        anchors = rng.standard_normal((7, 5))
        q_s = rng.standard_normal((1, 5))
        for value, grad in (isd_loss_batch(q_t, q_s, anchors, 0.1)[:2],
                            moco_loss_batch(q_s, pos, anchors, 0.1),
                            byol_loss_batch(q_s, q_t)):
            assert type(value) is float
            assert grad.shape == q_s.shape and grad.any()

    def test_loss_config_validation(self):
        with pytest.raises(ContractError):
            LossConfig("simclr", 0.1)
        for objective in ("isd", "moco"):
            for tau in (0.0, -1.0, np.nan, 1e-320):
                with pytest.raises(ContractError, match="finite inverse"):
                    LossConfig(objective, tau)
        LossConfig("byol", -1.0)    # temperature ignored for byol
        LossConfig("byol", 1e-320)


class TestBatchForms:
    def test_isd_batch_equals_mean_of_per_sample(self):
        rng = np.random.default_rng(11)
        b, d, n = 4, 6, 9
        q_t = rng.standard_normal((b, d))
        q_s_values = rng.standard_normal((b, d))
        anchors = rng.standard_normal((n, d))
        tau = 0.1

        batch_loss, batch_grad, p_t, _ = isd_loss_batch(q_t, q_s_values, anchors, tau)

        singles = []
        grads = np.zeros_like(q_s_values)
        for i in range(b):
            li, gi = isd_loss_batch(q_t[i:i + 1], q_s_values[i:i + 1], anchors, tau)[:2]
            singles.append(li)
            grads[i] = gi[0]
        assert batch_loss == pytest.approx(np.mean(singles), abs=1e-12)
        assert np.abs(batch_grad - grads / b).max() < 1e-12
        assert p_t.shape == (b, n)

    def test_moco_batch_equals_mean_of_per_sample(self):
        rng = np.random.default_rng(12)
        b, d, n = 3, 5, 7
        q_values = rng.standard_normal((b, d))
        pos = rng.standard_normal((b, d))
        anchors = rng.standard_normal((n, d))
        batch_loss = moco_loss_batch(q_values, pos, anchors, 0.2)[0]
        singles = [moco_loss_batch(q_values[i:i + 1], pos[i:i + 1], anchors, 0.2)[0]
                   for i in range(b)]
        assert batch_loss == pytest.approx(np.mean(singles), abs=1e-12)

    def test_byol_batch_equals_mean_of_per_sample(self):
        rng = np.random.default_rng(13)
        b, d = 5, 4
        q_values = rng.standard_normal((b, d))
        t_values = rng.standard_normal((b, d))
        batch = byol_loss_batch(q_values, t_values)[0]
        singles = [byol_loss_batch(q_values[i:i + 1], t_values[i:i + 1])[0] for i in range(b)]
        assert batch == pytest.approx(np.mean(singles), abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 5), n=st.integers(2, 12),
           d=st.integers(1, 6), tau=st.sampled_from([0.02, 0.1, 1.0]),
           zero_rows=st.integers(0, 2))
    @settings(max_examples=100, deadline=None)
    def test_fused_batch_losses_match_node_chain(self, seed, b, n, d, tau, zero_rows):
        """ISD and MoCo losses and gradients agree with the per-op chain to
        ``loss_chain.CHAIN_RTOL`` and BYOL's are byte for byte the chain's, also for all-zero
        student rows (the eps branch of the row normalisation); ISD's teacher
        distributions are those of anchor_distribution_batch."""
        rng = np.random.default_rng(seed)
        q_values = rng.standard_normal((b, d))
        q_values[rng.permutation(b)[:zero_rows]] = 0.0
        assert_fused_equal_chain(q_values, rng.standard_normal((b, d)),
                                 rng.standard_normal((n, d)), tau)

    @pytest.mark.parametrize("n", [1024, 984])
    def test_fused_batch_losses_match_at_reference_shape(self, n):
        """The check against the chain at batch 64 and width 64 against a full bank
        of 1024 anchors, and against the 984 a default prefill leaves."""
        rng = np.random.default_rng(n)
        q_values = rng.standard_normal((64, 64))
        q_values[5] = 0.0
        assert_fused_equal_chain(q_values, rng.standard_normal((64, 64)),
                                 rng.standard_normal((n, 64)), 0.02)

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 12), n=st.integers(2, 40),
           tau=st.sampled_from([0.02, 0.1, 0.5, 1.0]))
    @settings(max_examples=100, deadline=None)
    def test_one_row_forms_match_per_sample_oracle(self, seed, d, n, tau):
        """1-row batch calls give the values and query gradients of the per-op
        graph forms of the per-sample functions they replaced, to 1e-12 relative
        to max(|oracle|, 1)."""
        rng = np.random.default_rng(seed)
        q_t, q_s, pos = (rng.standard_normal(d) for _ in range(3))
        anchors = rng.standard_normal((n, d))
        target = rng.dirichlet(np.ones(n))
        oracle = per_sample_losses
        pairs = [
            (lambda q: anchor_cross_entropy_batch(target[None], q, anchors, tau),
             lambda q: oracle.anchor_cross_entropy(target, q, Tensor(anchors), tau)),
            (lambda q: isd_loss_batch(q_t[None], q, anchors, tau),
             lambda q: oracle.isd_loss(Tensor(q_t), q, Tensor(anchors), tau)),
            (lambda q: moco_loss_batch(q, pos[None], anchors, tau),
             lambda q: oracle.moco_loss(q, Tensor(pos), Tensor(anchors), tau)),
            (lambda q: byol_loss_batch(q, q_t[None]),
             lambda q: oracle.byol_loss(q, Tensor(q_t))),
        ]

        def close(a, b):
            return np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1.0)

        for batch_call, oracle_call in pairs:
            loss, grad = batch_call(q_s[None])[:2]
            want, want_grad = tape.value_and_grad(oracle_call, q_s)
            assert close(loss, want) and close(grad[0], want_grad)
        dist = anchor_distribution_batch(q_t[None], anchors, tau)[0]
        assert close(dist, oracle.anchor_distribution(Tensor(q_t), Tensor(anchors), tau).data)

    def test_batch_target_shape_checked(self):
        with pytest.raises(ShapeError):
            anchor_cross_entropy_batch(np.ones((2, 3)), np.ones((2, 4)), np.ones((5, 4)), 0.1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["anchor_distribution_batch", "anchor_cross_entropy_batch",
                                      "isd_loss_batch", "moco_loss_batch"])
    def test_anchor_forms_raise_typed_errors(self, name):
        """Too few anchors, a wrong anchor width, a teacher-side block unlike the
        student's and a non-finite block or anchor each raise their own error, and
        a temperature whose inverse overflows raises no numpy warning first."""
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
        for tau in [0.0, np.nan, 1e-310, np.float64(1e-310)]:
            with pytest.raises(ContractError):
                call_anchor_form(name, tau=tau)

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    @pytest.mark.parametrize("name", ["anchor_cross_entropy_batch", "moco_loss_batch"])
    def test_overflowing_logits_raise_numeric_domain_error(self, name):
        """A bank row may be off unit by up to 1e-6. At the smallest τ whose inverse
        is finite, a query along such a row has an infinite logit, which the cross
        entropy refuses before its softmax turns it into NaN."""
        tau = float(np.nextafter(1.0 / np.finfo(np.float64).max, 1.0))
        assert np.isfinite(1.0 / tau)
        bank = AnchorBank(4, 2)
        bank.enqueue(np.array([[1.0 + 5e-7, 0.0], [0.0, 1.0]]))
        query = np.array([[1.0, 0.0]])
        with pytest.raises(NumericDomainError, match="logits contain NaN or Inf"):
            if name == "moco_loss_batch":
                moco_loss_batch(query, np.array([[0.0, 1.0]]), bank.unit_snapshot(), tau)
            else:
                anchor_cross_entropy_batch(np.array([[0.5, 0.5]]), query,
                                           bank.unit_snapshot(), tau)

    def test_byol_checks_the_teacher_block(self):
        rng = np.random.default_rng(16)
        q = rng.standard_normal((2, 3))
        with pytest.raises(ShapeError):
            byol_loss_batch(q, rng.standard_normal((2, 4)))
        with pytest.raises(ShapeError):
            byol_loss_batch(np.ones(3), np.ones(3))
        t = rng.standard_normal((2, 3))
        t[1, 2] = np.nan
        with pytest.raises(NumericDomainError, match="teacher embeddings"):
            byol_loss_batch(q, t)

    def test_entropy_helper(self):
        assert float(distribution_entropy(np.array([1.0, 0.0]))) == 0.0
        assert float(distribution_entropy(np.full(4, 0.25))) == pytest.approx(np.log(4.0))


class TestTeacherSideMatchesOutOfPlaceOracle:
    """The in-place teacher softmax agrees with its out-of-place form in
    ``oracles.anchor_softmax`` to ``loss_chain.CHAIN_RTOL`` (it scales the
    [b, d] queries by 1/tau, the oracle the [b, K] logits). The entropy
    ``isd_loss_batch`` reads off the teacher softmax is >= 0 and agrees with
    ``distribution_entropy`` to rounding of terms of size 1/tau, also where
    probabilities underflow to exact zeros."""

    @staticmethod
    def assert_matches(queries, anchors, tau):
        p = anchor_distribution_batch(queries, anchors, tau)
        want = anchor_softmax.anchor_softmax(queries, T.unit_rows(anchors), tau)
        assert_close(p, want)
        _, _, p_t, h_t = isd_loss_batch(queries, queries.copy(), anchors, tau)
        assert p_t.tobytes() == p.tobytes()
        assert h_t.min() >= 0
        assert_close(h_t, distribution_entropy(p), scale=1 / tau)
        return p

    @pytest.mark.parametrize("n", [512, 984, 1024])
    @pytest.mark.parametrize("tau", [0.07, 0.02])
    def test_reference_shapes(self, n, tau):
        """Batch 64 at width 64 against the unbalanced protocol's bank of 512,
        the 984 rows a default prefill leaves, and a full bank of 1024."""
        rng = np.random.default_rng(n)
        p = self.assert_matches(rng.standard_normal((64, 64)), rng.standard_normal((n, 64)), tau)
        assert p.min() > 0

    @pytest.mark.parametrize("tau", [0.003, 0.001])
    def test_sharp_temperature(self, tau):
        """Cosines span at most 2, so logits span at most 2 / tau. At tau 0.003
        (667) every probability stays a normal double; at 0.001 (2000) some
        underflow to exact zeros, which add nothing to the entropy."""
        rng = np.random.default_rng(3)
        queries = rng.standard_normal((64, 8))
        anchors = np.concatenate([queries[:32], -queries[32:], rng.standard_normal((448, 8))])
        p = self.assert_matches(queries, anchors, tau)
        assert (p.min() == 0) == (tau == 0.001)

    def test_one_row(self):
        rng = np.random.default_rng(4)
        query, anchors = rng.standard_normal(16), rng.standard_normal((40, 16))
        p = anchor_distribution_batch(query[None], anchors, 0.07)[0]
        assert_close(p, anchor_softmax.anchor_softmax(query[None], T.unit_rows(anchors), 0.07)[0])


class TestInputsStayUntouched:
    """The in-place passes write only to temporaries: no anchor form, nor the
    gradient it returns, changes a byte of a block it was handed."""

    @pytest.mark.parametrize("name", ["anchor_distribution_batch", "anchor_cross_entropy_batch",
                                      "isd_loss_batch", "moco_loss_batch"])
    def test_inputs_byte_identical_after_the_gradient(self, name):
        rng = np.random.default_rng(21)
        student = rng.standard_normal((16, 8))
        teacher = rng.standard_normal((16, 8))
        anchors = rng.standard_normal((40, 8))
        targets = anchor_distribution_batch(rng.standard_normal((16, 8)), anchors, 0.07)
        blocks = (student, teacher, anchors, targets)
        before = [block.tobytes() for block in blocks]

        if name == "anchor_distribution_batch":
            anchor_distribution_batch(teacher, anchors, 0.07)
        elif name == "anchor_cross_entropy_batch":
            anchor_cross_entropy_batch(targets, student, anchors, 0.07)
        elif name == "isd_loss_batch":
            isd_loss_batch(teacher, student, anchors, 0.07)
        else:
            moco_loss_batch(student, teacher, anchors, 0.07)
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
    student = rng.standard_normal((2, 3))
    if name == "anchor_distribution_batch":
        return anchor_distribution_batch(block, anchors, tau)
    if name == "anchor_cross_entropy_batch":
        targets = np.full((block_shape[0], anchor_shape[0]), 1.0 / anchor_shape[0])
        if poison == "block":
            targets[0, 0] = np.nan
        return anchor_cross_entropy_batch(targets, student, anchors, tau)
    if name == "isd_loss_batch":
        return isd_loss_batch(block, student, anchors, tau)
    return moco_loss_batch(student, block, anchors, tau)


def assert_fused_equal_chain(q_values, q_t, anchors, tau):
    """Each objective and its per-op chain in ``oracles.loss_chain`` give the
    same loss and student gradient on one student block: to ``CHAIN_RTOL`` for
    ISD and MoCo, byte for byte for BYOL. The objective's gradient is taken
    as the chain's leaf collects it, added into zeros, so -0.0 reads +0.0."""
    p_t = anchor_distribution_batch(q_t, anchors, tau)

    def run(objective):
        value, grad = objective(q_values.copy())[:2]
        return np.float64(value), grad + 0.0

    def run_chain(chain):
        value, grad = tape.value_and_grad(chain, q_values.copy())
        return np.float64(value), grad

    # The row normalisation's vjp divides a row by max(norm, 1e-12), so an
    # all-zero row's gradient magnifies rounding by 1e12; compare it undone.
    divisor = np.maximum(np.linalg.norm(q_values, axis=1, keepdims=True), 1e-12)
    for got, want in [
        (run(lambda q: isd_loss_batch(q_t, q, anchors, tau)),
         run_chain(lambda q: loss_chain.anchor_cross_entropy_batch(p_t, q, anchors, tau))),
        (run(lambda q: moco_loss_batch(q, q_t, anchors, tau)),
         run_chain(lambda q: loss_chain.moco_loss_batch(q, q_t, anchors, tau))),
    ]:
        assert_close(got[0], want[0], scale=1 / tau)
        assert_close(got[1] * divisor, want[1] * divisor, scale=1 / tau)
    assert isd_loss_batch(q_t, q_values, anchors, tau)[2].tobytes() == p_t.tobytes()
    assert ([a.tobytes() for a in run(lambda q: byol_loss_batch(q, q_t))]
            == [a.tobytes() for a in run_chain(lambda q: loss_chain.byol_loss_batch(q, q_t))])
