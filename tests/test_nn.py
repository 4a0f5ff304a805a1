"""Tests for MLP init/forward, SGD with momentum, and the EMA teacher update."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simdistill.tensor as T
from oracles import mlp_graph
from simdistill.errors import ContractError, ShapeError
from simdistill.nn import (MlpParams, MlpSpec, ModelPair, SgdState, default_encoder_spec,
                           default_predictor_spec, ema_update, init_params, mlp_forward,
                           sgd_step)


class TestInitParams:
    def test_same_seed_is_bitwise_identical(self):
        spec = MlpSpec((4, 8, 2))
        a, b = init_params(spec, 42), init_params(spec, 42)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_shape_contract(self):
        p = init_params(MlpSpec((4, 8, 2)), 0)
        assert [w.data.shape for w in p.weights] == [(4, 8), (8, 2)]
        assert [b.data.shape for b in p.biases] == [(8,), (2,)]

    def test_biases_start_at_zero(self):
        p = init_params(MlpSpec((3, 5, 2)), 1)
        for b in p.biases:
            assert not b.data.any()

    def test_uniform_stddev(self):
        """A [1000,1000] layer has stddev (1/sqrt(1000))/sqrt(3) within 5%."""
        p = init_params(MlpSpec((1000, 1000)), 7)
        expected = (1.0 / np.sqrt(1000)) / np.sqrt(3)
        assert p.weights[0].data.std() == pytest.approx(expected, rel=0.05)

    def test_spec_validation(self):
        with pytest.raises(ContractError):
            MlpSpec((4,))
        with pytest.raises(ContractError):
            MlpSpec((4, 0, 2))
        with pytest.raises(ContractError):
            MlpSpec((4, 8, 1))


class TestMlpForward:
    def test_zero_weights_give_zero_output(self):
        spec = MlpSpec((3, 4, 2))
        p = init_params(spec, 0)
        for w in p.weights:
            w.data[...] = 0.0
        out = mlp_forward(p, np.ones((5, 3)))
        assert not out.any()

    def test_single_layer_equals_affine(self):
        p = init_params(MlpSpec((4, 3)), 3)
        x = np.random.default_rng(4).standard_normal((6, 4))
        out = mlp_forward(p, x)
        assert np.array_equal(out, x @ p.weights[0].data + p.biases[0].data)

    def test_against_independent_forward_oracle(self):
        """Random net matches a separately coded forward pass to 1e-12."""
        spec = MlpSpec((5, 7, 4, 3), final_normalize=True)
        p = init_params(spec, 5)
        x = np.random.default_rng(6).standard_normal((8, 5))

        h = x
        layers = list(zip(p.weights, p.biases))
        for i, (w, b) in enumerate(layers):
            h = h @ w.data + b.data
            if i != len(layers) - 1:
                h = np.maximum(h, 0.0)
        h = h / np.maximum(np.linalg.norm(h, axis=1, keepdims=True), 1e-12)

        out = mlp_forward(p, x)
        assert np.abs(out - h).max() < 1e-12

    def test_final_normalize_rows_unit(self):
        # hidden width 16 keeps every row clear of total relu die-off
        p = init_params(MlpSpec((4, 16, 3), final_normalize=True), 8)
        out = mlp_forward(p, np.random.default_rng(9).standard_normal((10, 4)))
        assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() < 1e-10

    def test_width_mismatch(self):
        p = init_params(MlpSpec((4, 3)), 0)
        with pytest.raises(ShapeError):
            mlp_forward(p, np.zeros((2, 5)))

    def test_without_grad_the_output_is_one_array(self):
        """A teacher or evaluation pass returns the output alone, the same bytes
        as the output of a pass with a gradient."""
        for normalize in (False, True):
            p = init_params(MlpSpec((3, 4, 2), normalize), 1)
            x = np.random.default_rng(2).standard_normal((5, 3))
            out = mlp_forward(p, x)
            assert isinstance(out, np.ndarray)
            assert out.tobytes() == mlp_forward(p, x, grad=True)[0].tobytes()


class TestFlatBuffer:
    def test_layer_views_share_the_buffer_and_grad(self):
        p = init_params(MlpSpec((3, 4, 2)), 0)
        assert [t.data.shape for t in p.parameters()] == [(3, 4), (4,), (4, 2), (2,)]
        assert p.data.shape == p.grad.shape == (3 * 4 + 4 + 4 * 2 + 2,)
        p.biases[1].data[1] = 7.0
        assert p.data[-1] == 7.0
        p.grad[:12] = 1.0
        assert np.all(p.weights[0].grad == 1.0) and not p.biases[0].grad.any()

    def test_copy_owns_its_buffer(self):
        p = init_params(MlpSpec((3, 4, 2)), 0)
        copy, frozen = p.copy(trainable=True), p.copy(trainable=False)
        p.data[0] += 1.0
        assert copy.data[0] == frozen.data[0] == p.data[0] - 1.0
        assert copy.grad is not p.grad and frozen.grad is None and not frozen.trainable

    def test_wrong_buffer_size_rejected(self):
        with pytest.raises(ShapeError):
            MlpParams(MlpSpec((3, 4, 2)), np.zeros(5))


def _layer_inputs(kinds, width, rng):
    """Rows of a test batch: random, exactly zero, or below the l2 eps once mapped."""
    x = rng.standard_normal((len(kinds), width))
    for i, kind in enumerate(kinds):
        if kind == "zero":
            x[i] = 0.0
        elif kind == "tiny":
            x[i] *= 1e-14
    return x


# (encoder widths, encoder normalises, predictor widths or None,
#  encoder's first hidden unit dead for every row)
FUSED_CASES = {
    "one-layer": ((4, 3), True, None, False),
    "no-normalize": ((4, 6, 5, 3), False, None, False),
    "encoder": ((4, 6, 5, 3), True, None, False),
    "predictor-on-encoder": ((4, 6, 3), True, (3, 5, 3), False),
    "dead-hidden-unit": ((4, 6, 5, 3), True, (3, 5, 3), True),
}


class TestFusedNode:
    @pytest.mark.parametrize("case", FUSED_CASES)
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.sampled_from(["random", "zero", "tiny"]), min_size=1, max_size=6),
           weight=st.sampled_from([1.0, 0.3, -2.5]),
           zero_biases=st.booleans(), input_grad=st.booleans())
    def test_bytes_equal_the_per_op_graph(self, case, seed, kinds, weight, zero_biases,
                                          input_grad):
        """Forward value, input gradient and every parameter gradient are byte-equal
        to the per-op graph, including zero rows (dead rectifiers, the eps branch of
        the l2 backward), a hidden unit that no row activates, whose gradient
        slices the closed form must still write as zeros, and signed zeros. The
        input gradient is compared as a zeroed buffer collects it (-0.0 as +0.0),
        which is how the tape hands it over."""
        widths, normalize, pred_widths, dead_unit = FUSED_CASES[case]
        rng = np.random.default_rng(seed)
        nets = [init_params(MlpSpec(widths, normalize), [seed, 0])]
        if pred_widths:
            nets.append(init_params(MlpSpec(pred_widths), [seed, 1]))
        if not zero_biases:
            for net in nets:
                for b in net.biases:
                    b.data[...] = rng.standard_normal(b.data.shape)
        if dead_unit:
            nets[0].weights[0].data[:, 0] = 0.0
            nets[0].biases[0].data[0] = -1.0
        x = _layer_inputs(kinds, widths[0], rng)
        upstream = rng.standard_normal((len(kinds), nets[-1].spec.output_dim)) * weight

        def run(forward, copies):
            out, vjps = x.copy(), []
            for net in copies:
                out, vjp = forward(net, out, grad=True)
                vjps.append(vjp)
            g = upstream
            for vjp in reversed(vjps[1:]):
                g = vjp(g)
            gx = vjps[0](g, input_grad=input_grad)
            grads = [None if gx is None else gx + 0.0] + [net.grad for net in copies]
            return [out] + [g for g in grads if g is not None]

        fused = run(mlp_forward, [net.copy(True) for net in nets])
        oracle = run(mlp_graph.mlp_forward, [net.copy(True) for net in nets])
        assert len(fused) == len(oracle) == 1 + input_grad + len(nets)
        for got, want in zip(fused, oracle):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_vjp_overwrites_every_element_of_the_grad_buffer(self):
        """A stale gradient, NaN here, leaves no trace: nothing zeroes the buffer
        before a vjp writes it."""
        rng = np.random.default_rng(15)
        x, g = rng.standard_normal((3, 4)), rng.standard_normal((3, 3))
        clean, stale = (init_params(MlpSpec((4, 6, 5, 3), final_normalize=True), 16)
                        for _ in range(2))
        stale.grad[...] = np.nan
        for p in (clean, stale):
            mlp_forward(p, x, grad=True)[1](g)
        assert stale.grad.tobytes() == clean.grad.tobytes()

    def test_a_negative_zero_gradient_lands_as_positive_zero(self):
        """No -0.0 reaches a gradient buffer: a column of -0.0 gradients gives
        the bias and weight gradients a zeroed buffer added into would hold, as
        the per-op graph's leaves do."""
        g = np.array([[-0.0, 1.0], [-0.0, -2.0]])
        x = np.ones((2, 3))
        fused, graph = (init_params(MlpSpec((3, 2)), 17) for _ in range(2))
        mlp_forward(fused, x, grad=True)[1](g)
        mlp_graph.mlp_forward(graph, x, grad=True)[1](g)
        assert fused.grad.tobytes() == graph.grad.tobytes()
        assert not np.signbit(fused.grad[fused.grad == 0]).any()

    def test_no_negative_zero_survives_a_dead_unit_or_a_zero_row(self):
        """Nothing turns -0.0 into +0.0 after the rectifier or the vjp, so the sums
        must never make one. An all-zero input row embeds to a zero row, and the
        predictor's first hidden unit is dead on the whole batch while its positive
        out-weights meet an all-negative upstream gradient: every entry of that
        unit's gradient column is -0.0 after the mask. The output, the input
        gradient and both flat gradient buffers hold no -0.0, and each is bytewise
        the per-op graph's."""
        rng = np.random.default_rng(18)
        nets = [init_params(MlpSpec((4, 6, 5, 3), final_normalize=True), 19),
                init_params(MlpSpec((3, 5, 3)), 20)]
        predictor = nets[1]
        predictor.weights[0].data[:, 0] = 0.0
        predictor.biases[0].data[0] = -1.0
        predictor.weights[1].data[0] = np.abs(predictor.weights[1].data[0]) + 0.1
        x = rng.standard_normal((4, 4))
        x[1] = 0.0
        upstream = -rng.uniform(0.5, 1.5, (4, 3))

        def run(forward, copies):
            encoder, head = copies
            h, encoder_vjp = forward(encoder, x, grad=True)
            out, head_vjp = forward(head, h, grad=True)
            gx = encoder_vjp(head_vjp(upstream))
            return [out, gx, encoder.grad, head.grad]

        fused = run(mlp_forward, [net.copy(True) for net in nets])
        oracle = run(mlp_graph.mlp_forward, [net.copy(True) for net in nets])
        for got, want in zip(fused, oracle):
            assert not np.signbit(got[got == 0]).any()
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_input_gradient_only_on_request(self):
        p = init_params(MlpSpec((4, 6, 3), final_normalize=True), 0)
        x = np.random.default_rng(1).standard_normal((2, 4))
        _, vjp = mlp_forward(p, x, grad=True)
        gx = vjp(np.ones((2, 3)))
        written = p.grad.copy()
        assert gx.shape == x.shape
        assert vjp(np.ones((2, 3)), input_grad=False) is None
        assert p.grad.tobytes() == written.tobytes()

    def test_grad_check(self):
        enc = init_params(MlpSpec((4, 7, 5, 3), final_normalize=True), 12)
        pred = init_params(MlpSpec((3, 6, 3)), 13)
        rng = np.random.default_rng(14)
        for net in (enc, pred):
            for b in net.biases:
                b.data[...] = rng.standard_normal(b.data.shape) * 0.1
        x = rng.standard_normal((5, 4))
        upstream = rng.standard_normal((5, 3))

        def value_and_grad_in(which):
            def f(values):
                e = MlpParams(enc.spec, values) if which == "encoder" else enc
                p = MlpParams(pred.spec, values) if which == "predictor" else pred
                h, encoder_vjp = mlp_forward(e, values if which == "input" else x, grad=True)
                out, predictor_vjp = mlp_forward(p, h, grad=True)
                gx = encoder_vjp(predictor_vjp(upstream))
                grads = {"encoder": e.grad, "predictor": p.grad, "input": gx}
                return float((out * upstream).sum()), grads[which]
            return f

        for which, point in (("encoder", enc.data), ("predictor", pred.data), ("input", x)):
            assert T.grad_check(value_and_grad_in(which), point, step=1e-6) < 1e-5, which


class TestWholeBufferUpdates:
    def test_sgd_and_ema_match_the_per_layer_loops(self):
        """One update per network buffer gives the bytes of one per layer view."""
        flat, layered = make_pair(0.9, seed=3), make_pair(0.9, seed=3)
        states = []
        for pair in (flat, layered):
            rng = np.random.default_rng(4)
            for net in (pair.student_encoder, pair.student_predictor):
                net.grad[...] = rng.standard_normal(net.grad.shape)
            states.append(SgdState.for_params([pair.student_encoder, pair.student_predictor],
                                              lr=0.05, weight_decay=1e-3))
        for _ in range(3):
            sgd_step([flat.student_encoder, flat.student_predictor], states[0])
            mlp_graph.sgd_step([layered.student_encoder, layered.student_predictor], states[1])
            ema_update(flat)
            mlp_graph.ema_update(layered)
        for a, b in zip(flat.student_parameters() + flat.teacher_encoder.parameters(),
                        layered.student_parameters() + layered.teacher_encoder.parameters()):
            assert a.data.tobytes() == b.data.tobytes()
        for a, b in zip(*(state.velocities for state in states)):
            assert a.tobytes() == b.tobytes()

    def test_state_for_layer_views_has_one_velocity_per_layer(self):
        pair = make_pair(0.9)
        state = SgdState.for_params(pair.student_parameters(), lr=0.1)
        assert [v.shape for v in state.velocities] == [p.data.shape
                                                       for p in pair.student_parameters()]
        assert not any(v.any() for v in state.velocities)


def _net(values, grad):
    """A one-layer (1, 2) network holding the four given values and gradient."""
    net = MlpParams(MlpSpec((1, 2)), np.asarray(values, dtype=np.float64))
    net.grad[...] = grad
    return net


class TestSgd:
    def test_zero_grad_leaves_params_unchanged(self):
        p = _net([1.0, -2.0, 0.5, 3.0], np.zeros(4))
        state = SgdState.for_params([p], lr=0.1, weight_decay=0.0)
        sgd_step([p], state)
        assert np.array_equal(p.data, [1.0, -2.0, 0.5, 3.0])

    def test_first_step_closed_form(self):
        g = np.array([0.5, -0.25, 1.0, 0.0])
        p = _net([1.0, 2.0, 3.0, 4.0], g)
        state = SgdState.for_params([p], lr=0.1, weight_decay=0.0)
        sgd_step([p], state)
        assert np.allclose(p.data, [1.0, 2.0, 3.0, 4.0] - 0.1 * g, atol=1e-15)

    def test_two_steps_unrolled_by_hand(self):
        """Constant gradient g for two steps gives theta - lr*g*(1 + 1.9)."""
        p = _net([3.0] * 4, [2.0] * 4)
        state = SgdState.for_params([p], lr=0.1, weight_decay=0.0)
        sgd_step([p], state)
        sgd_step([p], state)
        assert p.data == pytest.approx([3.0 - 0.1 * 2.0 * (1.0 + 1.9)] * 4, abs=1e-15)

    def test_weight_decay_enters_velocity(self):
        p = _net([2.0] * 4, np.zeros(4))
        state = SgdState.for_params([p], lr=0.1, momentum=0.9, weight_decay=0.01)
        sgd_step([p], state)
        assert p.data == pytest.approx([2.0 - 0.1 * (0.01 * 2.0)] * 4)

    def test_teacher_network_rejected(self):
        frozen = init_params(MlpSpec((1, 2)), 0).copy(trainable=False)
        state = SgdState.for_params([frozen], lr=0.1)
        before = frozen.data.copy()
        with pytest.raises(ContractError):
            sgd_step([frozen], state)
        assert frozen.data.tobytes() == before.tobytes()

    def test_shape_mismatch(self):
        """A grad buffer or a velocity unlike its network's buffer, or a velocity
        list that does not align with the networks, is rejected."""
        p = _net([1.0, 2.0, 3.0, 4.0], np.zeros(4))
        state = SgdState.for_params([p], lr=0.1)
        p.grad = np.zeros(3)
        with pytest.raises(ShapeError):
            sgd_step([p], state)
        p.grad = np.zeros(4)
        state.velocities[0] = np.zeros(3)
        with pytest.raises(ShapeError):
            sgd_step([p], state)
        with pytest.raises(ShapeError):
            sgd_step([p, _net([1.0] * 4, np.zeros(4))], SgdState.for_params([p], lr=0.1))


def make_pair(momentum, seed=0):
    enc = MlpSpec((3, 4, 2), final_normalize=True)
    return ModelPair.create(enc, default_predictor_spec(2, hidden=3), momentum, seed)


class TestEmaUpdate:
    def test_momentum_one_is_bitwise_identity(self):
        pair = make_pair(1.0)
        before = [t.data.copy() for t in pair.teacher_encoder.parameters()]
        for _ in range(100):
            ema_update(pair)
            for s in pair.student_encoder.parameters():
                s.data += 0.37
        for t, b in zip(pair.teacher_encoder.parameters(), before):
            assert np.array_equal(t.data, b)

    def test_momentum_zero_copies_student(self):
        pair = make_pair(0.0)
        for s in pair.student_encoder.parameters():
            s.data += 1.25
        ema_update(pair)
        for t, s in zip(pair.teacher_encoder.parameters(), pair.student_encoder.parameters()):
            assert np.array_equal(t.data, s.data)

    def test_scalar_closed_form(self):
        """theta_t=0, theta_s=1, m=0.999 gives 0.001 to 1e-15."""
        pair = make_pair(0.999)
        t0 = pair.teacher_encoder.weights[0]
        s0 = pair.student_encoder.weights[0]
        t0.data[...] = 0.0
        s0.data[...] = 1.0
        ema_update(pair)
        assert np.abs(t0.data - 0.001).max() < 1e-15

    def test_student_untouched(self):
        pair = make_pair(0.5)
        for s in pair.student_encoder.parameters():
            s.data += 2.0
        before = [s.data.copy() for s in pair.student_encoder.parameters()]
        ema_update(pair)
        for s, b in zip(pair.student_encoder.parameters(), before):
            assert np.array_equal(s.data, b)

    def test_gap_recurrence_and_displacement_bound(self):
        """Scalar toy run: the gap obeys gap_k = m*(gap_{k-1} - delta_k), so it
        never exceeds the sum of past student displacements."""
        rng = np.random.default_rng(5)
        m = 0.9
        teacher, student = 1.0, 1.0
        gap, total_displacement = 0.0, 0.0
        for _ in range(200):
            delta = rng.normal(0.0, 0.1)
            student += delta
            teacher = m * teacher + (1.0 - m) * student
            expected_gap = m * (gap - delta)
            gap = teacher - student
            total_displacement += abs(delta)
            assert gap == pytest.approx(expected_gap, abs=1e-12)
            assert abs(gap) <= total_displacement + 1e-12


class TestModelPair:
    def test_teacher_starts_as_exact_copy(self):
        pair = make_pair(0.99)
        for t, s in zip(pair.teacher_encoder.parameters(), pair.student_encoder.parameters()):
            assert np.array_equal(t.data, s.data)
        assert pair.student_encoder.trainable and not pair.teacher_encoder.trainable

    def test_momentum_range_checked(self):
        with pytest.raises(ContractError):
            make_pair(1.5)

    def test_teacher_must_be_frozen(self):
        enc = init_params(MlpSpec((3, 4, 2), final_normalize=True), 0)
        pred = init_params(default_predictor_spec(2, hidden=3), 1)
        with pytest.raises(ContractError):
            ModelPair(enc, pred, enc.copy(trainable=True), 0.9)

    def test_default_specs(self):
        enc = default_encoder_spec(17)
        assert enc.layer_widths == (17, 256, 128, 64) and enc.final_normalize
        pred = default_predictor_spec(64)
        assert pred.layer_widths == (64, 64, 64) and not pred.final_normalize

    def test_teacher_has_no_gradient_and_refuses_a_vjp(self):
        pair = make_pair(0.99)
        x = np.random.default_rng(3).standard_normal((4, 3))
        assert pair.teacher_encoder.grad is None
        assert all(p.grad is None for p in pair.teacher_encoder.parameters())
        assert mlp_forward(pair.teacher_encoder, x).shape == (4, 2)
        with pytest.raises(ContractError, match="non-trainable"):
            mlp_forward(pair.teacher_encoder, x, grad=True)
