"""Encoder and prediction-head MLPs, SGD with momentum, EMA teacher update.

The desk-scale encoder is an MLP ending in row-wise L2 normalization, so
its outputs can feed cosine-similarity losses directly (no projection
layer). The student additionally owns a small prediction head; the teacher
is a non-trainable copy of the student encoder updated only by EMA.

Each network keeps its parameters in one flat buffer, and its forward pass
with a gradient returns a closed-form vjp that writes the network's whole
gradient into one flat buffer, so a training step's SGD and EMA are a few
whole-buffer operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths for an MLP: input, hidden..., embedding dim.

    Rectified-linear activations sit between layers, none after the last.
    With ``final_normalize`` every output row is scaled to unit L2 norm.
    """

    layer_widths: tuple[int, ...]
    final_normalize: bool = False

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2:
            raise ContractError("MlpSpec: need at least input and output widths")
        if any(w < 1 for w in widths):
            raise ContractError(f"MlpSpec: widths must be positive, got {widths}")
        if widths[-1] < 2:
            raise ContractError("MlpSpec: embedding dim must be at least 2")

    @property
    def input_dim(self) -> int:
        return self.layer_widths[0]

    @property
    def output_dim(self) -> int:
        return self.layer_widths[-1]

    @property
    def parameter_shapes(self) -> list[tuple[int, ...]]:
        """Shapes of w0, b0, w1, b1, ...: the order of the flat parameter buffer."""
        widths = self.layer_widths
        return [shape for fan_in, fan_out in zip(widths[:-1], widths[1:])
                for shape in ((fan_in, fan_out), (fan_out,))]

    @property
    def num_parameters(self) -> int:
        return sum(math.prod(shape) for shape in self.parameter_shapes)


def split_buffer(buffer: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive row-major views of a 1-D buffer, one per shape, covering all of it."""
    sizes = [math.prod(shape) for shape in shapes]
    if buffer.ndim != 1 or sum(sizes) != buffer.shape[0]:
        raise ShapeError(f"split_buffer: a buffer of shape {buffer.shape} does not hold "
                         f"{sum(sizes)} values")
    views, start = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(buffer[start:start + size].reshape(shape))
        start += size
    return views


@dataclass
class ParamView:
    """One layer's weight or bias and its gradient: views into its network's flat
    buffers (no gradient for a non-trainable network)."""

    data: np.ndarray
    grad: np.ndarray | None


class MlpParams:
    """Weights and biases of one MLP, all held in one flat float64 buffer.

    ``data`` holds w0, b0, w1, b1, ... back to back, each row-major. A
    trainable network's ``grad`` has the same layout and is written whole, in
    place, by each vjp of :func:`mlp_forward`; a non-trainable one (the
    teacher) has no gradient buffer. ``weights``, ``biases`` and
    :meth:`parameters` are per-layer views into both, so a write through
    either side shows on the other.
    """

    def __init__(self, spec: MlpSpec, buffer: np.ndarray, trainable: bool = True):
        buffer = np.asarray(buffer, dtype=np.float64)
        if not buffer.flags.c_contiguous:
            raise ShapeError("MlpParams: the parameter buffer must be contiguous")
        self.spec = spec
        self.trainable = trainable
        self.data = buffer
        # calloc: a buffer costs no RSS until the first vjp writes it
        self.grad = np.zeros(buffer.shape) if trainable else None
        shapes = spec.parameter_shapes
        grads = split_buffer(self.grad, shapes) if trainable else [None] * len(shapes)
        layers = [ParamView(*views) for views in zip(split_buffer(buffer, shapes), grads)]
        self.weights = layers[0::2]
        self.biases = layers[1::2]

    def parameters(self) -> list[ParamView]:
        """Per-layer views in buffer order: w0, b0, w1, b1, ..."""
        return [t for layer in zip(self.weights, self.biases) for t in layer]

    def copy(self, trainable: bool) -> "MlpParams":
        """Deep copy into a buffer of its own."""
        return MlpParams(self.spec, self.data.copy(), trainable)


def init_params(spec: MlpSpec, seed) -> MlpParams:
    """Initialise an MLP: weights uniform in +-1/sqrt(fan_in), biases zero.

    Deterministic for a given seed; the seed may be an int or a sequence
    of ints (a numpy SeedSequence entropy list).
    """
    rng = np.random.default_rng(seed)
    params = MlpParams(spec, np.zeros(spec.num_parameters))
    for w in params.weights:
        limit = 1.0 / math.sqrt(w.data.shape[0])
        w.data[...] = rng.uniform(-limit, limit, size=w.data.shape)
    return params


def mlp_forward(params: MlpParams, x: np.ndarray, grad: bool = False):
    """Run a [b, d_in] batch through the MLP; return its output, and with
    ``grad`` also the network's vjp.

    ``vjp(g)`` takes the gradient on the output, writes the network's whole
    gradient into every element of ``params.grad`` and returns the gradient
    on the input (``input_grad=False`` skips it). It walks the layers in
    closed form, in the operation order of the per-op matmul, bias-add,
    rectifier and l2_normalize chain, so values and gradients are bitwise
    that chain's: each sum starts at +0.0, so no -0.0 reaches an activation or
    a gradient. Without ``grad`` (teacher, evaluation) the rows are
    normalised through ``unit_rows`` and no activation, mask or vjp is kept.
    A non-trainable network (the teacher) refuses ``grad``.
    """
    if grad and not params.trainable:
        raise ContractError("mlp_forward: a non-trainable (teacher) network takes no gradient")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"mlp_forward: need a [batch, features] input, got {x.shape}")
    if x.shape[1] != params.spec.input_dim:
        raise ShapeError(
            f"mlp_forward: input width {x.shape[1]} does not match "
            f"spec width {params.spec.input_dim}"
        )
    weights = [w.data for w in params.weights]
    last = len(weights) - 1
    inputs = []     # each layer's input; a rectified one is > 0 exactly where its mask is
    h = x
    for i, (w, b) in enumerate(zip(weights, params.biases)):
        if grad:
            inputs.append(h)
        h = h @ w
        h += b.data
        if i != last:
            # np.where(h > 0, h, 0.0) bit for bit, NaN included, as h holds no -0.0
            np.fmax(h, 0.0, out=h)
    if not grad:
        return T.unit_rows(h) if params.spec.final_normalize else h
    if params.spec.final_normalize:
        h, normalize_vjp = T.l2_rows(h)

    def vjp(g, input_grad=True):
        if params.spec.final_normalize:
            g = normalize_vjp(g)
        for i in range(last, -1, -1):
            # each layer's gradient is written straight into its views of the flat one
            np.add.reduce(g, axis=0, out=params.biases[i].grad)
            np.matmul(inputs[i].T, g, out=params.weights[i].grad)
            if i:
                g = g @ weights[i].T
                g *= inputs[i] > 0
        return g @ weights[0].T if input_grad else None

    return h, vjp


@dataclass
class SgdState:
    """SGD-with-momentum state: one velocity buffer per parameter array.

    The trainer's arrays are whole networks (``MlpParams.data``), so it keeps
    one velocity buffer per network.
    """

    lr: float
    momentum: float = 0.9
    weight_decay: float = 1e-4
    velocities: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if self.lr < 0:
            raise ContractError("SgdState: lr must be non-negative")

    @staticmethod
    def for_params(params: list, lr: float, momentum: float = 0.9,
                   weight_decay: float = 1e-4) -> "SgdState":
        state = SgdState(lr=lr, momentum=momentum, weight_decay=weight_decay)
        state.velocities = [np.zeros_like(p.data) for p in params]
        return state


def sgd_step(networks: list[MlpParams], state: SgdState) -> None:
    """In-place update: v <- momentum*v + (grad + wd*theta); theta <- theta - lr*v.

    theta and grad are each network's flat ``data`` and ``grad``. The formula's
    operations run in place through one temporary per network. They are
    elementwise, so each network gets bitwise the values that a loop over its
    layer views would. A non-trainable network (the teacher) is rejected.
    """
    if len(state.velocities) != len(networks):
        raise ShapeError("sgd_step: networks and velocities must align")
    for p, v in zip(networks, state.velocities):
        if not p.trainable:
            raise ContractError("sgd_step: refusing to update a non-trainable (teacher) network")
        g = p.grad
        if g is None or g.shape != p.data.shape or v.shape != p.data.shape:
            raise ShapeError(f"sgd_step: buffer shape mismatch for network {p.data.shape}")
        step = p.data * state.weight_decay
        step += g
        v *= state.momentum
        v += step
        np.multiply(v, state.lr, out=step)
        p.data -= step


class ModelPair:
    """Student encoder + predictor and the EMA teacher encoder.

    The teacher shares the student encoder's architecture, is created as
    an exact copy at step 0, and is permanently non-trainable; only
    :func:`ema_update` may move it.
    """

    def __init__(self, student_encoder: MlpParams, student_predictor: MlpParams,
                 teacher_encoder: MlpParams, momentum: float):
        if not 0.0 <= momentum <= 1.0:
            raise ContractError(f"ModelPair: momentum must lie in [0, 1], got {momentum}")
        if teacher_encoder.spec != student_encoder.spec:
            raise ContractError("ModelPair: teacher and student encoder shapes differ")
        if teacher_encoder.trainable:
            raise ContractError("ModelPair: teacher must be non-trainable")
        if student_predictor.spec.input_dim != student_encoder.spec.output_dim:
            raise ShapeError("ModelPair: predictor input must match encoder embedding dim")
        self.student_encoder = student_encoder
        self.student_predictor = student_predictor
        self.teacher_encoder = teacher_encoder
        self.momentum = float(momentum)

    @staticmethod
    def create(encoder_spec: MlpSpec, predictor_spec: MlpSpec, momentum: float,
               seed: int) -> "ModelPair":
        encoder = init_params(encoder_spec, [seed, 0])
        predictor = init_params(predictor_spec, [seed, 1])
        teacher = encoder.copy(trainable=False)
        return ModelPair(encoder, predictor, teacher, momentum)

    def student_parameters(self) -> list[ParamView]:
        """Per-layer views of the student encoder, then of the predictor."""
        return self.student_encoder.parameters() + self.student_predictor.parameters()


def ema_update(pair: ModelPair) -> None:
    """theta_t <- m * theta_t + (1 - m) * theta_s, elementwise, in place.

    One operation over each network's flat buffer. m = 1 leaves the teacher
    bitwise untouched (frozen-teacher mode); m = 0 copies the student bitwise.
    """
    m = pair.momentum
    if m == 1.0:
        return
    t, s = pair.teacher_encoder.data, pair.student_encoder.data
    if m == 0.0:
        t[...] = s
    else:
        t *= m
        t += (1.0 - m) * s


def default_encoder_spec(input_dim: int) -> MlpSpec:
    """Desk-scale encoder: [input, 256, 128, 64] ending in L2 normalization."""
    return MlpSpec((input_dim, 256, 128, 64), final_normalize=True)


def default_predictor_spec(embed_dim: int, hidden: int = 64) -> MlpSpec:
    """Student prediction head: one hidden layer, output matching the embedding."""
    return MlpSpec((embed_dim, hidden, embed_dim), final_normalize=False)
