"""Reference for the MLP forward pass, SGD and EMA before the flat buffers.

``mlp_forward`` is the per-op graph: matmul, bias add and relu nodes per
layer and an l2_normalize node, with each layer view a separate leaf.
``sgd_step`` and ``ema_update`` are the loops the trainer ran over the
layer views, with a temporary array per operation. All three are verbatim,
except for the edits that fit them to the library's calls. The graph ops
come from ``graph_ops`` and record on the reference tape. ``mlp_forward``
takes and returns arrays and, with ``grad``, returns a vjp of the library's
contract: it zeroes the network's flat grad buffer, sweeps the tape into
leaves whose grad buffers are the layer views of it, and returns the input
gradient as a leaf collects it. ``sgd_step`` takes whole networks, as the
library's does, and loops over each network's layer views. So the trainer
runs unchanged with these patched in.
"""

import numpy as np

from oracles import graph_ops as G
from oracles import tape
from simdistill.errors import ContractError, ShapeError
from simdistill.nn import MlpParams, ModelPair, SgdState, split_buffer


def layer_leaves(params: MlpParams) -> list[tape.Tensor]:
    """w0, b0, w1, b1, ... as tape leaves whose data and grad are the layer views
    of the network's flat buffers; a network without a grad buffer gives constants."""
    leaves = []
    for view in params.parameters():
        leaves.append(tape.Tensor(view.data, requires_grad=params.trainable))
        leaves[-1].grad = view.grad
    return leaves


def mlp_forward(params: MlpParams, x: np.ndarray, grad: bool = False):
    """Run a [b, d_in] batch through the MLP.

    Builds a differentiation graph only when ``grad`` is asked for, so
    teacher-side passes stay constant by construction.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"mlp_forward: need a [batch, features] input, got {x.shape}")
    if x.shape[1] != params.spec.input_dim:
        raise ShapeError(
            f"mlp_forward: input width {x.shape[1]} does not match "
            f"spec width {params.spec.input_dim}"
        )
    leaves = layer_leaves(params)
    inp = tape.Tensor(x, requires_grad=grad)
    h = inp
    last = len(leaves) // 2 - 1
    for i, (w, b) in enumerate(zip(leaves[0::2], leaves[1::2])):
        h = G.add(G.matmul(h, w), b)
        if i != last:
            h = G.relu(h)
    if params.spec.final_normalize:
        h = G.l2_normalize(h)
    if not grad:
        return h.data

    def vjp(g, input_grad=True):
        for leaf in leaves:
            if leaf.requires_grad:
                leaf.zero_grad()
        inp.grad = None
        tape.backward(h, g)
        return inp.grad if input_grad else None

    return h.data, vjp


def sgd_step(networks: list[MlpParams], state: SgdState) -> None:
    """In-place update: v <- momentum*v + (grad + wd*theta); theta <- theta - lr*v.

    ``grad`` is each network's own grad buffer. Teacher (non-trainable)
    networks are rejected.
    """
    if len(state.velocities) != len(networks):
        raise ShapeError("sgd_step: params, grads and velocities must align")
    for net, velocity in zip(networks, state.velocities):
        if not net.trainable:
            raise ContractError("sgd_step: refusing to update a non-trainable (teacher) parameter")
        if net.grad is None or net.grad.shape != net.data.shape or velocity.shape != net.data.shape:
            raise ShapeError(f"sgd_step: buffer shape mismatch for parameter {net.data.shape}")
        for view, v in zip(net.parameters(), split_buffer(velocity, net.spec.parameter_shapes)):
            v *= state.momentum
            v += view.grad + state.weight_decay * view.data
            view.data -= state.lr * v


def ema_update(pair: ModelPair) -> None:
    """theta_t <- m * theta_t + (1 - m) * theta_s, elementwise, in place.

    m = 1 leaves the teacher bitwise untouched (frozen-teacher mode);
    m = 0 copies the student bitwise.
    """
    m = pair.momentum
    if m == 1.0:
        return
    for t, s in zip(pair.teacher_encoder.parameters(), pair.student_encoder.parameters()):
        if m == 0.0:
            t.data[...] = s.data
        else:
            t.data[...] = m * t.data + (1.0 - m) * s.data
