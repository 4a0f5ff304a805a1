"""Reference for the MLP forward pass, SGD and EMA before the flat buffers.

``mlp_forward`` is the per-op graph: matmul, bias add and relu nodes per
layer and an l2_normalize node, with each layer view a separate leaf.
``sgd_step`` and ``ema_update`` are the loops the trainer ran over the ten
layer views, with a temporary array per operation. All three are verbatim,
except that the graph ops now come from ``graph_ops`` and ``sgd_step``
reads each parameter's grad buffer, as the library's does. The layer
views' grad buffers are views into the network's flat grad buffer, so
``backward`` through this graph fills the same buffer that the fused node
does, and the trainer runs unchanged with these patched in.
"""

from oracles import graph_ops as G
from simdistill.errors import ContractError, ShapeError
from simdistill.nn import MlpParams, ModelPair, SgdState
from simdistill.tensor import Tensor


def mlp_forward(params: MlpParams, x: Tensor) -> Tensor:
    """Run a [b, d_in] batch through the MLP.

    Builds a differentiation graph only when the parameters (or input)
    are trainable, so teacher-side passes stay constant by construction.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"mlp_forward: need a [batch, features] input, got {x.data.shape}")
    if x.data.shape[1] != params.spec.input_dim:
        raise ShapeError(
            f"mlp_forward: input width {x.data.shape[1]} does not match "
            f"spec width {params.spec.input_dim}"
        )
    h = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = G.add(G.matmul(h, w), b)
        if i != last:
            h = G.relu(h)
    if params.spec.final_normalize:
        h = G.l2_normalize(h)
    return h


def sgd_step(params: list[Tensor], state: SgdState) -> None:
    """In-place update: v <- momentum*v + (grad + wd*theta); theta <- theta - lr*v.

    ``grad`` is each parameter's own grad buffer. Teacher (non-trainable)
    parameters are rejected.
    """
    grads = [p.grad for p in params]
    if len(grads) != len(params) or len(state.velocities) != len(params):
        raise ShapeError("sgd_step: params, grads and velocities must align")
    for p, g, v in zip(params, grads, state.velocities):
        if not p.requires_grad:
            raise ContractError("sgd_step: refusing to update a non-trainable (teacher) parameter")
        if g is None or g.shape != p.data.shape or v.shape != p.data.shape:
            raise ShapeError(f"sgd_step: buffer shape mismatch for parameter {p.data.shape}")
        v *= state.momentum
        v += g + state.weight_decay * p.data
        p.data -= state.lr * v


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
