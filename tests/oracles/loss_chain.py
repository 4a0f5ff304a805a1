"""Reference for the batch losses before each became one closed-form call.

``anchor_cross_entropy_batch`` and ``moco_loss_batch`` as they were before
``soft_cross_entropy`` fused their last five nodes (log_softmax, mul, sum,
neg and a 1/b scale), and ``byol_loss_batch`` as it was before the fused
objectives, kept verbatim except that the ops come from ``graph_ops`` and
the tape, and the anchors are an array, as the library now takes them. Each
records a per-op chain on a student ``Tensor``; ``tape.value_and_grad``
turns one into the library's (value, gradient) contract.
The fused BYOL objective must give bitwise the same value and gradient. The
fused ISD and MoCo objectives scale by 1/tau on the [b, d] blocks rather than
on the [b, K] logits, so they round differently: they must agree with these
chains to ``CHAIN_RTOL`` (see :func:`assert_close`).
"""

import numpy as np

from oracles import graph_ops as G
from oracles import tape as T
from oracles.tape import Tensor
from simdistill.errors import ContractError, ShapeError
from simdistill.tensor import unit_rows


# How far an ISD or MoCo node's value or gradient may lie from its chain's,
# relative to the larger of the chain's and the size of the terms it sums.
CHAIN_RTOL = 1e-12


def assert_close(got, want, scale=1.0, rtol=CHAIN_RTOL):
    """``got`` and ``want`` have one shape and differ by at most
    rtol * max(|want|, scale). A logit is up to 1/tau in size, so a loss or a
    gradient that cancels such terms is compared with ``scale`` 1/tau."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= rtol * max(np.abs(want).max(initial=0.0), scale)


def anchor_cross_entropy_batch(targets: np.ndarray, queries: Tensor, anchors: np.ndarray,
                               tau: float) -> Tensor:
    """Mean over rows of -sum_i target_i log p_row(i)."""
    if tau <= 0:
        raise ContractError(f"temperature must be positive, got {tau}")
    units = unit_rows(anchors)
    targets = np.asarray(targets, dtype=np.float64)
    b = queries.data.shape[0]
    if targets.shape != (b, units.shape[0]):
        raise ShapeError(f"target block {targets.shape} does not match [{b}, {units.shape[0]}]")
    qs = G.l2_normalize(queries)
    logits = T.mul(G.matmul(qs, Tensor(units.T)), 1.0 / tau)
    logp = G.log_softmax(logits)
    return T.mul(G.neg(T.tensor_sum(T.mul(logp, Tensor(targets)))), 1.0 / b)


def moco_loss_batch(q_emb: Tensor, pos_emb: np.ndarray, anchors: np.ndarray,
                    tau: float) -> Tensor:
    """Batch InfoNCE: each row's positive is its own teacher embedding."""
    if tau <= 0:
        raise ContractError(f"temperature must be positive, got {tau}")
    units = unit_rows(anchors)
    pos_units = Tensor(unit_rows(np.asarray(pos_emb, dtype=np.float64)))
    b = q_emb.data.shape[0]
    qs = G.l2_normalize(q_emb)
    pos_logit = G.rowwise_dot(qs, pos_units)
    neg_logits = G.matmul(qs, Tensor(units.T))
    logits = T.mul(G.prepend_column(pos_logit, neg_logits), 1.0 / tau)
    logp = G.log_softmax(logits)
    onehot = np.zeros((b, units.shape[0] + 1))
    onehot[:, 0] = 1.0
    return T.mul(G.neg(T.tensor_sum(T.mul(logp, Tensor(onehot)))), 1.0 / b)


def byol_loss_batch(q_s_pred: Tensor, q_t_emb: np.ndarray) -> Tensor:
    """Mean over rows of 2 - 2*cos(student prediction, teacher embedding)."""
    t_units = Tensor(unit_rows(np.asarray(q_t_emb, dtype=np.float64)))
    b = q_s_pred.data.shape[0]
    qs = G.l2_normalize(q_s_pred)
    cos_sum = T.tensor_sum(G.rowwise_dot(qs, t_units))
    return G.add(T.mul(cos_sum, -2.0 / b), Tensor(2.0))
