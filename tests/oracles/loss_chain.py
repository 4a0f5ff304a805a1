"""Reference for the batch losses before ``soft_cross_entropy`` fused them.

``anchor_cross_entropy_batch`` and ``moco_loss_batch`` as they were, kept
verbatim: log_softmax, mul, sum, neg and a 1/b scale as five graph nodes.
The fused node must give bitwise the same value and gradient.
"""

import numpy as np

from oracles import graph_ops as G
from simdistill import tensor as T
from simdistill.errors import ContractError, ShapeError
from simdistill.losses import _unit_rows
from simdistill.tensor import Tensor


def anchor_cross_entropy_batch(targets: np.ndarray, queries: Tensor, anchors: Tensor,
                               tau: float) -> Tensor:
    """Mean over rows of -sum_i target_i log p_row(i)."""
    if tau <= 0:
        raise ContractError(f"temperature must be positive, got {tau}")
    units = _unit_rows(anchors.data)
    targets = np.asarray(targets, dtype=np.float64)
    b = queries.data.shape[0]
    if targets.shape != (b, units.shape[0]):
        raise ShapeError(f"target block {targets.shape} does not match [{b}, {units.shape[0]}]")
    qs = T.l2_normalize(queries)
    logits = T.mul(T.matmul(qs, Tensor(units.T)), 1.0 / tau)
    logp = G.log_softmax(logits)
    return T.mul(G.neg(T.tensor_sum(T.mul(logp, Tensor(targets)))), 1.0 / b)


def moco_loss_batch(q_emb: Tensor, pos_emb: np.ndarray, anchors: Tensor, tau: float) -> Tensor:
    """Batch InfoNCE: each row's positive is its own teacher embedding."""
    if tau <= 0:
        raise ContractError(f"temperature must be positive, got {tau}")
    units = _unit_rows(anchors.data)
    pos_units = Tensor(_unit_rows(np.asarray(pos_emb, dtype=np.float64)))
    b = q_emb.data.shape[0]
    qs = T.l2_normalize(q_emb)
    pos_logit = T.rowwise_dot(qs, pos_units)
    neg_logits = T.matmul(qs, Tensor(units.T))
    logits = T.mul(T.prepend_column(pos_logit, neg_logits), 1.0 / tau)
    logp = G.log_softmax(logits)
    onehot = np.zeros((b, units.shape[0] + 1))
    onehot[:, 0] = 1.0
    return T.mul(G.neg(T.tensor_sum(T.mul(logp, Tensor(onehot)))), 1.0 / b)
