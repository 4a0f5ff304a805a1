"""Reference for the per-sample losses before they became 1-row batch calls.

``anchor_distribution``, ``anchor_cross_entropy``, ``isd_loss``,
``moco_loss`` and ``byol_loss`` kept verbatim, on 1-D queries through the
per-op graph (matrix-vector product, vector ``l2_normalize``,
``softmax``/``log_softmax``, ``neg``). The only edits are that the removed
ops come from :mod:`graph_ops` and ``detach()`` is its function. The
library's 1-row forms must agree with these to rounding.
"""

import numpy as np

from oracles import graph_ops as G
from oracles import tape as T
from oracles.tape import Tensor
from simdistill.errors import ContractError, DegenerateDistributionError, ShapeError
from simdistill.tensor import unit_rows


def _check_anchors(query_dim: int, anchors: Tensor) -> np.ndarray:
    rows = anchors.data
    if rows.ndim != 2:
        raise ShapeError(f"anchors must be a [n, d] matrix, got shape {rows.shape}")
    if rows.shape[0] < 2:
        raise DegenerateDistributionError(
            f"need at least 2 anchors for a similarity distribution, got {rows.shape[0]}"
        )
    if rows.shape[1] != query_dim:
        raise ShapeError(f"anchor width {rows.shape[1]} does not match query dim {query_dim}")
    return unit_rows(rows)


def anchor_distribution(query: Tensor, anchors: Tensor, tau: float) -> Tensor:
    """Softmax over cosine(query, anchor_i) / tau; differentiable in the query.

    Anchor rows are treated as constants and normalised internally, so the
    result is invariant to positive rescaling of any input.
    """
    if tau <= 0:
        raise ContractError(f"temperature must be positive, got {tau}")
    if query.data.ndim != 1:
        raise ShapeError(f"query must be a vector, got shape {query.data.shape}")
    units = _check_anchors(query.data.shape[0], anchors)
    q = G.l2_normalize(query)
    logits = T.mul(G.matmul(Tensor(units), q), 1.0 / tau)
    return G.softmax(logits)


def anchor_cross_entropy(target: np.ndarray, query: Tensor, anchors: Tensor, tau: float) -> Tensor:
    """-sum_i target_i * log p_query(i) with target held constant.

    The log-probabilities are computed via log-softmax directly, which
    stays finite even at sharp temperatures where softmax entries underflow.
    """
    if tau <= 0:
        raise ContractError(f"temperature must be positive, got {tau}")
    units = _check_anchors(query.data.shape[0], anchors)
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (units.shape[0],):
        raise ShapeError(f"target shape {target.shape} does not match anchor count {units.shape[0]}")
    q = G.l2_normalize(query)
    logits = T.mul(G.matmul(Tensor(units), q), 1.0 / tau)
    logp = G.log_softmax(logits)
    return G.neg(T.tensor_sum(T.mul(logp, Tensor(target))))


def isd_loss(q_t_emb: Tensor, q_s_pred: Tensor, anchors: Tensor, tau: float) -> Tensor:
    """Cross entropy from the teacher's anchor distribution to the student's.

    Equals KL(p_t || p_s) + H(p_t); since p_t is constant with respect to
    the student, the gradients of the two formulations are identical.
    Gradient flows only through ``q_s_pred``.
    """
    if q_t_emb.data.shape != q_s_pred.data.shape:
        raise ShapeError(
            f"teacher and student embeddings disagree: {q_t_emb.data.shape} vs {q_s_pred.data.shape}"
        )
    p_t = anchor_distribution(G.detach(q_t_emb), G.detach(anchors), tau)
    return anchor_cross_entropy(p_t.data, q_s_pred, G.detach(anchors), tau)


def moco_loss(q_emb: Tensor, pos_emb: Tensor, anchors: Tensor, tau: float) -> Tensor:
    """InfoNCE: (n+1)-way cross entropy against one-hot at the positive key.

    The positive embedding is prepended to the anchor set; both are
    detached, so only the query receives gradient.
    """
    if q_emb.data.shape != pos_emb.data.shape:
        raise ShapeError(f"query and positive shapes disagree: {q_emb.data.shape} vs {pos_emb.data.shape}")
    pos_unit = unit_rows(pos_emb.data.reshape(1, -1))
    units = _check_anchors(q_emb.data.shape[0], anchors)
    extended = Tensor(np.concatenate([pos_unit, units], axis=0))
    onehot = np.zeros(extended.data.shape[0])
    onehot[0] = 1.0
    return anchor_cross_entropy(onehot, q_emb, extended, tau)


def byol_loss(q_s_pred: Tensor, q_t_emb: Tensor) -> Tensor:
    """Normalized-MSE regression: 2 - 2*cos(student prediction, teacher embedding).

    Non-symmetric (one direction per step); the teacher side is detached.
    """
    if q_s_pred.data.shape != q_t_emb.data.shape:
        raise ShapeError(f"embedding shapes disagree: {q_s_pred.data.shape} vs {q_t_emb.data.shape}")
    t_unit = Tensor(unit_rows(q_t_emb.data.reshape(1, -1))[0])
    q = G.l2_normalize(q_s_pred)
    cos = T.tensor_sum(T.mul(q, t_unit))
    return G.add(T.mul(cos, -2.0), Tensor(2.0))
