"""The three training objectives over embeddings and anchor snapshots.

Similarity distillation: the teacher's softmax distribution of cosine
similarities between a query view and the anchor set is the target for
the student's distribution of its own view against the same anchors.
Minimising the cross entropy H(p_t, p_s) is gradient-equivalent to
minimising KL(p_t || p_s), because the teacher side is constant.

Replacing p_t with a one-hot vector at a query key prepended to the
anchors turns the same cross entropy into the InfoNCE contrastive loss;
regressing the teacher embedding directly gives the bootstrap baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, DegenerateDistributionError, ShapeError
from .tensor import Tensor

OBJECTIVES = ("isd", "moco", "byol")


@dataclass(frozen=True)
class LossConfig:
    """Objective selection and temperature (ignored by byol)."""

    objective: str = "isd"
    temperature: float = 0.02

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ContractError(f"LossConfig: unknown objective {self.objective!r}")
        if self.objective != "byol" and self.temperature <= 0:
            raise ContractError("LossConfig: temperature must be positive")


def _unit_rows(a: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    norms = np.linalg.norm(a, axis=1, keepdims=True)
    return a / np.maximum(norms, eps)


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
    return _unit_rows(rows)


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
    q = T.l2_normalize(query)
    logits = T.mul(T.matmul(Tensor(units), q), 1.0 / tau)
    return T.softmax(logits)


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
    q = T.l2_normalize(query)
    logits = T.mul(T.matmul(Tensor(units), q), 1.0 / tau)
    logp = T.log_softmax(logits)
    return T.neg(T.tensor_sum(T.mul(logp, Tensor(target))))


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
    p_t = anchor_distribution(q_t_emb.detach(), anchors.detach(), tau)
    return anchor_cross_entropy(p_t.data, q_s_pred, anchors.detach(), tau)


def moco_loss(q_emb: Tensor, pos_emb: Tensor, anchors: Tensor, tau: float) -> Tensor:
    """InfoNCE: (n+1)-way cross entropy against one-hot at the positive key.

    The positive embedding is prepended to the anchor set; both are
    detached, so only the query receives gradient.
    """
    if q_emb.data.shape != pos_emb.data.shape:
        raise ShapeError(f"query and positive shapes disagree: {q_emb.data.shape} vs {pos_emb.data.shape}")
    pos_unit = _unit_rows(pos_emb.data.reshape(1, -1))
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
    t_unit = Tensor(_unit_rows(q_t_emb.data.reshape(1, -1))[0])
    q = T.l2_normalize(q_s_pred)
    cos = T.tensor_sum(T.mul(q, t_unit))
    return T.add(T.mul(cos, -2.0), Tensor(2.0))


def distribution_entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of one distribution or of each matrix row (nats)."""
    p = np.asarray(p, dtype=np.float64)
    terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    return -terms.sum(axis=-1)


# Batch forms used by the training loop. Each matches the mean of the
# per-sample loss over the rows of its inputs (asserted in tests).

def _anchor_softmax(queries: np.ndarray, units: np.ndarray, tau: float) -> np.ndarray:
    qs = _unit_rows(np.asarray(queries, dtype=np.float64))
    logits = qs @ units.T / tau
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def anchor_distribution_batch(queries: np.ndarray, anchors: np.ndarray, tau: float) -> np.ndarray:
    """Row-wise anchor distributions for a [b, d] block of constant queries."""
    if tau <= 0:
        raise ContractError(f"temperature must be positive, got {tau}")
    return _anchor_softmax(queries, _unit_rows(np.asarray(anchors, dtype=np.float64)), tau)


def _anchor_cross_entropy(targets: np.ndarray, queries: Tensor, units: np.ndarray,
                          tau: float) -> Tensor:
    targets = np.asarray(targets, dtype=np.float64)
    b = queries.data.shape[0]
    if targets.shape != (b, units.shape[0]):
        raise ShapeError(f"target block {targets.shape} does not match [{b}, {units.shape[0]}]")
    qs = T.l2_normalize(queries)
    logits = T.mul(T.matmul(qs, Tensor(units.T)), 1.0 / tau)
    return T.soft_cross_entropy(logits, targets)


def anchor_cross_entropy_batch(targets: np.ndarray, queries: Tensor, anchors: Tensor,
                               tau: float) -> Tensor:
    """Mean over rows of -sum_i target_i log p_row(i)."""
    if tau <= 0:
        raise ContractError(f"temperature must be positive, got {tau}")
    return _anchor_cross_entropy(targets, queries, _unit_rows(anchors.data), tau)


def isd_loss_batch(q_t_emb: np.ndarray, q_s_pred: Tensor, anchors: Tensor,
                   tau: float) -> tuple[Tensor, np.ndarray]:
    """Batch ISD loss plus the teacher distributions it was scored against.

    The anchors are normalised once; teacher and student logits share them.
    """
    if tau <= 0:
        raise ContractError(f"temperature must be positive, got {tau}")
    units = _unit_rows(anchors.data)
    p_t = _anchor_softmax(q_t_emb, units, tau)
    return _anchor_cross_entropy(p_t, q_s_pred, units, tau), p_t


def moco_loss_batch(q_emb: Tensor, pos_emb: np.ndarray, anchors: Tensor, tau: float) -> Tensor:
    """Batch InfoNCE: each row's positive is its own teacher embedding.

    The same cross entropy as ISD, against a one-hot target at column 0.
    """
    if tau <= 0:
        raise ContractError(f"temperature must be positive, got {tau}")
    units = _unit_rows(anchors.data)
    pos_units = Tensor(_unit_rows(np.asarray(pos_emb, dtype=np.float64)))
    b = q_emb.data.shape[0]
    qs = T.l2_normalize(q_emb)
    pos_logit = T.rowwise_dot(qs, pos_units)
    neg_logits = T.matmul(qs, Tensor(units.T))
    logits = T.mul(T.prepend_column(pos_logit, neg_logits), 1.0 / tau)
    onehot = np.zeros((b, units.shape[0] + 1))
    onehot[:, 0] = 1.0
    return T.soft_cross_entropy(logits, onehot)


def byol_loss_batch(q_s_pred: Tensor, q_t_emb: np.ndarray) -> Tensor:
    """Mean over rows of 2 - 2*cos(student prediction, teacher embedding)."""
    t_units = Tensor(_unit_rows(np.asarray(q_t_emb, dtype=np.float64)))
    b = q_s_pred.data.shape[0]
    qs = T.l2_normalize(q_s_pred)
    cos_sum = T.tensor_sum(T.rowwise_dot(qs, t_units))
    return T.add(T.mul(cos_sum, -2.0 / b), Tensor(2.0))
