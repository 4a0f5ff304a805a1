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
from .errors import ContractError, DegenerateDistributionError, NumericDomainError, ShapeError
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


def _row(v: Tensor) -> Tensor:
    """A 1-D embedding as a [1, d] block, through one reshape node."""
    if v.data.ndim != 1:
        raise ShapeError(f"query must be a vector, got shape {v.data.shape}")
    return T.reshape(v, (1, v.data.shape[0]))


def anchor_distribution(query: Tensor, anchors: Tensor, tau: float) -> Tensor:
    """Softmax over cosine(query, anchor_i) / tau, as a constant.

    The one-row case of :func:`anchor_distribution_batch`. Anchor rows are
    normalised internally, so the result is invariant to positive rescaling
    of any input.
    """
    return Tensor(anchor_distribution_batch(_row(query).data, anchors.data, tau)[0])


def anchor_cross_entropy(target: np.ndarray, query: Tensor, anchors: Tensor, tau: float) -> Tensor:
    """-sum_i target_i * log p_query(i) with target held constant.

    The one-row case of :func:`anchor_cross_entropy_batch`.
    """
    target = np.asarray(target, dtype=np.float64)[None]
    return anchor_cross_entropy_batch(target, _row(query), anchors, tau)


def isd_loss(q_t_emb: Tensor, q_s_pred: Tensor, anchors: Tensor, tau: float) -> Tensor:
    """Cross entropy from the teacher's anchor distribution to the student's.

    Equals KL(p_t || p_s) + H(p_t); since p_t is constant with respect to
    the student, the gradients of the two formulations are identical.
    Gradient flows only through ``q_s_pred``. The one-row case of
    :func:`isd_loss_batch`.
    """
    return isd_loss_batch(_row(q_t_emb).data, _row(q_s_pred), anchors, tau)[0]


def moco_loss(q_emb: Tensor, pos_emb: Tensor, anchors: Tensor, tau: float) -> Tensor:
    """InfoNCE: (n+1)-way cross entropy against one-hot at the positive key.

    The positive embedding is prepended to the anchor set; both are
    constants, so only the query receives gradient. The one-row case of
    :func:`moco_loss_batch`.
    """
    return moco_loss_batch(_row(q_emb), _row(pos_emb).data, anchors, tau)


def byol_loss(q_s_pred: Tensor, q_t_emb: Tensor) -> Tensor:
    """Normalized-MSE regression: 2 - 2*cos(student prediction, teacher embedding).

    Non-symmetric (one direction per step); the teacher side is constant.
    The one-row case of :func:`byol_loss_batch`.
    """
    return byol_loss_batch(_row(q_s_pred), _row(q_t_emb).data)


def distribution_entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of one distribution or of each matrix row (nats)."""
    p = np.asarray(p, dtype=np.float64)
    if p.size and p.min() > 0:
        # one log pass; the bytes of the form below, which also takes p_i = 0
        terms = np.log(p)
        terms *= p
    else:
        terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    return -terms.sum(axis=-1)


# The batch forms are the one implementation; training calls them directly.
# Each constant input is checked once per call, where it enters.

def _finite(name: str, block) -> np.ndarray:
    block = np.asarray(block, dtype=np.float64)
    if not np.all(np.isfinite(block)):
        raise NumericDomainError(f"{name} contain NaN or Inf")
    return block


def _teacher_block(name: str, block, student_shape: tuple[int, ...]) -> np.ndarray:
    """A constant [b, d] block that must match the student's block and be finite."""
    block = _finite(name, block)
    if len(student_shape) != 2 or block.shape != student_shape:
        raise ShapeError(f"{name} {block.shape} and student block {student_shape} "
                         f"must be equal [b, d] shapes")
    return block


def _student_rows(block: Tensor):
    """``l2_rows`` of a finite student block: its unit rows and the map's vjp."""
    return T.l2_rows(_finite("student rows", block.data))


def _anchor_units(anchors: np.ndarray, query_shape: tuple[int, ...], tau: float) -> np.ndarray:
    """Unit anchor rows for a [b, d] query block: at least 2 finite rows of width d."""
    if not (tau > 0 and np.isfinite(1.0 / tau)):    # also rejects NaN, and 1/tau overflowing
        raise ContractError(f"temperature must be positive with a finite inverse, got {tau}")
    if len(query_shape) != 2:
        raise ShapeError(f"queries must be a [b, d] block, got shape {query_shape}")
    rows = _finite("anchors", anchors)
    if rows.ndim != 2:
        raise ShapeError(f"anchors must be a [n, d] matrix, got shape {rows.shape}")
    if rows.shape[0] < 2:
        raise DegenerateDistributionError(
            f"need at least 2 anchors for a similarity distribution, got {rows.shape[0]}"
        )
    if rows.shape[1] != query_shape[1]:
        raise ShapeError(f"anchor width {rows.shape[1]} does not match query dim {query_shape[1]}")
    return T.unit_rows(rows)


def _anchor_softmax(queries: np.ndarray, units: np.ndarray, tau: float) -> np.ndarray:
    p = T.unit_rows(queries) @ units.T
    p /= tau
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p


def anchor_distribution_batch(queries: np.ndarray, anchors: np.ndarray, tau: float) -> np.ndarray:
    """Row-wise anchor distributions for a [b, d] block of constant queries."""
    queries = _finite("queries", queries)
    return _anchor_softmax(queries, _anchor_units(anchors, queries.shape, tau), tau)


def _soft_cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Mean over rows of -sum_i targets_i * log_softmax(logits)_i, and its vjp on arrays.

    The vjp is the closed form (softmax - targets)/b generalised to rows that
    need not sum to one. Value and gradient repeat the operation order of
    log_softmax, mul, sum, neg and a 1/b scale, so they are bitwise those of
    that chain of graph nodes. ``logits`` is consumed: it is overwritten with
    the log-probabilities, so callers pass a temporary.
    """
    T._check_finite("soft_cross_entropy", logits)
    scale = 1.0 / logits.shape[0]
    logp = logits
    logp -= logp.max(axis=1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))

    def vjp(g):
        gt = targets * float(-(g * scale))
        e = np.exp(logp)
        e *= gt.sum(axis=1, keepdims=True)
        return np.subtract(gt, e, out=gt)

    return np.asarray(-(logp * targets).sum()) * scale, vjp


# Each objective below is one graph node whose only parent is the student
# block. Its vjp runs the operations of the per-op chain it replaced
# (tests/oracles/loss_chain.py) in that chain's order, so loss and gradient
# are bitwise the chain's.

def _anchor_cross_entropy(targets: np.ndarray, queries: Tensor, units: np.ndarray,
                          tau: float) -> Tensor:
    b = queries.data.shape[0]
    if targets.shape != (b, units.shape[0]):
        raise ShapeError(f"target block {targets.shape} does not match [{b}, {units.shape[0]}]")
    c = 1.0 / tau
    qs, normalize_vjp = _student_rows(queries)
    logits = qs @ units.T
    logits *= c
    value, ce_vjp = _soft_cross_entropy(logits, targets)

    def vjp(g):
        g = ce_vjp(g)
        g *= c
        return (normalize_vjp(g @ units),)

    return T._record(value, "anchor_cross_entropy", (queries,), vjp)


def anchor_cross_entropy_batch(targets: np.ndarray, queries: Tensor, anchors: Tensor,
                               tau: float) -> Tensor:
    """Mean over rows of -sum_i target_i log p_row(i)."""
    units = _anchor_units(anchors.data, queries.data.shape, tau)
    return _anchor_cross_entropy(_finite("targets", targets), queries, units, tau)


def isd_loss_batch(q_t_emb: np.ndarray, q_s_pred: Tensor, anchors: Tensor,
                   tau: float) -> tuple[Tensor, np.ndarray]:
    """Batch ISD loss plus the teacher distributions it was scored against.

    The anchors are normalised once; teacher and student logits share them.
    """
    units = _anchor_units(anchors.data, q_s_pred.data.shape, tau)
    q_t_emb = _teacher_block("teacher embeddings", q_t_emb, q_s_pred.data.shape)
    p_t = _anchor_softmax(q_t_emb, units, tau)
    return _anchor_cross_entropy(p_t, q_s_pred, units, tau), p_t


def moco_loss_batch(q_emb: Tensor, pos_emb: np.ndarray, anchors: Tensor, tau: float) -> Tensor:
    """Batch InfoNCE: each row's positive is its own teacher embedding.

    The same cross entropy as ISD, against a one-hot target at column 0.
    """
    units = _anchor_units(anchors.data, q_emb.data.shape, tau)
    pos_units = T.unit_rows(_teacher_block("positive keys", pos_emb, q_emb.data.shape))
    b = q_emb.data.shape[0]
    c = 1.0 / tau
    qs, normalize_vjp = _student_rows(q_emb)
    logits = np.concatenate([(qs * pos_units).sum(axis=1)[:, None], qs @ units.T], axis=1)
    logits *= c
    onehot = np.zeros((b, units.shape[0] + 1))
    onehot[:, 0] = 1.0
    value, ce_vjp = _soft_cross_entropy(logits, onehot)

    def vjp(g):
        g = ce_vjp(g)
        g *= c
        return (normalize_vjp(g[:, 0][:, None] * pos_units + g[:, 1:] @ units),)

    return T._record(value, "moco_loss", (q_emb,), vjp)


def byol_loss_batch(q_s_pred: Tensor, q_t_emb: np.ndarray) -> Tensor:
    """Mean over rows of 2 - 2*cos(student prediction, teacher embedding)."""
    t_units = T.unit_rows(_teacher_block("teacher embeddings", q_t_emb, q_s_pred.data.shape))
    b = q_s_pred.data.shape[0]
    c = -2.0 / b
    qs, normalize_vjp = _student_rows(q_s_pred)
    value = np.asarray((qs * t_units).sum(axis=1).sum()) * c + np.asarray(2.0)
    return T._record(value, "byol_loss", (q_s_pred,),
                     lambda g: (normalize_vjp(np.full((b,), float(g * c))[:, None] * t_units),))
