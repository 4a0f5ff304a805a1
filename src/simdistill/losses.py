"""The three training objectives over embeddings and anchor snapshots.

Similarity distillation: the teacher's softmax distribution of cosine
similarities between a query view and the anchor set is the target for
the student's distribution of its own view against the same anchors.
Minimising the cross entropy H(p_t, p_s) is gradient-equivalent to
minimising KL(p_t || p_s), because the teacher side is constant.

Replacing p_t with a one-hot vector at a query key prepended to the
anchors turns the same cross entropy into the InfoNCE contrastive loss;
regressing the teacher embedding directly gives the bootstrap baseline.

Each objective returns its value and, in closed form, the gradient of that
value with respect to the student block: the start of a step's backward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .bank import UnitAnchors
from .errors import ContractError, DegenerateDistributionError, NumericDomainError, ShapeError

OBJECTIVES = ("isd", "moco", "byol")


@dataclass(frozen=True)
class LossConfig:
    """Objective selection and temperature (ignored by byol)."""

    objective: str = "isd"
    temperature: float = 0.02

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ContractError(f"LossConfig: unknown objective {self.objective!r}")
        if self.objective != "byol":
            _check_temperature(self.temperature)


def _check_temperature(tau: float) -> None:
    if not (tau > 0 and math.isfinite(1.0 / float(tau))):    # also rejects NaN, and 1/tau overflowing
        raise ContractError(f"temperature must be positive with a finite inverse, got {tau}")


def distribution_entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of one distribution or of each matrix row (nats)."""
    p = np.asarray(p, dtype=np.float64)
    terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    return -terms.sum(axis=-1)


# Each objective takes a [b, d] block; a single query is a [1, d] block.
# Each constant input is an array, checked once per call, where it enters;
# anchors may instead be an AnchorBank's UnitAnchors, checked when each row
# entered the bank.

def _finite(name: str, block) -> np.ndarray:
    block = np.asarray(block, dtype=np.float64)
    if not np.isfinite(block).all():
        raise NumericDomainError(f"{name} contain NaN or Inf")
    return block


def _teacher_block(name: str, block, student_shape: tuple[int, ...]) -> np.ndarray:
    """A constant [b, d] block that must match the student's block and be finite."""
    block = _finite(name, block)
    if len(student_shape) != 2 or block.shape != student_shape:
        raise ShapeError(f"{name} {block.shape} and student block {student_shape} "
                         f"must be equal [b, d] shapes")
    return block


def _student_rows(block: np.ndarray):
    """``l2_rows`` of a finite student block: its unit rows and the map's vjp."""
    return T.l2_rows(_finite("student rows", block))


def _anchor_units(anchors: np.ndarray | UnitAnchors, query_shape: tuple[int, ...],
                  tau: float) -> np.ndarray:
    """Unit anchor rows for a [b, d] query block: at least 2 finite rows of width d.

    :class:`UnitAnchors` pass through as they are, since the bank checked each
    row finite, and unit-norm or zero, when it entered; any other anchors are
    checked and normalised here.
    """
    _check_temperature(tau)
    if len(query_shape) != 2:
        raise ShapeError(f"queries must be a [b, d] block, got shape {query_shape}")
    checked = isinstance(anchors, UnitAnchors)
    rows = anchors.rows if checked else _finite("anchors", anchors)
    if rows.ndim != 2:
        raise ShapeError(f"anchors must be a [n, d] matrix, got shape {rows.shape}")
    if rows.shape[0] < 2:
        raise DegenerateDistributionError(
            f"need at least 2 anchors for a similarity distribution, got {rows.shape[0]}"
        )
    if rows.shape[1] != query_shape[1]:
        raise ShapeError(f"anchor width {rows.shape[1]} does not match query dim {query_shape[1]}")
    return rows if checked else T.unit_rows(rows)


def _anchor_softmax(queries: np.ndarray, units: np.ndarray,
                    tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise softmax of the scaled cosines of queries and unit anchors, and
    each row's entropy H(p) = log sum e^z - sum p z, on the logits z shifted so
    that their row maximum is 0. Both terms are >= 0, since every z <= 0 and
    the sum holds e^0 = 1, so H is too; an entry p = 0 adds nothing."""
    qs = T.unit_rows(queries)
    qs *= 1.0 / tau     # on the [b, d] block, not the [b, K] logits
    z = qs @ units.T
    z -= z.max(axis=1, keepdims=True)
    p = np.exp(z)
    sums = p.sum(axis=1, keepdims=True)
    p *= 1.0 / sums     # a product with b reciprocals costs half a [b, K] division
    return p, np.log(sums[:, 0]) - np.einsum("ij,ij->i", p, z)


def anchor_distribution_batch(queries: np.ndarray, anchors: np.ndarray | UnitAnchors,
                              tau: float) -> np.ndarray:
    """Row-wise anchor distributions for a [b, d] block of constant queries."""
    queries = _finite("queries", queries)
    return _anchor_softmax(queries, _anchor_units(anchors, queries.shape, tau), tau)[0]


def _soft_cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over rows of -sum_i targets_i * log_softmax(logits)_i, and its gradient.

    The gradient is the closed form (softmax - targets)/b generalised to rows
    that need not sum to one. The value repeats the operation order of
    log_softmax, mul, sum, neg and a 1/b scale. The gradient reuses the exp
    block of the value rather than exponentiating the log-probabilities
    again, and folds the softmax's division by the row sums into its per-row
    factor. ``logits`` is consumed: it is overwritten with the
    log-probabilities, so callers pass a temporary.
    """
    T._check_finite("soft_cross_entropy", logits)
    scale = 1.0 / logits.shape[0]
    logp = logits
    logp -= logp.max(axis=1, keepdims=True)
    e = np.exp(logp)
    sums = e.sum(axis=1, keepdims=True)
    logp -= np.log(sums)
    value = float(-(logp * targets).sum() * scale)
    gt = targets * -scale
    # softmax * row sums of gt, as e * (row sums of gt / row sums of e)
    return value, np.subtract(gt, e * (gt.sum(axis=1, keepdims=True) / sums), out=gt)


def _times_units(g: np.ndarray, units: np.ndarray) -> np.ndarray:
    """``g @ units`` for a [b, K] gradient block, with K zero-padded to a multiple of 32.

    OpenBLAS splits this product's reduction over K differently at different
    thread counts unless K is a multiple of 32 (K = 984 after a default
    prefill), and so rounds it differently. The zeros add nothing, but the
    padded product may round unlike the unpadded one at small shapes.
    """
    pad = -units.shape[0] % 32
    if pad:
        g = np.pad(g, ((0, 0), (0, pad)))
        units = np.pad(units, ((0, pad), (0, 0)))
    return g @ units


# Each objective below returns its value and the student block's gradient, in
# the closed form of the per-op chain it replaced (tests/oracles/loss_chain.py).
# BYOL runs that chain's operations in its order, so its loss and gradient are
# bitwise the chain's. ISD and MoCo apply 1/tau to the [b, d] query block and
# to the [b, d] product with the anchors, not to the [b, K] logits and their
# gradient, so they agree with the chain to rounding.

def _anchor_cross_entropy(targets: np.ndarray, queries: np.ndarray, units: np.ndarray,
                          tau: float) -> tuple[float, np.ndarray]:
    b = queries.shape[0]
    if targets.shape != (b, units.shape[0]):
        raise ShapeError(f"target block {targets.shape} does not match [{b}, {units.shape[0]}]")
    c = 1.0 / tau
    qs, normalize_vjp = _student_rows(queries)
    value, g = _soft_cross_entropy((qs * c) @ units.T, targets)
    g = _times_units(g, units)
    g *= c
    return value, normalize_vjp(g)


def anchor_cross_entropy_batch(targets: np.ndarray, queries: np.ndarray,
                               anchors: np.ndarray | UnitAnchors,
                               tau: float) -> tuple[float, np.ndarray]:
    """Mean over rows of -sum_i target_i log p_row(i), and its gradient."""
    queries = np.asarray(queries, dtype=np.float64)
    units = _anchor_units(anchors, queries.shape, tau)
    return _anchor_cross_entropy(_finite("targets", targets), queries, units, tau)


def isd_loss_batch(q_t_emb: np.ndarray, q_s_pred: np.ndarray, anchors: np.ndarray | UnitAnchors,
                   tau: float) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Batch ISD loss, its gradient, the teacher distributions p_t it was scored
    against, and each row's entropy H(p_t), read off the teacher softmax.

    The unit anchors are found once; teacher and student logits share them.
    """
    q_s_pred = np.asarray(q_s_pred, dtype=np.float64)
    units = _anchor_units(anchors, q_s_pred.shape, tau)
    q_t_emb = _teacher_block("teacher embeddings", q_t_emb, q_s_pred.shape)
    p_t, h_t = _anchor_softmax(q_t_emb, units, tau)
    return *_anchor_cross_entropy(p_t, q_s_pred, units, tau), p_t, h_t


def moco_loss_batch(q_emb: np.ndarray, pos_emb: np.ndarray, anchors: np.ndarray | UnitAnchors,
                    tau: float) -> tuple[float, np.ndarray]:
    """Batch InfoNCE, and its gradient: each row's positive is its own teacher
    embedding.

    The same cross entropy as ISD, against a one-hot target at column 0.
    """
    q_emb = np.asarray(q_emb, dtype=np.float64)
    units = _anchor_units(anchors, q_emb.shape, tau)
    pos_units = T.unit_rows(_teacher_block("positive keys", pos_emb, q_emb.shape))
    b = q_emb.shape[0]
    c = 1.0 / tau
    qs, normalize_vjp = _student_rows(q_emb)
    qs = qs * c
    logits = np.empty((b, units.shape[0] + 1))     # the positive's column, then the anchors'
    logits[:, 0] = (qs * pos_units).sum(axis=1)
    np.matmul(qs, units.T, out=logits[:, 1:])
    onehot = np.zeros((b, units.shape[0] + 1))
    onehot[:, 0] = 1.0
    value, g = _soft_cross_entropy(logits, onehot)
    g = g[:, 0][:, None] * pos_units + _times_units(g[:, 1:], units)
    g *= c
    return value, normalize_vjp(g)


def byol_loss_batch(q_s_pred: np.ndarray, q_t_emb: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over rows of 2 - 2*cos(student prediction, teacher embedding), and
    its gradient."""
    q_s_pred = np.asarray(q_s_pred, dtype=np.float64)
    t_units = T.unit_rows(_teacher_block("teacher embeddings", q_t_emb, q_s_pred.shape))
    c = -2.0 / q_s_pred.shape[0]
    qs, normalize_vjp = _student_rows(q_s_pred)
    return float((qs * t_units).sum(axis=1).sum() * c + 2.0), normalize_vjp(t_units * c)
