"""Reference for the graph ops that ``simdistill.tensor`` no longer carries.

``matmul`` and ``l2_normalize`` with their 1-D branches, ``softmax``,
``log_softmax``, ``sub``, ``neg`` and ``log``, kept verbatim as they were
before the per-sample losses became 1-row calls of the batch forms.
``detach`` was a ``Tensor`` method. ``add`` with its row-broadcast branch
and ``relu`` are verbatim as they were before a whole MLP became one graph
node. ``matmul`` and ``l2_normalize`` in their 2-D branches, and ``add``
in its same-shape branch, are also the library's ops of those names from
before each training objective became one graph node; ``rowwise_dot`` and
``prepend_column`` are verbatim from then. Each op records into the
reference tape, so ``oracles.tape.backward`` differentiates through it.
Tests build independent derivative paths (KL through softmax and log, the
unfused cross-entropy chain, the graph-fitted probe, the per-op MLP) from
these.
"""

import numpy as np

from oracles.tape import Tensor, _record
from simdistill.errors import ContractError, NumericDomainError, ShapeError
from simdistill.tensor import _check_finite


def detach(t: Tensor) -> Tensor:
    """Constant view of this tensor's values, severed from any graph."""
    return Tensor(t.data)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product [r,k]x[k,c] -> [r,c], or matrix-vector [n,d]x[d] -> [n]."""
    ad, bd = a.data, b.data
    if ad.ndim == 2 and bd.ndim == 2:
        if ad.shape[1] != bd.shape[0]:
            raise ShapeError(f"matmul: inner dimensions disagree: {ad.shape} x {bd.shape}")
        out = ad @ bd

        def vjp(g):
            ga = g @ bd.T if a.requires_grad else None
            gb = ad.T @ g if b.requires_grad else None
            return ga, gb

    elif ad.ndim == 2 and bd.ndim == 1:
        if ad.shape[1] != bd.shape[0]:
            raise ShapeError(f"matmul: inner dimensions disagree: {ad.shape} x {bd.shape}")
        out = ad @ bd

        def vjp(g):
            ga = np.outer(g, bd) if a.requires_grad else None
            gb = ad.T @ g if b.requires_grad else None
            return ga, gb

    else:
        raise ShapeError(f"matmul: unsupported operand ranks: {ad.shape} x {bd.shape}")
    return _record(out, "matmul", (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also supports adding a row vector to every matrix row."""
    ad, bd = a.data, b.data
    if ad.shape == bd.shape:

        def vjp(g):
            return (g if a.requires_grad else None, g if b.requires_grad else None)

    elif ad.ndim == 2 and bd.ndim == 1 and ad.shape[1] == bd.shape[0]:

        def vjp(g):
            ga = g if a.requires_grad else None
            gb = g.sum(axis=0) if b.requires_grad else None
            return ga, gb

    else:
        raise ShapeError(f"add: incompatible shapes: {ad.shape} + {bd.shape}")
    return _record(ad + bd, "add", (a, b), vjp)


def rowwise_dot(a: Tensor, b: Tensor) -> Tensor:
    """Per-row dot product of two [b,d] matrices, giving a length-b vector."""
    ad, bd = a.data, b.data
    if ad.shape != bd.shape or ad.ndim != 2:
        raise ShapeError(f"rowwise_dot: need matching 2-D shapes: {ad.shape} vs {bd.shape}")

    def vjp(g):
        col = g[:, None]
        ga = col * bd if a.requires_grad else None
        gb = col * ad if b.requires_grad else None
        return ga, gb

    return _record((ad * bd).sum(axis=1), "rowwise_dot", (a, b), vjp)


def prepend_column(col: Tensor, m: Tensor) -> Tensor:
    """Concatenate a length-b vector as the first column of a [b,n] matrix."""
    cd, md = col.data, m.data
    if cd.ndim != 1 or md.ndim != 2 or cd.shape[0] != md.shape[0]:
        raise ShapeError(f"prepend_column: incompatible shapes: {cd.shape} and {md.shape}")

    def vjp(g):
        gc = g[:, 0] if col.requires_grad else None
        gm = g[:, 1:] if m.requires_grad else None
        return gc, gm

    return _record(np.concatenate([cd[:, None], md], axis=1), "prepend_column", (col, m), vjp)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def vjp(g):
        return (g * mask,)

    return _record(np.where(mask, a.data, 0.0), "relu", (a,), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        raise ShapeError(f"sub: incompatible shapes: {ad.shape} - {bd.shape}")

    def vjp(g):
        return (g if a.requires_grad else None, -g if b.requires_grad else None)

    return _record(ad - bd, "sub", (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    def vjp(g):
        return (-g,)

    return _record(-a.data, "neg", (a,), vjp)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise NumericDomainError("log: input has non-positive entries")
    ad = a.data

    def vjp(g):
        return (g / ad,)

    return _record(np.log(ad), "log", (a,), vjp)


def l2_normalize(a: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale a vector (or each matrix row) to unit L2 norm.

    The divisor is max(norm, eps), so inputs below eps pass through scaled
    by 1/eps instead of dividing by zero; there the map is exactly linear.
    """
    if eps <= 0:
        raise ContractError("l2_normalize: eps must be positive")
    ad = a.data
    if ad.ndim == 1:
        r = float(np.linalg.norm(ad))
        denom = max(r, eps)
        out = ad / denom

        def vjp(g):
            if r < eps:
                return (g / eps,)
            return ((g - out * float(out @ g)) / denom,)

    elif ad.ndim == 2:
        r = np.linalg.norm(ad, axis=1)
        denom = np.maximum(r, eps)
        out = ad / denom[:, None]
        big = (r >= eps)[:, None]

        def vjp(g):
            dots = (out * g).sum(axis=1, keepdims=True)
            return (np.where(big, (g - out * dots) / denom[:, None], g / eps),)

    else:
        raise ShapeError(f"l2_normalize: need a vector or matrix, got shape {ad.shape}")
    return _record(out, "l2_normalize", (a,), vjp)


def softmax(a: Tensor) -> Tensor:
    """Softmax over a vector, or over each row of a matrix.

    Computed with max subtraction so large logits cannot overflow.
    """
    ad = a.data
    _check_finite("softmax", ad)
    if ad.ndim == 1:
        z = ad - ad.max()
        e = np.exp(z)
        s = e / e.sum()

        def vjp(g):
            return (s * (g - float(g @ s)),)

    elif ad.ndim == 2:
        z = ad - ad.max(axis=1, keepdims=True)
        e = np.exp(z)
        s = e / e.sum(axis=1, keepdims=True)

        def vjp(g):
            return (s * (g - (g * s).sum(axis=1, keepdims=True)),)

    else:
        raise ShapeError(f"softmax: need a vector or matrix, got shape {ad.shape}")
    return _record(s, "softmax", (a,), vjp)


def log_softmax(a: Tensor) -> Tensor:
    """Log of softmax, computed directly for numerical stability."""
    ad = a.data
    _check_finite("log_softmax", ad)
    if ad.ndim == 1:
        z = ad - ad.max()
        lse = np.log(np.exp(z).sum())
        out = z - lse
        s = np.exp(out)

        def vjp(g):
            return (g - s * g.sum(),)

    elif ad.ndim == 2:
        z = ad - ad.max(axis=1, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
        out = z - lse
        s = np.exp(out)

        def vjp(g):
            return (g - s * g.sum(axis=1, keepdims=True),)

    else:
        raise ShapeError(f"log_softmax: need a vector or matrix, got shape {ad.shape}")
    return _record(out, "log_softmax", (a,), vjp)
