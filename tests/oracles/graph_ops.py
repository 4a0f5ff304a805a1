"""Reference for the graph ops that ``simdistill.tensor`` no longer carries.

``matmul`` and ``l2_normalize`` with their 1-D branches, ``softmax``,
``log_softmax``, ``sub``, ``neg`` and ``log``, kept verbatim as they were
before the per-sample losses became 1-row calls of the batch forms.
``detach`` was a ``Tensor`` method. Each op records into the library's
graph, so ``simdistill.tensor.backward`` differentiates through it. Tests
build independent derivative paths (KL through softmax and log, the
unfused cross-entropy chain, the graph-fitted probe) from these.
"""

import numpy as np

from simdistill.errors import ContractError, NumericDomainError, ShapeError
from simdistill.tensor import Tensor, _check_finite, _record


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
