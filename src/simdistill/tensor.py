"""Reverse-mode automatic differentiation over dense float64 arrays.

The operation set is deliberately small: enough for MLP encoders and
cosine-similarity softmax losses. Values live in numpy arrays; each
differentiable op records its inputs and a vector-Jacobian closure so
``backward`` can sweep the graph once in reverse topological order.
No broadcasting beyond row-wise bias addition is supported.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, NumericDomainError, ShapeError


class Tensor:
    """Dense float64 array with an optional gradient buffer and graph node.

    Leaf tensors created through :meth:`parameter` carry a zero-initialised
    ``grad`` buffer and take part in ``backward``. Tensors built by ops on
    non-differentiable inputs stay plain constants (no graph is recorded),
    which is how detached teacher-side quantities are kept out of the
    student's gradient.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op: str | None = None
        self.parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    @staticmethod
    def parameter(data) -> "Tensor":
        """Create a trainable leaf with an allocated zero gradient buffer."""
        t = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
        t.grad = np.zeros_like(t.data)
        return t

    @staticmethod
    def frozen(data) -> "Tensor":
        """Create a non-trainable leaf whose grad buffer stays all-zero."""
        t = Tensor(np.array(data, dtype=np.float64))
        t.grad = np.zeros_like(t.data)
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)

    def backward(self) -> None:
        backward(self)

    def sum(self) -> "Tensor":
        return tensor_sum(self)

    def mean(self) -> "Tensor":
        return mul(tensor_sum(self), 1.0 / self.data.size)

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __mul__(self, other) -> "Tensor":
        return mul(self, other)

    def __rmul__(self, other) -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __repr__(self) -> str:
        tag = f" op={self.op}" if self.op else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{tag})"


def _record(data: np.ndarray, op: str, parents: tuple, vjp) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.op = op
        out.parents = parents
        out._vjp = vjp
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product [r,k]x[k,c] -> [r,c]."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise ShapeError(f"matmul: need two matrices, got {ad.shape} x {bd.shape}")
    if ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree: {ad.shape} x {bd.shape}")

    def vjp(g):
        ga = g @ bd.T if a.requires_grad else None
        gb = ad.T @ g if b.requires_grad else None
        return ga, gb

    return _record(ad @ bd, "matmul", (a, b), vjp)


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


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product of same-shape tensors, or scaling by a number."""
    if isinstance(b, (int, float, np.floating, np.integer)):
        c = float(b)

        def vjp(g):
            return (g * c,)

        return _record(a.data * c, "scale", (a,), vjp)
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        raise ShapeError(f"mul: incompatible shapes: {ad.shape} * {bd.shape}")

    def vjp(g):
        ga = g * bd if a.requires_grad else None
        gb = g * ad if b.requires_grad else None
        return ga, gb

    return _record(ad * bd, "mul", (a, b), vjp)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def vjp(g):
        return (g * mask,)

    return _record(np.where(mask, a.data, 0.0), "relu", (a,), vjp)


def tensor_sum(a: Tensor) -> Tensor:
    shape = a.data.shape

    def vjp(g):
        return (np.full(shape, float(g)),)

    return _record(np.asarray(a.data.sum()), "sum", (a,), vjp)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """The same values in another shape, such as a 1-D query as a [1, d] row."""

    def vjp(g):
        return (g.reshape(a.shape),)

    return _record(a.data.reshape(shape), "reshape", (a,), vjp)


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


def l2_normalize(a: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale each row of a [b, d] matrix to unit L2 norm.

    The divisor is max(norm, eps), so rows below eps pass through scaled
    by 1/eps instead of dividing by zero; there the map is exactly linear.
    """
    if eps <= 0:
        raise ContractError("l2_normalize: eps must be positive")
    ad = a.data
    if ad.ndim != 2:
        raise ShapeError(f"l2_normalize: need a [b, d] matrix, got shape {ad.shape}")
    r = np.linalg.norm(ad, axis=1)
    denom = np.maximum(r, eps)
    out = ad / denom[:, None]
    big = (r >= eps)[:, None]

    def vjp(g):
        dots = (out * g).sum(axis=1, keepdims=True)
        return (np.where(big, (g - out * dots) / denom[:, None], g / eps),)

    return _record(out, "l2_normalize", (a,), vjp)


def _check_finite(name: str, ad: np.ndarray) -> None:
    if not np.all(np.isfinite(ad)):
        raise NumericDomainError(f"{name}: input contains NaN or Inf")


def soft_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over rows of -sum_i targets_i * log_softmax(logits)_i, as one graph node.

    ``targets`` is a constant [b, n] block. The backward is the closed form
    (softmax - targets)/b generalised to rows that need not sum to one. Value
    and gradient repeat the operation order of log_softmax, mul, sum, neg and
    a 1/b scale, so they are bitwise equal to that chain of nodes.
    """
    ad = logits.data
    _check_finite("soft_cross_entropy", ad)
    targets = np.asarray(targets, dtype=np.float64)
    if ad.ndim != 2 or targets.shape != ad.shape:
        raise ShapeError(f"soft_cross_entropy: need matching [b, n] logits and targets, "
                         f"got {ad.shape} and {targets.shape}")
    scale = 1.0 / ad.shape[0]
    z = ad - ad.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse

    def vjp(g):
        gt = targets * float(-(g * scale))
        return (gt - np.exp(logp) * gt.sum(axis=1, keepdims=True),)

    return _record(np.asarray(-(logp * targets).sum()) * scale, "soft_cross_entropy",
                   (logits,), vjp)


def backward(loss: Tensor) -> None:
    """Populate grad buffers of every trainable leaf reachable from ``loss``.

    Non-trainable leaves (teacher parameters, detached values) are never
    recorded as graph parents, so the sweep cannot touch their grad buffers.
    """
    if loss.data.ndim != 0:
        raise ContractError(f"backward: loss must be a scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.asarray(1.0)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.parents:
            for parent, pg in zip(node.parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                acc = grads.get(id(parent))
                if acc is None:
                    grads[id(parent)] = np.array(pg)
                else:
                    acc += pg
        else:
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            node.grad += g


def grad_check(f: Callable[[], Tensor], params: list[Tensor], step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must rebuild its graph on every call and be deterministic. The
    relative error for one entry is |a - n| / max(|a|, |n|, 1e-8).
    """
    if step <= 0:
        raise ContractError("grad_check: step must be positive")
    for p in params:
        p.zero_grad()
    backward(f())
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.ravel()
        gflat = ga.ravel()
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            fp = float(f().data)
            flat[i] = saved - step
            fm = float(f().data)
            flat[i] = saved
            numeric = (fp - fm) / (2.0 * step)
            err = abs(gflat[i] - numeric) / max(abs(gflat[i]), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
