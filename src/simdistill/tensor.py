"""Reverse-mode automatic differentiation over dense float64 arrays.

Values live in numpy arrays; each differentiable op records its inputs
and a vector-Jacobian closure so ``backward`` can sweep the graph once in
reverse topological order. The pieces training runs have a closed-form
backward and are single nodes: a whole MLP in ``nn`` and each objective in
``losses``, built on the array helpers ``row_norms``, ``l2_rows`` and
``unit_rows`` here. The generic ops left are the elementwise product and
the sum that demo 01 and acceptance criterion 3 compose; neither
broadcasts. A ``Tensor`` is a value the graph may differentiate; every
constant operand (teacher embeddings, anchors, targets) is a plain
``np.ndarray``.
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

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)

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


def tensor_sum(a: Tensor) -> Tensor:
    shape = a.data.shape

    def vjp(g):
        return (np.full(shape, float(g)),)

    return _record(np.asarray(a.data.sum()), "sum", (a,), vjp)


def row_norms(ad: np.ndarray) -> np.ndarray:
    """The L2 norm of each row of a [b, d] array.

    The formula ``np.linalg.norm(ad, axis=1)`` evaluates for real input, so
    the values are bitwise its own, without the wrapper's checks.
    """
    return np.sqrt(np.add.reduce(ad * ad, axis=1))


def l2_rows(ad: np.ndarray, eps: float = 1e-12):
    """The rows of a [b, d] array scaled to unit norm, and the map's vjp on arrays.

    The divisor is max(norm, eps), so rows below eps pass through scaled by
    1/eps instead of dividing by zero; there the map is exactly linear. The
    vjp builds that branch only for a block that has such a row.
    """
    r = row_norms(ad)
    denom = np.maximum(r, eps)[:, None]
    out = ad / denom
    big = (r >= eps)[:, None]
    every_row_big = bool(big.all())

    def vjp(g):
        dots = (out * g).sum(axis=1, keepdims=True)
        unit = g - out * dots
        unit /= denom
        return unit if every_row_big else np.where(big, unit, g / eps)

    return out, vjp


def unit_rows(ad: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """The rows of a [b, d] array divided by max(norm, eps), with no graph node."""
    return ad / np.maximum(row_norms(ad), eps)[:, None]


def _check_finite(name: str, ad: np.ndarray) -> None:
    if not np.isfinite(ad).all():
        raise NumericDomainError(f"{name}: input contains NaN or Inf")


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
                # The first gradient is kept as it is and later ones are added out
                # of place: a vjp may hand one array to several parents.
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
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
