"""Reference reverse-mode tape: the general autodiff engine the library trained with.

``Tensor`` with its graph slots, ``_record``, ``mul``, ``tensor_sum`` and the
topological sweep of ``backward`` are verbatim as ``simdistill.tensor`` held
them before a training step became three closed-form vjps, except that
``backward`` also takes the gradient on a non-scalar root, so that a per-op
chain can stand in for one of those vjps. The per-op oracles
(``graph_ops``, ``mlp_graph``, ``loss_chain``, ``probe_graph`` and
``per_sample_losses``) record into this tape; :func:`value_and_grad` gives a
chain the library's (value, gradient) contract, and :func:`grad_check` runs the
library's gradient check on the leaves of a recorded scalar.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from simdistill import tensor as library
from simdistill.errors import ContractError, ShapeError


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


def backward(root: Tensor, upstream: np.ndarray | None = None) -> None:
    """Populate grad buffers of every trainable leaf reachable from ``root``.

    ``upstream`` is the gradient on ``root``; without it ``root`` must be a
    scalar loss, whose gradient is 1. Non-trainable leaves (teacher
    parameters, detached values) are never recorded as graph parents, so the
    sweep cannot touch their grad buffers.
    """
    if upstream is None:
        if root.data.ndim != 0:
            raise ContractError(f"backward: loss must be a scalar, got shape {root.data.shape}")
        upstream = np.asarray(1.0)
    if not root.requires_grad:
        return

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
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

    grads: dict[int, np.ndarray] = {id(root): upstream}
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


def value_and_grad(build: Callable[[Tensor], Tensor], x: np.ndarray) -> tuple[float, np.ndarray]:
    """The scalar that ``build`` records on a leaf holding ``x``, and the gradient
    the sweep leaves in that leaf: the library objectives' contract."""
    leaf = Tensor.parameter(x)
    loss = build(leaf)
    backward(loss)
    return float(loss.data), leaf.grad


def grad_check(build: Callable[[], Tensor], leaves: list[Tensor], step: float = 1e-5) -> float:
    """``simdistill.tensor.grad_check`` of the scalar that ``build`` records, in
    each leaf in turn; the worst relative error. ``build`` must record its
    graph afresh on every call."""
    def in_leaf(leaf):
        def value_and_grad_at(values):
            leaf.data = values
            for p in leaves:
                p.zero_grad()
            loss = build()
            backward(loss)
            return float(loss.data), leaf.grad
        return value_and_grad_at

    return max(library.grad_check(in_leaf(leaf), leaf.data, step) for leaf in leaves)
