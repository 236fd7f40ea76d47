"""Reverse-mode automatic differentiation over numpy arrays.

Graphs are built eagerly: every operation returns a Tensor holding its
value and, when any input requires a gradient, its parents and a closure
that maps the output gradient to the parents' gradients.  Over constant
inputs nothing is recorded, so each intermediate is freed once it goes out
of scope.  Storage follows the input dtype: float32 for training, float64
when tests need tight finite-difference agreement.  The engine's own ops
are reshape and concat; every other node is a fused layer with a
handwritten backward (layers.py).

A closure returns one gradient per parent, in parent order, None where it
forms none, and never writes into the gradient it is given.  grads_for
alone accumulates: it walks the graph once in reverse topological order,
so every sum runs in the same order run to run, and holds the gradients in
a local map.  A node's first gradient is adopted without a copy and later
ones are summed out of place, so adopting the views that reshape and
concat's split hand over is safe.  A node's entry leaves the map when its
closure runs, so only the frontier of live gradients is held.
"""
from __future__ import annotations

import numpy as np

_FLOAT_TYPES = (np.float32, np.float64)


class Tensor:
    __slots__ = ("data", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None,
                 parents: tuple = (), backward=None):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_TYPES:
            arr = arr.astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise FloatingPointError(
                f"non-finite values in tensor {name or '<unnamed>'}"
            )
        self.data = arr
        self.requires_grad = requires_grad
        self.name = name
        self._parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = f" {self.name}" if self.name else ""
        return f"Tensor{tag}(shape={self.data.shape}, dtype={self.data.dtype})"


def parameter(data, name: str) -> Tensor:
    return Tensor(np.asarray(data), requires_grad=True, name=name)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents, backward, op: str) -> Tensor:
    """The output of op; it records parents and backward only when some
    parent requires a gradient, and is named after op so a non-finite
    value names the op that produced it."""
    requires = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=requires, name=op,
                  parents=tuple(parents) if requires else (),
                  backward=backward if requires else None)


# ---------------------------------------------------------------------------
# layout ops
# ---------------------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        return (g.reshape(a.data.shape),)

    return _node(a.data.reshape(shape), (a,), backward, "reshape")


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return np.split(g, splits, axis=axis)

    return _node(np.concatenate([t.data for t in tensors], axis=axis),
                 tuple(tensors), backward, "concat")


# ---------------------------------------------------------------------------
# graph traversal
# ---------------------------------------------------------------------------


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def grads_for(loss: Tensor, params: list[Tensor]) -> list[np.ndarray]:
    """Gradients of the scalar loss for the given parameters.

    A constant (requires_grad False) or a parameter that never entered the
    loss graph is an error; a parameter in the graph with no influence gets
    an exact zero gradient.  Each node's gradient is the sum, in the graph's
    reverse topological order, of what its consumers' closures return for
    it, cast to its dtype; constant nodes get none.  A returned gradient may
    be an adopted view, read-only.
    """
    order = _topo_order(loss)
    in_graph = {id(t) for t in order}
    for p in params:
        if not p.requires_grad:
            raise ValueError(
                f"tensor {p.name or '<unnamed>'} is a constant, not a parameter"
            )
        if id(p) not in in_graph:
            raise ValueError(
                f"tensor {p.name or '<unnamed>'} is not part of the loss graph"
            )
    if loss.data.size != 1:
        raise ValueError(f"grads_for needs a scalar loss, got shape {loss.data.shape}")
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        if node._backward is None or id(node) not in grads:
            continue
        for parent, g in zip(node._parents, node._backward(grads.pop(id(node))),
                             strict=True):
            if g is None or not parent.requires_grad:
                continue
            g = g.astype(parent.data.dtype, copy=False)
            held = grads.get(id(parent))
            grads[id(parent)] = g if held is None else held + g
    return [grads[id(p)] if id(p) in grads else np.zeros_like(p.data) for p in params]
