"""Reverse-mode automatic differentiation over numpy arrays.

Graphs are built eagerly: every operation returns a Tensor holding its
value and, when any input requires a gradient, its parents and a closure
that routes the output gradient to those parents.  Over constant inputs
nothing is recorded, so each intermediate is freed once it goes out of
scope.  backward() walks the graph once in reverse topological order, so
accumulation order is deterministic run to run.  Storage follows the input
dtype: float32 for training, float64 when tests need tight finite-difference
agreement.  The engine's own ops are reshape and concat; every other node
is a fused layer with a handwritten backward (layers.py).

A gradient lives only while backward needs it.  It is created by the first
accumulation into its tensor, which adopts the array the closure hands over
without a copy; every later accumulation sums out of place.  No gradient is
ever written in place, so adopting the views that reshape and concat's split
hand over is safe.  Once a node's closure has run, its gradient is dropped,
so only the frontier of live gradients is held; leaves keep theirs.
"""
from __future__ import annotations

import numpy as np

_FLOAT_TYPES = (np.float32, np.float64)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

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
        self.grad = None
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


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add g into t.grad.  The first accumulation adopts g (cast to t's
    dtype) as t.grad without a copy, and later ones sum out of place, so
    neither g nor an adopted array is ever written into."""
    if t.requires_grad:
        g = g.astype(t.data.dtype, copy=False)
        t.grad = g if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# layout ops
# ---------------------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return _node(a.data.reshape(shape), (a,), backward, "reshape")


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)

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


def backward(loss: Tensor) -> None:
    """Set .grad on the leaves reachable from loss.

    Gradients start as None and are created by their first accumulation.
    Each interior node's gradient is dropped as soon as its closure has run,
    and a node no gradient reached is skipped, so afterwards interior nodes
    hold None and leaves hold their gradient, or None if none reached them.
    """
    _backward_over(loss, _topo_order(loss))


def _backward_over(loss: Tensor, order: list[Tensor]) -> None:
    """backward(loss) over order, loss's graph in topological order."""
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None


def grads_for(loss: Tensor, params: list[Tensor]) -> list[np.ndarray]:
    """Run backward and collect gradients for the given parameters.

    A parameter that never entered the loss graph is an error; a parameter
    in the graph with no influence gets an exact zero gradient.  A returned
    gradient may be an adopted view, read-only; it stays the parameter's
    .grad until the next backward.
    """
    order = _topo_order(loss)
    in_graph = {id(t) for t in order}
    for p in params:
        if id(p) not in in_graph:
            raise ValueError(
                f"tensor {p.name or '<unnamed>'} is not part of the loss graph"
            )
    _backward_over(loss, order)
    return [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]
