"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

Only the operations the trajectory network needs are implemented. All
arithmetic is float64; gradients are accumulated into ``.grad`` buffers of
the same shape as ``.data``.
"""
from __future__ import annotations

import numpy as np

__all__ = ["Var", "prelu"]


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Var:
    """A node in the computation graph: value + gradient + backward closure."""

    __slots__ = ("data", "grad", "_backward", "_parents", "_done")

    def __init__(self, data, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = _parents
        self._backward = _backward
        self._done = False

    @property
    def shape(self):
        return self.data.shape

    def _ensure_grad(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    @staticmethod
    def _lift(x) -> "Var":
        return x if isinstance(x, Var) else Var(x)

    # ---- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = Var._lift(other)
        out = Var(self.data + other.data, (self, other))

        def bw(g):
            self._ensure_grad()[...] += _unbroadcast(g, self.data.shape)
            other._ensure_grad()[...] += _unbroadcast(g, other.data.shape)

        out._backward = bw
        return out

    __radd__ = __add__

    def __mul__(self, other):
        other = Var._lift(other)
        out = Var(self.data * other.data, (self, other))

        def bw(g):
            self._ensure_grad()[...] += _unbroadcast(g * other.data, self.data.shape)
            other._ensure_grad()[...] += _unbroadcast(g * self.data, other.data.shape)

        out._backward = bw
        return out

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = Var._lift(other)
        out = Var(self.data @ other.data, (self, other))

        def bw(g):
            ga = g @ np.swapaxes(other.data, -1, -2)
            gb = np.swapaxes(self.data, -1, -2) @ g
            self._ensure_grad()[...] += _unbroadcast(ga, self.data.shape)
            other._ensure_grad()[...] += _unbroadcast(gb, other.data.shape)

        out._backward = bw
        return out

    # ---- shape ops -------------------------------------------------------

    def reshape(self, *shape):
        out = Var(self.data.reshape(*shape), (self,))
        out._backward = lambda g: self._ensure_grad().__iadd__(
            g.reshape(self.data.shape)
        )
        return out

    def __getitem__(self, idx):
        """Basic indexing only (ints, slices, Ellipsis): each element is
        selected at most once, so the backward is a plain slice-add."""
        out = Var(self.data[idx], (self,))

        def bw(g):
            self._ensure_grad()[idx] += g

        out._backward = bw
        return out

    # ---- reductions ------------------------------------------------------

    def sum(self, axis=None):
        out = Var(self.data.sum(axis=axis), (self,))

        def bw(g):
            if axis is None:
                self._ensure_grad()[...] += g
            else:
                self._ensure_grad()[...] += np.expand_dims(g, axis)

        out._backward = bw
        return out

    # ---- backprop ----------------------------------------------------------

    def backward(self, seed: float = 1.0):
        """Backpropagate from this scalar root, whose gradient is `seed`."""
        if self.data.shape != ():
            raise ValueError("backward() requires a scalar root")
        if self._done:
            raise RuntimeError("backward() already run for this graph root")
        self._done = True

        topo: list[Var] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        self.grad = np.full_like(self.data, seed)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def prelu(x: Var, slope: Var) -> Var:
    """PReLU with a single learnable scalar slope."""
    pos = x.data > 0
    out = Var(np.where(pos, x.data, slope.data * x.data), (x, slope))

    def bw(g):
        x._ensure_grad()[...] += g * np.where(pos, 1.0, slope.data)
        slope._ensure_grad()[...] += np.sum(g * np.where(pos, 0.0, x.data))

    out._backward = bw
    return out

