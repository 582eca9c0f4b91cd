"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

The tape holds only what the fixed model records: parameter leaves, a
same-shape sum and PReLU. The ST-GCN layer, the convolutions and the
Gaussian head are single ops with hand-written backwards (``model`` and
``gaussian``). All arithmetic is float64; gradients are accumulated into
``.grad`` buffers of the same shape as ``.data``.
"""
from __future__ import annotations

import numpy as np

__all__ = ["Var", "prelu"]


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

    def __add__(self, other: "Var") -> "Var":
        """Same-shape sum of two nodes (the TXP residual)."""
        out = Var(self.data + other.data, (self, other))

        def bw(g):
            self._ensure_grad()[...] += g
            other._ensure_grad()[...] += g

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

