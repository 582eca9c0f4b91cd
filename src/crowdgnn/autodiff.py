"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

The tape is a chain of ops over parameter leaves: each op has at most one
input node, and its hand-written backward writes that node's and its
parameters' gradients. The model records three: the ST-GCN layer and the
TXP stack (``model``), and the Gaussian head (``gaussian``). All arithmetic
is float64; gradients accumulate into ``.grad`` buffers shaped as ``.data``.
A parameter leaf's buffers are views of ``model.ModelParameters``' vectors;
a chain node allocates its gradient on first write (``_ensure_grad``).
"""
from __future__ import annotations

import numpy as np

__all__ = ["Var"]


class Var:
    """A node of the chain: value + gradient + backward closure + input node."""

    __slots__ = ("data", "grad", "_backward", "_parent", "_done")

    def __init__(self, data, _parent=None, _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parent = _parent
        self._backward = _backward
        self._done = False

    @property
    def shape(self):
        return self.data.shape

    def _ensure_grad(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def backward(self, seed: float = 1.0):
        """Backpropagate from this scalar root, whose gradient is `seed`,
        along the chain of input nodes."""
        if self.data.shape != ():
            raise ValueError("backward() requires a scalar root")
        if self._done:
            raise RuntimeError("backward() already run for this graph root")
        self._done = True
        self.grad = np.full_like(self.data, seed)
        node = self
        while node is not None and node._backward is not None:
            node._backward(node.grad)
            node = node._parent
