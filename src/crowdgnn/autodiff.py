"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

The tape is a chain of ops: each op has at most one input node, and its
hand-written backward takes the gradient of its output, adds its
parameters' gradients into ``model.ModelParameters.grad`` and returns the
gradient of its input (None for an op whose input is a constant). The
model records three: the ST-GCN layer and the TXP stack (``model``), and
the Gaussian head (``gaussian``). All arithmetic is float64. No node keeps
a gradient: `backward` hands each one from op to op.
"""
from __future__ import annotations

import numpy as np

__all__ = ["Var"]


class Var:
    """A node of the chain: value + backward closure + input node."""

    __slots__ = ("data", "_backward", "_parent", "_done")

    def __init__(self, data, _parent=None, _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self._parent = _parent
        self._backward = _backward
        self._done = False

    def backward(self, seed: float = 1.0):
        """Backpropagate from this scalar root, whose gradient is `seed`,
        along the chain of input nodes."""
        if self.data.shape != ():
            raise ValueError("backward() requires a scalar root")
        if self._done:
            raise RuntimeError("backward() already run for this graph root")
        self._done = True
        g, node = np.full_like(self.data, seed), self
        while node is not None and node._backward is not None:
            g, node = node._backward(g), node._parent
