import numpy as np
import pytest

from crowdgnn.autodiff import Var
from conftest import weighted_sum


def test_diamond_reuse_accumulates():
    x = Var(np.array(3.0))

    def bw(g):  # x reached twice through one node: both paths accumulate
        x._ensure_grad()[...] += g
        x._ensure_grad()[...] += g

    two_x = Var(x.data + x.data, x, bw)
    y = weighted_sum(two_x, 2.0)  # d/dx = 2 * 2
    y.backward()
    assert x.grad == 4.0


def test_backward_requires_scalar():
    x = Var(np.ones(3))
    with pytest.raises(ValueError):
        x.backward()


def test_backward_twice_raises():
    x = Var(np.array(2.0))
    y = weighted_sum(x, 2.0)
    y.backward()
    with pytest.raises(RuntimeError):
        y.backward()
