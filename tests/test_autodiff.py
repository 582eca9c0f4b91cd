import numpy as np
import pytest

from crowdgnn.autodiff import Var
from conftest import input_node, weighted_sum


def test_backward_hands_each_gradient_to_the_input_node():
    x, grads = input_node(np.array([1.0, -2.0, 3.0]))
    y = weighted_sum(weighted_sum(x, np.array([2.0, 0.5, -1.0])), 3.0)
    y.backward(0.5)  # d/dx = 0.5 * 3 * u
    assert len(grads) == 1
    np.testing.assert_array_equal(grads[0], [3.0, 0.75, -1.5])


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
