import numpy as np
import pytest

from crowdgnn.autodiff import Var, prelu
from conftest import weighted_sum


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


def check_op(rng, make_output, *arrays, tol=1e-6):
    vars_ = [Var(a) for a in arrays]
    out = make_output(*vars_)
    upstream = rng.normal(size=out.shape)  # exercises upstream grads
    weighted_sum(out, upstream).backward()
    for v, a in zip(vars_, arrays):

        def scalar():
            o = make_output(*(Var(b) for b in arrays))
            return float(weighted_sum(o, upstream).data)

        num = numeric_grad(scalar, a)
        assert np.allclose(v.grad, num, rtol=tol, atol=tol), (v.grad, num)


def test_prelu_grad(rng):
    a = rng.normal(size=(10,))
    s = np.array(0.25)
    check_op(rng, lambda x, sl: prelu(x, sl), a, s)


def test_diamond_reuse_accumulates():
    x = Var(np.array(3.0))
    y = weighted_sum(x + x, 1.0) + weighted_sum(x, 2.0)  # x reused; d/dx = 2 + 2
    y.backward()
    assert x.grad == 4.0


def test_backward_requires_scalar():
    x = Var(np.ones(3))
    with pytest.raises(ValueError):
        (x + x).backward()


def test_backward_twice_raises():
    x = Var(np.array(2.0))
    y = weighted_sum(x, 2.0)
    y.backward()
    with pytest.raises(RuntimeError):
        y.backward()
