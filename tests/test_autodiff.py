import numpy as np
import pytest

from crowdgnn.autodiff import Var, clamp, prelu


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


def check_op(make_output, *arrays, tol=1e-6):
    vars_ = [Var(a) for a in arrays]
    out = make_output(*vars_)
    loss = (out * out).sum()  # quadratic head exercises upstream grads
    loss.backward()
    for v, a in zip(vars_, arrays):

        def scalar():
            vs = [Var(b) for b in arrays]
            o = make_output(*vs)
            return float((o * o).sum().data)

        num = numeric_grad(lambda: scalar(), a)
        assert np.allclose(v.grad, num, rtol=tol, atol=tol), (v.grad, num)


def test_add_mul_broadcast(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4,))
    check_op(lambda x, y: x * y + y, a, b)


def test_sub_div_pow(rng):
    a = rng.normal(size=(5,)) + 3.0
    b = rng.normal(size=(5,)) + 3.0
    check_op(lambda x, y: (x - y) / y + x**2, a, b)


def test_matmul_batched(rng):
    a = rng.normal(size=(4, 3, 2))
    b = rng.normal(size=(2, 5))
    check_op(lambda x, y: x @ y, a, b)


def test_exp_log_tanh(rng):
    a = rng.uniform(0.5, 2.0, size=(6,))
    check_op(lambda x: x.exp() + x.log() + x.tanh(), a)


def test_reshape_transpose_getitem(rng):
    a = rng.normal(size=(2, 3, 4))
    check_op(lambda x: x.transpose(1, 0, 2).reshape(3, 8)[1:, 2:6], a)
    b = rng.normal(size=(3, 2, 5))
    check_op(lambda x: x[1], b)
    check_op(lambda x: x[..., 4], b)  # as gaussian.constrain selects rho
    check_op(lambda x: x[[0, 2, 0, 0]], b)  # fancy, repeated rows accumulate


def test_sum_mean(rng):
    a = rng.normal(size=(3, 2))
    check_op(lambda x: x.sum(axis=0) + x.mean(), a)


def test_prelu_grad(rng):
    a = rng.normal(size=(10,))
    s = np.array(0.25)
    check_op(lambda x, sl: prelu(x, sl), a, s)


def test_clamp_grad_zero_outside():
    x = Var(np.array([-2.0, 0.5, 2.0]))
    out = clamp(x, -1.0, 1.0)
    out.sum().backward()
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])
    assert np.array_equal(out.data, [-1.0, 0.5, 1.0])


def test_diamond_reuse_accumulates():
    x = Var(np.array(3.0))
    y = x * x + x * 2.0  # x reused; d/dx = 2x + 2
    y.backward()
    assert np.isclose(x.grad, 8.0)


def test_backward_requires_scalar():
    x = Var(np.ones(3))
    with pytest.raises(ValueError):
        (x * 2).backward()


def test_backward_twice_raises():
    x = Var(np.array(2.0))
    y = x * x
    y.backward()
    with pytest.raises(RuntimeError):
        y.backward()
