import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdgnn.autodiff import Var
from crowdgnn.gaussian import (
    GaussianParams,
    RHO_MAX,
    constrain,
    mean_nll,
    nll,
    sample,
)
from conftest import cholesky_factor


def _mp_nll(tx, ty, mux, muy, sx, sy, rho):
    """Explicit 2x2 inverse + log-det, in the caller's mpmath precision."""
    cov = mpmath.matrix([[sx * sx, rho * sx * sy], [rho * sx * sy, sy * sy]])
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    inv = mpmath.matrix(
        [[cov[1, 1] / det, -cov[0, 1] / det], [-cov[1, 0] / det, cov[0, 0] / det]]
    )
    dx, dy = mpmath.mpf(tx) - mux, mpmath.mpf(ty) - muy
    maha = dx * (inv[0, 0] * dx + inv[0, 1] * dy) + dy * (
        inv[1, 0] * dx + inv[1, 1] * dy
    )
    return mpmath.log(2 * mpmath.pi) + mpmath.log(det) / 2 + maha / 2


def mp_nll(tx, ty, mux, muy, sx, sy, rho):
    """Independent oracle: explicit 2x2 inverse + log-det at 50 digits."""
    with mpmath.workdps(50):
        return float(_mp_nll(tx, ty, mux, muy, sx, sy, rho))


def mp_raw_grad(raw, target):
    """d nll(constrain(raw)) / d raw at 50 digits; rho = tanh(raw4), unclipped."""
    tx, ty = (mpmath.mpf(float(t)) for t in target)

    def f(r0, r1, r2, r3, r4):
        return _mp_nll(tx, ty, r0, r1, mpmath.exp(r2), mpmath.exp(r3), mpmath.tanh(r4))

    point = [mpmath.mpf(float(r)) for r in raw]
    with mpmath.workdps(50):
        return np.array(
            [float(mpmath.diff(f, point, tuple(int(i == j) for j in range(5))))
             for i in range(5)]
        )


class TestConstrain:
    def test_identity_raw(self):
        mu, sigma, rho = constrain(np.zeros(5))
        assert np.allclose(mu, [0, 0])
        assert np.allclose(sigma, [1, 1])
        assert rho == 0.0

    def test_sigma_exp(self):
        _, sigma, _ = constrain(np.array([0, 0, 1.0, 0, 0]))
        assert sigma[0] == pytest.approx(math.e)

    def test_rho_saturation_clamped(self):
        for raw4 in (20.0, -20.0):
            rho = constrain(np.array([0, 0, 0, 0, raw4]))[2]
            assert abs(rho) <= RHO_MAX
            assert abs(rho) < 1.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            constrain(np.array([0.0, np.nan, 0, 0, 0]))

    @given(st.lists(st.floats(-30, 30), min_size=5, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_always_positive_definite(self, raw):
        _, sigma, rho = constrain(np.array(raw))
        sx, sy = sigma
        det = (sx * sy) ** 2 * (1 - rho**2)
        assert sx > 0 and sy > 0 and abs(rho) < 1
        assert det > 0


class TestNll:
    def unit(self):
        return np.zeros(2), np.ones(2), np.array(0.0)

    def test_at_mean_unit_isotropic(self):
        got = nll(np.zeros(2), *self.unit())
        assert got == pytest.approx(math.log(2 * math.pi), abs=1e-12)

    def test_unit_offset(self):
        got = nll(np.array([1.0, 0.0]), *self.unit())
        assert got == pytest.approx(math.log(2 * math.pi) + 0.5, abs=1e-12)

    def test_against_extended_precision_oracle(self, rng):
        for _ in range(1000):
            mux, muy = rng.normal(0, 2, 2)
            sx, sy = rng.uniform(0.2, 3.0, 2)
            rho = rng.uniform(-0.95, 0.95)
            tx, ty = rng.normal(0, 3, 2)
            mu, sigma = np.array([mux, muy]), np.array([sx, sy])
            got = float(nll(np.array([tx, ty]), mu, sigma, np.array(rho)))
            want = mp_nll(tx, ty, mux, muy, sx, sy, rho)
            assert abs(got - want) / max(abs(want), 1e-12) < 1e-10

    def test_mean_nll_forward_is_mean_of_nll(self, rng):
        raw = rng.normal(0, 1.5, (12, 4, 5))
        target = rng.normal(0, 1.5, (12, 4, 2))
        want = nll(target, *constrain(raw)).sum() * (1.0 / 48)
        assert float(mean_nll(Var(raw), target)[0].data) == want

    @pytest.mark.parametrize(
        "raw4_range, rel", [((-4.5, 4.5), 1e-10), ((5.0, 7.0), 1e-9)]
    )
    def test_mean_nll_grad_matches_extended_precision(self, rng, raw4_range, rel):
        # one [12, 25] batch of points: the node's gradient is each point's
        # gradient divided by the point count
        raw = np.concatenate(
            [rng.normal(0, 1.5, (12, 25, 2)), rng.uniform(-2, 2, (12, 25, 2)),
             rng.uniform(*raw4_range, (12, 25, 1))], axis=-1
        )
        if raw4_range[0] > 0:
            raw[..., 4] *= rng.choice([-1.0, 1.0], (12, 25))
        target = rng.normal(0, 1.5, (12, 25, 2))
        root = Var(raw)
        mean_nll(root, target)[0].backward()
        got = root.grad * raw[..., 0].size
        for idx in np.ndindex(12, 25):
            want = mp_raw_grad(raw[idx], target[idx])
            err = np.abs(got[idx] - want)
            assert np.all(err <= rel * np.maximum(np.abs(want), 1e-3)), (idx, got[idx], want)

    @pytest.mark.parametrize("raw4", [20.0, -20.0])
    def test_mean_nll_rho_grad_zero_where_clipped(self, rng, raw4):
        raw = np.append(rng.normal(0, 1, 4), raw4)
        root = Var(raw)
        mean_nll(root, rng.normal(0, 1, 2))[0].backward()
        assert root.grad[4] == 0.0
        assert np.all(np.isfinite(root.grad))

    def test_gradient_through_constrain(self, rng):
        eps = 1e-5
        for _ in range(1000):
            raw = rng.normal(0, 1.5, 5)
            target = rng.normal(0, 1.5, 2)

            def f(r):
                return float(mean_nll(Var(r), target)[0].data)

            root = Var(raw)
            mean_nll(root, target)[0].backward()
            for i in range(5):
                d = np.zeros(5)
                d[i] = eps
                fd = (f(raw + d) - f(raw - d)) / (2 * eps)
                an = root.grad[i]
                assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-3)

    def test_grad_wrt_mu_vanishes_at_target(self, rng):
        raw = rng.normal(0, 1, 5)
        root = Var(raw)
        target = np.array(raw[:2])  # target equals mu
        mean_nll(root, target)[0].backward()
        assert np.all(np.abs(root.grad[:2]) < 1e-10)


class TestSample:
    def test_degenerate_sigma_returns_mu(self):
        g = GaussianParams(
            np.array([2.0, -1.0]), np.array([1e-9, 1e-9]), np.array(0.0)
        )
        s = sample(g, [np.random.default_rng(0)])[0]
        assert np.allclose(s, g.mu, atol=1e-6)

    def test_deterministic_given_seed(self):
        g = GaussianParams(np.zeros(2), np.array([1.0, 2.0]), np.array(0.5))
        a = sample(g, [np.random.default_rng(42)])[0]
        b = sample(g, [np.random.default_rng(42)])[0]
        assert np.array_equal(a, b)

    def test_one_draw_per_generator_in_order(self, rng):
        g = GaussianParams(
            rng.normal(size=(3, 4, 2)),
            rng.uniform(0.5, 2.0, size=(3, 4, 2)),
            rng.uniform(-0.9, 0.9, size=(3, 4)),
        )
        draws = sample(g, [np.random.default_rng(s) for s in range(4)])
        assert draws.shape == (4, 3, 4, 2)
        for s in range(4):
            assert np.array_equal(draws[s], sample(g, [np.random.default_rng(s)])[0])

    def test_bitwise_equal_to_cholesky_oracle(self, rng):
        g = GaussianParams(
            rng.normal(size=(6, 12, 2)),
            rng.uniform(0.01, 3.0, size=(6, 12, 2)),
            rng.uniform(-RHO_MAX, RHO_MAX, size=(6, 12)),
        )
        draws = sample(g, [np.random.default_rng(s) for s in range(3)])
        chol = cholesky_factor(g.sigma, g.rho)
        for s in range(3):
            z = np.random.default_rng(s).standard_normal(g.mu.shape)
            want = g.mu + np.einsum("...ij,...j->...i", chol, z)
            assert np.array_equal(draws[s], want)

    def test_moments_match(self):
        mu = np.array([1.0, -2.0])
        g = GaussianParams(mu, np.array([1.0, 2.0]), np.array(0.5))
        rng = np.random.default_rng(7)
        gs = GaussianParams(
            np.tile(mu, (100_000, 1)),
            np.tile(g.sigma, (100_000, 1)),
            np.full(100_000, 0.5),
        )
        draws = sample(gs, [rng])[0]
        assert np.all(np.abs(draws.mean(axis=0) - mu) < 0.02)
        emp_rho = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(emp_rho - 0.5) < 0.02

    def test_cholesky_reconstructs_covariance(self, rng):
        sigma = rng.uniform(0.5, 2.0, 2)
        rho = rng.uniform(-0.9, 0.9)
        chol = cholesky_factor(sigma, np.array(rho))
        cov = chol @ chol.T
        want = np.array(
            [
                [sigma[0] ** 2, rho * sigma[0] * sigma[1]],
                [rho * sigma[0] * sigma[1], sigma[1] ** 2],
            ]
        )
        assert np.allclose(cov, want, atol=1e-12)
