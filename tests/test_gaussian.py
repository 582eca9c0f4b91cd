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
    cholesky_factor,
    constrain,
    nll,
    sample,
)


def mp_nll(tx, ty, mux, muy, sx, sy, rho):
    """Independent oracle: explicit 2x2 inverse + log-det at 50 digits."""
    with mpmath.workdps(50):
        cov = mpmath.matrix(
            [[sx * sx, rho * sx * sy], [rho * sx * sy, sy * sy]]
        )
        det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
        inv = mpmath.matrix(
            [[cov[1, 1] / det, -cov[0, 1] / det], [-cov[1, 0] / det, cov[0, 0] / det]]
        )
        dx, dy = mpmath.mpf(tx) - mux, mpmath.mpf(ty) - muy
        maha = dx * (inv[0, 0] * dx + inv[0, 1] * dy) + dy * (
            inv[1, 0] * dx + inv[1, 1] * dy
        )
        val = mpmath.log(2 * mpmath.pi) + mpmath.log(det) / 2 + maha / 2
        return float(val)


class TestConstrain:
    def test_identity_raw(self):
        mu, sigma, rho = constrain(Var(np.zeros(5)))
        assert np.allclose(mu.data, [0, 0])
        assert np.allclose(sigma.data, [1, 1])
        assert rho.data == 0.0

    def test_sigma_exp(self):
        _, sigma, _ = constrain(Var(np.array([0, 0, 1.0, 0, 0])))
        assert sigma.data[0] == pytest.approx(math.e)

    def test_rho_saturation_clamped(self):
        for raw4 in (20.0, -20.0):
            rho = constrain(Var(np.array([0, 0, 0, 0, raw4])))[2].data
            assert abs(rho) <= RHO_MAX
            assert abs(rho) < 1.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            constrain(Var(np.array([0.0, np.nan, 0, 0, 0])))

    @given(st.lists(st.floats(-30, 30), min_size=5, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_always_positive_definite(self, raw):
        _, sigma, rho = (v.data for v in constrain(Var(np.array(raw))))
        sx, sy = sigma
        det = (sx * sy) ** 2 * (1 - rho**2)
        assert sx > 0 and sy > 0 and abs(rho) < 1
        assert det > 0


class TestNll:
    def unit(self):
        return Var(np.zeros(2)), Var(np.ones(2)), Var(np.array(0.0))

    def test_at_mean_unit_isotropic(self):
        got = nll(np.zeros(2), *self.unit()).data
        assert got == pytest.approx(math.log(2 * math.pi), abs=1e-12)

    def test_unit_offset(self):
        got = nll(np.array([1.0, 0.0]), *self.unit()).data
        assert got == pytest.approx(math.log(2 * math.pi) + 0.5, abs=1e-12)

    def test_against_extended_precision_oracle(self, rng):
        for _ in range(1000):
            mux, muy = rng.normal(0, 2, 2)
            sx, sy = rng.uniform(0.2, 3.0, 2)
            rho = rng.uniform(-0.95, 0.95)
            tx, ty = rng.normal(0, 3, 2)
            mu, sigma = Var(np.array([mux, muy])), Var(np.array([sx, sy]))
            got = float(nll(np.array([tx, ty]), mu, sigma, Var(np.array(rho))).data)
            want = mp_nll(tx, ty, mux, muy, sx, sy, rho)
            assert abs(got - want) / max(abs(want), 1e-12) < 1e-10

    def test_gradient_through_constrain(self, rng):
        eps = 1e-5
        for _ in range(1000):
            raw = rng.normal(0, 1.5, 5)
            target = rng.normal(0, 1.5, 2)

            def f(r):
                mu, sigma, rho = constrain(Var(r))
                return nll(target, mu, sigma, rho)

            root = Var(raw)
            mu, sigma, rho = constrain(root)
            loss = nll(target, mu, sigma, rho)
            loss.backward()
            for i in range(5):
                d = np.zeros(5)
                d[i] = eps
                fd = (float(f(raw + d).data) - float(f(raw - d).data)) / (2 * eps)
                an = root.grad[i]
                assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-3)

    def test_grad_wrt_mu_vanishes_at_target(self, rng):
        raw = rng.normal(0, 1, 5)
        root = Var(raw)
        mu, sigma, rho = constrain(root)
        target = np.array(raw[:2])  # target equals mu
        loss = nll(target, mu, sigma, rho)
        loss.backward()
        assert np.all(np.abs(root.grad[:2]) < 1e-10)


class TestSample:
    def test_degenerate_sigma_returns_mu(self):
        g = GaussianParams(
            np.array([2.0, -1.0]), np.array([1e-9, 1e-9]), np.array(0.0)
        )
        s = sample(g, np.random.default_rng(0))
        assert np.allclose(s, g.mu, atol=1e-6)

    def test_deterministic_given_seed(self):
        g = GaussianParams(np.zeros(2), np.array([1.0, 2.0]), np.array(0.5))
        a = sample(g, np.random.default_rng(42))
        b = sample(g, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_moments_match(self):
        mu = np.array([1.0, -2.0])
        g = GaussianParams(mu, np.array([1.0, 2.0]), np.array(0.5))
        rng = np.random.default_rng(7)
        gs = GaussianParams(
            np.tile(mu, (100_000, 1)),
            np.tile(g.sigma, (100_000, 1)),
            np.full(100_000, 0.5),
        )
        draws = sample(gs, rng)
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
