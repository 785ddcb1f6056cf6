import math

import numpy as np
import pytest

from lindosc import (CovDecomposition, DiffDecomposition, analytic_minimizer,
                     compose, compose_diffusion, grid_search, initial_rate,
                     rate_at, rate_landscape, run_sieve)
from lindosc import sieve
from lindosc.errors import ConfigError

HBAR = 1.0


def diff(delta=1.0, d=2.0, phi=0.3):
    return DiffDecomposition(Delta=delta, d=d, phi=phi)


class TestRateAt:
    def test_minimum_point(self):
        dd = diff(delta=1.0, d=2.0, phi=0.3)
        assert rate_at(2.0, 0.3, 1.0, 0.5, dd) == pytest.approx(
            2.0 * (1.0 - 0.5))

    def test_isotropic_pure(self):
        dd = diff(delta=1.4, d=1.0, phi=0.0)
        assert rate_at(1.0, 0.9, 1.0, 0.4, dd) == pytest.approx(
            2.0 * (1.4 - 0.4))

    def test_diverges_with_squeezing(self):
        dd = diff()
        rates = [rate_at(al, 0.1, 1.0, 0.2, dd) for al in (10, 100, 1000)]
        assert rates[2] > rates[1] > rates[0]
        assert rates[2] / rates[1] == pytest.approx(100.0, rel=0.01)

    def test_matches_state_based_rate(self):
        rng = np.random.default_rng(9)
        for _ in range(10_000):
            a = rng.uniform(1, 10)
            aleph = rng.uniform(0.3, 5)
            theta = rng.uniform(0, math.pi)
            dd = diff(delta=rng.uniform(0.05, 3), d=rng.uniform(1, 5),
                      phi=rng.uniform(0, math.pi))
            lam = rng.normal()
            sigma = compose(CovDecomposition(A=a, aleph=aleph, theta=theta), HBAR)
            expected = initial_rate(sigma, compose_diffusion(dd, HBAR), lam, HBAR)
            assert rate_at(aleph, theta, a, lam, dd) == pytest.approx(
                expected, rel=1e-12, abs=1e-12)


class TestAnalyticMinimizer:
    def test_isotropic_selects_no_squeezing(self):
        res = analytic_minimizer(1.0, 0.2, diff(d=1.0, phi=0.7))
        assert res.aleph_star == 1.0
        assert res.theta_star == 0.0
        assert res.degenerate_angle

    def test_anisotropic(self):
        res = analytic_minimizer(1.0, 0.5, diff(delta=1.0, d=2.0, phi=0.3))
        assert (res.aleph_star, res.theta_star) == (2.0, 0.3)
        assert res.min_rate == pytest.approx(1.0)
        assert not res.degenerate_angle

    def test_saturated_bound_gives_zero_rate(self):
        res = analytic_minimizer(1.0, 0.8, diff(delta=0.8, d=1.3, phi=0.1))
        assert res.min_rate == pytest.approx(0.0, abs=1e-15)

    def test_mixed_state_minimum(self):
        a, delta, lam = 4.0, 1.1, 0.2
        res = analytic_minimizer(a, lam, diff(delta=delta))
        assert res.min_rate == pytest.approx(2 * (delta - a * lam) / a ** 2)


class TestGridSearch:
    def test_isotropic_argmin_near_one(self):
        dd = diff(delta=1.0, d=1.0, phi=0.0)
        aleph, _, _ = grid_search(1.0, 0.3, dd, 101, 91, (0.5, 2.0))
        step = math.log(2.0 / 0.5) / 100
        assert abs(math.log(aleph)) <= step

    def test_anisotropic_argmin(self):
        dd = diff(delta=1.0, d=2.0, phi=1.0)
        aleph, theta, rate = grid_search(1.0, 0.4, dd, 401, 361, (0.5, 8.0))
        log_step = math.log(8.0 / 0.5) / 400
        theta_step = math.pi / 361
        assert abs(math.log(aleph / 2.0)) <= log_step
        assert abs(theta - 1.0) <= theta_step

    def test_degenerate_single_point_grid(self):
        dd = diff(delta=0.9, d=1.7, phi=0.6)
        # A grid whose one cell is the optimum: the polish stays put.
        aleph, theta = sieve._polish(dd.d, dd.phi, dd)
        assert (aleph, theta) == (1.7, 0.6)
        assert rate_at(aleph, theta, 1.0, 0.2, dd) == pytest.approx(
            analytic_minimizer(1.0, 0.2, dd).min_rate, rel=1e-14)

    def test_near_isotropic_polish_leaves_the_unit_aleph_node(self):
        # B is flat in theta on the aleph = 1 line and the Hessian there is
        # indefinite, so plain Newton steps from that node stall.
        dd = diff(delta=1.3, d=1.002, phi=0.7)
        a, lam = 1.5, 0.4
        table = rate_landscape(a, lam, dd, 401, 361, (0.5, 8.0))
        assert table[np.argmin(table[:, 2]), 0] == pytest.approx(1.0, abs=1e-12)
        _, _, rate = grid_search(a, lam, dd, 401, 361, (0.5, 8.0))
        scale = 2 * dd.Delta / a ** 2 + 2 * abs(lam) / a
        min_rate = analytic_minimizer(a, lam, dd).min_rate
        assert abs(rate - min_rate) <= 1e-12 * scale

    def test_bracket_error(self):
        with pytest.raises(ConfigError):
            grid_search(1.0, 0.2, diff(d=3.0), 51, 51, (0.5, 2.0))


class TestRateLandscape:
    def test_ordering_and_shape(self):
        dd = diff()
        table = rate_landscape(1.0, 0.2, dd, 5, 4, (1.0, 4.0))
        assert table.shape == (20, 3)
        # aleph-major: first four rows share the first aleph value.
        assert np.all(table[:4, 0] == table[0, 0])
        np.testing.assert_allclose(table[:4, 1],
                                   np.linspace(0, math.pi, 4, endpoint=False))

    def test_spot_value_at_minimizer(self):
        dd = diff(delta=1.0, d=2.0, phi=math.pi / 4)
        table = rate_landscape(1.0, 0.4, dd, 3, 4, (1.0, 4.0))
        # aleph grid contains exactly d=2, theta grid contains exactly phi.
        row = table[(table[:, 0] == 2.0) & np.isclose(table[:, 1], math.pi / 4)]
        assert row[0, 2] == pytest.approx(
            analytic_minimizer(1.0, 0.4, dd).min_rate, rel=1e-14)

    def test_zero_diffusion_landscape_is_constant(self):
        dd = DiffDecomposition(Delta=0.0, d=1.0, phi=0.0)
        a, lam = 2.0, 0.7
        table = rate_landscape(a, lam, dd, 7, 5, (0.5, 2.0))
        np.testing.assert_allclose(table[:, 2], -2 * lam / a, rtol=1e-14)

    def test_isotropic_landscape_is_angle_independent(self):
        dd = diff(d=1.0, phi=0.0)
        table = rate_landscape(1.0, 0.1, dd, 11, 13, (0.5, 2.0))
        rates = table[:, 2].reshape(11, 13)
        assert np.max(np.ptp(rates, axis=1)) < 1e-12


class TestProperties:
    def test_analytic_point_is_global_grid_minimum(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            dd = diff(delta=rng.uniform(0.1, 2), d=rng.uniform(1, 5),
                      phi=rng.uniform(0, math.pi))
            a, lam = rng.uniform(1, 8), rng.normal()
            table = rate_landscape(a, lam, dd, 60, 60, (0.3, 9.0))
            min_rate = analytic_minimizer(a, lam, dd).min_rate
            assert np.all(table[:, 2] >= min_rate - 1e-12)

    def test_angle_shift_equivariance(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            delta0 = rng.uniform(0.2, 2)
            d = rng.uniform(1.2, 4)
            phi = rng.uniform(0, math.pi / 2)
            shift = rng.uniform(0, math.pi / 2)
            lam = rng.uniform(0, delta0)
            r1 = run_sieve(1.0, lam, diff(delta=delta0, d=d, phi=phi),
                           n_aleph=101, n_theta=180, aleph_range=(0.5, 8.0))
            r2 = run_sieve(1.0, lam, diff(delta=delta0, d=d, phi=phi + shift),
                           n_aleph=101, n_theta=180, aleph_range=(0.5, 8.0))
            assert r2.min_rate == pytest.approx(r1.min_rate, rel=1e-12)
            got = (r2.grid_theta - r1.grid_theta) % math.pi
            step = math.pi / 180
            assert min(abs(got - shift % math.pi),
                       abs(got - shift % math.pi - math.pi),
                       abs(got - shift % math.pi + math.pi)) <= step + 1e-12

    def test_minimizer_independent_of_area(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            dd = diff(delta=rng.uniform(0.2, 2), d=rng.uniform(1, 5),
                      phi=rng.uniform(0, math.pi))
            lam = rng.uniform(0, dd.Delta)
            argmins = {grid_search(a, lam, dd, 101, 91, (0.5, 8.0))[:2]
                       for a in (1.0, 2.0, 10.0)}
            assert len(argmins) == 1

    def test_pure_state_minimum_nonnegative_under_constraint(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            dd = diff(delta=rng.uniform(0.1, 3), d=rng.uniform(1, 4),
                      phi=rng.uniform(0, math.pi))
            lam = rng.uniform(-dd.Delta, dd.Delta)  # constraint: Delta >= |lam|
            assert analytic_minimizer(1.0, lam, dd).min_rate >= -1e-12
