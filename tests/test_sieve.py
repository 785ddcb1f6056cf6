import math
import tracemalloc

import numpy as np
import pytest

from lindosc import (CovDecomposition, DiffDecomposition, analytic_minimizer,
                     compose, compose_diffusion, decompose_diffusion, grid_search,
                     initial_rate, rate_at, rate_landscape, run_sieve)
from lindosc import sieve
from lindosc.errors import ConfigError

HBAR = 1.0
POLISH = sieve._polish


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

    def test_isotropy_is_decided_as_in_decompose(self):
        # ratio**2 = 1 + 1.5e-12 is past the isotropy tolerance 1e-12 of
        # decompose, which keeps its angle; so does the minimizer.
        dd = decompose_diffusion(compose_diffusion(
            diff(d=math.sqrt(1.0 + 1.5e-12), phi=0.7), HBAR), HBAR)
        assert 0.0 < dd.d - 1.0 < 1e-12
        res = analytic_minimizer(1.0, 0.2, dd)
        assert (res.aleph_star, res.theta_star) == (dd.d, dd.phi)
        assert not res.degenerate_angle

    def test_anisotropy_below_one_reports_aleph_above_one(self):
        # (d, phi) and (1/d, phi + pi/2) are the same diffusion; both the
        # minimizer and the grid report the aleph >= 1 representative.
        res = run_sieve(1.0, 0.2, diff(d=0.5, phi=0.3), 401, 361, (0.1, 8.0))
        assert (res.aleph_star, res.theta_star) == (2.0, 0.3 + math.pi / 2)
        assert not res.degenerate_angle
        assert res.grid_aleph == pytest.approx(2.0, rel=1e-9)
        assert res.grid_theta == pytest.approx(res.theta_star, rel=1e-9)

    def test_a_range_may_bracket_the_inverse_anisotropy_only(self):
        # The range (0.5, 8.0) holds 1/d = 2 but not d = 0.5 itself.
        res = run_sieve(1.0, 0.2, diff(d=0.5, phi=0.3), aleph_range=(0.5, 8.0))
        assert (res.aleph_star, res.theta_star) == (2.0, 0.3 + math.pi / 2)
        assert res.grid_aleph == pytest.approx(2.0, rel=1e-9)
        assert res.grid_theta == pytest.approx(res.theta_star, rel=1e-9)
        with pytest.raises(ConfigError, match="bracketing neither"):
            run_sieve(1.0, 0.2, diff(d=0.3, phi=0.3), 51, 51, (0.5, 2.0))

    @pytest.mark.parametrize("d", [0.05, 0.5, 10.0, 300.0])
    def test_default_range_is_about_the_anisotropy(self, d):
        # An unset end is d/4 or 4d, as in the CLI, so the default brackets
        # d for every d; a fixed range such as (0.5, 8.0) holds neither d nor
        # 1/d for d = 10 or 300.
        dd = diff(d=d, phi=0.3)
        res = run_sieve(1.0, 0.1, dd)
        assert res.grid_rate == pytest.approx(res.min_rate, rel=1e-12)
        # The point of a minimum is only known to about sqrt(eps).
        assert res.grid_aleph == pytest.approx(res.aleph_star, rel=1e-7)
        assert res.grid_theta == pytest.approx(res.theta_star, rel=1e-7)
        assert sieve._aleph_range(dd) == (d / 4.0, 4.0 * d)
        assert sieve._aleph_range(dd, 1.0, None) == (1.0, 4.0 * d)

    def test_angle_is_reduced_for_every_anisotropy(self):
        # phi = 4.0 and 4 - pi are the same diffusion.  With d >= 1 as with
        # d < 1, the minimizer reports theta in [0, pi), as the grid does.
        for d in (3.0, 1.0 / 3.0):
            res = run_sieve(1.0, 0.2, diff(d=d, phi=4.0))
            assert 0.0 <= res.theta_star < math.pi
            assert res.grid_theta == pytest.approx(res.theta_star, rel=1e-9)
        assert analytic_minimizer(1.0, 0.2, diff(d=3.0, phi=4.0)).theta_star == 4.0 - math.pi

    def test_representative(self):
        assert sieve._representative(0.5, 0.3) == (2.0, 0.3 + math.pi / 2)
        assert sieve._representative(2.0, 0.3 + math.pi) == (2.0, (0.3 + math.pi) - math.pi)
        # -1e-20 % pi rounds to pi itself, which is not in [0, pi).
        assert sieve._representative(2.0, -1e-20) == (2.0, 0.0)

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

    def test_mirrored_optimum_reaches_the_formula_to_rounding(self):
        # A range that brackets only 1/d, where B of the optimum (~2) is the
        # difference of terms of size ~d**4: a form of B that cancels there
        # (as B = P + sin^2 * k * (aleph^2 - 1/aleph^2) does) loses the rate.
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(40):
            d = rng.uniform(5.0, 20.0)
            dd = diff(delta=rng.uniform(0.2, 2.0), d=d, phi=rng.uniform(0.0, math.pi))
            a, lam = rng.uniform(1.0, 3.0), rng.uniform(-1.0, 1.0)
            _, _, rate = grid_search(a, lam, dd, 401, 361, (0.25 / d, 4.0 / d))
            scale = 2 * dd.Delta / a ** 2 + 2 * abs(lam) / a
            min_rate = analytic_minimizer(a, lam, dd).min_rate
            worst = max(worst, abs(rate - min_rate) / scale)
        assert worst <= 1e-13

    def test_bracket_error(self):
        with pytest.raises(ConfigError):
            grid_search(1.0, 0.2, diff(d=3.0), 51, 51, (0.5, 2.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", [
        lambda: grid_search(1.0, 0.2, diff(), 0, 361, (0.5, 8.0)),
        lambda: grid_search(1.0, 0.2, diff(), 401, 0, (0.5, 8.0)),
        lambda: rate_landscape(1.0, 0.2, diff(), 3, 0, (0.5, 8.0)),
        lambda: rate_landscape(1.0, 0.2, diff(), 0, 3, (0.5, 8.0)),
        lambda: run_sieve(1.0, 0.2, diff(), 401, 361, (-1.0, 8.0)),
        lambda: run_sieve(1.0, 0.2, diff(), 401, 361, (0.0, 8.0)),
        lambda: run_sieve(1.0, 0.2, diff(phi=math.nan)),
    ], ids=["no_aleph", "no_theta", "landscape_no_theta", "landscape_no_aleph",
            "negative_aleph", "zero_aleph", "nan_phi"])
    def test_empty_grid_or_bad_diffusion_is_config_error(self, call):
        with pytest.raises(ConfigError):
            call()


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


def _literal_bracket(aleph, theta, dd):
    """B as one expression, as the module docstring writes it."""
    c2 = np.cos(theta - dd.phi) ** 2
    s2 = np.sin(theta - dd.phi) ** 2
    al2, d2 = aleph ** 2, dd.d ** 2
    return c2 * (al2 / d2 + d2 / al2) + s2 * (al2 * d2 + 1.0 / (al2 * d2))


def _one_shot_search(area, lam, dd, n_aleph, n_theta, aleph_range):
    """The reference for grid_search: B over the whole grid at once and one
    np.argmin.  Returns the chosen cell and the polished result."""
    alephs, thetas = sieve._default_grids(dd, n_aleph, n_theta, aleph_range)
    brackets = sieve._bracket(alephs[:, None], thetas[None, :], dd)
    assert np.array_equal(brackets, _literal_bracket(alephs[:, None], thetas[None, :], dd))
    i, j = divmod(int(np.argmin(brackets)), brackets.shape[1])
    cell = (float(alephs[i]), float(thetas[j]))
    aleph, theta = POLISH(*cell, dd)
    rate = rate_at(aleph, theta, area, lam, dd)
    if aleph < 1.0:
        aleph, theta = 1.0 / aleph, theta + math.pi / 2.0
    return cell, (aleph, theta % math.pi, rate)


class _Cell(Exception):
    """Raised in place of the polish, carrying the cell it was handed."""


def _stop_at_cell(aleph, theta, dd):
    raise _Cell(aleph, theta)


class TestTiledSearch:
    def test_same_cell_and_result_as_one_shot_argmin(self, monkeypatch):
        # One tile, a full tile, a full tile plus one row, a partial last
        # tile; isotropic models, where B is flat in theta up to rounding;
        # and lo == hi == d, where every aleph row is the same.
        rng = np.random.default_rng(41)
        for k in range(1000):
            d = 1.0 if k % 4 == 0 else float(rng.uniform(1.0, 5.0))
            dd = diff(delta=rng.uniform(0.1, 3.0), d=d, phi=rng.uniform(0, math.pi))
            n_aleph = (1, 31, 32, 33, 401)[k % 5]
            n_theta = int(rng.choice([1, 2, 90, 361]))
            if k % 7 == 0:
                aleph_range = (d, d)
            else:
                aleph_range = (d / rng.uniform(1.1, 5.0), d * rng.uniform(1.1, 5.0))
            args = (rng.uniform(1.0, 8.0), rng.normal(), dd, n_aleph, n_theta,
                    aleph_range)
            cell, expected = _one_shot_search(*args)
            with monkeypatch.context() as m:
                m.setattr(sieve, "_polish", _stop_at_cell)
                with pytest.raises(_Cell) as chosen:
                    grid_search(*args)
            assert chosen.value.args == cell
            assert grid_search(*args) == expected

    @pytest.mark.parametrize("rows", [
        {31: 1.0, 32: 1.0},                 # a tie across the first boundary
        {32: 1.0, 64: 1.0, 95: 1.0},        # ties at tile starts and ends
        {0: 2.0, 40: 1.0, 65: 1.0},         # later tiles, still the lowest wins
        {5: 1.0, 40: math.nan, 70: math.nan},   # the first NaN wins, as in argmin
        dict.fromkeys(range(32), math.inf),     # a first tile all inf
        dict.fromkeys(range(100), math.inf),    # an all-inf grid: the first cell
    ])
    def test_ties_and_nan_resolve_as_argmin_over_the_whole_grid(self, monkeypatch, rows):
        n_aleph, n_theta = 100, 3
        column = np.full((n_aleph, 1), 5.0)
        for row, value in rows.items():
            column[row] = value
        c2, s2 = np.ones((1, n_theta)), np.zeros((1, n_theta))
        monkeypatch.setattr(sieve, "_bracket_factors",
                            lambda *_: (c2, s2, column, np.zeros_like(column)))
        monkeypatch.setattr(sieve, "_polish", _stop_at_cell)
        dd = diff()
        with pytest.raises(_Cell) as chosen:
            grid_search(1.0, 0.2, dd, n_aleph, n_theta, (0.5, 8.0))
        alephs, thetas = sieve._default_grids(dd, n_aleph, n_theta, (0.5, 8.0))
        i, j = divmod(int(np.argmin(c2 * column + s2 * 0.0)), n_theta)
        assert chosen.value.args == (alephs[i], thetas[j])

    def test_memory_stays_below_half_a_grid(self):
        # The tiles replace grid-sized temporaries (1.16 MB each at 401 x 361).
        tracemalloc.start()
        try:
            grid_search(1.0, 0.2, diff(), 401, 361, (0.5, 8.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 401 * 361 * 8 / 2
