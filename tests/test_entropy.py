import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindosc import (CovDecomposition, LindbladCouplings, ModelParams,
                     area, area_rate, build_drift, build_scaled_diffusion,
                     compose, entropy_rate, initial_rate, linear_entropy)
from lindosc.entropy import report
from lindosc.errors import NonPositiveDeterminant, UnphysicalState

HBAR = 1.0


def iso(a):
    return 0.5 * HBAR * a * np.eye(2)


class TestArea:
    def test_pure_isotropic(self):
        assert area(iso(1.0), HBAR) == 1.0

    def test_mixed(self):
        assert area(HBAR * np.eye(2), HBAR) == pytest.approx(2.0)

    def test_squeezed_pure(self):
        assert area(np.diag([2.0 * HBAR, HBAR / 8.0]), HBAR) == pytest.approx(1.0)

    def test_nonpositive_determinant(self):
        with pytest.raises(NonPositiveDeterminant):
            area(np.diag([1.0, 0.0]), HBAR)


class TestLinearEntropy:
    def test_pure(self):
        assert linear_entropy(iso(1.0), HBAR) == 0.0

    def test_half(self):
        assert linear_entropy(HBAR * np.eye(2), HBAR) == pytest.approx(0.5)

    def test_clamp_below_one(self):
        assert linear_entropy(iso(1.0 - 1e-12), HBAR) == 0.0

    def test_unphysical(self):
        with pytest.raises(UnphysicalState):
            linear_entropy(iso(0.5), HBAR)


def iso_drift(lam):
    return np.array([[-lam, 1.0], [-1.0, -lam]])


class TestRates:
    def test_pure_isotropic_rate(self):
        delta, lam = 1.3, 0.4
        d = iso(delta)
        assert area_rate(iso(1.0), iso_drift(lam), d, HBAR) == pytest.approx(
            2.0 * (delta - lam))
        assert entropy_rate(iso(1.0), iso_drift(lam), d, HBAR) == pytest.approx(
            2.0 * (delta - lam))

    def test_unitary_case_is_zero(self):
        assert area_rate(iso(1.7), iso_drift(0.0), np.zeros((2, 2)), HBAR) == 0.0

    def test_pure_contraction(self):
        lam, a = 0.8, 2.5
        assert area_rate(iso(a), iso_drift(lam), np.zeros((2, 2)), HBAR) == \
            pytest.approx(-2.0 * lam * a)

    def test_entropy_rate_is_area_rate_over_area_squared(self):
        sigma = np.array([[1.4, 0.2], [0.2, 0.9]])
        d = np.array([[0.5, 0.1], [0.1, 0.8]])
        y = np.array([[-0.3, 1.2], [-1.2, -0.5]])
        a = area(sigma, HBAR)
        assert entropy_rate(sigma, y, d, HBAR) == pytest.approx(
            area_rate(sigma, y, d, HBAR) / a ** 2, rel=1e-14)


class TestInitialRate:
    def test_pure_isotropic(self):
        delta, lam = 1.3, 0.4
        assert initial_rate(iso(1.0), iso(delta), lam, HBAR) == pytest.approx(
            2.0 * (delta - lam))

    def test_zero_diffusion(self):
        sigma = iso(2.0)
        assert initial_rate(sigma, np.zeros((2, 2)), 0.7, HBAR) == pytest.approx(
            -2.0 * 0.7 / 2.0)

    def test_mixed_isotropic_minimum(self):
        a, delta, lam = 3.0, 1.1, 0.2
        assert initial_rate(iso(a), iso(delta), lam, HBAR) == pytest.approx(
            2.0 * (delta - a * lam) / a ** 2)


def test_initial_rate_equals_entropy_rate_for_any_traceless_extension():
    # The oscillatory and mixing drift parts are traceless and cancel.
    rng = np.random.default_rng(21)
    for _ in range(500):
        p = ModelParams(m=rng.uniform(0.2, 3), omega=rng.uniform(0.2, 3),
                        mu=rng.normal(), hbar=1.0,
                        D_qq=rng.uniform(0, 2), D_pp=rng.uniform(0, 2),
                        D_pq=rng.uniform(-0.5, 0.5), lam=rng.normal())
        sigma = compose(CovDecomposition(A=rng.uniform(1, 5),
                                         aleph=rng.uniform(1, 4),
                                         theta=rng.uniform(0, np.pi)), p.hbar)
        drift = build_drift(p)
        diffusion = build_scaled_diffusion(p)
        r1 = entropy_rate(sigma, drift, diffusion, p.hbar)
        r2 = initial_rate(sigma, diffusion, p.lam, p.hbar)
        assert r2 == pytest.approx(r1, rel=1e-12, abs=1e-13)


coeff = st.floats(-4, 4, allow_nan=False)


@settings(max_examples=1000, deadline=None)
@given(re_a=coeff, im_a=coeff, re_b=coeff, im_b=coeff,
       re_a2=coeff, im_a2=coeff, re_b2=coeff, im_b2=coeff,
       aleph=st.floats(1, 10), theta=st.floats(0, np.pi))
def test_pure_states_never_purify(re_a, im_a, re_b, im_b,
                                  re_a2, im_a2, re_b2, im_b2, aleph, theta):
    c = LindbladCouplings(a1=complex(re_a, im_a), b1=complex(re_b, im_b),
                          a2=complex(re_a2, im_a2), b2=complex(re_b2, im_b2))
    p = ModelParams.from_couplings(c, m=1.0, omega=1.0, mu=0.0, hbar=1.0)
    sigma = compose(CovDecomposition(A=1.0, aleph=aleph, theta=theta), p.hbar)
    rate = initial_rate(sigma, build_scaled_diffusion(p), p.lam, p.hbar)
    assert rate >= -1e-10 * max(1.0, abs(p.lam))


def test_report_on_a_huge_well_conditioned_covariance():
    # An entry of 1e155 squares past the float range though the determinant
    # does not; the singularity test must not overflow into calling the
    # matrix singular.
    sigma = np.array([[1e155, 1e153], [1e153, 1e152]])
    rep = report(sigma, iso_drift(-1.0), iso(1.0), HBAR)
    assert rep.area == pytest.approx(2.0 * np.sqrt(9e306))
    assert rep.area_rate == pytest.approx(2.0 * rep.area)


def test_report_in_range_is_the_unscaled_formula():
    # Scaling by a power of two is exact, so the report of an in-range stack
    # is the plain formula bit for bit.
    rng = np.random.default_rng(5)
    sigma = np.array([compose(CovDecomposition(A=a, aleph=b, theta=c), HBAR)
                      for a, b, c in zip(rng.uniform(1, 3, 50),
                                         rng.uniform(1, 4, 50),
                                         rng.uniform(0, np.pi, 50))])
    sigma *= rng.uniform(1e-3, 1e3, 50)[:, None, None]
    drift, diffusion = iso_drift(0.3), np.array([[0.4, 0.1], [0.1, 0.2]])
    rep = report(sigma, drift, diffusion, HBAR)
    det = sigma[:, 0, 0] * sigma[:, 1, 1] - sigma[:, 1, 0] * sigma[:, 0, 1]
    a = 2.0 * np.sqrt(det) / HBAR
    inv = np.stack([[sigma[:, 1, 1], -sigma[:, 0, 1]],
                    [-sigma[:, 1, 0], sigma[:, 0, 0]]]) / det
    tr_d_inv = ((diffusion[0, 0] * inv[0, 0] + diffusion[0, 1] * inv[1, 0])
                + (diffusion[1, 0] * inv[0, 1] + diffusion[1, 1] * inv[1, 1]))
    da = a * ((drift[0, 0] + drift[1, 1]) + tr_d_inv)
    assert np.array_equal(rep.area, a)
    assert np.array_equal(rep.area_rate, da)
    assert np.array_equal(rep.entropy_rate, da / (a * a))


def test_report_past_the_determinant_range():
    # Entries past 1.3e154: det sigma overflows, the diagnostics do not.
    scale = 2.0 ** 520
    sigma = np.array([[2.0, 0.3], [0.3, 0.7]])
    drift, diffusion = iso_drift(0.5), iso(1.0)
    with np.errstate(all="raise"):
        rep = report(scale * sigma, drift, diffusion, HBAR)
    small = report(sigma, drift, diffusion, HBAR)
    assert rep.area == scale * small.area
    assert rep.lin_entropy == 1.0
    tr_d_inv = np.trace(diffusion @ np.linalg.inv(sigma)) / scale
    assert rep.area_rate == pytest.approx(rep.area * (-1.0 + tr_d_inv), rel=1e-14)
    assert rep.entropy_rate == pytest.approx((-1.0 + tr_d_inv) / rep.area, rel=1e-14)
