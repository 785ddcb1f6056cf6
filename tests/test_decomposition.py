import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindosc import decomposition
from lindosc import (CovDecomposition, DiffDecomposition, LindbladCouplings,
                     ModelParams, build_scaled_diffusion, compose,
                     compose_diffusion, decompose, decompose_diffusion)
from lindosc.errors import ConfigError, NotSPD

HBAR = 1.0


class TestDecompose:
    def test_isotropic(self):
        dec = decompose(0.5 * HBAR * np.eye(2), HBAR)
        assert (dec.A, dec.aleph, dec.theta) == pytest.approx((1.0, 1.0, 0.0))

    def test_diagonal_squeezed(self):
        dec = decompose(0.5 * HBAR * np.diag([4.0, 0.25]), HBAR)
        assert (dec.A, dec.aleph, dec.theta) == pytest.approx((1.0, 2.0, 0.0))

    def test_round_trip_from_triple(self):
        src = CovDecomposition(A=3.0, aleph=1.5, theta=1.0)
        dec = decompose(compose(src, HBAR), HBAR)
        assert (dec.A, dec.aleph, dec.theta) == pytest.approx((3.0, 1.5, 1.0))

    def test_rejects_indefinite(self):
        with pytest.raises(NotSPD):
            decompose(np.diag([1.0, -1.0]), HBAR)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSPD):
            decompose(np.array([[1.0, 0.5], [-0.5, 1.0]]), HBAR)


class TestCompose:
    def test_isotropic_any_angle(self):
        for theta in (0.0, 0.7, 2.0):
            np.testing.assert_allclose(
                compose(CovDecomposition(1.0, 1.0, theta), HBAR),
                0.5 * HBAR * np.eye(2), atol=1e-15)

    def test_diagonal(self):
        np.testing.assert_allclose(
            compose(CovDecomposition(1.0, 2.0, 0.0), HBAR),
            0.5 * HBAR * np.diag([4.0, 0.25]))

    def test_quarter_turn_swaps_axes(self):
        np.testing.assert_allclose(
            compose(CovDecomposition(1.0, 2.0, math.pi / 2), HBAR),
            0.5 * HBAR * np.diag([0.25, 4.0]), atol=1e-15)

    def test_determinant(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            dec = CovDecomposition(A=rng.uniform(0.5, 10),
                                   aleph=rng.uniform(1, 5),
                                   theta=rng.uniform(0, math.pi))
            m = compose(dec, HBAR)
            assert np.linalg.det(m) == pytest.approx((HBAR * dec.A / 2) ** 2,
                                                     rel=1e-12)


def random_triples(n, seed):
    rng = np.random.default_rng(seed)
    return zip(rng.uniform(0.1, 10, n),
               np.exp(rng.uniform(0.001, math.log(30), n)),
               rng.uniform(0, math.pi, n))


def test_round_trip_on_triples():
    # decompose(compose(.)) recovers (A, aleph > 1, theta) componentwise.
    for a, aleph, theta in random_triples(10_000, seed=5):
        dec = decompose(compose(CovDecomposition(a, aleph, theta), HBAR), HBAR)
        assert dec.A == pytest.approx(a, abs=1e-10, rel=1e-10)
        assert dec.aleph == pytest.approx(aleph, abs=1e-10, rel=1e-10)
        assert dec.theta == pytest.approx(theta, abs=1e-9)


def test_round_trip_on_matrices():
    for a, aleph, theta in random_triples(10_000, seed=6):
        m = compose(CovDecomposition(a, aleph, theta), HBAR)
        back = compose(decompose(m, HBAR), HBAR)
        assert np.linalg.norm(back - m) <= 1e-12 * np.linalg.norm(m)


def test_angle_periodicity_and_axis_swap():
    rng = np.random.default_rng(8)
    for _ in range(300):
        a, aleph, theta = rng.uniform(0.5, 5), rng.uniform(1, 4), rng.uniform(0, math.pi)
        m = compose(CovDecomposition(a, aleph, theta), HBAR)
        np.testing.assert_allclose(
            compose(CovDecomposition(a, aleph, theta + math.pi), HBAR), m,
            rtol=0, atol=1e-13 * a)
        np.testing.assert_allclose(
            compose(CovDecomposition(a, 1 / aleph, theta + math.pi / 2), HBAR), m,
            rtol=0, atol=1e-13 * a * aleph ** 2)
        dec = decompose(m, HBAR)
        assert dec.aleph >= 1.0
        assert 0.0 <= dec.theta < math.pi


class TestDiffusionDecomposition:
    def test_isotropic(self):
        dec = decompose_diffusion(0.5 * HBAR * 1.7 * np.eye(2), HBAR)
        assert (dec.Delta, dec.d, dec.phi) == pytest.approx((1.7, 1.0, 0.0))

    def test_diagonal(self):
        dec = decompose_diffusion(0.5 * HBAR * np.diag([9.0, 1 / 9.0]), HBAR)
        assert (dec.Delta, dec.d, dec.phi) == pytest.approx((1.0, 3.0, 0.0))

    @pytest.mark.filterwarnings("error")
    def test_zero_is_singular(self):
        with pytest.raises(NotSPD):
            decompose_diffusion(np.zeros((2, 2)), HBAR)
        # The other way round, a zero ratio has no inverse square.
        with pytest.raises(ConfigError):
            compose(CovDecomposition(1.0, 0.0, 0.0), HBAR)
        with pytest.raises(ConfigError):
            compose_diffusion(DiffDecomposition(1.0, 0.0, 0.0), HBAR)
        # Nor one whose square or inverse square is past the float range.
        for ratio in (1e200, 1e-200):
            with pytest.raises(ConfigError):
                compose(CovDecomposition(1.0, ratio, 0.0), HBAR)
        with pytest.raises(ConfigError):
            compose_diffusion(DiffDecomposition(1.0, 1e200, 0.0), HBAR)
        # Nor one whose finite factors multiply past the float range.
        with pytest.raises(ConfigError):
            compose(CovDecomposition(1e308, 1e10, 0.0), 1.0)
        with pytest.raises(ConfigError):
            compose_diffusion(DiffDecomposition(1e308, 1.0, 0.0), 4.0)

    def test_round_trip(self):
        src = DiffDecomposition(Delta=0.8, d=2.5, phi=2.2)
        dec = decompose_diffusion(compose_diffusion(src, HBAR), HBAR)
        assert (dec.Delta, dec.d, dec.phi) == pytest.approx((0.8, 2.5, 2.2))


@settings(max_examples=300, deadline=None)
@given(
    re_a=st.floats(-3, 3), im_a=st.floats(-3, 3),
    re_b=st.floats(-3, 3), im_b=st.floats(-3, 3),
    re_a2=st.floats(-3, 3), im_b2=st.floats(-3, 3),
    m=st.floats(0.2, 5), omega=st.floats(0.2, 5),
)
def test_diffusion_intensity_dominates_friction(re_a, im_a, re_b, im_b,
                                                re_a2, im_b2, m, omega):
    # The positivity constraint implies Delta >= |lambda| for every model
    # built from couplings, whenever the diffusion matrix is non-singular.
    c = LindbladCouplings(a1=complex(re_a, im_a), b1=complex(re_b, im_b),
                          a2=complex(re_a2, 0.1), b2=complex(0.1, im_b2))
    p = ModelParams.from_couplings(c, m=m, omega=omega, mu=0.0, hbar=1.0)
    scaled = build_scaled_diffusion(p)
    try:
        dec = decompose_diffusion(scaled, p.hbar)
    except NotSPD:
        return
    assert dec.Delta >= abs(p.lam) - 1e-9 * max(1.0, abs(p.lam))


def test_decompose_in_range_is_the_unscaled_formula():
    # decompose takes the determinant on m divided by a power of two, which
    # is exact: in range, (A, aleph, theta) are bit for bit those of the
    # closed form on m itself.
    rng = np.random.default_rng(22)
    for (a, aleph, theta), scale in zip(random_triples(200, seed=22),
                                        10.0 ** rng.uniform(-100, 100, 200)):
        m = compose(CovDecomposition(a, aleph, theta), HBAR) * scale
        det = m[0, 0] * m[1, 1] - m[1, 0] * m[0, 1]
        assert decompose(m, HBAR) == CovDecomposition(
            *decomposition._decompose(m, 1.0, det, HBAR))


@pytest.mark.filterwarnings("error")
def test_decompose_past_the_determinant_range():
    # det m = 1e320 overflows; A = 2 sqrt(det m) / hbar does not.
    dec = decompose(1e160 * np.eye(2), HBAR)
    assert dec.A == pytest.approx(2e160, rel=1e-15)
    assert (dec.aleph, dec.theta) == (1.0, 0.0)
