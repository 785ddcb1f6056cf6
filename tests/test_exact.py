"""Exact reference arithmetic for the package's rounding claims.

Each oracle here computes, with ``fractions.Fraction``, the exact result of
the same float inputs the package receives, by a route independent of the
package's own formula, and each test checks the bound that the function's
docstring states.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from lindosc import ModelParams, _mat2, stationary_covariance, validate
from lindosc.errors import NotStable

#: 2**-53, the unit roundoff of a float.
EPS = 2.0 ** -53


def exact_stationary(drift, diffusion):
    """(S11, S12, S22) of Y S + S Y^T + 2 D = 0 in exact arithmetic, from
    the 3x3 system L (S11, S12, S22) = -2 (D11, D12, D22) whose rows are the
    (11), (12) and (22) entries of Y S + S Y^T, solved by Cramer's rule."""
    (a, b), (c, e) = [[Fraction(float(v)) for v in row] for row in drift]
    zero = Fraction(0)
    lhs = [[2 * a, 2 * b, zero], [c, a + e, b], [zero, 2 * c, 2 * e]]
    rhs = [-2 * Fraction(float(diffusion[i, j])) for i, j in ((0, 0), (0, 1), (1, 1))]

    def det3(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    whole = det3(lhs)
    return [det3([[rhs[i] if k == j else lhs[i][k] for k in range(3)] for i in range(3)])
            / whole for j in range(3)]


def stationary_error(drift, diffusion, sigma):
    """The largest |S_ij - exact S_ij| of ``sigma`` in units of
    max(S11, S22) max|Y_ij|^2 / det(Y), the scale of the bound that
    ``stationary_covariance``'s docstring states."""
    exact = exact_stationary(drift, diffusion)
    err = max(abs(Fraction(float(sigma[i, j])) - exact[k])
              for i, j, k in ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 2)))
    (a, b), (c, e) = [[Fraction(float(v)) for v in row] for row in drift]
    kappa = Fraction(float(np.abs(drift).max())) ** 2 / (a * e - b * c)
    return float(err / (max(abs(exact[0]), abs(exact[2])) * kappa))


def weakly_damped_models(seed, n):
    """``n`` seeded Hurwitz models (drift, diffusion) of the damped
    oscillator: lambda log-uniform in (1e-8, 10), mu uniform in (-10, 10),
    omega log-uniform in (1e-3, 1e3), and a diffusion with diagonal entries
    log-uniform in (1e-3, 1e3) and correlation uniform in (-1, 1)."""
    rng = np.random.default_rng(seed)
    models = []
    while len(models) < n:
        lam, mu, omega = 10 ** rng.uniform(-8, 1), rng.uniform(-10, 10), 10 ** rng.uniform(-3, 3)
        drift = np.array([[-(lam - mu), omega], [-omega, -(lam + mu)]])
        d11, d22 = 10 ** rng.uniform(-3, 3, 2)
        d12 = rng.uniform(-1, 1) * math.sqrt(d11 * d22)
        if _mat2.hurwitz(drift):
            models.append((drift, np.array([[d11, d12], [d12, d22]])))
    return models


@pytest.mark.filterwarnings("error")
def test_weakly_damped_models_get_their_stationary_covariance():
    # A residual measured against 2|D| alone refuses 968 of these 3 000, as
    # lambda = 1e-5, omega = 30 is refused: the terms |Y||S| + |S||Y|^T that
    # cancel in the residual grow like omega / lambda while D does not.
    for drift, diffusion in weakly_damped_models(3, 3000):
        sigma = stationary_covariance(drift, diffusion)
        assert (sigma == sigma.T).all()


def test_stationary_covariance_is_within_its_bound_of_exact():
    """Each entry of ``stationary_covariance`` is within 1e-14 max(S11, S22)
    max|Y_ij|^2 / det(Y) of the exact solution for the same float inputs.

    Measured over 70 000 such models: at most 5.4e-16 in these units.  The
    factor max|Y_ij|^2 / det(Y) is 1 for Y = -lam I and near 1 for a weakly
    damped rotation; it is large only where an eigenvalue of Y is near 0
    relative to Y's entries, as for a nearly critical overdamped drift.
    """
    worst = max(stationary_error(y, d, stationary_covariance(y, d))
                for y, d in weakly_damped_models(4, 600))
    assert worst <= 1e-14, worst


def test_ill_conditioned_stationary_covariance_is_within_its_bound_of_exact():
    # Nearly marginal overdamped drifts, critically damped ones, and nearly
    # singular diffusions.  A few nearly nilpotent drifts with a nearly
    # singular diffusion are refused by the residual check; the rest hold
    # the same bound, with max|Y_ij|^2 / det(Y) up to ~1e12.
    rng = np.random.default_rng(11)
    worst, refused, tested = 0.0, 0, 0
    for _ in range(600):
        omega = 10 ** rng.uniform(-3, 3)
        if rng.integers(2):
            mu = omega * (1 + 10 ** rng.uniform(-6, 2))
            lam = math.sqrt(mu * mu - omega * omega) * (1 + 10 ** rng.uniform(-10, -1))
        else:
            mu, lam = omega * rng.choice([-1.0, 1.0]), omega * 10 ** rng.uniform(-8, 0)
        drift = np.array([[-(lam - mu), omega], [-omega, -(lam + mu)]])
        d11, d22 = 10 ** rng.uniform(-3, 3, 2)
        d12 = rng.choice([-1.0, 1.0]) * (1 - 10 ** rng.uniform(-12, 0)) * math.sqrt(d11 * d22)
        diffusion = np.array([[d11, d12], [d12, d22]])
        if not _mat2.hurwitz(drift):
            continue
        tested += 1
        try:
            sigma = stationary_covariance(drift, diffusion)
        except NotStable:
            refused += 1
            continue
        worst = max(worst, stationary_error(drift, diffusion, sigma))
    assert worst <= 1e-14 and refused <= tested // 100, (worst, refused, tested)


def exact_sqrt(r, bits=200):
    """sqrt(r) of a Fraction r >= 0, to within a relative 2**-bits."""
    root = math.isqrt(r.numerator * r.denominator << 2 * bits)
    return Fraction(root, r.denominator << bits)


def model(lam, mu, omega):
    return ModelParams(m=1.0, omega=omega, mu=mu, hbar=1.0,
                       D_qq=1.0, D_pp=1.0, D_pq=0.0, lam=lam)


def eigenvalue_cases():
    rng = np.random.default_rng(23)
    cases = [(0.6, 0.1, 1.0), (0.6, 1.0, 1.0), (0.6, -1.0, 1.0), (-0.3, 2.0, 1.0),
             (0.6, 3.0, 1.0), (0.6, -3.0, 1.0), (1e-8, 30.0, 30.0), (2.0, 1.0 + 2e-16, 1.0)]
    for _ in range(300):
        omega = 10 ** rng.uniform(-3, 3)
        mu = omega * rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-3, 3)
        cases.append((rng.uniform(-10, 10), mu, omega))
    return cases


@pytest.mark.parametrize("lam, mu, omega", eigenvalue_cases()[:8],
                         ids=["example", "critical", "critical_negative_mu", "anti_damped",
                              "overdamped", "overdamped_negative_mu", "weak_critical",
                              "nearly_critical"])
def test_validate_eigenvalue_order(lam, mu, omega):
    # The larger real part first; for a complex pair, +i first.
    (re1, im1), (re2, im2) = validate(model(lam, mu, omega)).drift_eigenvalues
    assert re1 >= re2 and im1 >= 0 >= im2 and im1 == -im2
    if abs(mu) >= omega:  # a real pair, its imaginary parts 0.0, not -0.0
        assert math.copysign(1, im1) == math.copysign(1, im2) == 1 and im1 == 0.0
    if abs(mu) == omega:
        assert re1 == re2 == -lam


def test_validate_eigenvalues_are_within_their_bound_of_exact():
    """Each part of each eigenvalue is within 4 eps (|lam| + sqrt|r|) of the
    exact -lam +- sqrt(r), r = (mu - omega)(mu + omega), eps = 2**-53: the
    radicand carries three roundings and the sqrt and the sum one each.
    Overdamped (|mu| > omega), critical (|mu| = omega) and underdamped
    models."""
    for lam, mu, omega in eigenvalue_cases():
        r = (Fraction(mu) - Fraction(omega)) * (Fraction(mu) + Fraction(omega))
        root = exact_sqrt(abs(r))
        exact = ([(-Fraction(lam) + root, 0), (-Fraction(lam) - root, 0)] if r >= 0 else
                 [(-Fraction(lam), root), (-Fraction(lam), -root)])
        bound = 4 * EPS * (abs(lam) + float(root))
        got = validate(model(lam, mu, omega)).drift_eigenvalues
        for (re, im), (exact_re, exact_im) in zip(got, exact):
            assert abs(Fraction(re) - exact_re) <= bound, (lam, mu, omega)
            assert abs(Fraction(im) - exact_im) <= bound, (lam, mu, omega)
