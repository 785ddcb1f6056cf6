"""Reference values the benchmark checks lindosc's outputs against.

Nothing here calls lindosc.  The covariance reference is the exact solution
of the linear moment equations,

    Sigma(t) = E(t) (Sigma0 - S) E(t)^T + S,    mean(t) = E(t) mean0,

with E(t) = exp(Y t) taken from the eigenvalues of the 2x2 drift Y and S the
solution of the 3x3 Lyapunov system Y S + S Y^T + 2 D = 0.  The sieve
reference is the closed-form minimizer aleph* = d, theta* = phi of the
diffusion decomposition.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def drift(lam, mu, omega):
    """Drift matrix of the damped oscillator, trace -2*lam."""
    return np.array([[-(lam - mu), omega], [-omega, -(lam + mu)]])


def scaled_diffusion(m, omega, d_qq, d_pp, d_pq):
    mw = m * omega
    return np.array([[mw * d_qq, d_pq], [d_pq, d_pp / mw]])


def coefficients(a1, b1, a2, b2, hbar):
    """(D_qq, D_pp, D_pq, lam) of two coupling pairs V_j = a_j p + b_j q."""
    pairs = ((a1, b1), (a2, b2))
    d_qq = 0.5 * hbar * sum(abs(a) ** 2 for a, _ in pairs)
    d_pp = 0.5 * hbar * sum(abs(b) ** 2 for _, b in pairs)
    cross = sum(a.conjugate() * b for a, b in pairs)
    return d_qq, d_pp, -0.5 * hbar * cross.real, -cross.imag


def expm2(y, t):
    """exp(y t) of a real 2x2 matrix from its eigenvalues m +- s:
    exp(m t) [cosh(s t) I + sinh(s t)/s (y - m I)]."""
    m = 0.5 * (y[0, 0] + y[1, 1])
    det = y[0, 0] * y[1, 1] - y[0, 1] * y[1, 0]
    s = cmath.sqrt(m * m - det)
    st = s * t
    # sinh(st)/s -> t as s -> 0; the series keeps the degenerate case exact.
    shs = cmath.sinh(st) / s if abs(st) > 1e-8 else t * (1.0 + st * st / 6.0)
    e = math.exp(m * t)
    c, k = (e * cmath.cosh(st)).real, (e * shs).real
    return c * np.eye(2) + k * (y - m * np.eye(2))


def spectral_radius(y):
    """Largest eigenvalue modulus of a real 2x2 matrix."""
    m = 0.5 * (y[0, 0] + y[1, 1])
    s = cmath.sqrt(m * m - (y[0, 0] * y[1, 1] - y[0, 1] * y[1, 0]))
    return max(abs(m + s), abs(m - s))


def lyapunov(y, d):
    """Symmetric S with y S + S y^T + 2 d = 0, from the 3x3 system in
    (S11, S12, S22)."""
    a = np.array([[2.0 * y[0, 0], 2.0 * y[0, 1], 0.0],
                  [y[1, 0], y[0, 0] + y[1, 1], y[0, 1]],
                  [0.0, 2.0 * y[1, 0], 2.0 * y[1, 1]]])
    s11, s12, s22 = np.linalg.solve(a, -2.0 * np.array([d[0, 0], d[0, 1], d[1, 1]]))
    return np.array([[s11, s12], [s12, s22]])


def moments(y, d, mean0, sigma0, t):
    """Exact (mean, Sigma) at time t."""
    e = expm2(y, t)
    s = lyapunov(y, d)
    return e @ mean0, e @ (sigma0 - s) @ e.T + s


def rel_err(got, want):
    """Relative Frobenius distance."""
    return float(np.linalg.norm(np.asarray(got) - want) / np.linalg.norm(want))


def covariance(area, aleph, theta, hbar):
    """(hbar A / 2) O^T diag(aleph^2, aleph^-2) O with O = [[c, -s], [s, c]]."""
    c, s = math.cos(theta), math.sin(theta)
    a, b = aleph ** 2, aleph ** -2
    k = 0.5 * hbar * area
    return k * np.array([[c * c * a + s * s * b, c * s * (b - a)],
                         [c * s * (b - a), s * s * a + c * c * b]])


def diffusion_shape(dmat, hbar):
    """(Delta, d, phi) of a scaled diffusion matrix, with d >= 1, phi in [0, pi)."""
    det = dmat[0, 0] * dmat[1, 1] - dmat[0, 1] ** 2
    gap = math.hypot(dmat[0, 0] - dmat[1, 1], 2.0 * dmat[0, 1])
    ratio = 0.5 * (dmat[0, 0] + dmat[1, 1] + gap) / math.sqrt(det)
    phi = 0.5 * math.atan2(-2.0 * dmat[0, 1], dmat[0, 0] - dmat[1, 1])
    return 2.0 * math.sqrt(det) / hbar, math.sqrt(ratio), phi % math.pi


def rate(aleph, theta, area, lam, delta, d, phi):
    """Entropy-production rate of a state (area, aleph, theta); broadcasts."""
    c2 = np.cos(theta - phi) ** 2
    s2 = 1.0 - c2
    x = (aleph * d) ** 2
    y = (aleph / d) ** 2
    return (-2.0 * lam + delta / area * (c2 * (y + 1.0 / y) + s2 * (x + 1.0 / x))) / area


def min_rate(area, lam, delta):
    return 2.0 * (delta - area * lam) / area ** 2


def angle_dist(a, b):
    """Distance of two orientations modulo pi."""
    r = (a - b) % math.pi
    return min(r, math.pi - r)


def canonical(aleph, theta):
    """The rate is invariant under (aleph, theta) -> (1/aleph, theta + pi/2);
    map to the aleph >= 1 representative."""
    if aleph < 1.0:
        return 1.0 / aleph, (theta + 0.5 * math.pi) % math.pi
    return aleph, theta


def trapezoid_mass(x1, x2, f):
    """Trapezoid integral of f[i, j] sampled on the tensor grid x1 x x2."""
    w1 = np.diff(x1)
    w2 = np.diff(x2)
    inner = 0.5 * ((f[:, 1:] + f[:, :-1]) * w2).sum(axis=1)
    return float(0.5 * ((inner[1:] + inner[:-1]) * w1).sum())
