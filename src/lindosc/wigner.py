"""Gaussian phase-space (Wigner) evaluation and a Fokker-Planck residual check.

Coordinates are the scaled phase-space coordinates used everywhere else in
the package: ``x1 = sqrt(m*omega) * q`` and ``x2 = p / sqrt(m*omega)``, so
the covariance entering the Gaussian is exactly ``GaussianState.sigma``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _mat2
from .errors import BoxTooSmall


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor-product trapezoid grid: half-width in standard deviations."""

    n_sigma: float = 8.0
    n_points: int = 401


def wigner_eval(state, point):
    """Gaussian phase-space density of the state at one point."""
    sigma = np.asarray(state.sigma, dtype=float)
    det = _mat2.check_spd(sigma, "covariance")
    inv = _mat2.inv(sigma, det)
    dx = np.asarray(point, dtype=float) - state.mean
    quad = dx @ inv @ dx
    return math.exp(-0.5 * quad) / math.sqrt((2.0 * math.pi) ** 2 * det)


def wigner_grid(state, spec):
    """Evaluate the density on a centered uniform grid.

    Returns ``(x1, x2, f)`` with ``f[i, j]`` at ``(x1[i], x2[j])`` (row-major
    over x1).  The box half-width is ``spec.n_sigma`` times the largest
    standard deviation of the state.
    """
    sigma = np.asarray(state.sigma, dtype=float)
    det = _mat2.check_spd(sigma, "covariance")
    inv = _mat2.inv(sigma, det)
    sd_max = math.sqrt(_mat2.spectrum(sigma)[2])
    half = spec.n_sigma * sd_max

    x1 = state.mean[0] + np.linspace(-half, half, spec.n_points)
    x2 = state.mean[1] + np.linspace(-half, half, spec.n_points)
    dx1 = x1[:, None] - state.mean[0]
    dx2 = x2[None, :] - state.mean[1]
    quad = (inv[0, 0] * dx1 ** 2
            + 2.0 * inv[0, 1] * dx1 * dx2
            + inv[1, 1] * dx2 ** 2)
    f = np.exp(-0.5 * quad) / math.sqrt((2.0 * math.pi) ** 2 * det)
    return x1, x2, f


def wigner_normalization(state, spec):
    """Integral of the density over the quadrature box; ~1 for a wide box."""
    if spec.n_sigma < 6.0:
        raise BoxTooSmall(
            f"box of {spec.n_sigma} standard deviations is too small; need >= 6")
    x1, x2, f = wigner_grid(state, spec)
    return float(np.trapezoid(np.trapezoid(f, x2, axis=1), x1))


def fp_residual(trajectory, point, t_index, h_x):
    """Finite-difference residual of the phase-space transport equation.

    The evolved Gaussian solves ``df/dt = -sum_ij Y_ij d_i (x_j f) +
    sum_ij D_ij d_i d_j f`` with the trajectory's drift Y and diffusion D;
    the returned residual vanishes as O(dt**2 + h_x**2).  ``t_index`` must be
    interior so the time derivative can use adjacent samples.
    """
    if not 0 < t_index < len(trajectory) - 1:
        raise IndexError(f"t_index {t_index} is not interior to the trajectory")

    point = np.asarray(point, dtype=float)
    drift = trajectory.drift
    diffusion = trajectory.diffusion
    state = trajectory.state(t_index)

    f_plus = wigner_eval(trajectory.state(t_index + 1), point)
    f_minus = wigner_eval(trajectory.state(t_index - 1), point)
    dfdt = (f_plus - f_minus) / (2.0 * trajectory.dt_sample)

    def f_at(p):
        return wigner_eval(state, p)

    e = np.eye(2) * h_x
    f0 = f_at(point)
    fp = [f_at(point + e[i]) for i in range(2)]
    fm = [f_at(point - e[i]) for i in range(2)]

    # sum_ij Y_ij d_i (x_j f) by central differences of g_j(x) = x_j * f(x).
    drift_term = 0.0
    for i in range(2):
        xp = point + e[i]
        xm = point - e[i]
        for j in range(2):
            drift_term += drift[i, j] * (xp[j] * fp[i] - xm[j] * fm[i]) / (2.0 * h_x)

    diff_term = 0.0
    for i in range(2):
        diff_term += diffusion[i, i] * (fp[i] - 2.0 * f0 + fm[i]) / h_x ** 2
    f_pp = f_at(point + e[0] + e[1])
    f_pm = f_at(point + e[0] - e[1])
    f_mp = f_at(point - e[0] + e[1])
    f_mm = f_at(point - e[0] - e[1])
    diff_term += 2.0 * diffusion[0, 1] * (f_pp - f_pm - f_mp + f_mm) / (4.0 * h_x ** 2)

    return dfdt + drift_term - diff_term
