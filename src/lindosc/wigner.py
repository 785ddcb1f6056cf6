"""Gaussian phase-space (Wigner) evaluation and a Fokker-Planck residual check.

Coordinates are the scaled phase-space coordinates used everywhere else in
the package: ``x1 = sqrt(m*omega) * q`` and ``x2 = p / sqrt(m*omega)``, so
the covariance entering the Gaussian is exactly ``GaussianState.sigma``.

Every density goes through one preamble, :func:`_density`, which checks and
inverts one covariance or a stack of them at once, on the covariance scaled
by a power of two so that its determinant cannot overflow, and one expression,
:func:`_gaussian`, which evaluates points as arrays.  :func:`fp_residual`
evaluates its whole finite-difference stencil over three samples in one
call, and :func:`wigner_grid` forms its grid in one preallocated array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _mat2
from .errors import ConfigError


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor-product trapezoid grid: half-width in standard deviations."""

    n_sigma: float = 8.0
    n_points: int = 401


def _density(sigma):
    """``(inv, norm)`` of the Gaussian with covariance ``sigma``, or of each
    matrix of a stack ``(n, 2, 2)``: the inverse covariance and
    ``2 pi sqrt(det sigma)``, after one SPD check per matrix.

    Both are formed on ``sigma / s``, ``s`` a power of two, and scaled back,
    which is exact: in-range results are those of the plain formulas, and a
    covariance whose determinant overflows keeps a finite density.
    """
    unit, s, det = _mat2.check_spd(sigma, "covariance")
    return _mat2.inv(unit, det * s), np.sqrt((2.0 * math.pi) ** 2 * det) * s


def _gaussian(inv, norm, dx1, dx2, out=None):
    """``exp(-q / 2) / norm`` with ``q = dx^T inv dx``, elementwise over the
    broadcast of ``dx1``, ``dx2`` and a stack of ``inv``; in ``out`` if given.

    ``q`` is summed as ``(2 inv01 dx1) dx2 + inv00 dx1**2 + inv11 dx2**2``.
    """
    q = np.multiply(2.0 * inv[..., 0, 1] * dx1, dx2, out=out)
    q += inv[..., 0, 0] * dx1 ** 2
    q += inv[..., 1, 1] * dx2 ** 2
    q *= -0.5
    np.exp(q, out=q)
    q /= norm
    return q


def wigner_eval(state, point):
    """Gaussian phase-space density of the state at one point ``(2,)``, as a
    float, or at each row of an ``(n, 2)`` array, as an array."""
    point = np.asarray(point, dtype=float)
    inv, norm = _density(np.asarray(state.sigma, dtype=float))
    dx = np.reshape(point, (-1, 2)) - state.mean
    f = _gaussian(inv, norm, dx[:, 0], dx[:, 1])
    return float(f[0]) if point.ndim == 1 else f


def wigner_grid(state, spec):
    """Evaluate the density on a centered uniform grid.

    Returns ``(x1, x2, f)`` with ``f[i, j]`` at ``(x1[i], x2[j])`` (row-major
    over x1).  The box half-width is ``spec.n_sigma`` times the largest
    standard deviation of the state.
    """
    sigma = np.asarray(state.sigma, dtype=float)
    inv, norm = _density(sigma)
    half = spec.n_sigma * math.sqrt(_mat2.spectrum(sigma)[2])

    x1 = state.mean[0] + np.linspace(-half, half, spec.n_points)
    x2 = state.mean[1] + np.linspace(-half, half, spec.n_points)
    dx1 = x1[:, None] - state.mean[0]
    dx2 = x2[None, :] - state.mean[1]
    f = _gaussian(inv, norm, dx1, dx2, out=np.empty((len(x1), len(x2))))
    return x1, x2, f


def _trapezoid_weights(x):
    """Weights of the trapezoid rule on the uniform grid ``x``."""
    w = np.full(len(x), (x[-1] - x[0]) / (len(x) - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def wigner_normalization(state, spec):
    """Integral of the density over the quadrature box; ~1 for a wide box."""
    if spec.n_sigma < 6.0:
        raise ConfigError(
            f"box of {spec.n_sigma} standard deviations is too small; need >= 6")
    x1, x2, f = wigner_grid(state, spec)
    return float(_trapezoid_weights(x1) @ f @ _trapezoid_weights(x2))


#: Offsets of :func:`fp_residual`'s points in units of ``h_x``, and the
#: sample each is evaluated on (0, 1, 2 for t - 1, t, t + 1): the point
#: itself at t -/+ 1, then the nine-point stencil at t (centre, +e1, +e2,
#: -e1, -e2, and the corners ++, +-, -+, --).
_STENCIL = np.array([[0, 0], [0, 0],
                     [0, 0], [1, 0], [0, 1], [-1, 0], [0, -1],
                     [1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
_SAMPLE = np.array([0, 2] + [1] * 9)


def fp_residual(trajectory, point, t_index, h_x):
    """Finite-difference residual of the phase-space transport equation.

    The evolved Gaussian solves ``df/dt = -sum_ij Y_ij d_i (x_j f) +
    sum_ij D_ij d_i d_j f`` with the trajectory's drift Y and diffusion D;
    the returned residual vanishes as O(dt**2 + h_x**2).  ``t_index`` must be
    interior so the time derivative can use adjacent samples.
    """
    if not 0 < t_index < len(trajectory) - 1:
        raise IndexError(f"t_index {t_index} is not interior to the trajectory")

    window = slice(t_index - 1, t_index + 2)
    inv, norm = _density(trajectory.sigma[window])
    points = np.asarray(point, dtype=float) + h_x * _STENCIL
    dx = points - trajectory.mean[window][_SAMPLE]
    f = _gaussian(inv[_SAMPLE], norm[_SAMPLE], dx[:, 0], dx[:, 1])

    # The sums below are a few scalars each: Python floats beat numpy calls.
    f, x = f.tolist(), points.tolist()
    y, d = trajectory.drift.tolist(), trajectory.diffusion.tolist()
    dfdt = (f[1] - f[0]) / (2.0 * trajectory.dt_sample)
    # sum_ij Y_ij d_i (x_j f) by central differences of g_j(x) = x_j * f(x);
    # rows 3 + i and 5 + i of the stencil are the point + h_x e_i and - h_x e_i.
    drift_term = 0.0
    for i in range(2):
        for j in range(2):
            drift_term += y[i][j] * (x[3 + i][j] * f[3 + i]
                                     - x[5 + i][j] * f[5 + i]) / (2.0 * h_x)
    diff_term = 0.0
    for i in range(2):
        diff_term += d[i][i] * (f[3 + i] - 2.0 * f[2] + f[5 + i]) / h_x ** 2
    diff_term += 2.0 * d[0][1] * (f[7] - f[8] - f[9] + f[10]) / (4.0 * h_x ** 2)
    return dfdt + drift_term - diff_term
