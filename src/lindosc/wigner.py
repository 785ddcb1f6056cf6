"""Gaussian phase-space (Wigner) evaluation and a Fokker-Planck residual check.

Coordinates are the scaled phase-space coordinates used everywhere else in
the package: ``x1 = sqrt(m*omega) * q`` and ``x2 = p / sqrt(m*omega)``, so
the covariance entering the Gaussian is exactly ``GaussianState.sigma``.

Every density goes through one preamble, :func:`_density`, which checks and
inverts one covariance on Python floats, on the covariance scaled by a power
of two so that its determinant cannot overflow, and one expression,
:func:`_gaussian`, which evaluates the exponential at a point as floats or at
points as arrays; each caller divides by the normalisation.
:func:`fp_residual` runs the preamble once per sample and evaluates its
eleven points one at a time as floats, :func:`wigner_grid` forms its grid in
one array, and :func:`wigner_normalization` divides its quadrature sum once.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from . import _mat2
from .errors import ConfigError
from .model import _positive


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor-product trapezoid grid: a positive, finite half-width in standard
    deviations and an integer of at least 2 points per axis, else
    :class:`ConfigError`."""

    n_sigma: float = 8.0
    n_points: int = 401

    def __post_init__(self):
        try:
            n_points = operator.index(self.n_points)
        except TypeError:
            n_points = 0  # not an integer, so refused below
        if not (0 < self.n_sigma < math.inf and n_points >= 2):
            raise ConfigError(f"{self} needs a finite n_sigma > 0 and an integer "
                              f"n_points >= 2")


def _density(sigma):
    """``(inv, shift, norm)`` of the Gaussian with the one covariance
    ``sigma``, after its SPD check: half the inverse covariance,
    ``ldexp(inv, shift)``, as entries, and ``2 pi sqrt(det sigma)``.

    ``inv`` is inv(sigma / s) times the power of two that takes det(sigma / s)
    into [0.5, 1), so its entries are below 4.  The scalings are exact: in-range
    results are the plain formulas', and the density stays finite where the
    inverse covariance or det sigma passes the float range."""
    unit, s, det = _mat2.check_spd(sigma, "covariance")
    frac, exponent = math.frexp(det)
    shift = -exponent - math.frexp(s)[1]  # 2 s = 2**frexp(s)[1]
    return _mat2.inv(unit, frac), shift, math.sqrt((2.0 * math.pi) ** 2 * det) * s


def _gaussian(inv, shift, dx1, dx2):
    """``exp(-q / 2)``, ``q / 2 = dx^T ldexp(inv, shift) dx``, for floats
    ``dx1``, ``dx2`` or over their broadcast as arrays: ``-q / 2`` summed as
    ``(-2 inv01 dx1) dx2 - inv00 dx1**2 - inv11 dx2**2``, then scaled by
    ``2**shift``, exactly or to -inf (0) past the float range.  The density
    is this divided by :func:`_density`'s ``norm``."""
    q = -2.0 * inv[0][1] * dx1 * dx2
    q -= inv[0][0] * (dx1 * dx1)
    q -= inv[1][1] * (dx2 * dx2)
    if isinstance(q, np.ndarray):
        with np.errstate(over="ignore"):  # q past the float range
            return np.exp(np.ldexp(q, shift, out=q), out=q)
    try:
        return math.exp(math.ldexp(q, shift))
    except OverflowError:  # q past the float range
        return 0.0 if q < 0.0 else math.inf


def _divide(f, norm):
    """``f /= norm`` in place, a density past the float range to inf."""
    with np.errstate(over="ignore"):
        f /= norm
    return f


def wigner_eval(state, point):
    """Gaussian phase-space density of the state at one point ``(2,)``, as a
    float, or at each row of an ``(n, 2)`` array, as an array.  A point that
    is not finite is a :class:`ConfigError`."""
    point = np.asarray(point, dtype=float)
    if not np.isfinite(point).all():
        raise ConfigError(f"point {point.tolist()} is not finite")
    inv, shift, norm = _density(state.sigma)
    dx = np.reshape(point, (-1, 2)) - state.mean
    f = _divide(_gaussian(inv, shift, dx[:, 0], dx[:, 1]), norm)
    return float(f[0]) if point.ndim == 1 else f


def _box(state, spec):
    """``(x1, x2, e, norm)``: the axes of :func:`wigner_grid`'s box and the
    exponential of :func:`_gaussian` on it, the density times ``norm``."""
    inv, shift, norm = _density(state.sigma)
    half = spec.n_sigma * math.sqrt(_mat2.spectrum(state.sigma.tolist())[2])
    # A coordinate's offset from the mean is within half and x's rounding.
    far = max(map(abs, state.mean.tolist())) + half
    if not half + math.ulp(far) <= _MAX_HALF:
        raise ConfigError(f"a box of half-width {half} about {state.mean.tolist()} "
                          f"passes the float range")

    x1 = state.mean[0] + np.linspace(-half, half, spec.n_points)
    x2 = state.mean[1] + np.linspace(-half, half, spec.n_points)
    dx1 = x1[:, None] - state.mean[0]
    dx2 = x2[None, :] - state.mean[1]
    return x1, x2, _gaussian(inv, shift, dx1, dx2), norm


def wigner_grid(state, spec):
    """Evaluate the density on a centered uniform grid.

    Returns ``(x1, x2, f)`` with ``f[i, j]`` at ``(x1[i], x2[j])`` (row-major
    over x1).  The box half-width is ``spec.n_sigma`` times the largest
    standard deviation of the state; a box whose coordinates, or the products
    of their offsets from the mean, pass the float range is a
    :class:`ConfigError`.
    """
    x1, x2, e, norm = _box(state, spec)
    return x1, x2, _divide(e, norm)


def _trapezoid_weights(x):
    """Weights of the trapezoid rule on the uniform grid ``x``."""
    w = np.full(len(x), (x[-1] - x[0]) / (len(x) - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def wigner_normalization(state, spec):
    """Integral of the density over the quadrature box; ~1 for a wide box.
    The trapezoid sum is taken over :func:`_box`'s exponential and divided
    by the normalisation once."""
    if spec.n_sigma < 6.0:
        raise ConfigError(
            f"box of {spec.n_sigma} standard deviations is too small; need >= 6")
    x1, x2, e, norm = _box(state, spec)
    return float(_trapezoid_weights(x1) @ e @ _trapezoid_weights(x2)) / norm


#: The largest step whose square is finite: the square of the next float up
#: passes the float range.
_MAX_H_X = math.sqrt(sys.float_info.max)
#: The largest box half-width h for which :func:`_gaussian`'s exponent, at
#: most 16 h**2 (its inverse-covariance entries are below 4), is finite.
_MAX_HALF = _MAX_H_X / 4.0


def _at(sample, x1, x2):
    """The density of ``sample``, ``(inv, shift, norm, m1, m2)``: a preamble
    of :func:`_density` and the mean, at the point ``(x1, x2)``, as floats."""
    inv, shift, norm, m1, m2 = sample
    return _gaussian(inv, shift, x1 - m1, x2 - m2) / norm


def fp_residual(trajectory, point, t_index, h_x):
    """Finite-difference residual of the phase-space transport equation.

    The evolved Gaussian solves ``df/dt = -sum_ij Y_ij d_i (x_j f) +
    sum_ij D_ij d_i d_j f`` with the trajectory's drift Y and diffusion D;
    the returned residual vanishes as O(dt**2 + h_x**2).  ``t_index`` must be
    interior so the time derivative can use adjacent samples, and ``h_x``
    positive and finite with a finite square (:class:`ConfigError`
    otherwise).  The eleven densities and the sums are Python floats.
    """
    if not 0 < t_index < len(trajectory) - 1:
        raise IndexError(f"t_index {t_index} is not interior to the trajectory")
    if not _positive(h_x, "h_x") <= _MAX_H_X:
        raise ConfigError(f"h_x {h_x} squared passes the float range")

    x = np.asarray(point, dtype=float).tolist()
    x1, x2 = x[0], x[1]
    window = slice(t_index - 1, t_index + 2)
    before, now, after = [(*_density(sigma), *mean) for sigma, mean in
                          zip(trajectory.sigma[window], trajectory.mean[window].tolist())]
    y, d = trajectory.drift.tolist(), trajectory.diffusion.tolist()
    plus = ((x1 + h_x, x2), (x1, x2 + h_x))  # the point + h_x e_i
    minus = ((x1 - h_x, x2), (x1, x2 - h_x))
    f_x = _at(now, x1, x2)
    f_plus = (_at(now, *plus[0]), _at(now, *plus[1]))
    f_minus = (_at(now, *minus[0]), _at(now, *minus[1]))
    dfdt = (_at(after, x1, x2) - _at(before, x1, x2)) / (2.0 * trajectory.dt_sample)
    # sum_ij Y_ij d_i (x_j f) by central differences of g_j(x) = x_j * f(x).
    drift_term = diff_term = 0.0
    for i in range(2):
        for j in range(2):
            drift_term += y[i][j] * (plus[i][j] * f_plus[i]
                                     - minus[i][j] * f_minus[i]) / (2.0 * h_x)
        diff_term += d[i][i] * (f_plus[i] - 2.0 * f_x + f_minus[i]) / h_x ** 2
    # The corners ++, +-, -+ and --.
    pp, pm = _at(now, x1 + h_x, x2 + h_x), _at(now, x1 + h_x, x2 - h_x)
    mp, mm = _at(now, x1 - h_x, x2 + h_x), _at(now, x1 - h_x, x2 - h_x)
    diff_term += 2.0 * d[0][1] * (pp - pm - mp + mm) / (4.0 * h_x ** 2)
    return dfdt + drift_term - diff_term
