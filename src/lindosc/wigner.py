"""Gaussian phase-space (Wigner) evaluation and a Fokker-Planck residual check.

Coordinates are the scaled phase-space coordinates used everywhere else in
the package: ``x1 = sqrt(m*omega) * q`` and ``x2 = p / sqrt(m*omega)``, so
the covariance entering the Gaussian is exactly ``GaussianState.sigma``.

Every density goes through one preamble, :func:`_density`, which checks and
inverts one covariance on Python floats, on the covariance scaled by a power
of two so that its determinant cannot overflow, and one expression, the
exponential at points as arrays in :func:`_gaussian` or at one point as
floats in :func:`_at`; each caller divides by the normalisation.
:func:`wigner_grid` forms its grid in one array, and
:func:`wigner_normalization` divides its quadrature sum once.
:func:`fp_residual` evaluates its eleven points one at a time as floats on
the preambles of its three-sample window, which :func:`_window` keeps for the
last two windows, keyed by their bytes: the twenty points of a certificate
on a coarse and a fine trajectory build six preambles, not 120.
"""

from __future__ import annotations

import math
import operator
import sys
import threading
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
    """``exp(-q / 2)``, ``q / 2 = dx^T ldexp(inv, shift) dx``, over the
    broadcast of the arrays ``dx1``, ``dx2``: ``-q / 2`` summed as
    ``(-2 inv01 dx1) dx2 - inv00 dx1**2 - inv11 dx2**2``, then scaled by
    ``2**shift``, exactly or to -inf (0) past the float range.  The density
    is this divided by :func:`_density`'s ``norm``; :func:`_at` is the same
    expression on floats."""
    q = -2.0 * inv[0][1] * dx1 * dx2
    q -= inv[0][0] * (dx1 * dx1)
    q -= inv[1][1] * (dx2 * dx2)
    with np.errstate(over="ignore"):  # q past the float range
        return np.exp(np.ldexp(q, shift, out=q), out=q)


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


#: The preambles of the last two sample windows of :func:`fp_residual`, the
#: most recently used last (see :func:`_window`).
_WINDOWS = {}
_WINDOWS_LOCK = threading.Lock()


def _window(sigma, mean):
    """The preambles of the samples ``sigma`` ``(k, 2, 2)`` and ``mean``
    ``(k, 2)``, float64 arrays, one ``(c01, h00, h11, shift, norm, m1, m2)``
    per sample: :func:`_density`'s inverse as ``-2 inv01`` and its diagonal,
    its shift and norm, and the mean, as floats.

    They are kept for the last two windows, keyed by the bytes and shapes of
    both arrays, so a write into a trajectory's arrays, or a copy with other
    samples, gets its own.  The least recently used window is dropped once a
    new one is built; a window that :func:`_density` refuses raises on every
    call and is not kept.  The coarse and fine runs of a certificate each
    build their window once."""
    key = (sigma.tobytes(), mean.tobytes(), sigma.shape, mean.shape)
    with _WINDOWS_LOCK:
        samples = _WINDOWS.pop(key, None)
        if samples is None:
            samples = tuple((-2.0 * inv[0][1], inv[0][0], inv[1][1], shift, norm, m1, m2)
                            for (inv, shift, norm), (m1, m2)
                            in zip(map(_density, sigma), mean.tolist()))
            if len(_WINDOWS) == 2:
                del _WINDOWS[next(iter(_WINDOWS))]
        _WINDOWS[key] = samples
    return samples


def _at(sample, x1, x2):
    """The density of ``sample``, one of :func:`_window`'s, at the point
    ``(x1, x2)``: :func:`_gaussian`'s exponent on floats, exactly or to 0 or
    inf past the float range, divided by the norm."""
    c01, h00, h11, shift, norm, m1, m2 = sample
    dx1, dx2 = x1 - m1, x2 - m2
    q = c01 * dx1 * dx2 - h00 * (dx1 * dx1) - h11 * (dx2 * dx2)
    try:
        return math.exp(math.ldexp(q, shift)) / norm
    except OverflowError:  # q past the float range
        return (0.0 if q < 0.0 else math.inf) / norm


def fp_residual(trajectory, point, t_index, h_x):
    """Finite-difference residual of the phase-space transport equation.

    The evolved Gaussian solves ``df/dt = -sum_ij Y_ij d_i (x_j f) +
    sum_ij D_ij d_i d_j f`` with the trajectory's drift Y and diffusion D;
    the returned residual vanishes as O(dt**2 + h_x**2).  ``t_index`` must be
    interior so the time derivative can use adjacent samples, ``point`` two
    finite numbers, and ``h_x`` positive and finite with a finite square
    (:class:`ConfigError` otherwise).  The eleven densities and the sums are
    Python floats, over the three samples' preambles of :func:`_window`.
    """
    if not 0 < t_index < len(trajectory) - 1:
        raise IndexError(f"t_index {t_index} is not interior to the trajectory")
    if not _positive(h_x, "h_x") <= _MAX_H_X:
        raise ConfigError(f"h_x {h_x} squared passes the float range")
    x = np.asarray(point, dtype=float)
    if x.shape != (2,):
        raise ConfigError(f"point {x.tolist()} is not two numbers")
    x1, x2 = x.tolist()
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ConfigError(f"point {[x1, x2]} is not finite")

    window = slice(t_index - 1, t_index + 2)
    before, now, after = _window(np.asarray(trajectory.sigma[window], dtype=float),
                                 np.asarray(trajectory.mean[window], dtype=float))
    (y00, y01), (y10, y11) = trajectory.drift.tolist()
    (d00, d01), (_, d11) = trajectory.diffusion.tolist()
    x1p, x1m, x2p, x2m = x1 + h_x, x1 - h_x, x2 + h_x, x2 - h_x
    f_x = _at(now, x1, x2)
    f_1p, f_2p = _at(now, x1p, x2), _at(now, x1, x2p)  # the point + h_x e_i
    f_1m, f_2m = _at(now, x1m, x2), _at(now, x1, x2m)
    dfdt = (_at(after, x1, x2) - _at(before, x1, x2)) / (2.0 * trajectory.dt_sample)
    # sum_ij Y_ij d_i (x_j f) by central differences of g_j(x) = x_j * f(x).
    # Each sum starts from 0.0 and adds its terms in row-major (i, j) order,
    # which fixes its bits.
    two_h, h2 = 2.0 * h_x, h_x ** 2
    drift_term = 0.0 + y00 * (x1p * f_1p - x1m * f_1m) / two_h
    drift_term += y01 * (x2 * f_1p - x2 * f_1m) / two_h
    drift_term += y10 * (x1 * f_2p - x1 * f_2m) / two_h
    drift_term += y11 * (x2p * f_2p - x2m * f_2m) / two_h
    diff_term = 0.0 + d00 * (f_1p - 2.0 * f_x + f_1m) / h2
    diff_term += d11 * (f_2p - 2.0 * f_x + f_2m) / h2
    # The corners ++, +-, -+ and --.
    pp, pm = _at(now, x1p, x2p), _at(now, x1p, x2m)
    mp, mm = _at(now, x1m, x2p), _at(now, x1m, x2m)
    diff_term += 2.0 * d01 * (pp - pm - mp + mm) / (4.0 * h2)
    return dfdt + drift_term - diff_term
