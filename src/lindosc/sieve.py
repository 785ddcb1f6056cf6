"""Selection of the most predictable initial states.

For a fixed phase-space area ``A`` the entropy-production rate of a Gaussian
state depends on its squeezing ``aleph`` and orientation ``theta`` through

    rate = (1/A) * (-2*lam + (Delta/A) * B(aleph, theta))
    B = cos^2(theta-phi) * (aleph^2/d^2 + d^2/aleph^2)
      + sin^2(theta-phi) * (aleph^2*d^2 + 1/(aleph^2*d^2))

where (Delta, d, phi) decompose the scaled diffusion matrix.  The minimum is
attained at ``aleph = d``, ``theta = phi`` with value ``2*(Delta - A*lam) /
A**2``, independent of the purity A.  A brute-force grid search over
(aleph, theta), polished by safeguarded Newton steps on the bracket B, serves
as an independent oracle for the analytic minimizer: it reproduces the
minimum rate to rounding without using (d, phi) as a starting point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import _mat2
from .decomposition import _ISOTROPY_TOL
from .errors import ConfigError


@dataclass(frozen=True)
class SieveResult:
    """Analytic minimizer, optionally paired with a grid-search record.

    ``grid_aleph``/``grid_theta``/``grid_rate`` hold the oracle's polished
    point (see :func:`grid_search`), not the raw grid cell.
    """

    aleph_star: float
    theta_star: float
    min_rate: float
    degenerate_angle: bool
    grid_aleph: Optional[float] = None
    grid_theta: Optional[float] = None
    grid_rate: Optional[float] = None


def _bracket_factors(aleph, theta, diff):
    """``(c2, s2, f_cos, f_sin)`` with B = c2*f_cos + s2*f_sin: the angular
    weights depend on theta alone and the factors on aleph alone."""
    delta_angle = theta - diff.phi
    c2 = np.cos(delta_angle) ** 2
    s2 = np.sin(delta_angle) ** 2
    al2 = aleph ** 2
    d2 = diff.d ** 2
    return c2, s2, al2 / d2 + d2 / al2, al2 * d2 + 1.0 / (al2 * d2)


def _bracket(aleph, theta, diff):
    """The bracket B of the module docstring.  Broadcasts over arrays."""
    c2, s2, f_cos, f_sin = _bracket_factors(aleph, theta, diff)
    return c2 * f_cos + s2 * f_sin


def rate_at(aleph, theta, area, lam, diff):
    """Entropy-production rate of a state with squeezing/orientation
    (aleph, theta) and area ``area``.  Broadcasts over array inputs."""
    bracket = _bracket(np.asarray(aleph, dtype=float),
                       np.asarray(theta, dtype=float), diff)
    out = (-2.0 * lam + (diff.Delta / area) * bracket) / area
    return float(out) if out.ndim == 0 else out


def _representative(aleph, theta):
    """Of (aleph, theta) and (1/aleph, theta + pi/2), which have the same
    bracket B, the one with aleph >= 1, its theta reduced to [0, pi)."""
    if aleph < 1.0:
        aleph, theta = 1.0 / aleph, theta + math.pi / 2.0
    theta %= math.pi
    return aleph, theta if theta < math.pi else 0.0  # -1e-20 % pi is pi


def analytic_minimizer(area, lam, diff):
    """Closed-form minimizer of :func:`rate_at` over (aleph, theta).

    The optimum matches the diffusion anisotropy: ``aleph = d`` and ``theta =
    phi``, reported in :func:`_representative`'s form, as in
    :func:`grid_search`.  For isotropic diffusion (aleph**2 - 1 below
    decompose's tolerance) the angle is degenerate and reported as 0 with a flag.
    """
    aleph, theta = _representative(diff.d, diff.phi)
    degenerate = aleph * aleph - 1.0 < _ISOTROPY_TOL
    return SieveResult(aleph_star=aleph, theta_star=0.0 if degenerate else theta,
                       min_rate=2.0 * (diff.Delta - area * lam) / area ** 2,
                       degenerate_angle=bool(degenerate))


def _default_grids(diff, n_aleph, n_theta, aleph_range):
    """The aleph and theta axes of the sieve grid.  The range must bracket d
    or 1/d: (d, phi) and (1/d, phi + pi/2) are the same optimum."""
    lo, hi = aleph_range
    if not (n_aleph >= 1 and n_theta >= 1 and lo > 0
            and any(lo < x < hi or lo == hi == x for x in (diff.d, 1.0 / diff.d))):
        raise ConfigError(f"aleph range {aleph_range} over {n_aleph} x {n_theta} cells is "
                          f"empty, not above 0 or bracketing neither the anisotropy "
                          f"{diff.d} nor its inverse")
    alephs = np.geomspace(lo, hi, n_aleph)
    thetas = np.linspace(0.0, math.pi, n_theta, endpoint=False)
    return alephs, thetas


#: Aleph rows of B per tile in :func:`grid_search`: two tiles of a 361-angle
#: grid take 185 kB, where the whole grid would take 1.2 MB per temporary.
_TILE_ROWS = 32

#: The polish stops once its quadratic model predicts a decrease of B below
#: this many ulps of B: B itself is only evaluated to a few ulps.
_POLISH_ULPS = 8.0
#: Longest polish step in (log aleph, theta), against the long steps that
#: the shifted Hessian gives along flat or negatively curved directions.
_POLISH_MAX_STEP = 0.5
#: Every accepted step lowers B, so this only bounds the work.
_POLISH_MAX_ITER = 100


def _bracket_derivatives(aleph, theta, diff):
    """Closed-form gradient of B in (u, theta), u = log aleph, and the
    Hessian entries d2B/du/dtheta and d2B/dtheta2; d2B/du2 is 4*B.

    With p = aleph^2/d^2, q = aleph^2*d^2, k = d^2 - 1/d^2 and
    psi = theta - phi, B = cos^2(psi)*(p + 1/p) + sin^2(psi)*(q + 1/q) and
    (q + 1/q) - (p + 1/p) = k*(aleph^2 - 1/aleph^2); the products with k
    avoid the cancellation of that difference near isotropy.
    """
    psi = theta - diff.phi
    c, s = math.cos(psi), math.sin(psi)
    c2, s2, sin2, cos2 = c * c, s * s, 2.0 * s * c, (c - s) * (c + s)
    al2, d2 = aleph * aleph, diff.d * diff.d
    p, q = al2 / d2, al2 * d2
    k = d2 - 1.0 / d2
    grad = (2.0 * (c2 * (p - 1.0 / p) + s2 * (q - 1.0 / q)),
            k * (al2 - 1.0 / al2) * sin2)
    return grad, (2.0 * k * (al2 + 1.0 / al2) * sin2,
                  2.0 * k * (al2 - 1.0 / al2) * cos2)


def _polish(aleph, theta, diff):
    """Descend from a grid cell to a minimum of B in (log aleph, theta).

    Newton steps, safeguarded for the flat and saddle-shaped cells of
    near-isotropic diffusion: the Hessian is shifted to positive definite
    where it is not (Levenberg-Marquardt) and the step then also follows the
    direction of negative curvature downhill; steps are capped, only steps
    that lower B are taken (halving otherwise), and the descent stops when
    the quadratic model's predicted decrease reaches rounding level.  B does
    not depend on the area, so neither does the polished point.
    """
    bracket = float(_bracket(aleph, theta, diff))
    for _ in range(_POLISH_MAX_ITER):
        (g_u, g_t), (h_ut, h_tt) = _bracket_derivatives(aleph, theta, diff)
        h_uu = 4.0 * bracket
        tr, low, _ = _mat2.spectrum(((h_uu, h_ut), (h_ut, h_tt)))
        shift = 0.0 if low > 0.0 else 1e-12 * tr - 2.0 * low
        a, c = h_uu + shift, h_tt + shift
        det = a * c - h_ut * h_ut
        step_u = (h_ut * g_t - c * g_u) / det
        step_t = (h_ut * g_u - a * g_t) / det
        if low < 0.0:
            # (h_ut, low - h_uu) is the eigenvector of the eigenvalue low;
            # h_uu = 4*B >= 8 keeps it away from zero.
            v_u, v_t = h_ut, low - h_uu
            reach = _POLISH_MAX_STEP / math.hypot(v_u, v_t)
            if g_u * v_u + g_t * v_t > 0.0:
                reach = -reach
            step_u, step_t = step_u + reach * v_u, step_t + reach * v_t
        length = math.hypot(step_u, step_t)
        if length > _POLISH_MAX_STEP:
            step_u, step_t = (_POLISH_MAX_STEP / length * step_u,
                              _POLISH_MAX_STEP / length * step_t)
        while True:
            predicted = -(g_u * step_u + g_t * step_t
                          + 0.5 * (h_uu * step_u * step_u
                                   + 2.0 * h_ut * step_u * step_t
                                   + h_tt * step_t * step_t))
            if not predicted > _POLISH_ULPS * math.ulp(bracket):
                return aleph, theta
            trial = (aleph * math.exp(step_u), theta + step_t)
            trial_bracket = float(_bracket(*trial, diff))
            if trial_bracket < bracket:
                break
            step_u, step_t = 0.5 * step_u, 0.5 * step_t
        (aleph, theta), bracket = trial, trial_bracket
    return aleph, theta


def grid_search(area, lam, diff, n_aleph, n_theta, aleph_range):
    """Rate minimization: an exhaustive search over a log-spaced aleph grid
    times a uniform theta grid on [0, pi), then a polish of the best cell.

    The best cell minimizes the bracket B, to which the rate is affine with
    a positive coefficient.  Every cell is evaluated, in tiles of
    ``_TILE_ROWS`` aleph rows written into two reused buffers with the
    products and sum of :func:`_bracket`, so each B is that of
    :func:`_bracket` bit for bit.  A running argmin keeps each tile's first
    minimum and takes the first of those, so the cell is that of
    ``np.argmin`` over the whole grid: ties resolve to the lowest flat index
    (aleph outer, theta inner), and a NaN cell wins as there.  Safeguarded
    Newton steps on B then refine the cell to rounding level, independently
    of the analytic minimizer and of the area.  Returns
    ``(aleph, theta, rate)`` at the polished point, in
    :func:`_representative`'s form.
    """
    alephs, thetas = _default_grids(diff, n_aleph, n_theta, aleph_range)
    c2, s2, f_cos, f_sin = _bracket_factors(alephs[:, None], thetas[None, :], diff)
    cos_tile = np.empty((_TILE_ROWS, len(thetas)))
    sin_tile = np.empty_like(cos_tile)
    starts = range(0, len(alephs), _TILE_ROWS)
    firsts = np.empty(len(starts), dtype=np.intp)
    lows = np.empty(len(starts))
    for k, start in enumerate(starts):
        stop = min(start + _TILE_ROWS, len(alephs))
        b, sin_part = cos_tile[:stop - start], sin_tile[:stop - start]
        np.multiply(c2, f_cos[start:stop], out=b)
        np.multiply(s2, f_sin[start:stop], out=sin_part)
        np.add(b, sin_part, out=b)
        first = int(np.argmin(b))
        firsts[k], lows[k] = start * len(thetas) + first, b.flat[first]
    i, j = divmod(int(firsts[np.argmin(lows)]), len(thetas))
    aleph, theta = _polish(float(alephs[i]), float(thetas[j]), diff)
    return (*_representative(aleph, theta), rate_at(aleph, theta, area, lam, diff))


def rate_landscape(area, lam, diff, n_aleph, n_theta, aleph_range):
    """Full (aleph, theta, rate) table, aleph-major ordering, for plotting."""
    alephs, thetas = _default_grids(diff, n_aleph, n_theta, aleph_range)
    rates = rate_at(alephs[:, None], thetas[None, :], area, lam, diff)
    table = np.column_stack([
        np.repeat(alephs, len(thetas)),
        np.tile(thetas, len(alephs)),
        rates.ravel(),
    ])
    return table


def _aleph_range(diff, lo=None, hi=None):
    """``(lo, hi)`` with an unset end d/4 or 4d, which bracket the anisotropy d."""
    return diff.d / 4.0 if lo is None else lo, diff.d * 4.0 if hi is None else hi


def run_sieve(area, lam, diff, n_aleph=401, n_theta=361, aleph_range=(None, None)):
    """Analytic minimizer plus the polished grid-search oracle in one record;
    an unset end of ``aleph_range`` is that of :func:`_aleph_range`."""
    analytic = analytic_minimizer(area, lam, diff)
    g_aleph, g_theta, g_rate = grid_search(area, lam, diff, n_aleph, n_theta,
                                           _aleph_range(diff, *aleph_range))
    return replace(analytic, grid_aleph=g_aleph, grid_theta=g_theta, grid_rate=g_rate)
