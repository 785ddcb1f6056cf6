"""Purity diagnostics: phase-space area, linear entropy and their rates.

:func:`report` takes one covariance matrix or a stack of shape ``(n, 2, 2)``
and computes every diagnostic elementwise, so a trajectory's samples and a
single state go through the same arithmetic and agree bit for bit.  Each
covariance is first divided by a power of two near its largest entry, which
is exact: the diagnostics are those of the plain formulas wherever those
are in range, and stay finite where det sigma alone would overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _mat2
from .errors import NonPositiveDeterminant, NotSPD, UnphysicalState

#: Areas this far below 1 are treated as rounding noise on a pure state.
_PURITY_TOL = 1e-9


@dataclass(frozen=True)
class EntropyReport:
    """The four diagnostics; floats for one matrix, arrays for a stack."""

    area: float
    lin_entropy: float
    area_rate: float
    entropy_rate: float


def _area(sigma, hbar):
    """``(unit, s, A / s, det unit)`` for one covariance or a stack, where
    ``(unit, s)`` is :func:`_mat2.normalize` of ``sigma``.

    A = 2 sqrt(det sigma) / hbar is formed in units of ``s`` because det sigma
    overflows for entries past about 1.3e154 while A does not; the scaling is
    exact, so in-range results are those of the unscaled formula.
    """
    unit, s = _mat2.normalize(sigma)
    det = _mat2.det(unit)
    bad = det <= 0
    if np.any(bad):
        with np.errstate(over="ignore"):
            value = np.ravel(s * (s * det))[np.argmax(bad)]
        raise NonPositiveDeterminant(f"det sigma = {value} is not positive")
    return unit, s, 2.0 * np.sqrt(det) / hbar, det


def _inv2(unit, s, det):
    """Inverse of ``unit * s`` from :func:`_area`'s ``unit``, ``s`` and
    ``det``; raises :class:`NotSPD` where it is numerically singular."""
    t = unit.T
    # At least 1: the largest |entry| of a symmetric unit is on this list.
    scale = np.maximum(np.maximum(abs(t[0, 0]), abs(t[1, 1])), abs(t[1, 0]))
    singular = abs(det) < 1e-15 * scale * scale
    if np.any(singular):
        i = np.argmax(singular)
        bad = np.reshape(unit, (-1, 2, 2))[i] * np.ravel(s)[i]
        raise NotSPD(f"covariance matrix {bad.tolist()} is numerically singular")
    return (_mat2.inv(unit, det).T / s).T


def area(sigma, hbar):
    """Phase-space area A = (2/hbar) sqrt(det sigma); 1 for pure states."""
    _, s, a, _ = _area(np.asarray(sigma, dtype=float), hbar)
    return float(s * a)


def linear_entropy(sigma, hbar):
    """Linear entropy s = 1 - 1/A, clamped to [0, 1) near the pure point."""
    a = area(sigma, hbar)
    if a < 1.0 - _PURITY_TOL:
        raise UnphysicalState(f"area {a} is below the pure-state value 1")
    return max(1.0 - 1.0 / a, 0.0)


def area_rate(sigma, drift, diffusion, hbar):
    """dA/dt = A * (tr(drift) + tr(diffusion @ sigma^-1))."""
    return report(sigma, drift, diffusion, hbar).area_rate


def entropy_rate(sigma, drift, diffusion, hbar):
    """ds/dt = (dA/dt) / A**2."""
    return report(sigma, drift, diffusion, hbar).entropy_rate


def initial_rate(sigma0, diffusion, lam, hbar):
    """Entropy-production rate from the state alone.

    Equals :func:`entropy_rate` for every drift matrix with trace
    ``-2 * lam``; the oscillatory and mixing parts of the drift are traceless
    and drop out.
    """
    unit, s, a, det = _area(np.asarray(sigma0, dtype=float), hbar)
    inv = _inv2(unit, s, det)
    return (-2.0 * lam + np.trace(inv @ diffusion)) / (s * a)


def report(sigma, drift, diffusion, hbar):
    """All four diagnostics of one covariance matrix or of a stack
    ``(n, 2, 2)``, in one pass.

    Raises :class:`~lindosc.errors.NonPositiveDeterminant` or
    :class:`~lindosc.errors.NotSPD` for the first matrix that has a
    non-positive or numerically vanishing determinant.
    """
    unit, s, a, det = _area(np.asarray(sigma, dtype=float), hbar)
    inv = _inv2(unit, s, det).T
    # tr(diffusion @ inv), summed as the diagonal of the product.
    tr_d_inv = ((diffusion[0, 0] * inv[0, 0] + diffusion[0, 1] * inv[0, 1])
                + (diffusion[1, 0] * inv[1, 0] + diffusion[1, 1] * inv[1, 1]))
    # dA/dt and ds/dt = (dA/dt) / A**2 in units of s, where A**2 cannot
    # overflow: both are the unscaled formulas times a power of two.
    da = a * ((drift[0, 0] + drift[1, 1]) + tr_d_inv)
    area_ = s * a
    return EntropyReport(area=area_,
                         lin_entropy=np.maximum(1.0 - 1.0 / area_, 0.0),
                         area_rate=s * da,
                         entropy_rate=da / (a * a) / s)
