"""Purity diagnostics: phase-space area, linear entropy and their rates."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _mat2
from .errors import NonPositiveDeterminant, NotSPD, UnphysicalState

#: Areas this far below 1 are treated as rounding noise on a pure state.
_PURITY_TOL = 1e-9


@dataclass(frozen=True)
class EntropyReport:
    area: float
    lin_entropy: float
    area_rate: float
    entropy_rate: float


def _inv2(m):
    det = _mat2.det(m)
    scale = max(abs(m[0, 0]), abs(m[1, 1]), abs(m[0, 1]), 1e-300)
    if abs(det) <= 1e-300 or abs(det) < 1e-15 * scale ** 2:
        raise NotSPD(f"covariance matrix {m.tolist()} is numerically singular")
    return _mat2.inv(m, det)


def area(sigma, hbar):
    """Phase-space area A = (2/hbar) sqrt(det sigma); 1 for pure states."""
    det = _mat2.det(np.asarray(sigma, dtype=float))
    if det <= 0:
        raise NonPositiveDeterminant(f"det sigma = {det} is not positive")
    return 2.0 * math.sqrt(det) / hbar


def linear_entropy(sigma, hbar):
    """Linear entropy s = 1 - 1/A, clamped to [0, 1) near the pure point."""
    a = area(sigma, hbar)
    if a < 1.0 - _PURITY_TOL:
        raise UnphysicalState(f"area {a} is below the pure-state value 1")
    return max(1.0 - 1.0 / a, 0.0)


def area_rate(sigma, drift, diffusion, hbar):
    """dA/dt = A * (tr(drift) + tr(diffusion @ sigma^-1))."""
    sigma = np.asarray(sigma, dtype=float)
    a = area(sigma, hbar)
    inv = _inv2(sigma)
    return a * (np.trace(drift) + np.trace(diffusion @ inv))


def entropy_rate(sigma, drift, diffusion, hbar):
    """ds/dt = (dA/dt) / A**2."""
    a = area(sigma, hbar)
    return area_rate(sigma, drift, diffusion, hbar) / a ** 2


def initial_rate(sigma0, diffusion, lam, hbar):
    """Entropy-production rate from the state alone.

    Equals :func:`entropy_rate` for every drift matrix with trace
    ``-2 * lam``; the oscillatory and mixing parts of the drift are traceless
    and drop out.
    """
    sigma0 = np.asarray(sigma0, dtype=float)
    a = area(sigma0, hbar)
    inv = _inv2(sigma0)
    return (-2.0 * lam + np.trace(inv @ diffusion)) / a


def report(sigma, drift, diffusion, hbar):
    """All four diagnostics in one pass over the covariance matrix."""
    a = area(sigma, hbar)
    da = area_rate(sigma, drift, diffusion, hbar)
    return EntropyReport(area=a,
                         lin_entropy=max(1.0 - 1.0 / a, 0.0),
                         area_rate=da,
                         entropy_rate=da / a ** 2)
