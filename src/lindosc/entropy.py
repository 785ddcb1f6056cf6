"""Purity diagnostics: phase-space area, linear entropy and their rates.

:func:`report` takes one covariance matrix or a stack of shape ``(n, 2, 2)``
and computes every diagnostic elementwise, so a trajectory's samples and a
single state go through the same arithmetic and agree bit for bit.
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


def _area(det, hbar):
    bad = det <= 0
    if np.any(bad):
        raise NonPositiveDeterminant(
            f"det sigma = {np.ravel(det)[np.argmax(bad)]} is not positive")
    return 2.0 * np.sqrt(det) / hbar


def _inv2(m, det):
    t = m.T
    scale = np.maximum(np.maximum(abs(t[0, 0]), abs(t[1, 1])),
                       np.maximum(abs(t[1, 0]), 1e-300))
    # Divided, not squared: scale ** 2 overflows from entries of about 1e154.
    singular = (abs(det) <= 1e-300) | (abs(det) / scale < 1e-15 * scale)
    if np.any(singular):
        bad = np.reshape(m, (-1, 2, 2))[np.argmax(singular)]
        raise NotSPD(f"covariance matrix {bad.tolist()} is numerically singular")
    return _mat2.inv(m, det)


def area(sigma, hbar):
    """Phase-space area A = (2/hbar) sqrt(det sigma); 1 for pure states."""
    return float(_area(_mat2.det(np.asarray(sigma, dtype=float)), hbar))


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
    sigma0 = np.asarray(sigma0, dtype=float)
    det = _mat2.det(sigma0)
    a = _area(det, hbar)
    inv = _inv2(sigma0, det)
    return (-2.0 * lam + np.trace(inv @ diffusion)) / a


def report(sigma, drift, diffusion, hbar):
    """All four diagnostics of one covariance matrix or of a stack
    ``(n, 2, 2)``, in one pass.

    Raises :class:`~lindosc.errors.NonPositiveDeterminant` or
    :class:`~lindosc.errors.NotSPD` for the first matrix that has a
    non-positive or numerically vanishing determinant.
    """
    sigma = np.asarray(sigma, dtype=float)
    det = _mat2.det(sigma)
    a = _area(det, hbar)
    inv = _inv2(sigma, det).T
    # tr(diffusion @ inv), summed as the diagonal of the product.
    tr_d_inv = ((diffusion[0, 0] * inv[0, 0] + diffusion[0, 1] * inv[0, 1])
                + (diffusion[1, 0] * inv[1, 0] + diffusion[1, 1] * inv[1, 1]))
    da = a * ((drift[0, 0] + drift[1, 1]) + tr_d_inv)
    return EntropyReport(area=a,
                         lin_entropy=np.maximum(1.0 - 1.0 / a, 0.0),
                         area_rate=da,
                         entropy_rate=da / (a * a))
