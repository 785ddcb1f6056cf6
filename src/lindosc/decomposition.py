"""Scale/squeezing/rotation decomposition of 2x2 symmetric matrices.

A symmetric positive definite covariance matrix is written as

    M = (hbar * A / 2) * O(theta)^T @ diag(aleph**2, aleph**-2) @ O(theta)

with ``A`` the phase-space area, ``aleph >= 1`` the squeezing parameter and
``O(theta)`` the rotation with the convention ``O = [[c, -s], [s, c]]``.
The same congruence decomposes the scaled diffusion matrix into an intensity
``Delta``, an anisotropy ``d`` and an angle ``phi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _mat2
from .errors import ConfigError, NotSPD

#: Below this excess of aleph**2 over 1 the rotation angle is meaningless.
_ISOTROPY_TOL = 1e-12

_SYMMETRY_RTOL = 1e-9


@dataclass(frozen=True)
class CovDecomposition:
    """(area, squeezing, angle) of a covariance matrix."""

    A: float
    aleph: float
    theta: float


@dataclass(frozen=True)
class DiffDecomposition:
    """(intensity, anisotropy, angle) of a scaled diffusion matrix."""

    Delta: float
    d: float
    phi: float


def _check_symmetric(m):
    scale = max(abs(m[0, 0]), abs(m[1, 1]), abs(m[0, 1]), abs(m[1, 0]), 1e-300)
    if abs(m[0, 1] - m[1, 0]) > _SYMMETRY_RTOL * scale:
        raise NotSPD(f"matrix {m.tolist()} is not symmetric")


def _decompose(m, s, det, hbar):
    """Closed-form (scale, ratio, angle) of the symmetric 2x2 matrix
    ``m * s``, given ``det = det(m)``; the inverse of :func:`_compose`.

    ``ratio**2 = lambda_max / sqrt(det) >= 1`` and ``angle in [0, pi)``
    orients the congruence so the large eigenvalue sits on the first
    diagonal slot.  With ``s`` a power of two, the scale of ``m * s`` is that
    of ``m`` times ``s`` exactly, and ratio and angle do not depend on ``s``.
    """
    sqrt_det = math.sqrt(det)
    _, _, lam_max = _mat2.spectrum(m)
    ratio2 = lam_max / sqrt_det
    if ratio2 - 1.0 < _ISOTROPY_TOL:
        ratio2, angle = 1.0, 0.0
    else:
        angle = 0.5 * math.atan2(-2.0 * m[0, 1], m[0, 0] - m[1, 1]) % math.pi
    return 2.0 * sqrt_det / hbar * float(s), math.sqrt(ratio2), angle


def _compose(scale, ratio, angle, hbar):
    if not ratio > 0:
        raise ConfigError(f"squeezing or anisotropy {ratio} is not positive")
    c, s = math.cos(angle), math.sin(angle)
    o = np.array([[c, -s], [s, c]])
    core = np.diag([ratio ** 2, ratio ** -2])
    return (hbar * scale / 2.0) * (o.T @ core @ o)


def decompose(m, hbar):
    """Decompose an SPD covariance matrix into (A, aleph, theta).

    The determinant is taken on ``m`` scaled by a power of two
    (:func:`_mat2.check_spd`), so A stays finite where det m overflows.
    """
    m = np.asarray(m, dtype=float)
    _check_symmetric(m)
    return CovDecomposition(*_decompose(*_mat2.check_spd(m), hbar))


def compose(dec, hbar):
    """Rebuild the covariance matrix from (A, aleph, theta)."""
    return _compose(dec.A, dec.aleph, dec.theta, hbar)


def decompose_diffusion(d_matrix, hbar):
    """Decompose a scaled diffusion matrix into (Delta, d, phi)."""
    d_matrix = np.asarray(d_matrix, dtype=float)
    _check_symmetric(d_matrix)
    det = _mat2.det(d_matrix)
    if det <= 0:
        raise NotSPD("diffusion matrix has non-positive determinant; "
                     "anisotropy is undefined")
    return DiffDecomposition(*_decompose(d_matrix, 1.0, det, hbar))


def compose_diffusion(dec, hbar):
    """Rebuild the scaled diffusion matrix from (Delta, d, phi)."""
    return _compose(dec.Delta, dec.d, dec.phi, hbar)
