"""Scale/squeezing/rotation decomposition of 2x2 symmetric matrices.

A symmetric positive definite covariance matrix is written as

    M = (hbar * A / 2) * O(theta)^T diag(aleph**2, aleph**-2) O(theta)

with ``A`` the phase-space area, ``aleph >= 1`` the squeezing parameter and
``O(theta)`` the rotation with the convention ``O = [[c, -s], [s, c]]``.
The same congruence decomposes the scaled diffusion matrix into an intensity
``Delta``, an anisotropy ``d`` and an angle ``phi``.

Both accept their matrix through :func:`_mat2.check_spd` and share one body,
exact on the matrix divided by a power of two, so they stay finite where the
determinant alone overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import _mat2
from .errors import ConfigError
from .model import _positive

#: Below this excess over 1 of aleph**2 or d**2 (taken >= 1) the angle is meaningless.
_ISOTROPY_TOL = 1e-12


def _check(dec):
    """Raise :class:`ConfigError` unless ``dec``'s fields are finite, its ratio > 0."""
    names = [f.name for f in fields(dec)]
    scale, ratio, angle = map(dec.__getattribute__, names)
    if not (math.isfinite(scale) and 0 < ratio < math.inf and math.isfinite(angle)):
        raise ConfigError(f"{dec} needs finite fields and a positive {names[1]}")


@dataclass(frozen=True)
class CovDecomposition:
    """(area, squeezing, angle) of a covariance matrix; see ``_check``."""

    A: float
    aleph: float
    theta: float
    __post_init__ = _check


@dataclass(frozen=True)
class DiffDecomposition:
    """(intensity, anisotropy, angle) of a scaled diffusion matrix; see ``_check``."""

    Delta: float
    d: float
    phi: float
    __post_init__ = _check


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
        angle = 0.5 * math.atan2(-2.0 * m[0][1], m[0][0] - m[1][1]) % math.pi
    return 2.0 * sqrt_det / _positive(hbar) * s, math.sqrt(ratio2), angle


def _compose(scale, ratio, angle, hbar):
    c, s = math.cos(angle), math.sin(angle)
    o = ((c, -s), (s, c))
    with np.errstate(over="ignore"):  # squared past the float range: inf, not OverflowError
        diag = ((float(np.float64(ratio) ** 2), 0.0), (0.0, float(np.float64(ratio) ** -2)))
    o_t_diag = [[_mat2.dot(row, col) for col in diag] for row in zip(*o)]  # diag = diag^T
    k = _positive(hbar) * scale / 2.0
    m = np.array([[k * _mat2.dot(row, col) for col in zip(*o)] for row in o_t_diag])
    if not np.isfinite(m).all():
        raise ConfigError(f"scale {scale}, squeezing or anisotropy {ratio} and "
                          f"angle {angle} compose to a matrix that is not finite")
    return m


def decompose(m, hbar):
    """Decompose an SPD covariance matrix into (A, aleph, theta)."""
    return CovDecomposition(*_decompose(*_mat2.check_spd(m, "covariance"), hbar))


def compose(dec, hbar):
    """Rebuild the covariance matrix from (A, aleph, theta)."""
    return _compose(dec.A, dec.aleph, dec.theta, hbar)


def decompose_diffusion(d_matrix, hbar):
    """Decompose an SPD scaled diffusion matrix into (Delta, d, phi)."""
    return DiffDecomposition(*_decompose(*_mat2.check_spd(d_matrix, "diffusion matrix"), hbar))


def compose_diffusion(dec, hbar):
    """Rebuild the scaled diffusion matrix from (Delta, d, phi)."""
    return _compose(dec.Delta, dec.d, dec.phi, hbar)
