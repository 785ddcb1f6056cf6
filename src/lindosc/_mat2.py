"""Closed-form algebra on 2x2 matrices, shared by every layer.

Covariances and diffusion matrices are 2x2, so their determinants, inverses
and eigenvalues are written out once here.  Callers keep their own
tolerances.  :func:`det`, :func:`check_spd`, :func:`inv` and
:func:`normalize` also take a stack of shape ``(n, 2, 2)``: they index the
transpose, which puts the 2x2 indices first, so one expression serves a
single matrix at scalar speed and a stack at array speed, with the same
rounding.  The module is private: the benchmark's tracer wraps the public
functions of the layer modules, and these run once per matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotSPD


def det(m):
    t = m.T
    return t[0, 0] * t[1, 1] - t[1, 0] * t[0, 1]


def check_spd(m, name="matrix"):
    """Return ``(unit, s, det(unit))`` with ``(unit, s)`` :func:`normalize`
    of ``m``; raise :class:`NotSPD` unless ``m``, or every matrix of a stack,
    has finite entries and is positive definite (symmetry is the caller's
    concern).

    The test is ``not min(det, m11) > 0`` on ``unit``, so a NaN fails it,
    and a determinant past the float range does not.
    """
    if np.isfinite(m).all():
        unit, s = normalize(m)
        d = det(unit)
        ok = np.minimum(d, unit.T[0, 0]) > 0
    else:
        ok = np.isfinite(m).all(axis=(-2, -1))
    if not ok.all():
        bad = np.reshape(m, (-1, 2, 2))[np.argmin(np.ravel(ok))]
        raise NotSPD(f"{name} {bad.tolist()} is not finite and positive definite")
    return unit, s, d


#: Signs of the adjugate's entries.
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def inv(m, d):
    """Inverse of ``m``, or of each matrix of a stack, given its
    determinant ``d``."""
    adjugate = np.swapaxes(m[..., ::-1, ::-1], -1, -2) * _ADJUGATE_SIGNS
    return adjugate / np.asarray(d)[..., None, None]


def normalize(m):
    """``(m / s, s)`` with ``s`` the greatest power of two not above the
    largest |entry| of ``m``, or of each matrix of a stack (1/2 for a zero
    matrix), so the largest |entry| of ``m / s`` is in [1, 2).

    Dividing by a power of two is exact, so the determinant and inverse of
    ``m / s`` are those of ``m`` times ``s**-2`` and ``s`` bit for bit
    wherever both are normal floats, and the determinant cannot overflow.
    ``s`` itself is finite for every finite ``m``.
    """
    t = abs(m.T)
    top = np.maximum(np.maximum(t[0, 0], t[1, 1]), np.maximum(t[0, 1], t[1, 0]))
    s = np.ldexp(0.5, np.frexp(top)[1])
    return (m.T / s).T, s


def spectrum(m):
    """``(trace, smallest eigenvalue, largest eigenvalue)`` of a symmetric
    ``m``."""
    tr = m[0, 0] + m[1, 1]
    gap = math.hypot(m[0, 0] - m[1, 1], 2.0 * m[0, 1])
    return tr, 0.5 * (tr - gap), 0.5 * (tr + gap)
