"""Closed-form algebra on 2x2 matrices, shared by every layer.

Covariances and diffusion matrices are 2x2, so their determinants, inverses
and eigenvalues are written out once here, with :func:`check_spd`, the one
test of whether such a matrix is acceptable.  Other tolerances stay with
their callers.  :func:`det`, :func:`check_spd`, :func:`inv` and
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


#: Largest |m01 - m10| of a symmetric matrix, relative to its largest |entry|.
_SYMMETRY_RTOL = 1e-9


def check_spd(m, name="matrix"):
    """Return ``(unit, s, det(unit))`` with ``(unit, s)`` from :func:`normalize`;
    raise :class:`NotSPD` unless ``m`` is a 2x2 matrix or a stack of them
    (its last two axes are ``(2, 2)``) and each is finite, symmetric
    (|m01 - m10| at most 1e-9 of the largest |entry|) and positive definite
    (``min(det, m11) > 0``), both tested on ``unit``.  This is the package's
    one test of an acceptable covariance or diffusion matrix.  A NaN fails
    it, and a determinant past the float range does not.
    """
    if np.shape(m)[-2:] != (2, 2):
        raise NotSPD(f"{name} of shape {np.shape(m)} is not a 2x2 matrix")
    if np.isfinite(m).all():
        unit, s, top = normalize(m)
        t = unit.T
        d = det(unit)
        ok = ((np.minimum(d, t[0, 0]) > 0)
              & (abs(t[0, 1] - t[1, 0]) <= _SYMMETRY_RTOL * top))
    else:
        ok = np.isfinite(m).all(axis=(-2, -1))
    if not ok.all():
        bad = np.reshape(m, (-1, 2, 2))[np.argmin(np.ravel(ok))]
        raise NotSPD(f"{name} {bad.tolist()} is not finite, symmetric and "
                     "positive definite")
    return unit, s, d


#: Signs of the adjugate's entries.
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def inv(m, d):
    """Inverse of ``m``, or of each matrix of a stack, given its
    determinant ``d``."""
    adjugate = np.swapaxes(m[..., ::-1, ::-1], -1, -2) * _ADJUGATE_SIGNS
    return adjugate / np.asarray(d)[..., None, None]


def normalize(m):
    """``(m / s, s, top)`` with ``s`` the greatest power of two not above the
    largest |entry| of ``m``, or of each matrix of a stack, and ``top`` the
    largest |entry| of ``m / s``, in [1, 2) (``s`` = 1/2 and ``top`` = 0 for
    a zero matrix).

    Dividing by a power of two is exact, so the determinant and inverse of
    ``m / s`` are those of ``m`` times ``s**-2`` and ``s`` bit for bit
    wherever both are normal floats, and the determinant cannot overflow.
    ``s`` itself is finite for every finite ``m``.
    """
    t = abs(m.T)
    top = np.maximum(np.maximum(t[0, 0], t[1, 1]), np.maximum(t[0, 1], t[1, 0]))
    s = np.ldexp(0.5, np.frexp(top)[1])
    return (m.T / s).T, s, top / s


def spectrum(m):
    """``(trace, smallest eigenvalue, largest eigenvalue)`` of a symmetric
    ``m``."""
    tr = m[0, 0] + m[1, 1]
    gap = math.hypot(m[0, 0] - m[1, 1], 2.0 * m[0, 1])
    return tr, 0.5 * (tr - gap), 0.5 * (tr + gap)


def hurwitz(m):
    """Whether both eigenvalues of the real ``m`` have negative real part:
    trace < 0 < det, taken on :func:`normalize`'s ``m / s`` so that the
    determinant cannot overflow."""
    unit = normalize(m)[0]
    return bool(unit[0, 0] + unit[1, 1] < 0 < det(unit))
