"""Closed-form algebra on 2x2 matrices, shared by every layer.

Covariances and diffusion matrices are 2x2, so their determinants, inverses
and eigenvalues are written out once here, with :func:`spd`, the one test of
whether such a matrix is acceptable (entry points raise through
:func:`check_spd`; the time-stepper tests each block of steps).  Other
tolerances stay with their callers.  :func:`det`, :func:`inv`,
:func:`normalize` and :func:`spd` also take a stack ``(n, 2, 2)``, or a strided
view of one: they index the transpose, which puts the 2x2 indices first, so one
expression serves a matrix and a stack with the same rounding.  :func:`dot` is
the package's one fixed summation order: every matrix product that feeds an
output is one, not a BLAS call.  The module is private: the benchmark's tracer
wraps the public functions of the layer modules, and these run once per matrix.
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


def spd(m):
    """``(ok, unit, s, det(unit))``, ``(unit, s)`` from :func:`normalize`: ``ok``
    is whether ``m``, or each matrix of a stack, is finite, symmetric (|m01 -
    m10| at most 1e-9 of the largest |entry|) and positive definite
    (``min(det, m11) > 0``), both tested on ``unit``.  A NaN fails it, and a
    determinant past the float range does not."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite m fails
        unit, s, top = normalize(m)
        t = unit.T
        d = det(unit)
        ok = (np.isfinite(top) & (np.minimum(d, t[0, 0]) > 0)
              & (abs(t[0, 1] - t[1, 0]) <= _SYMMETRY_RTOL * top))
    return ok, unit, s, d


def check_2x2(m, name, finite=True):
    """``m`` as floats; :class:`NotSPD` unless one 2x2 matrix, finite if ``finite``."""
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2) or finite and not np.isfinite(m).all():
        raise NotSPD(f"{name} matrix {m.tolist()} is not a finite 2x2 matrix")
    return m


def check_spd(m, name="matrix"):
    """``(unit, s, det(unit))`` of :func:`spd`; :class:`NotSPD` naming the first
    matrix that fails it, or for a shape whose last two axes are not 2x2."""
    if np.shape(m)[-2:] != (2, 2):
        raise NotSPD(f"{name} of shape {np.shape(m)} is not a 2x2 matrix")
    ok, unit, s, d = spd(m)
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
    # order="C": each pass runs along the stack, fast on a strided view too.
    t = np.abs(m.T, order="C")
    top = np.maximum(np.maximum(t[0, 0], t[1, 1]), np.maximum(t[0, 1], t[1, 0]))
    s = np.ldexp(0.5, np.frexp(top)[1])
    return np.divide(m.T, s, order="C").T, s, top / s


def dot(a, b, out=None):
    """The sum over k = 0, 1, ... of ``a[k] * b[k]``, broadcast, in that
    order, into ``out`` if given: a fixed sequence of rounded products and
    sums, the same on every machine, where ``@`` rounds as the host's BLAS
    kernel does (with or without fused multiply-adds, in its own order)."""
    out = np.multiply(a[0], b[0], out=out)
    for k in range(1, len(a)):
        out += a[k] * b[k]
    return out


def mul(a, b):
    """Matrix product of 2-D ``a`` and ``b``: :func:`dot` of a's columns and b's rows."""
    return dot(a.T[:, :, None], b[:, None, :])


def spectrum(m):
    """``(trace, least, greatest eigenvalue)`` of a symmetric ``m``, array or nested tuples."""
    tr = m[0][0] + m[1][1]
    gap = math.hypot(m[0][0] - m[1][1], 2.0 * m[0][1])
    return tr, 0.5 * (tr - gap), 0.5 * (tr + gap)


def hurwitz(m):
    """Whether both eigenvalues of the real ``m`` have negative real part:
    trace < 0 < det, taken on :func:`normalize`'s ``m / s`` so that the
    determinant cannot overflow."""
    unit = normalize(m)[0]
    return bool(unit[0, 0] + unit[1, 1] < 0 < det(unit))
