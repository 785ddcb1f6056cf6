"""Closed-form algebra on 2x2 matrices, shared by every layer.

Determinants, inverses and eigenvalues of covariances and diffusion matrices
are written out once here, with :func:`spd`, the one test of whether such a
matrix is acceptable (entry points raise through :func:`check_spd`; the
time-stepper tests each block of steps).  Every function takes and returns a
matrix as its entries ``m[i][j]``: Python floats for one matrix, one array per
entry for a stack.  IEEE-754 +, -, *, / and sqrt round the same in CPython and
in numpy's loops, so one expression gives a matrix and a stack the same bits,
and one matrix costs no numpy call; only :func:`normalize`'s max and power of
two and :func:`spectrum`'s hypot are spelled twice.  :func:`dot` is the
package's one fixed summation order: every matrix product that feeds an output
is one, not a BLAS call.  The module is private: the benchmark's tracer wraps
the public functions of the layer modules, and these run once per matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotSPD


def det(m):
    return m[0][0] * m[1][1] - m[1][0] * m[0][1]


#: Largest |m01 - m10| of a symmetric matrix, relative to its largest |entry|.
_SYMMETRY_RTOL = 1e-9


def spd(m):
    """``(ok, unit, s, det(unit))``, ``(unit, s)`` from :func:`normalize`: ``ok``
    is whether ``m``, or each matrix of a stack, is finite, symmetric (|m01 -
    m10| at most 1e-9 of the largest |entry|) and positive definite
    (``det > 0`` and ``m00 > 0``), both tested on ``unit``.  A NaN fails it,
    and a determinant past the float range does not.  numpy's error state
    does not govern Python float arithmetic, which never warns, so only
    arrays and numpy scalars are tested inside ``np.errstate``."""
    if type(m[0][0]) is type(m[0][1]) is type(m[1][0]) is type(m[1][1]) is float:
        return _spd(m)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite m fails
        return _spd(m)


def _spd(m):
    unit, s, top = normalize(m)
    d = det(unit)
    ok = ((top < math.inf) & (d > 0) & (unit[0][0] > 0)
          & (abs(unit[0][1] - unit[1][0]) <= _SYMMETRY_RTOL * top))
    return ok, unit, s, d


def check_2x2(m, name):
    """``m`` as nested lists of floats; :class:`NotSPD` unless one finite 2x2 matrix."""
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2) or not np.isfinite(m).all():
        raise NotSPD(f"{name} matrix {m.tolist()} is not a finite 2x2 matrix")
    return m.tolist()


def check_spd(m, name="matrix"):
    """``(unit, s, det(unit))`` of :func:`spd` on the entries of ``m``: floats
    for one 2x2 matrix, arrays for a stack ``(..., 2, 2)``; :class:`NotSPD`
    naming the first matrix that fails it, or for a shape whose last two axes
    are not 2x2."""
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (2, 2):
        raise NotSPD(f"{name} of shape {m.shape} is not a 2x2 matrix")
    one = m.ndim == 2
    ok, unit, s, d = spd(m.tolist() if one else np.moveaxis(m, (-2, -1), (0, 1)))
    if not (ok if one else ok.all()):
        bad = m.reshape(-1, 2, 2)[np.argmin(np.ravel(ok))]
        raise NotSPD(f"{name} {bad.tolist()} is not finite, symmetric and positive definite")
    return unit, s, d


def inv(m, d):
    """Inverse of ``m``, or of each matrix of a stack, given its determinant ``d``."""
    return ((m[1][1] / d, -m[0][1] / d), (-m[1][0] / d, m[0][0] / d))


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
    (a, b), (c, d) = m
    if isinstance(a, np.ndarray):
        top = np.maximum(np.maximum(abs(a), abs(d)), np.maximum(abs(b), abs(c)))
        s = np.ldexp(0.5, np.frexp(top)[1])
    else:
        top = (abs(a), abs(b), abs(c), abs(d))
        top = math.nan if math.isnan(sum(top)) else max(top)  # as np.maximum
        s = math.ldexp(0.5, math.frexp(top)[1])
    return ((a / s, b / s), (c / s, d / s)), s, top / s


def dot(a, b, out=None):
    """The sum over k = 0, 1, ... of ``a[k] * b[k]``, broadcast, in that
    order, into ``out`` if given: a fixed sequence of rounded products and
    sums, the same on every machine, where ``@`` rounds as the host's BLAS
    kernel does (with or without fused multiply-adds, in its own order).
    Entry (i, j) of a matrix product ``a b`` is ``dot(a[i], column j of b)``."""
    out = a[0] * b[0] if out is None else np.multiply(a[0], b[0], out=out)
    for k in range(1, len(a)):
        out += a[k] * b[k]
    return out


def spectrum(m):
    """``(trace, least, greatest eigenvalue)`` of a symmetric ``m``."""
    tr, x, y = m[0][0] + m[1][1], m[0][0] - m[1][1], 2.0 * m[0][1]
    # math.hypot per element of arrays: np.hypot rounds apart from it.
    gap = (np.vectorize(math.hypot, otypes=[float])(x, y) if isinstance(x, np.ndarray)
           else math.hypot(x, y))
    return tr, 0.5 * (tr - gap), 0.5 * (tr + gap)


def hurwitz(m):
    """Whether both eigenvalues of the real ``m`` have negative real part:
    trace < 0 < det, taken on :func:`normalize`'s ``m / s`` so that the
    determinant cannot overflow."""
    unit = normalize(m)[0]
    return (unit[0][0] + unit[1][1] < 0) & (det(unit) > 0)
