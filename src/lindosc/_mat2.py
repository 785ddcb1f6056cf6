"""Closed-form algebra on 2x2 matrices, shared by every layer.

Covariances and diffusion matrices are 2x2, so their determinants, inverses
and eigenvalues are written out once here.  Callers keep their own
tolerances.  :func:`det` and :func:`inv` also take a stack of shape
``(n, 2, 2)``: they index the transpose, which puts the 2x2 indices first,
so one expression serves a single matrix at scalar speed and a stack at
array speed, with the same rounding.  The module is private: the
benchmark's tracer wraps the public functions of the layer modules, and
these run once per matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotSPD


def det(m):
    t = m.T
    return t[0, 0] * t[1, 1] - t[1, 0] * t[0, 1]


def check_spd(m, name="matrix"):
    """Return ``det(m)``; raise :class:`NotSPD` unless ``m`` is positive
    definite (symmetry is the caller's concern)."""
    d = det(m)
    if d <= 0 or m[0, 0] <= 0:
        raise NotSPD(f"{name} {m.tolist()} is not positive definite")
    return d


def inv(m, d):
    """Inverse of ``m`` given its determinant ``d``."""
    t = m.T
    return np.ascontiguousarray((np.array([[t[1, 1], -t[0, 1]],
                                           [-t[1, 0], t[0, 0]]]) / d).T)


def spectrum(m):
    """``(trace, smallest eigenvalue, largest eigenvalue)`` of a symmetric
    ``m``."""
    tr = m[0, 0] + m[1, 1]
    gap = math.hypot(m[0, 0] - m[1, 1], 2.0 * m[0, 1])
    return tr, 0.5 * (tr - gap), 0.5 * (tr + gap)
