"""Closed-form algebra on 2x2 matrices, shared by every layer.

Covariances and diffusion matrices are 2x2, so their determinants, inverses
and eigenvalues are written out once here.  Callers keep their own
tolerances.  The module is private: the benchmark's tracer wraps the public
functions of the layer modules, and these run once per RK4 step.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotSPD


def det(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def check_spd(m, name="matrix"):
    """Return ``det(m)``; raise :class:`NotSPD` unless ``m`` is positive
    definite (symmetry is the caller's concern)."""
    d = det(m)
    if d <= 0 or m[0, 0] <= 0:
        raise NotSPD(f"{name} {m.tolist()} is not positive definite")
    return d


def inv(m, d):
    """Inverse of ``m`` given its determinant ``d``."""
    return np.array([[m[1, 1], -m[0, 1]],
                     [-m[1, 0], m[0, 0]]]) / d


def spectrum(m):
    """``(trace, smallest eigenvalue, largest eigenvalue)`` of a symmetric
    ``m``."""
    tr = m[0, 0] + m[1, 1]
    gap = math.hypot(m[0, 0] - m[1, 1], 2.0 * m[0, 1])
    return tr, 0.5 * (tr - gap), 0.5 * (tr + gap)
