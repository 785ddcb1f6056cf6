"""Purity diagnostics: phase-space area, linear entropy and their rates.

:func:`report` takes one covariance matrix or a stack of shape ``(n, 2, 2)``
and computes every diagnostic elementwise, so a trajectory's samples and a
single state go through the same arithmetic and agree bit for bit.  Every
entry point accepts its covariances through :func:`_mat2.check_spd`, which
rejects one that is not finite, symmetric and positive definite, and divides
it by a power of two near its largest entry.  The division is exact: the
diagnostics are those of the plain formulas wherever those are in range, and
stay finite where det sigma alone would overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _mat2
from .errors import UnphysicalState
from .model import _positive

#: Areas this far below 1 are treated as rounding noise on a pure state.
_PURITY_TOL = 1e-9


@dataclass(frozen=True)
class EntropyReport:
    """The four diagnostics; floats for one matrix, arrays for a stack."""

    area: float
    lin_entropy: float
    area_rate: float
    entropy_rate: float


def _area(sigma, hbar):
    """``(unit, s, A / s, det unit)`` for one covariance or a stack, where
    ``(unit, s, det unit)`` is :func:`_mat2.check_spd` of ``sigma``.  A = 2
    sqrt(det sigma) / hbar is formed in units of ``s``, exactly, because det
    sigma overflows for entries past about 1.3e154 while A does not.  A is a
    numpy float for one covariance too, so past the float range it is inf."""
    unit, s, det = _mat2.check_spd(sigma, "covariance")
    return unit, s, 2.0 * np.sqrt(det) / _positive(hbar), det


def area(sigma, hbar):
    """Phase-space area A = (2/hbar) sqrt(det sigma); 1 for pure states, and
    inf past the float range."""
    _, s, a, _ = _area(sigma, hbar)
    with np.errstate(over="ignore"):
        return float(s * a)


def _physical_area(sigma, hbar):
    """:func:`area`; :class:`UnphysicalState` below the pure-state value 1."""
    a = area(sigma, hbar)
    if a < 1.0 - _PURITY_TOL:
        raise UnphysicalState(f"area {a} is below the pure-state value 1")
    return a


def linear_entropy(sigma, hbar):
    """Linear entropy s = 1 - 1/A, clamped to [0, 1) near the pure point."""
    return max(1.0 - 1.0 / _physical_area(sigma, hbar), 0.0)


def initial_rate(sigma0, diffusion, lam, hbar):
    """Entropy-production rate from the state alone: :func:`report`'s
    ``entropy_rate`` under the drift ``-lam * I``.

    It is the rate for every drift matrix with trace ``-2 * lam``; the
    oscillatory and mixing parts of the drift are traceless and drop out.
    """
    return report(sigma0, np.diag([-lam, -lam]), diffusion, hbar).entropy_rate


def report(sigma, drift, diffusion, hbar):
    """All four diagnostics of one covariance matrix or of a stack
    ``(n, 2, 2)``, in one pass.

    Raises :class:`~lindosc.errors.NotSPD` for the first matrix that is not
    finite, symmetric and positive definite, and for a drift or diffusion
    that is not a finite 2x2 matrix (a singular diffusion is valid).  A
    diagnostic past the float range comes out inf or nan, without a warning.
    """
    drift, diffusion = _mat2.check_2x2(drift, "drift"), _mat2.check_2x2(diffusion, "diffusion")
    unit, s, a, det = _area(sigma, hbar)
    with np.errstate(over="ignore", invalid="ignore"):
        # tr(diffusion inv(sigma)) as the diagonal of the product with
        # inv(unit) = s * inv(sigma), then / s: only the sum can overflow.
        inv = _mat2.inv(unit, det)
        tr_d_inv = ((diffusion[0][0] * inv[0][0] + diffusion[0][1] * inv[1][0])
                    + (diffusion[1][0] * inv[0][1] + diffusion[1][1] * inv[1][1])) / s
        # dA/dt and ds/dt = (dA/dt) / A**2 in units of s, where A**2 cannot
        # overflow for hbar near 1: both are the unscaled formulas times a
        # power of two.
        da = a * ((drift[0][0] + drift[1][1]) + tr_d_inv)
        area_ = s * a
        return EntropyReport(area=area_,
                             lin_entropy=np.maximum(1.0 - 1.0 / area_, 0.0),
                             area_rate=s * da,
                             entropy_rate=da / (a * a) / s)
