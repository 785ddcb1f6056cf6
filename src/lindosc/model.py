"""Physical model of the damped harmonic oscillator coupled to an environment.

The environment enters through two coupling operators linear in position and
momentum.  From the coupling amplitudes we derive momentum/position diffusion
coefficients, a cross term and a friction constant, and from those the drift
matrix and the scaled diffusion matrix that drive the covariance dynamics.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _mat2
from .errors import ConfigError

#: Absolute floor used in the positivity-constraint tolerance.
_VALIDATION_RTOL = 1e-10


#: The smallest positive normal float.  The area 2 sqrt(det sigma) / hbar,
#: taken on sigma scaled to entries below 2, is below 4 / hbar: finite for
#: every hbar from this one up, but not for every hbar below it.
_TINY = float(np.finfo(float).tiny)


def _positive(value, what="hbar"):
    """``value``; :class:`ConfigError` unless it is finite and at least
    :data:`_TINY`, that is positive, finite and not subnormal."""
    if not _TINY <= value < math.inf:
        raise ConfigError(f"{what} must be positive and finite, at least {_TINY}, "
                          f"got {value}")
    return value


@dataclass(frozen=True)
class LindbladCouplings:
    """Two coupling pairs (a_j, b_j); a_j multiplies momentum, b_j position."""

    a1: complex
    b1: complex
    a2: complex = 0j
    b2: complex = 0j


@dataclass(frozen=True)
class ModelParams:
    """Oscillator constants plus environment-derived coefficients.

    ``D_qq`` and ``D_pp`` are the position/momentum diffusion coefficients,
    ``D_pq`` the cross term and ``lam`` the friction constant.  Construction
    only enforces the strictly structural requirements (positive, finite
    mass, frequency and action scale; finite coefficients); the diffusion
    positivity constraint is checked by :func:`validate`, which reports
    rather than raises.
    """

    m: float
    omega: float
    mu: float
    hbar: float
    D_qq: float
    D_pp: float
    D_pq: float
    lam: float

    def __post_init__(self):
        for what, value in (("mass", self.m), ("frequency", self.omega),
                            ("hbar", self.hbar)):
            _positive(value, what)
        for name in ("mu", "D_qq", "D_pp", "D_pq", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")

    @classmethod
    def from_couplings(cls, couplings, m, omega, mu, hbar):
        """Parameters whose diffusion coefficients and friction constant
        derive from the coupling amplitudes.

        They always satisfy the positivity constraint
        ``D_pp*D_qq - D_pq**2 >= lam**2 * hbar**2 / 4`` (Cauchy-Schwarz),
        which is asserted.
        """
        pairs = ((couplings.a1, couplings.b1), (couplings.a2, couplings.b2))
        d_qq = 0.5 * hbar * sum(abs(a) ** 2 for a, _ in pairs)
        d_pp = 0.5 * hbar * sum(abs(b) ** 2 for _, b in pairs)
        cross = sum(np.conj(a) * b for a, b in pairs)
        d_pq = -0.5 * hbar * cross.real
        lam = -cross.imag

        slack = d_pp * d_qq - d_pq ** 2 - lam ** 2 * hbar ** 2 / 4
        assert slack >= -1e-12 * max(1.0, d_pp * d_qq), slack
        return cls(m=m, omega=omega, mu=mu, hbar=hbar,
                   D_qq=d_qq, D_pp=d_pp, D_pq=d_pq, lam=lam)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the model constraint checks; never raised, always returned.

    ``hurwitz`` is :func:`_mat2.hurwitz`'s trace < 0 < det, the one test of
    stability that ``evolve``'s summary and ``stationary_covariance`` apply;
    ``drift_eigenvalues`` are information only.  Near lam = sqrt(mu**2 -
    omega**2) their real parts can disagree with it in sign: the small
    eigenvalue is ill-conditioned in lam, which no float formula removes.
    """

    passed: bool
    d_qq_nonnegative: bool
    d_pp_nonnegative: bool
    positivity_ok: bool
    slack: float
    tolerance: float
    anti_damped: bool
    hurwitz: bool
    drift_eigenvalues: list  # [re, im] of -lam + r, -lam - r; r = sqrt((mu - omega)(mu + omega))

    def as_dict(self):
        return asdict(self)


def validate(params):
    """Check the diffusion-positivity constraint and report stability data."""
    # Products, not **: past the float range they give inf where ** raises.
    det = params.D_pp * params.D_qq - params.D_pq * params.D_pq
    slack = det - (params.lam * params.lam) * (params.hbar * params.hbar) / 4
    tol = _VALIDATION_RTOL * max(1.0, abs(params.D_pp * params.D_qq))

    d_qq_ok = params.D_qq >= 0
    d_pp_ok = params.D_pp >= 0
    positivity_ok = slack >= -tol

    r = cmath.sqrt((params.mu - params.omega) * (params.mu + params.omega))
    return ValidationReport(
        passed=bool(d_qq_ok and d_pp_ok and positivity_ok),
        d_qq_nonnegative=bool(d_qq_ok),
        d_pp_nonnegative=bool(d_pp_ok),
        positivity_ok=bool(positivity_ok),
        slack=float(slack),
        tolerance=float(tol),
        anti_damped=bool(params.lam < 0),
        hurwitz=_mat2.hurwitz(build_drift(params)),
        # A real pair's second imaginary part is -0.0, reported as 0.0.
        drift_eigenvalues=[[z.real, z.imag or 0.0] for z in (-params.lam + r, -params.lam - r)],
    )


def build_drift(params):
    """Drift matrix of the first- and second-moment dynamics; trace is -2*lam."""
    lam, mu, omega = params.lam, params.mu, params.omega
    return np.array([[-(lam - mu), omega],
                     [-omega, -(lam + mu)]])


def build_scaled_diffusion(params):
    """Scaled symmetric diffusion matrix in the dimensionless coordinates."""
    mw = params.m * params.omega
    return np.array([[mw * params.D_qq, params.D_pq],
                     [params.D_pq, params.D_pp / mw]])
