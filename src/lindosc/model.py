"""Physical model of the damped harmonic oscillator coupled to an environment.

The environment enters through two coupling operators linear in position and
momentum.  From the coupling amplitudes we derive momentum/position diffusion
coefficients, a cross term and a friction constant, and from those the drift
matrix and the scaled diffusion matrix that drive the covariance dynamics.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import _mat2, decomposition
from .errors import ConfigError

#: Absolute floor used in the positivity-constraint tolerance.
_VALIDATION_RTOL = 1e-10


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
    only enforces the strictly structural requirements (positive mass,
    frequency and action scale); the diffusion positivity constraint is
    checked by :func:`validate`, which reports rather than raises.
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
        if self.m <= 0:
            raise ConfigError(f"mass must be positive, got {self.m}")
        if self.omega <= 0:
            raise ConfigError(f"frequency must be positive, got {self.omega}")
        if self.hbar <= 0:
            raise ConfigError(f"action scale must be positive, got {self.hbar}")

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
    """Outcome of the model constraint checks; never raised, always returned."""

    passed: bool
    d_qq_nonnegative: bool
    d_pp_nonnegative: bool
    positivity_ok: bool
    slack: float
    tolerance: float
    anti_damped: bool
    hurwitz: bool
    drift_eigenvalues: list  # [[re, im], ...]

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

    drift = build_drift(params)
    return ValidationReport(
        passed=bool(d_qq_ok and d_pp_ok and positivity_ok),
        d_qq_nonnegative=bool(d_qq_ok),
        d_pp_nonnegative=bool(d_pp_ok),
        positivity_ok=bool(positivity_ok),
        slack=float(slack),
        tolerance=float(tol),
        anti_damped=bool(params.lam < 0),
        hurwitz=_mat2.hurwitz(drift),
        drift_eigenvalues=[[z.real, z.imag] for z in np.linalg.eigvals(drift)],
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


def _number(doc, key):
    """``doc[key]`` as a float; a bool or a string is not a number."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"model {key} must be a number, got {value!r}")
    return float(value)


def model_from_dict(doc):
    """Build :class:`ModelParams` from a JSON model document.

    The ``diffusion`` entry carries exactly one of two forms: raw
    coefficients ``{"D_qq", "D_pp", "D_pq"}`` or the decomposed form
    ``{"Delta", "d", "phi"}`` (intensity, anisotropy, angle of the scaled
    diffusion matrix).
    """
    try:
        m, omega, mu, hbar, lam = (_number(doc, key)
                                   for key in ("m", "omega", "mu", "hbar", "lambda"))
        diffusion = doc["diffusion"]
        keys = set(diffusion)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed model document: {exc!r}") from exc

    raw_keys = ("D_qq", "D_pp", "D_pq")
    dec_keys = ("Delta", "d", "phi")
    if keys == set(raw_keys):
        d_qq, d_pp, d_pq = (_number(diffusion, key) for key in raw_keys)
    elif keys == set(dec_keys):
        dec = decomposition.DiffDecomposition(
            *(_number(diffusion, key) for key in dec_keys))
        scaled = decomposition.compose_diffusion(dec, hbar)
        mw = m * omega
        d_qq = scaled[0, 0] / mw
        d_pp = scaled[1, 1] * mw
        d_pq = scaled[0, 1]
    else:
        raise ConfigError(
            "diffusion must contain exactly the keys "
            f"{sorted(raw_keys)} or {sorted(dec_keys)}, got {sorted(keys)}")

    return ModelParams(m=m, omega=omega, mu=mu, hbar=hbar,
                       D_qq=d_qq, D_pp=d_pp, D_pq=d_pq, lam=lam)
