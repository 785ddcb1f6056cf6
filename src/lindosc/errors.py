"""Exception types shared across the package.

Each class declares the command-line exit code it maps to: 1 for usage and
configuration errors, 2 for physics-constraint violations, 3 for numerical
failures.
"""


class LindoscError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 1


class ConfigError(LindoscError):
    """Malformed configuration; a value type (``ModelParams``, the two
    decompositions, ``QuadratureSpec``) with a field out of range; an hbar
    that is not positive, finite and normal, or such a sieve area or
    ``fp_residual`` step ``h_x``, or a step whose square passes the float
    range; a matrix composed past the float range; a sieve grid that is
    empty, not counted in integers or does not bracket the optimum; or a
    quadrature box too narrow for the Gaussian."""


class NotSPD(LindoscError):
    """Covariance or diffusion matrix that is not finite, symmetric and
    positive definite (such a diffusion has no anisotropy); a drift or diffusion
    not a finite 2x2 matrix for the entropy rates or ``stationary_covariance``;
    a covariance not a finite 2x2 matrix for ``heisenberg_slack``."""
    exit_code = 2


class UnphysicalState(LindoscError):
    """State violates the minimum-uncertainty bound beyond tolerance."""
    exit_code = 2


class NotStable(LindoscError):
    """Finite drift matrix that is not Hurwitz, or a stationary covariance
    whose residual is past its bound; no stationary covariance is computed."""
    exit_code = 3


class PositivityLost(LindoscError):
    """A time step whose covariance fails ``_mat2.check_spd``'s test, or whose
    mean left the float range."""
    exit_code = 3

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time
