"""Exception types shared across the package.

Each class declares the command-line exit code it maps to: 1 for usage and
configuration errors, 2 for physics-constraint violations, 3 for numerical
failures.
"""


class LindoscError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 1


class ConfigError(LindoscError):
    """Malformed configuration or model document."""


class NotSPD(LindoscError):
    """Matrix expected to be symmetric positive definite is not, or is
    numerically singular."""
    exit_code = 2


class NonPositiveDeterminant(LindoscError):
    """Covariance determinant is not strictly positive."""
    exit_code = 2


class UnphysicalState(LindoscError):
    """State violates the minimum-uncertainty bound beyond tolerance."""
    exit_code = 2


class SingularDiffusion(LindoscError):
    """Diffusion matrix has non-positive determinant; anisotropy is undefined."""
    exit_code = 2


class NotStable(LindoscError):
    """Drift matrix is not Hurwitz, or the stationary-covariance system is
    numerically singular; no stationary covariance is computed."""
    exit_code = 3


class BracketError(LindoscError):
    """Search range does not bracket the analytic optimum."""


class BoxTooSmall(LindoscError):
    """Quadrature box does not cover enough of the Gaussian mass."""


class PositivityLost(LindoscError):
    """Integrated covariance lost positive definiteness, or the state left
    the float range."""
    exit_code = 3

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time
