"""Exception types shared across the package.

Each class declares the command-line exit code it maps to: 1 for usage and
configuration errors, 2 for physics-constraint violations, 3 for numerical
failures.
"""


class LindoscError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 1


class ConfigError(LindoscError):
    """Malformed configuration or model document, a search range that does
    not bracket the optimum, or a quadrature box too narrow for the
    Gaussian's mass."""


class NotSPD(LindoscError):
    """Matrix expected to be symmetric positive definite is not: its
    determinant is not positive, or it is numerically singular.  A diffusion
    matrix of this kind has no anisotropy."""
    exit_code = 2


class UnphysicalState(LindoscError):
    """State violates the minimum-uncertainty bound beyond tolerance."""
    exit_code = 2


class NotStable(LindoscError):
    """Drift matrix is not Hurwitz, or the stationary-covariance system is
    numerically singular; no stationary covariance is computed."""
    exit_code = 3


class PositivityLost(LindoscError):
    """Integrated covariance lost positive definiteness, or the state left
    the float range."""
    exit_code = 3

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time
