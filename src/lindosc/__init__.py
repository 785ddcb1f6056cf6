"""Gaussian dynamics of the damped harmonic oscillator in an environment,
with linear-entropy production diagnostics and selection of the most
predictable (least entropy-producing) initial states."""

__version__ = "0.1.0"

from .decomposition import (CovDecomposition, DiffDecomposition, compose,
                            compose_diffusion, decompose, decompose_diffusion)
from .dynamics import (GaussianState, evolve, heisenberg_slack, rhs_sigma,
                       stationary_covariance)
from .entropy import area, initial_rate, linear_entropy
from .model import (LindbladCouplings, ModelParams, build_drift,
                    build_scaled_diffusion, model_from_dict, validate)
from .sieve import (analytic_minimizer, grid_search, rate_at, rate_landscape,
                    run_sieve)
from .wigner import (QuadratureSpec, fp_residual, wigner_eval, wigner_grid,
                     wigner_normalization)

__all__ = [
    "__version__",
    "CovDecomposition", "DiffDecomposition", "compose", "compose_diffusion",
    "decompose", "decompose_diffusion",
    "GaussianState", "evolve", "heisenberg_slack", "rhs_sigma",
    "stationary_covariance",
    "area", "initial_rate", "linear_entropy",
    "LindbladCouplings", "ModelParams", "build_drift", "build_scaled_diffusion",
    "model_from_dict", "validate",
    "analytic_minimizer", "grid_search", "rate_at", "rate_landscape",
    "run_sieve",
    "QuadratureSpec", "fp_residual", "wigner_eval", "wigner_grid",
    "wigner_normalization",
]
