"""The package's public surface, pinned: a change that grows or shrinks it
edits this test on purpose."""

import inspect

import lindosc
from lindosc import errors


def test_public_names_and_error_classes():
    assert sorted(lindosc.__all__) == [
        "CovDecomposition", "DiffDecomposition", "GaussianState",
        "LindbladCouplings", "ModelParams", "QuadratureSpec", "__version__",
        "analytic_minimizer", "area", "build_drift", "build_scaled_diffusion",
        "compose", "compose_diffusion", "decompose", "decompose_diffusion",
        "evolve", "fp_residual", "grid_search", "heisenberg_slack",
        "initial_rate", "linear_entropy", "model_from_dict", "rate_at",
        "rate_landscape", "rhs_sigma", "run_sieve", "stationary_covariance",
        "validate", "wigner_eval", "wigner_grid", "wigner_normalization"]

    # Every error class with the CLI exit code it maps to.
    classes = {name: cls.exit_code for name, cls in vars(errors).items()
               if inspect.isclass(cls) and issubclass(cls, errors.LindoscError)}
    assert classes == {"LindoscError": 1, "ConfigError": 1, "NotSPD": 2,
                       "UnphysicalState": 2, "NotStable": 3, "PositivityLost": 3}
