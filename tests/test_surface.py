"""The package's public surface, pinned: a change that grows or shrinks it
edits this test on purpose.  The README's config table is checked against
the CLI's schema, so that every declared key is listed there."""

import inspect
import re
from pathlib import Path

import lindosc
from lindosc import errors
from lindosc.cli import _SCHEMA


def test_public_names_and_error_classes():
    assert sorted(lindosc.__all__) == [
        "CovDecomposition", "DiffDecomposition", "GaussianState",
        "LindbladCouplings", "ModelParams", "QuadratureSpec", "__version__",
        "analytic_minimizer", "area", "build_drift", "build_scaled_diffusion",
        "compose", "compose_diffusion", "decompose", "decompose_diffusion",
        "evolve", "fp_residual", "grid_search", "heisenberg_slack",
        "initial_rate", "linear_entropy", "rate_at", "rate_landscape",
        "rhs_sigma", "run_sieve", "stationary_covariance", "validate",
        "wigner_eval", "wigner_grid", "wigner_normalization"]

    # Every error class with the CLI exit code it maps to.
    classes = {name: cls.exit_code for name, cls in vars(errors).items()
               if inspect.isclass(cls) and issubclass(cls, errors.LindoscError)}
    assert classes == {"LindoscError": 1, "ConfigError": 1, "NotSPD": 2,
                       "UnphysicalState": 2, "NotStable": 3, "PositivityLost": 3}


def schema_keys(schema, prefix=""):
    for key, (kind, _, _) in schema.items():
        yield prefix + key
        if isinstance(kind, dict):
            yield from schema_keys(kind, prefix + key + ".")


def readme_keys():
    """The keys of the README's config table.  A short name in a key cell
    sits beside the first key's; a type cell's ``{a, b}`` holds sub-keys."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("| key | type | range | default |\n")[1].split("\n\n")[0]
    keys = set()
    for row in table.splitlines()[1:]:
        key_cell, type_cell = row.split("|")[1:3]
        names = re.findall(r"`([^`]+)`", key_cell)
        parent = names[0].rpartition(".")[0]
        keys |= {name if "." in name else f"{parent}.{name}" for name in names}
        sub_keys = re.search(r"`\{(.*)\}`", type_cell)
        if sub_keys:
            keys |= {f"{names[0]}.{k.strip()}" for k in sub_keys[1].split(",")}
    return keys


def test_readme_lists_every_config_key():
    # Sections are named in the README's prose; every key inside one is a row.
    assert readme_keys() == {key for key in schema_keys(_SCHEMA) if "." in key}
