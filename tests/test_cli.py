import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindosc import (CovDecomposition, DiffDecomposition, GaussianState,
                     ModelParams, QuadratureSpec, __version__, area,
                     build_scaled_diffusion, compose, compose_diffusion,
                     decompose_diffusion, rate_landscape, wigner_grid)
from lindosc import _mat2, model
from lindosc.cli import _MAX_SIZE, _check_config, main
from lindosc.errors import ConfigError


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def base_config(tmp_path, **model_overrides):
    model = {"m": 1.0, "omega": 1.0, "mu": 0.0, "hbar": 1.0, "lambda": 0.5,
             "diffusion": {"D_qq": 0.6, "D_pp": 0.6, "D_pq": 0.0}}
    model.update(model_overrides)
    return {"model": model}


class TestValidateCommand:
    def test_valid_model(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(tmp_path))
        assert main(["validate", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] and "version" in out

    def test_constraint_violation(self, tmp_path):
        config = base_config(tmp_path)
        config["model"]["diffusion"] = {"D_qq": 0.1, "D_pp": 0.1, "D_pq": 0.0}
        config["model"]["lambda"] = 1.0
        cfg = write_config(tmp_path, config)
        assert main(["validate", "--config", cfg]) == 2

    def test_missing_field(self, tmp_path, capsys):
        config = base_config(tmp_path)
        del config["model"]["omega"]
        cfg = write_config(tmp_path, config)
        assert main(["validate", "--config", cfg]) == 1
        assert capsys.readouterr().err == "error: config is missing model.omega\n"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate", "--config", str(path)]) == 1

    def test_set_override(self, tmp_path):
        cfg = write_config(tmp_path, base_config(tmp_path))
        assert main(["validate", "--config", cfg,
                     "--set", "model.lambda=5.0"]) == 2

    def test_model_at_the_positivity_bound(self, tmp_path, capsys):
        # Passes validate's tolerance, though its intensity Delta sits just
        # below |lambda|; loading it must not second-guess validate.
        hbar, lam = 1e-3, 1.0
        d = math.sqrt(lam ** 2 * hbar ** 2 / 4 - 0.9e-10)
        config = base_config(tmp_path, hbar=hbar, diffusion={
            "D_qq": d, "D_pp": d, "D_pq": 0.0})
        config["model"]["lambda"] = lam
        cfg = write_config(tmp_path, config)
        assert main(["validate", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["passed"]


def evolve_config(tmp_path, **kw):
    config = base_config(tmp_path)
    config["state"] = {"mean": [1.0, 0.0],
                       "sigma": {"S11": 0.5, "S12": 0.0, "S22": 0.5}}
    config["evolve"] = {
        "t_final": 1.0, "dt": 1e-3, "sample_every": 10,
        "trajectory_csv": str(tmp_path / "traj.csv"),
        "summary_json": str(tmp_path / "summary.json"),
    }
    config["evolve"].update(kw)
    return config


class TestModelForms:
    # The model section's diffusion comes in one of two forms; each builds
    # the ModelParams of its own arithmetic.
    def test_raw_form(self, tmp_path):
        config = base_config(tmp_path, m=2.0, omega=1.5)
        assert _check_config(config)["model"] == ModelParams(
            m=2.0, omega=1.5, mu=0.0, hbar=1.0, D_qq=0.6, D_pp=0.6, D_pq=0.0, lam=0.5)

    def test_decomposed_form_round_trips(self, tmp_path):
        config = base_config(tmp_path, m=2.0, omega=1.5,
                             diffusion={"Delta": 1.2, "d": 2.0, "phi": 0.4})
        p = _check_config(config)["model"]
        scaled = compose_diffusion(DiffDecomposition(1.2, 2.0, 0.4), 1.0)
        assert (p.D_qq, p.D_pp, p.D_pq) == (
            scaled[0, 0] / 3.0, scaled[1, 1] * 3.0, scaled[0, 1])
        dec = decompose_diffusion(build_scaled_diffusion(p), p.hbar)
        assert (dec.Delta, dec.d, dec.phi) == pytest.approx((1.2, 2.0, 0.4))


class TestEvolveCommand:
    def test_unitary_model_constant_entropy(self, tmp_path):
        config = evolve_config(tmp_path)
        config["model"]["lambda"] = 0.0
        config["model"]["diffusion"] = {"D_qq": 0.0, "D_pp": 0.0, "D_pq": 0.0}
        cfg = write_config(tmp_path, config)
        assert main(["evolve", "--config", cfg]) == 0
        data = np.genfromtxt(tmp_path / "traj.csv", delimiter=",", names=True)
        assert np.max(np.abs(data["lin_entropy"])) < 1e-10
        assert list(data.dtype.names) == [
            "t", "x1", "x2", "S11", "S12", "S22",
            "area", "lin_entropy", "entropy_rate"]

    def test_damped_isotropic_reaches_stationary_area(self, tmp_path):
        lam, delta = 0.5, 1.2
        config = evolve_config(tmp_path, t_final=20.0 / lam, dt=2e-3,
                               sample_every=100)
        config["model"]["lambda"] = lam
        config["model"]["diffusion"] = {"D_qq": delta / 2, "D_pp": delta / 2,
                                        "D_pq": 0.0}
        cfg = write_config(tmp_path, config)
        assert main(["evolve", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["final_area"] == pytest.approx(delta / lam, abs=1e-6)
        assert summary["stationary_distance"] < 1e-6

    def test_weakly_damped_model_gets_its_stationary_covariance(self, tmp_path):
        # The stationary residual is measured against the terms that cancel
        # in it, which grow like omega / lambda; against 2|D| alone, as it
        # once was, this Hurwitz model was refused with exit 3.
        config = str(Path(__file__).resolve().parents[1] / "demos" / "config_example.json")
        summary = tmp_path / "summary.json"
        assert main(["evolve", "--config", config,
                     "--set", "model.lambda=1e-5", "--set", "model.omega=30",
                     "--set", f"evolve.trajectory_csv={tmp_path / 'traj.csv'}",
                     "--set", f"evolve.summary_json={summary}"]) == 0
        stat = np.array(json.loads(summary.read_text())["stationary_sigma"])
        assert stat.shape == (2, 2) and (stat == stat.T).all() and _mat2.spd(stat)[0]

    def test_nonpositive_dt_is_usage_error(self, tmp_path):
        config = evolve_config(tmp_path, dt=0.0)
        cfg = write_config(tmp_path, config)
        assert main(["evolve", "--config", cfg]) == 1

    def test_deterministic_outputs(self, tmp_path):
        cfg = write_config(tmp_path, evolve_config(tmp_path))
        assert main(["evolve", "--config", cfg]) == 0
        first = (tmp_path / "traj.csv").read_bytes()
        assert main(["evolve", "--config", cfg]) == 0
        assert (tmp_path / "traj.csv").read_bytes() == first

    @pytest.mark.parametrize("t_final, sample_every", [
        (0.01, 100),    # 10 steps end between two samples
        (4e-4, 1),      # rounds to 0 steps
    ])
    def test_spec_not_covering_the_run_is_usage_error(self, tmp_path, capsys,
                                                      t_final, sample_every):
        config = evolve_config(tmp_path, t_final=t_final, dt=1e-3,
                               sample_every=sample_every)
        cfg = write_config(tmp_path, config)
        assert main(["evolve", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "traj.csv").exists()

    def test_overflow_is_numerical_failure(self, tmp_path):
        # Anti-damped fast enough to overflow before t_final; it must stop
        # with one line on stderr, not write NaN and print numpy warnings.
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        sets = {"model.lambda": -40, "model.diffusion.D_qq": 20.1,
                "model.diffusion.D_pp": 20.1, "evolve.t_final": 50,
                "evolve.trajectory_csv": str(tmp_path / "traj.csv"),
                "evolve.summary_json": str(tmp_path / "summary.json")}
        argv = [sys.executable, "-m", "lindosc.cli", "evolve", "--config",
                str(root / "demos" / "config_example.json")]
        for key, value in sets.items():
            argv += ["--set", f"{key}={value}"]
        out = subprocess.run(argv, env=env, capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 3
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, \
            out.stderr
        assert not (tmp_path / "traj.csv").exists()

    def test_determinant_overflow_is_numerical_failure(self, tmp_path):
        # The state stays finite, but its entries pass 1e154, where det sigma
        # overflows: the trajectory's diagnostics stay finite, and the
        # summary's Heisenberg slack, beyond the float range, stops the run
        # with one line, no warning and no output file.
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        sets = {"model.lambda": -40, "model.diffusion.D_qq": 20.1,
                "model.diffusion.D_pp": 20.1, "evolve.t_final": 8.8,
                "evolve.trajectory_csv": str(tmp_path / "traj.csv"),
                "evolve.summary_json": str(tmp_path / "summary.json")}
        argv = [sys.executable, "-m", "lindosc.cli", "evolve", "--config",
                str(root / "demos" / "config_example.json")]
        for key, value in sets.items():
            argv += ["--set", f"{key}={value}"]
        out = subprocess.run(argv, env=env, capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 3
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, \
            out.stderr
        assert not list(tmp_path.iterdir())

    def test_invalid_model_is_physics_error(self, tmp_path):
        config = evolve_config(tmp_path)
        config["model"]["lambda"] = 5.0
        cfg = write_config(tmp_path, config)
        assert main(["evolve", "--config", cfg]) == 2


class TestSieveCommand:
    def sieve_config(self, tmp_path, diffusion, lam=0.2):
        config = base_config(tmp_path)
        config["model"]["diffusion"] = diffusion
        config["model"]["lambda"] = lam
        config["sieve"] = {"n_aleph": 101, "n_theta": 91,
                           "summary_json": str(tmp_path / "sieve.json")}
        return write_config(tmp_path, config)

    def test_isotropic_selects_coherent(self, tmp_path):
        cfg = self.sieve_config(tmp_path, {"D_qq": 0.6, "D_pp": 0.6, "D_pq": 0.0})
        assert main(["sieve", "--config", cfg]) == 0
        out = json.loads((tmp_path / "sieve.json").read_text())
        assert out["aleph_star"] == 1.0 and out["degenerate_angle"]

    def test_anisotropic_matches_diffusion_squeezing(self, tmp_path):
        cfg = self.sieve_config(tmp_path, {"Delta": 1.0, "d": 2.0, "phi": 0.4})
        assert main(["sieve", "--config", cfg]) == 0
        out = json.loads((tmp_path / "sieve.json").read_text())
        assert out["aleph_star"] == pytest.approx(2.0, rel=1e-12)
        assert out["theta_star"] == pytest.approx(0.4, rel=1e-12)
        assert out["delta_aleph"] <= 2.0 * (math.log(8.0) / 100)

    def test_polished_point_is_reported_at_rounding_level(self, tmp_path):
        # The angle sits just below pi; the best grid cell is theta = 0.
        cfg = self.sieve_config(tmp_path,
                                {"Delta": 1.0, "d": 2.0, "phi": math.pi - 1e-13})
        assert main(["sieve", "--config", cfg]) == 0
        out = json.loads((tmp_path / "sieve.json").read_text())
        assert out["delta_aleph"] <= 1e-12
        assert out["delta_theta"] <= 1e-12
        assert out["delta_rate"] <= 1e-12 * abs(out["min_rate"])

    def test_zero_diffusion_is_physics_error(self, tmp_path):
        cfg = self.sieve_config(tmp_path,
                                {"D_qq": 0.0, "D_pp": 0.0, "D_pq": 0.0}, lam=0.0)
        assert main(["sieve", "--config", cfg]) == 2


class TestSweepCommand:
    def test_grid_dump(self, tmp_path):
        config = base_config(tmp_path)
        config["sweep"] = {"n_aleph": 21, "n_theta": 11,
                           "aleph_min": 0.5, "aleph_max": 4.0,
                           "landscape_csv": str(tmp_path / "land.csv")}
        cfg = write_config(tmp_path, config)
        assert main(["sweep", "--config", cfg]) == 0
        data = np.genfromtxt(tmp_path / "land.csv", delimiter=",", names=True)
        assert data.shape[0] == 21 * 11
        assert list(data.dtype.names) == ["aleph", "theta", "rate"]
        # Grid minimum agrees with the analytic minimum up to grid error.
        from lindosc import DiffDecomposition, analytic_minimizer
        dd = DiffDecomposition(Delta=1.2, d=1.0, phi=0.0)
        min_rate = analytic_minimizer(1.0, 0.5, dd).min_rate
        assert data["rate"].min() >= min_rate - 1e-12
        assert data["rate"].min() <= min_rate + 0.05

    def test_missing_sweep_section(self, tmp_path):
        cfg = write_config(tmp_path, base_config(tmp_path))
        assert main(["sweep", "--config", cfg]) == 1


class TestWignerCommand:
    def wigner_config(self, tmp_path, **kw):
        config = base_config(tmp_path)
        config["state"] = {"mean": [0.0, 0.0],
                           "sigma": {"S11": 0.5, "S12": 0.0, "S22": 0.5}}
        config["wigner"] = {"n_sigma": 8.0, "n_points": 201,
                            "grid_csv": str(tmp_path / "wigner.csv"),
                            "sidecar_json": str(tmp_path / "wigner.json")}
        config["wigner"].update(kw)
        return write_config(tmp_path, config)

    def test_coherent_state_peak(self, tmp_path):
        cfg = self.wigner_config(tmp_path)
        assert main(["wigner", "--config", cfg]) == 0
        data = np.genfromtxt(tmp_path / "wigner.csv", delimiter=",", names=True)
        assert data["f"].max() == pytest.approx(1 / math.pi, rel=1e-12)
        sidecar = json.loads((tmp_path / "wigner.json").read_text())
        assert sidecar["n_points"] == 201

    def test_dumped_grid_normalizes(self, tmp_path):
        cfg = self.wigner_config(tmp_path)
        assert main(["wigner", "--config", cfg]) == 0
        data = np.genfromtxt(tmp_path / "wigner.csv", delimiter=",", names=True)
        f = data["f"].reshape(201, 201)
        x1 = np.unique(data["x1"])
        x2 = np.unique(data["x2"])
        total = np.trapezoid(np.trapezoid(f, x2, axis=1), x1)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_out_of_range_index(self, tmp_path):
        cfg = self.wigner_config(tmp_path, t_index=10_000)
        config = json.loads(open(cfg).read())
        config["evolve"] = {"t_final": 0.1, "dt": 1e-2}
        cfg = write_config(tmp_path, config, name="config2.json")
        assert main(["wigner", "--config", cfg]) == 1


    @pytest.mark.parametrize("grid", [{"n_points": 0}, {"n_points": 1},
                                      {"n_sigma": math.nan}, {"n_sigma": -1.0}],
                             ids=["0_points", "1_point", "nan_width", "negative_width"])
    def test_unusable_grid_is_usage_error(self, tmp_path, capsys, grid):
        cfg = self.wigner_config(tmp_path, **grid)
        assert main(["wigner", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "wigner.csv").exists()


def test_unknown_command_is_usage_error():
    assert main(["frobnicate", "--config", "x.json"]) == 1


@pytest.mark.parametrize("command", ["evolve", "sieve", "sweep", "wigner", "validate"])
def test_indefinite_state_is_physics_error(tmp_path, capsys, command):
    config = evolve_config(tmp_path)
    config["state"]["sigma"] = {"S11": 1.0, "S12": 2.0, "S22": 1.0}
    config["sweep"] = {"n_aleph": 5, "n_theta": 4, "aleph_min": 0.5,
                       "aleph_max": 4.0,
                       "landscape_csv": str(tmp_path / "land.csv")}
    config["wigner"] = {"n_points": 11, "grid_csv": str(tmp_path / "w.csv")}
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["evolve", "sieve", "sweep", "wigner"])
def test_a_failing_model_is_refused_before_any_command_runs(tmp_path, capsys, command):
    # The model's verdict is made at load, so it comes before a missing
    # sweep or wigner section, and nothing is written.
    config = base_config(tmp_path)
    config["model"]["lambda"] = 5.0
    assert main([command, "--config", write_config(tmp_path, config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: model violates") and err.count("\n") == 1, err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_runs_as_a_module():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-m", "lindosc.cli", "--version"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0
    assert out.stdout.strip() == __version__


#: The example's validate, evolve, sieve and sweep, and an evolve from a
#: state that compose builds from (aleph, theta) = (1.62, 1.27): each run's
#: command, its settings and its files by config key.
_RUNS = [("validate", [], {"validate.report_json": "validate_report.json"}),
         ("evolve", [], {"evolve.trajectory_csv": "trajectory.csv",
                         "evolve.summary_json": "evolve_summary.json"}),
         ("sieve", [], {"sieve.summary_json": "sieve_summary.json"}),
         ("sweep", [], {"sweep.landscape_csv": "landscape.csv"}),
         ("evolve", ["state.aleph=1.62", "state.theta=1.27"],
          {"evolve.trajectory_csv": "composed_trajectory.csv",
           "evolve.summary_json": "composed_summary.json"})]


def test_output_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # OpenBLAS picks its kernel at load from OPENBLAS_CORETYPE, set here in
    # the child's environment only.  Neither the stepping, nor compose, nor
    # the sieve, nor the stationary covariance or the drift's eigenvalues
    # calls BLAS or LAPACK, so each file of these runs comes out the same
    # under each kernel.  One child per kernel runs them all, and a fifth
    # runs them with numpy's AVX-512 dispatch off, which it first checks
    # took effect.  landscape.csv is held to the four kernels only: its axis
    # comes from np.geomspace, whose dispatched np.log and np.exp give other
    # last bits without AVX-512.
    root = Path(__file__).resolve().parents[1]
    config = str(root / "demos" / "config_example.json")
    script = ("import json, os, sys\n"
              "if 'NPY_DISABLE_CPU_FEATURES' in os.environ:\n"
              "    from numpy._core._multiarray_umath import __cpu_features__\n"
              "    assert not __cpu_features__['X86_V4'], 'AVX-512 dispatch is still on'\n"
              "from lindosc.cli import main\n"
              "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
    legs = [(core, {"OPENBLAS_CORETYPE": core})
            for core in ("SkylakeX", "Haswell", "Sandybridge", "Prescott")]
    legs.append(("no_avx512", {"NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"}))
    digests = {}
    for leg, settings in legs:
        out_dir = tmp_path / leg
        out_dir.mkdir()
        runs = [[command, "--config", config]
                + [arg for setting in run_settings for arg in ("--set", setting)]
                + [arg for key, name in outputs.items()
                   for arg in ("--set", f"{key}={out_dir / name}")]
                for command, run_settings, outputs in _RUNS]
        env = {key: value for key, value in os.environ.items()
               if key not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
        env.update(settings, PYTHONPATH=str(root / "src"))
        out = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        for _, _, outputs in _RUNS:
            for name in outputs.values():
                if leg == "no_avx512" and name == "landscape.csv":
                    continue
                digest = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                digests.setdefault(name, set()).add(digest)
    assert len(digests) == 7 and all(len(d) == 1 for d in digests.values()), digests


@pytest.mark.parametrize("command", ["evolve", "sieve", "sweep", "wigner", "validate"])
def test_sub_heisenberg_state_is_physics_error(tmp_path, capsys, command):
    # Area 0.2 with hbar = 1: below the pure-state bound det(sigma) >= 1/4.
    config = evolve_config(tmp_path)
    config["state"]["sigma"] = {"S11": 0.1, "S12": 0.0, "S22": 0.1}
    config["sweep"] = {"n_aleph": 5, "n_theta": 4, "aleph_min": 0.5,
                       "aleph_max": 4.0,
                       "landscape_csv": str(tmp_path / "land.csv")}
    config["wigner"] = {"n_points": 11, "grid_csv": str(tmp_path / "w.csv")}
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key, value", [
    ("sigma", {"S11": 1.0, "S12": math.nan, "S22": 1.0}),
    ("sigma", {"S11": math.inf, "S12": 0.0, "S22": 1.0}),
    ("mean", [math.nan, 0.0]),
], ids=["nan_S12", "inf_S11", "nan_mean"])
@pytest.mark.parametrize("command", ["evolve", "sieve", "sweep", "wigner", "validate"])
def test_non_finite_state_is_physics_error(tmp_path, capsys, command, key, value):
    config = evolve_config(tmp_path)
    config["state"][key] = value
    config["sweep"] = {"n_aleph": 5, "n_theta": 4, "aleph_min": 0.5,
                       "aleph_max": 4.0,
                       "landscape_csv": str(tmp_path / "land.csv")}
    config["wigner"] = {"n_points": 11, "grid_csv": str(tmp_path / "w.csv")}
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not [p for p in tmp_path.iterdir() if p.suffix != ".json"]


def grid_config(tmp_path):
    config = evolve_config(tmp_path)
    config["sieve"] = {"n_aleph": 21, "n_theta": 18,
                       "summary_json": str(tmp_path / "sieve.json")}
    config["sweep"] = {"n_aleph": 5, "n_theta": 4, "aleph_min": 0.5,
                       "aleph_max": 4.0,
                       "landscape_csv": str(tmp_path / "land.csv")}
    return config


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, key, value", [
    ("sieve", "n_aleph", 0), ("sieve", "n_theta", 0),
    ("sieve", "aleph_min", -1.0), ("sieve", "aleph_min", math.nan),
    ("sweep", "n_aleph", 0), ("sweep", "n_theta", 0),
    ("sweep", "aleph_min", -1.0), ("sweep", "aleph_min", 0.0),
    ("sweep", "aleph_min", 5.0), ("sweep", "aleph_max", math.inf),
])
def test_unusable_sieve_or_sweep_grid_is_usage_error(tmp_path, capsys, command,
                                                     key, value):
    config = grid_config(tmp_path)
    config[command][key] = value
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not [p for p in tmp_path.iterdir() if p.suffix != ".json"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key, value", [("D_qq", 1e308), ("D_pp", 1e308),
                                        ("D_qq", 1e300), ("D_qq", 1e307)],
                         ids=["D_qq", "D_pp", "D_qq_1e300", "D_qq_1e307"])
@pytest.mark.parametrize("command", ["evolve", "sieve", "sweep", "wigner"])
def test_model_past_the_float_range_is_usage_error(tmp_path, capsys, command, key,
                                                   value):
    config = grid_config(tmp_path)
    config["model"]["diffusion"][key] = value
    config["wigner"] = {"n_points": 11, "grid_csv": str(tmp_path / "w.csv")}
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not [p for p in tmp_path.iterdir() if p.suffix != ".json"]


def per_value_csv(header, table):
    return (header + "\n" + "".join(
        ",".join(format(v, ".17g") for v in row) + "\n"
        for row in np.asarray(table).tolist())).encode()


def test_example_grid_tables_are_per_value_formatting(tmp_path):
    # The example config's grid tables against the library's own arrays,
    # each cell printed on its own at 17 significant digits.
    root = Path(__file__).resolve().parents[1]
    example = str(root / "demos" / "config_example.json")
    config = json.loads(Path(example).read_text())
    sets = ["--set", f"wigner.grid_csv={tmp_path / 'wigner.csv'}",
            "--set", f"wigner.sidecar_json={tmp_path / 'wigner.json'}",
            "--set", f"sweep.landscape_csv={tmp_path / 'landscape.csv'}"]
    assert main(["wigner", "--config", example] + sets) == 0
    assert main(["sweep", "--config", example] + sets) == 0

    params = _check_config(config)["model"]
    spec = config["state"]
    state = GaussianState(mean=spec["mean"], sigma=compose(
        CovDecomposition(spec["A"], spec["aleph"], spec["theta"]), params.hbar))
    x1, x2, f = wigner_grid(state, QuadratureSpec(
        n_points=config["wigner"]["n_points"]))
    assert (tmp_path / "wigner.csv").read_bytes() == per_value_csv("x1,x2,f", [
        (a, b, f[i, j]) for i, a in enumerate(x1) for j, b in enumerate(x2)])

    sweep = config["sweep"]
    diff = decompose_diffusion(build_scaled_diffusion(params), params.hbar)
    table = rate_landscape(area(state.sigma, params.hbar), params.lam, diff,
                           sweep["n_aleph"], sweep["n_theta"],
                           (sweep["aleph_min"], sweep["aleph_max"]))
    assert (tmp_path / "landscape.csv").read_bytes() == per_value_csv(
        "aleph,theta,rate", table)


def run_main(argv):
    """``main(argv)`` with warnings as errors: its exit code and stderr."""
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    return code, err.getvalue()


def small_config():
    """A config every command accepts, with outputs in the working directory."""
    config = {"model": {"m": 1.0, "omega": 1.0, "mu": 0.1, "hbar": 1.0,
                        "lambda": 0.5,
                        "diffusion": {"D_qq": 0.6, "D_pp": 0.5, "D_pq": 0.1}},
              "state": {"mean": [1.0, -0.5], "A": 1.5, "aleph": 2.0, "theta": 0.8},
              "evolve": {"t_final": 0.1, "dt": 0.01, "sample_every": 2,
                         "trajectory_csv": "t.csv", "summary_json": "e.json"},
              "sieve": {"n_aleph": 5, "n_theta": 4, "summary_json": "s.json"},
              "sweep": {"n_aleph": 3, "n_theta": 2, "aleph_min": 0.5,
                        "aleph_max": 4.0, "landscape_csv": "l.csv"},
              "wigner": {"t_index": 1, "n_points": 5, "grid_csv": "w.csv"},
              "validate": {"report_json": "v.json"}}
    return config


def key_paths(doc, prefix=""):
    for key, value in doc.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from key_paths(value, prefix + key + ".")


KEY_PATHS = sorted(key_paths(small_config())) + [
    "model.diffusion.Delta", "model.diffusion.d", "model.diffusion.phi",
    "state.sigma", "state.sigma.S11", "state.sigma.S12", "state.sigma.S22",
    "sieve.aleph_min", "sieve.aleph_max", "wigner.n_sigma",
    "wigner.sidecar_json", "nope", "evolve.nope", ""]

# The edges of the declared ranges, and values of every wrong kind.  The
# size bound is tested on its own: an accepted size here stays small.
EDGES = [0, 1, 2, 3, -1, 10 ** 20, 0.0, -0.0, 0.5, 1.5, 4.0, 5e-324,
         2.0 ** -510, 2.0 ** 510, 2.0 ** 511, 1e300, 1.7e308, math.inf,
         -math.inf, math.nan, True, False, None, "x", [], [1.0, 2.0],
         [1, 2, 3], {}, {"S11": 1.0, "S12": 0.0, "S22": 1.0},
         {"Delta": 1.0, "d": 2.0, "phi": 0.4}]


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["validate", "evolve", "sieve", "sweep", "wigner"]),
       in_file=st.lists(st.tuples(st.sampled_from(KEY_PATHS), st.sampled_from(EDGES)),
                        max_size=3),
       overrides=st.lists(st.tuples(st.sampled_from(KEY_PATHS), st.sampled_from(EDGES)),
                          max_size=3),
       sigma_form=st.booleans())
def test_every_config_ends_in_a_documented_exit(command, in_file, overrides,
                                                 sigma_form):
    config = small_config()
    if sigma_form:
        config["state"] = {"sigma": {"S11": 0.8, "S12": 0.1, "S22": 0.9}}
    for path, value in in_file:
        *parents, leaf = path.split(".")
        node = config
        for part in parents:
            node = node.setdefault(part, {}) if isinstance(node, dict) else None
        if isinstance(node, dict):
            node[leaf] = copy.deepcopy(value)
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            Path("c.json").write_text(json.dumps(config))
            argv = [command, "--config", "c.json"]
            for path, value in overrides:
                argv += ["--set", f"{path}={json.dumps(value)}"]
            code, err = run_main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 3)
    # validate exits 2 with no message when its report fails.
    assert err == "" or err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command, override", [
    ("validate", "model.diffusion.D_pq=1e308"),
    ("validate", "model.lambda=1e200"),
    ("validate", "model.hbar=1e200"),
    ("sieve", "sieve.n_aleph=1e400"),
    ("evolve", "state.aleph=0"),
    ("evolve", 'model.diffusion={"Delta": 1, "d": 0, "phi": 0}'),
    ("evolve", "state=[]"),
    ("evolve", "evolve=5"),
    ("evolve", "evolve.sample_every=1.5"),
    ("wigner", "wigner.t_index=1.5"),
    ("wigner", "wigner.n_points=3.7"),
    ("sieve", "sieve.n_aleph=true"),
    ("evolve", "state.mean=[1, 2, 3]"),
    ("evolve", "state.mean=[1]"),
    ("evolve", 'state.mean=["a", 1]'),
    ("evolve", 'state.sigma={"S11": 1}'),
    ("evolve", "evolve.dtt=1"),
    ("evolve", "=1"),
    ("evolve", "evolve.dt.x=1"),
    ("sieve", "model.diffusion.D_qq=1e300"),
    ("sieve", "model.diffusion.D_qq=1e307"),
    ("evolve", "state.A=1.7e308"),  # A * aleph**2 is past the float range
    ("sieve", "sieve.aleph_max=1e200"),  # aleph**2 overflows in the grid
    ("sieve", "sieve.aleph_min=1e-200"),  # and here underflows to 0
])
def test_bad_input_is_a_one_line_usage_error(tmp_path, command, override):
    example = Path(__file__).resolve().parents[1] / "demos" / "config_example.json"
    outputs = {"validate.report_json": "v.json", "evolve.trajectory_csv": "t.csv",
               "evolve.summary_json": "e.json", "sieve.summary_json": "s.json",
               "sweep.landscape_csv": "l.csv", "wigner.grid_csv": "w.csv",
               "wigner.sidecar_json": "m.json"}
    argv = [command, "--config", str(example)]
    for key, name in outputs.items():
        argv += ["--set", f"{key}={tmp_path / name}"]
    code, err = run_main(argv + ["--set", override])
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_a_report_past_the_float_range_is_a_usage_error(tmp_path):
    # lambda**2 hbar**2 / 4 passes the float range, so validate's slack is
    # -inf, which JSON has no number for: no report is written.
    example = Path(__file__).resolve().parents[1] / "demos" / "config_example.json"
    report = tmp_path / "v.json"
    code, err = run_main(["validate", "--config", str(example),
                          "--set", f"validate.report_json={report}",
                          "--set", "model.lambda=1e150", "--set", "model.hbar=1e150"])
    assert code == 1 and not report.exists()
    assert err.startswith("error: ") and "-inf" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("section, key, value", [
    ("evolve", "t_final", 1e9),
    ("evolve", "dt", 1e-9),
    ("sieve", "n_aleph", _MAX_SIZE // 18 + 1),
    ("sweep", "n_theta", _MAX_SIZE // 5 + 1),
    ("wigner", "n_points", 1001),
    ("wigner", "n_points", 10 ** 11),
])
def test_sizes_past_the_bound_are_rejected_at_load(tmp_path, section, key, value):
    # The load-time check alone: nothing of this size is allocated or run.
    config = grid_config(tmp_path)
    config["wigner"] = {"n_points": 1000, "grid_csv": "w.csv"}
    config["evolve"].update(t_final=1e3, dt=1e-3, sample_every=1)
    _check_config(config)  # evolve and wigner sit at the bound, and pass
    config[section][key] = value
    with pytest.raises(ConfigError, match="past the bound"):
        _check_config(config)


@pytest.mark.parametrize("command", ["validate", "evolve", "sieve", "sweep", "wigner"])
def test_each_run_builds_the_state_once_at_load(tmp_path, monkeypatch, command):
    example = Path(__file__).resolve().parents[1] / "demos" / "config_example.json"
    built, validated = [], []
    check, validate = GaussianState.__post_init__, model.validate
    monkeypatch.setattr(GaussianState, "__post_init__",
                        lambda self: built.append(check(self)))
    monkeypatch.setattr(model, "validate",
                        lambda params: validated.append(params) or validate(params))
    argv = [command, "--config", str(example)]
    for key in ("validate.report_json", "evolve.trajectory_csv", "evolve.summary_json",
                "sieve.summary_json", "sweep.landscape_csv", "wigner.grid_csv",
                "wigner.sidecar_json"):
        argv += ["--set", f"{key}={tmp_path / key}"]
    assert main(argv) == 0
    assert len(built) == 1
    assert len(validated) == 1


def test_load_checks_the_state_covariance_twice(monkeypatch):
    # Once as GaussianState's covariance, once for its area.
    example = Path(__file__).resolve().parents[1] / "demos" / "config_example.json"
    checked = []
    check = _mat2.check_spd
    monkeypatch.setattr(_mat2, "check_spd",
                        lambda m, name="matrix": checked.append(name) or check(m, name))
    _check_config(json.loads(example.read_text()))
    assert checked == ["covariance", "covariance"]


def test_a_step_that_fails_check_spd_is_numerical_failure(tmp_path, capsys):
    # One RK4 step of a state squeezed by 16 decades rounds past positive
    # definiteness: PositivityLost at that step, not NotSPD afterwards.
    config = evolve_config(tmp_path, t_final=1e-3, sample_every=1)
    config["model"].update({"lambda": 0.3, "diffusion": {
        "D_qq": 0.4, "D_pp": 0.4, "D_pq": 0.0}})
    config["state"] = {"mean": [0.0, 0.0],
                       "sigma": {"S11": 1.76e13, "S12": 0.0, "S22": 1.76e-3}}
    assert main(["evolve", "--config", write_config(tmp_path, config)]) == 3
    err = capsys.readouterr().err
    assert err.endswith("at t = 0.001\n") and err.count("\n") == 1, err
