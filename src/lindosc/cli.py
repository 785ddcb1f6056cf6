"""Command-line front end.

One self-describing JSON config drives each run; ``--set key=value`` applies
dotted-path overrides.  Exit codes: 0 success, 1 usage/parse error, 2
physics-constraint error, 3 numerical failure; each error class in
:mod:`lindosc.errors` declares its own.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import (__version__, _mat2, decomposition, dynamics, entropy, model,
               serialize, sieve, wigner)
from .errors import ConfigError, LindoscError, PositivityLost, UnphysicalState


def _load_config(path, overrides):
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return config


def _model_from_config(config):
    if "model" not in config:
        raise ConfigError("config is missing the 'model' section")
    return model.model_from_dict(config["model"])


def _state_from_config(config, hbar):
    spec = config.get("state", {})
    mean = np.asarray(spec.get("mean", [0.0, 0.0]), dtype=float)
    if not np.isfinite(mean).all():
        raise UnphysicalState(f"state.mean {mean.tolist()} is not finite")
    has_sigma = "sigma" in spec
    has_dec = all(k in spec for k in ("A", "aleph", "theta"))
    if has_sigma == has_dec:
        raise ConfigError(
            "state must carry exactly one of 'sigma' or ('A', 'aleph', 'theta')")
    if has_sigma:
        s = spec["sigma"]
        sigma = np.array([[float(s["S11"]), float(s["S12"])],
                          [float(s["S12"]), float(s["S22"])]])
    else:
        dec = decomposition.CovDecomposition(A=float(spec["A"]),
                                             aleph=float(spec["aleph"]),
                                             theta=float(spec["theta"]))
        sigma = decomposition.compose(dec, hbar)
    _mat2.check_spd(sigma, "state.sigma")
    entropy.linear_entropy(sigma, hbar)  # raises UnphysicalState below area 1
    return dynamics.GaussianState(mean=mean, sigma=sigma)


def _area_from_config(config, hbar):
    """Phase-space area of the configured state; 1 (pure) without one."""
    if "state" not in config:
        return 1.0
    return entropy.area(_state_from_config(config, hbar).sigma, hbar)


def _evolve_from_config(config, params, state):
    spec = config.get("evolve", {})
    t_final = float(spec.get("t_final", 1.0))
    dt = float(spec.get("dt", 1e-3))
    sample_every = int(spec.get("sample_every", 1))
    if not (0 < dt < math.inf and t_final >= 0 and math.isfinite(t_final / dt)
            and sample_every >= 1):
        raise ConfigError("evolve requires finite dt > 0, t_final >= 0 with "
                          "t_final/dt finite, and sample_every >= 1")
    # The samples must reach t_final: a run of n steps ends on its last
    # sample only if n is a positive multiple of sample_every.
    n_steps = round(t_final / dt)
    if t_final > 0 and (n_steps == 0 or n_steps % sample_every):
        raise ConfigError(
            f"evolve runs round(t_final/dt) = {n_steps} steps, which must be a "
            f"positive multiple of sample_every = {sample_every}")
    return dynamics.evolve(state, params, t_final, dt, sample_every)


def _emit(obj, path=None):
    obj = dict(obj)
    obj["version"] = __version__
    text = serialize.dumps(obj)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_validate(config):
    params = _model_from_config(config)
    report = model.validate(params)
    _emit(report.as_dict(), config.get("validate", {}).get("report_json"))
    return 0 if report.passed else 2


#: 4 times this is the largest float.
_LARGEST_COEFFICIENT = np.finfo(float).max / 4.0


def _valid_model(config):
    """The config's model and its validation report, which must pass.

    The scaled drift and diffusion must stay finite when multiplied by 4,
    the largest factor any layer applies to them before it sums.
    """
    params = _model_from_config(config)
    for name, m in (("drift", model.build_drift(params)),
                    ("diffusion", model.build_scaled_diffusion(params))):
        if not (abs(m) <= _LARGEST_COEFFICIENT).all():
            raise ConfigError(
                f"model {name} {m.tolist()} is not finite or is too large: "
                f"4 times it passes the float range")
    report = model.validate(params)
    if not report.passed:
        raise UnphysicalState(
            f"model violates the diffusion positivity constraint (slack {report.slack})")
    return params, report


def cmd_evolve(config):
    params, report = _valid_model(config)
    state = _state_from_config(config, params.hbar)
    traj = _evolve_from_config(config, params, state)
    slack = dynamics.heisenberg_slack(traj.sigma[-1], params.hbar)
    if not math.isfinite(slack):
        raise PositivityLost(
            f"det sigma at t = {traj.t[-1]} is beyond the float range", time=traj.t[-1])
    spec = config.get("evolve", {})
    csv_path = spec.get("trajectory_csv")
    if csv_path:
        serialize.write_csv(
            csv_path, "t,x1,x2,S11,S12,S22,area,lin_entropy,entropy_rate",
            np.column_stack([
                traj.t, traj.mean[:, 0], traj.mean[:, 1],
                traj.sigma[:, 0, 0], traj.sigma[:, 0, 1], traj.sigma[:, 1, 1],
                traj.area, traj.lin_entropy, traj.entropy_rate]))

    summary = {
        "t_final": traj.t[-1],
        "final_area": traj.area[-1],
        "final_lin_entropy": traj.lin_entropy[-1],
        "final_entropy_rate": traj.entropy_rate[-1],
        "final_sigma": [[traj.sigma[-1, 0, 0], traj.sigma[-1, 0, 1]],
                        [traj.sigma[-1, 1, 0], traj.sigma[-1, 1, 1]]],
        "heisenberg_slack": slack,
    }
    if report.hurwitz:
        stat = dynamics.stationary_covariance(traj.drift, traj.diffusion)
        summary["stationary_sigma"] = [[stat[0, 0], stat[0, 1]],
                                       [stat[1, 0], stat[1, 1]]]
        summary["stationary_distance"] = float(
            np.linalg.norm(traj.sigma[-1] - stat))
    _emit(summary, spec.get("summary_json"))
    return 0


def _diffusion_decomposition(params):
    scaled = model.build_scaled_diffusion(params)
    return decomposition.decompose_diffusion(scaled, params.hbar)


def _check_grid(command, n_aleph, n_theta, lo, hi):
    """Raise :class:`ConfigError` unless the (aleph, theta) grid of ``command``
    has a point and a finite, positive aleph range ``lo <= hi``."""
    if not (n_aleph >= 1 and n_theta >= 1 and 0 < lo <= hi < math.inf):
        raise ConfigError(
            f"{command} grid needs n_aleph >= 1, n_theta >= 1 and "
            f"0 < aleph_min <= aleph_max < inf, got n_aleph = {n_aleph}, "
            f"n_theta = {n_theta}, aleph range ({lo}, {hi})")


def cmd_sieve(config):
    params, _ = _valid_model(config)
    diff = _diffusion_decomposition(params)
    area = _area_from_config(config, params.hbar)
    spec = config.get("sieve", {})
    n_aleph = int(spec.get("n_aleph", 401))
    n_theta = int(spec.get("n_theta", 361))
    lo = float(spec.get("aleph_min", diff.d / 4.0))
    hi = float(spec.get("aleph_max", diff.d * 4.0))
    _check_grid("sieve", n_aleph, n_theta, lo, hi)
    result = sieve.run_sieve(area, params.lam, diff,
                             n_aleph=n_aleph, n_theta=n_theta,
                             aleph_range=(lo, hi))
    # Angles are equivalent modulo pi: 0 and pi - 1e-13 are 1e-13 apart.
    theta_gap = abs(result.grid_theta - result.theta_star) % math.pi
    _emit({
        "aleph_star": result.aleph_star,
        "theta_star": result.theta_star,
        "min_rate": result.min_rate,
        "degenerate_angle": result.degenerate_angle,
        "area": area,
        "grid": {
            "aleph": result.grid_aleph,
            "theta": result.grid_theta,
            "rate": result.grid_rate,
            **result.grid_spec,
        },
        "delta_aleph": abs(result.grid_aleph - result.aleph_star),
        "delta_theta": min(theta_gap, math.pi - theta_gap),
        "delta_rate": abs(result.grid_rate - result.min_rate),
    }, spec.get("summary_json"))
    return 0


def cmd_sweep(config):
    params, _ = _valid_model(config)
    diff = _diffusion_decomposition(params)
    spec = config.get("sweep")
    if not spec:
        raise ConfigError("config is missing the 'sweep' section")
    n_aleph, n_theta = int(spec["n_aleph"]), int(spec["n_theta"])
    lo, hi = float(spec["aleph_min"]), float(spec["aleph_max"])
    _check_grid("sweep", n_aleph, n_theta, lo, hi)
    table = sieve.rate_landscape(
        _area_from_config(config, params.hbar), params.lam, diff,
        n_aleph=n_aleph, n_theta=n_theta, aleph_range=(lo, hi))
    serialize.write_csv(spec["landscape_csv"], "aleph,theta,rate", table)
    return 0


def cmd_wigner(config):
    params, _ = _valid_model(config)
    state = _state_from_config(config, params.hbar)
    spec = config.get("wigner", {})
    t_index = int(spec.get("t_index", 0))
    quad = wigner.QuadratureSpec(n_sigma=float(spec.get("n_sigma", 8.0)),
                                 n_points=int(spec.get("n_points", 201)))
    if not (quad.n_points >= 2 and 0 < quad.n_sigma < math.inf):
        raise ConfigError(
            f"wigner grid needs n_points >= 2 and a finite n_sigma > 0, got "
            f"{quad.n_points} and {quad.n_sigma}")

    if t_index == 0:
        t_value = 0.0
    else:
        traj = _evolve_from_config(config, params, state)
        if not 0 <= t_index < len(traj):
            raise ConfigError(
                f"t_index {t_index} out of range for {len(traj)} samples")
        state = traj.state(t_index)
        t_value = float(traj.t[t_index])

    x1, x2, f = wigner.wigner_grid(state, quad)
    serialize.write_csv(spec["grid_csv"], "x1,x2,f", np.column_stack([
        np.repeat(x1, len(x2)), np.tile(x2, len(x1)), f.ravel()]))
    sidecar = spec.get("sidecar_json")
    if sidecar:
        _emit({
            "t": t_value,
            "n_sigma": quad.n_sigma,
            "n_points": quad.n_points,
            "x1_min": x1[0], "x1_max": x1[-1],
            "x2_min": x2[0], "x2_max": x2[-1],
        }, sidecar)
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "evolve": cmd_evolve,
    "sieve": cmd_sieve,
    "sweep": cmd_sweep,
    "wigner": cmd_wigner,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lindosc",
        description="Gaussian damped-oscillator dynamics and entropy-rate sieve")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="KEY=VALUE")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses status 2 for usage errors; our contract says 1.
        return 0 if not exc.code else 1

    try:
        config = _load_config(args.config, args.overrides)
        return _COMMANDS[args.command](config)
    except LindoscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
