"""Command-line front end.

One self-describing JSON config drives each run; ``--set key=value`` applies
dotted-path overrides.  ``_SCHEMA`` declares every key, and the whole config
is checked against it at load.  Exit codes: 0 success, 1 usage/parse error,
2 physics-constraint error, 3 numerical failure; each error class in
:mod:`lindosc.errors` declares its own.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import (__version__, decomposition, dynamics, entropy, model, serialize,
               sieve, wigner)
from .errors import ConfigError, LindoscError, PositivityLost, UnphysicalState


def _load_config(path, overrides):
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except ValueError:
            value = raw
        node = config
        *parents, leaf = key.split(".")
        for part in parents:
            node = node.setdefault(part, {}) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            raise ConfigError(f"--set {key} runs through a value that is not an object")
        node[leaf] = value
    return config


#: Marks a key without a default.
_REQUIRED = object()

#: The most evolve steps, sieve or sweep grid cells or wigner grid points one
#: config may ask for.  On a 2-CPU host an evolve of 10**5 steps sampled every
#: step takes 0.7 s and 35 MB, growing linearly; the tests, demos and benchmark
#: ask for 144 761 at most.
_MAX_SIZE = 10 ** 6

#: Bound on m, omega, hbar, d, aleph, their inverses and each drift and scaled
#: diffusion entry.  The layers form products of two of them (m*omega, det D,
#: aleph**2) and sum up to four such, which stays finite.  Validate's slack
#: holds lambda**2 hbar**2, a product of four, which can pass the float
#: range; main then reports the config's error.
_LARGEST = 2.0 ** 510

# Ranges: (text, test); the test is false for NaN except in _ANY, the range
# of each key whose value a constructor called by _check_config checks.
_ANY = ("", lambda x: True)
_POSITIVE = ("> 0, finite", lambda x: 0 < x < math.inf)
_SCALE = ("in [2**-510, 2**510]", lambda x: 1.0 / _LARGEST <= x <= _LARGEST)
_COUNT = (">= 1", lambda n: n >= 1)
_PATH = (str, _ANY, None)

#: Every config key: name -> (type, range, default); rules between keys are
#: in _check_config.  A type is int, float (a JSON integer or float), str,
#: "pair" (2 floats) or a table (an object of its keys); a bool is never a
#: number.  An absent key with default None is None; an absent section with
#: default {} is filled in from its keys' defaults.
_SCHEMA = {
    "model": ({
        **{k: (float, _SCALE, _REQUIRED) for k in ("m", "omega", "hbar")},
        "mu": (float, _ANY, _REQUIRED), "lambda": (float, _ANY, _REQUIRED),
        # D_qq, D_pp, D_pq or Delta, d, phi: _check_config checks which.
        "diffusion": ({**{k: (float, _ANY, None)
                          for k in ("D_qq", "D_pp", "D_pq", "Delta", "phi")},
                       "d": (float, _SCALE, None)}, None, _REQUIRED)}, None, _REQUIRED),
    "validate": ({"report_json": _PATH}, None, {}),
    "state": ({  # GaussianState checks the mean and sigma, with exit 2
        "mean": ("pair", _ANY, [0.0, 0.0]),
        "sigma": ({k: (float, _ANY, _REQUIRED) for k in ("S11", "S12", "S22")},
                  None, None),
        "A": (float, _ANY, None), "aleph": (float, _SCALE, None),
        "theta": (float, _ANY, None)}, None, None),
    "evolve": ({
        "t_final": (float, (">= 0, finite", lambda x: 0 <= x < math.inf), 1.0),
        "dt": (float, _POSITIVE, 1e-3), "sample_every": (int, _COUNT, 1),
        "trajectory_csv": _PATH, "summary_json": _PATH}, None, {}),
    "sieve": ({
        "n_aleph": (int, _COUNT, 401), "n_theta": (int, _COUNT, 361),
        # Unset: d/4 and 4d, about the anisotropy d of the model's diffusion.
        "aleph_min": (float, _POSITIVE, None), "aleph_max": (float, _POSITIVE, None),
        "summary_json": _PATH}, None, {}),
    "sweep": ({
        "n_aleph": (int, _COUNT, _REQUIRED), "n_theta": (int, _COUNT, _REQUIRED),
        "aleph_min": (float, _POSITIVE, _REQUIRED),
        "aleph_max": (float, _POSITIVE, _REQUIRED),
        "landscape_csv": (str, _ANY, _REQUIRED)}, None, None),
    "wigner": ({
        "t_index": (int, (">= 0", lambda n: n >= 0), 0),
        "n_sigma": (float, _ANY, 8.0), "n_points": (int, _ANY, 201),
        "grid_csv": (str, _ANY, _REQUIRED), "sidecar_json": _PATH}, None, None),
}


def _check(where, kind, limits, value):
    """``value`` of the key ``where``, checked against its ``_SCHEMA`` type
    and range, with the defaults of a table filled in."""
    if value is _REQUIRED:
        raise ConfigError(f"config is missing {where}")
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{where or 'config'} must be an object, got {value!r}")
        prefix = f"{where}." if where else ""
        unknown = sorted(value.keys() - kind.keys())
        if unknown:
            raise ConfigError(f"unknown config key {prefix + unknown[0]!r}")
        return {key: None if key not in value and default is None
                else _check(prefix + key, sub, sub_limits, value.get(key, default))
                for key, (sub, sub_limits, default) in kind.items()}
    if kind == "pair":
        if not (isinstance(value, list) and len(value) == 2):
            raise ConfigError(f"{where} must be a list of 2 numbers, got {value!r}")
        return [_check(f"{where}[{i}]", float, limits, v) for i, v in enumerate(value)]
    ok = not isinstance(value, bool) and isinstance(
        value, {int: int, float: (int, float), str: str}[kind])
    try:
        value = kind(value) if ok else value
    except OverflowError:  # an integer past the float range
        ok = False
    if not (ok and limits[1](value)):
        raise ConfigError(f"{where} must be {kind.__name__} {limits[0]}".rstrip()
                          + f", got {value!r}")
    return value


def _one_form(where, table, *forms):
    """The index of the one of ``forms`` (tuples of keys) whose keys are all
    set in ``table``, with no key of another form set."""
    given = {key for form in forms for key in form if table[key] is not None}
    for i, form in enumerate(forms):
        if given == set(form):
            return i
    raise ConfigError(f"{where} must carry exactly one of "
                      + " or ".join(f"({', '.join(form)})" for form in forms)
                      + f", got {sorted(given)}")


def _bound(what, size):
    if not size <= _MAX_SIZE:
        raise ConfigError(f"{what} is {size}, past the bound of {_MAX_SIZE}")


def _state(spec, hbar):
    """The ``state`` section's :class:`GaussianState` and its area, which must
    be finite and at least 1."""
    if _one_form("state", spec, ("sigma",), ("A", "aleph", "theta")):
        sigma = decomposition.compose(decomposition.CovDecomposition(
            spec["A"], spec["aleph"], spec["theta"]), hbar)
    else:
        s = spec["sigma"]
        sigma = [[s["S11"], s["S12"]], [s["S12"], s["S22"]]]
    state = dynamics.GaussianState(mean=spec["mean"], sigma=sigma)
    area = entropy._physical_area(state.sigma, hbar)
    if area == math.inf:
        raise ConfigError(f"the state's covariance {state.sigma.tolist()} has an area "
                          "past the float range")
    return state, area


def _check_config(config):
    """``config`` checked against ``_SCHEMA`` and the rules between its keys,
    with defaults filled in, the model, its validation ``report``, the state,
    its ``area`` (1 without one) and ``wigner.quadrature`` built; raises at
    the first bad key."""
    cfg = _check("", _SCHEMA, None, config)
    doc = cfg["model"]
    diff = doc["diffusion"]
    if _one_form("model.diffusion", diff,
                 ("D_qq", "D_pp", "D_pq"), ("Delta", "d", "phi")):
        scaled = decomposition.compose_diffusion(decomposition.DiffDecomposition(
            diff["Delta"], diff["d"], diff["phi"]), doc["hbar"])
        mw = doc["m"] * doc["omega"]
        # On Python floats a quotient past the float range is inf, with no
        # warning, and ModelParams rejects it.
        diff = {"D_qq": float(scaled[0, 0]) / mw, "D_pp": float(scaled[1, 1]) * mw,
                "D_pq": float(scaled[0, 1])}
    params = cfg["model"] = model.ModelParams(
        m=doc["m"], omega=doc["omega"], mu=doc["mu"], hbar=doc["hbar"],
        D_qq=diff["D_qq"], D_pp=diff["D_pp"], D_pq=diff["D_pq"], lam=doc["lambda"])
    for name, matrix in (("drift", model.build_drift(params)),
                         ("scaled diffusion", model.build_scaled_diffusion(params))):
        if not (abs(matrix) <= _LARGEST).all():
            raise ConfigError(f"model {name} {matrix.tolist()} is not within 2**510")
    cfg["report"] = model.validate(params)
    state, ev, wig = cfg["state"], cfg["evolve"], cfg["wigner"]
    cfg["state"], cfg["area"] = _state(state, params.hbar) if state else (None, 1.0)
    _bound("evolve's step count t_final/dt", ev["t_final"] / ev["dt"])
    # The samples must reach t_final: a run of n steps ends on its last
    # sample only if n is a positive multiple of sample_every.
    n_steps = round(ev["t_final"] / ev["dt"])
    if ev["t_final"] > 0 and (n_steps == 0 or n_steps % ev["sample_every"]):
        raise ConfigError(
            f"evolve runs round(t_final/dt) = {n_steps} steps, which must be a "
            f"positive multiple of sample_every = {ev['sample_every']}")
    for name in ("sieve", "sweep"):
        grid = cfg[name]
        if grid is None:
            continue
        _bound(f"{name} grid's n_aleph*n_theta", grid["n_aleph"] * grid["n_theta"])
        lo, hi = grid["aleph_min"], grid["aleph_max"]
        if None not in (lo, hi) and lo > hi:
            raise ConfigError(f"{name}.aleph_min {lo} is above {name}.aleph_max {hi}")
    if wig:
        quad = wig["quadrature"] = wigner.QuadratureSpec(wig.pop("n_sigma"),
                                                         wig.pop("n_points"))
        _bound("wigner grid's n_points**2", quad.n_points ** 2)
        if wig["t_index"] > n_steps // ev["sample_every"]:
            raise ConfigError(f"wigner.t_index {wig['t_index']} is past the last sample")
    return cfg


def _section(cfg, name):
    if cfg[name] is None:
        raise ConfigError(f"config is missing the '{name}' section")
    return cfg[name]


def _emit(obj, path=None):
    try:
        text = serialize.dumps({**obj, "version": __version__})
    except ValueError as exc:  # a float that is not finite: main reports it
        raise FloatingPointError(exc) from exc
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_validate(cfg):
    report = cfg["report"]
    _emit(report.as_dict(), cfg["validate"]["report_json"])
    return 0 if report.passed else 2


def cmd_evolve(cfg):
    params, spec = cfg["model"], cfg["evolve"]
    traj = dynamics.evolve(_section(cfg, "state"), params,
                           spec["t_final"], spec["dt"], spec["sample_every"])
    slack = dynamics.heisenberg_slack(traj.sigma[-1], params.hbar)
    table = np.column_stack([
        traj.t, traj.mean[:, 0], traj.mean[:, 1],
        traj.sigma[:, 0, 0], traj.sigma[:, 0, 1], traj.sigma[:, 1, 1],
        traj.area, traj.lin_entropy, traj.entropy_rate])
    if not (math.isfinite(slack) and np.isfinite(table).all()):
        raise PositivityLost(f"det sigma or a diagnostic is beyond the float range "
                             f"by t = {traj.t[-1]}", time=traj.t[-1])
    if spec["trajectory_csv"]:
        serialize.write_csv(spec["trajectory_csv"],
                            "t,x1,x2,S11,S12,S22,area,lin_entropy,entropy_rate", table)

    summary = {
        "t_final": traj.t[-1],
        "final_area": traj.area[-1],
        "final_lin_entropy": traj.lin_entropy[-1],
        "final_entropy_rate": traj.entropy_rate[-1],
        "final_sigma": traj.sigma[-1].tolist(),
        "heisenberg_slack": slack,
    }
    if cfg["report"].hurwitz:
        stat = dynamics.stationary_covariance(traj.drift, traj.diffusion)
        summary["stationary_sigma"] = stat.tolist()
        summary["stationary_distance"] = math.hypot(*(traj.sigma[-1] - stat).flat)
    _emit(summary, spec["summary_json"])
    return 0


def _grid(cfg, name):
    """The arguments of ``sieve.run_sieve`` and ``sieve.rate_landscape``."""
    spec, params = _section(cfg, name), cfg["model"]
    diff = decomposition.decompose_diffusion(
        model.build_scaled_diffusion(params), params.hbar)
    return (cfg["area"], params.lam, diff, spec["n_aleph"], spec["n_theta"],
            sieve._aleph_range(diff, spec["aleph_min"], spec["aleph_max"]))


def cmd_sieve(cfg):
    args = _grid(cfg, "sieve")
    area, _, _, n_aleph, n_theta, (aleph_min, aleph_max) = args
    result = sieve.run_sieve(*args)
    # Angles are equivalent modulo pi: 0 and pi - 1e-13 are 1e-13 apart.
    theta_gap = abs(result.grid_theta - result.theta_star) % math.pi
    _emit({
        "aleph_star": result.aleph_star,
        "theta_star": result.theta_star,
        "min_rate": result.min_rate,
        "degenerate_angle": result.degenerate_angle,
        "area": area,
        "grid": {"aleph": result.grid_aleph, "theta": result.grid_theta,
                 "rate": result.grid_rate, "n_aleph": n_aleph, "n_theta": n_theta,
                 "aleph_min": aleph_min, "aleph_max": aleph_max},
        "delta_aleph": abs(result.grid_aleph - result.aleph_star),
        "delta_theta": min(theta_gap, math.pi - theta_gap),
        "delta_rate": abs(result.grid_rate - result.min_rate),
    }, cfg["sieve"]["summary_json"])
    return 0


def cmd_sweep(cfg):
    table = sieve.rate_landscape(*_grid(cfg, "sweep"))
    serialize.write_csv(cfg["sweep"]["landscape_csv"], "aleph,theta,rate", table)
    return 0


def cmd_wigner(cfg):
    spec = _section(cfg, "wigner")
    state, quad = _section(cfg, "state"), spec["quadrature"]
    t_value = 0.0
    if spec["t_index"]:
        ev = cfg["evolve"]
        traj = dynamics.evolve(state, cfg["model"], ev["t_final"], ev["dt"],
                               ev["sample_every"])
        state = traj.state(spec["t_index"])
        t_value = float(traj.t[spec["t_index"]])

    x1, x2, f = wigner.wigner_grid(state, quad)
    serialize.write_csv(spec["grid_csv"], "x1,x2,f", np.column_stack([
        np.repeat(x1, len(x2)), np.tile(x2, len(x1)), f.ravel()]))
    if spec["sidecar_json"]:
        _emit({
            "t": t_value,
            "n_sigma": quad.n_sigma,
            "n_points": quad.n_points,
            "x1_min": x1[0], "x1_max": x1[-1],
            "x2_min": x2[0], "x2_max": x2[-1],
        }, spec["sidecar_json"])
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
        cfg = _check_config(_load_config(args.config, args.overrides))
        if args.command != "validate" and not cfg["report"].passed:
            raise UnphysicalState("model violates the diffusion positivity constraint "
                                  f"(slack {cfg['report'].slack})")
        # A number past the float range in a command is the config's error.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _COMMANDS[args.command](cfg)
    except (FloatingPointError, OverflowError) as exc:
        print(f"error: this config asks for a number past the float range ({exc})",
              file=sys.stderr)
        return ConfigError.exit_code
    except (LindoscError, OSError) as exc:
        # OSError: an output file that cannot be written.
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
