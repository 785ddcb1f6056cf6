"""Time evolution of Gaussian states: means, covariance and diagnostics.

The covariance matrix obeys the linear matrix ODE

    d(sigma)/dt = drift @ sigma + sigma @ drift.T + 2 * diffusion

and the means follow the drift flow d(mean)/dt = drift @ mean.  Both are
integrated jointly with a fixed-step classical Runge-Kutta 4 scheme, which
keeps trajectories bit-reproducible for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _mat2
from . import entropy as _entropy
from . import model as _model
from .errors import NotStable, PositivityLost

#: Relative (to trace) tolerance on the smallest covariance eigenvalue.
_PD_TOL = 1e-10


@dataclass(frozen=True)
class GaussianState:
    """First moments plus 2x2 covariance, both in scaled coordinates."""

    mean: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled evolution record with per-sample diagnostics."""

    t: np.ndarray
    mean: np.ndarray
    sigma: np.ndarray
    area: np.ndarray
    lin_entropy: np.ndarray
    entropy_rate: np.ndarray
    drift: np.ndarray
    diffusion: np.ndarray
    hbar: float
    dt_sample: float

    def __len__(self):
        return len(self.t)

    def state(self, i):
        return GaussianState(mean=self.mean[i], sigma=self.sigma[i])


def rhs_sigma(sigma, drift, diffusion):
    """Right-hand side of the covariance ODE; symmetric for symmetric input."""
    return drift @ sigma + sigma @ drift.T + 2.0 * diffusion


def rhs_mean(mean, drift):
    """Right-hand side of the first-moment ODE."""
    return drift @ mean


def heisenberg_slack(sigma, hbar):
    """det(sigma) - hbar**2 / 4; negative values flag unphysical states."""
    return _mat2.det(np.asarray(sigma, dtype=float)) - hbar ** 2 / 4.0


def _check_pd(sigma, t=None):
    tr, lam_min, _ = _mat2.spectrum(sigma)
    if lam_min <= -_PD_TOL * abs(tr):
        raise PositivityLost(
            f"covariance lost positive definiteness (min eigenvalue {lam_min})"
            + ("" if t is None else f" at t = {t}"), time=t)


def _rk4_step(mean, sigma, drift, diffusion, dt):
    k1m = drift @ mean
    k1s = rhs_sigma(sigma, drift, diffusion)
    k2m = drift @ (mean + 0.5 * dt * k1m)
    k2s = rhs_sigma(sigma + 0.5 * dt * k1s, drift, diffusion)
    k3m = drift @ (mean + 0.5 * dt * k2m)
    k3s = rhs_sigma(sigma + 0.5 * dt * k2s, drift, diffusion)
    k4m = drift @ (mean + dt * k3m)
    k4s = rhs_sigma(sigma + dt * k3s, drift, diffusion)
    mean = mean + (dt / 6.0) * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
    sigma = sigma + (dt / 6.0) * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
    return mean, 0.5 * (sigma + sigma.T)


def step_rk4(state, drift, diffusion, dt):
    """One RK4 step of the joint (mean, covariance) system.

    ``dt = 0`` returns the state unchanged.  Raises
    :class:`~lindosc.errors.PositivityLost` if the stepped covariance loses
    positive definiteness beyond tolerance (step too large or bad model).
    """
    if dt == 0:
        return state
    mean, sigma = _rk4_step(state.mean, state.sigma, drift, diffusion, dt)
    _check_pd(sigma)
    return GaussianState(mean=mean, sigma=sigma)


def evolve(state, params, t_final, dt, sample_every=1):
    """Integrate the model from ``state`` and record sampled diagnostics.

    Samples are taken at t = 0 and then every ``sample_every`` steps, so the
    recorded times are uniformly spaced by ``sample_every * dt``.
    """
    if t_final < 0:
        raise ValueError("t_final must be nonnegative")
    if sample_every < 1:
        raise ValueError("sample_every must be a positive integer")
    n_steps = 0 if t_final == 0 else int(round(t_final / dt))
    if t_final > 0 and dt <= 0:
        raise ValueError("dt must be positive")

    drift = _model.build_drift(params)
    diffusion = _model.build_scaled_diffusion(params)
    hbar = params.hbar

    times, means, sigmas = [], [], []
    mean = np.array(state.mean, dtype=float)
    sigma = 0.5 * (np.asarray(state.sigma, dtype=float)
                   + np.asarray(state.sigma, dtype=float).T)
    times.append(0.0)
    means.append(mean)
    sigmas.append(sigma)

    for i in range(n_steps):
        mean, sigma = _rk4_step(mean, sigma, drift, diffusion, dt)
        t = (i + 1) * dt
        _check_pd(sigma, t=t)
        if (i + 1) % sample_every == 0:
            times.append(t)
            means.append(mean)
            sigmas.append(sigma)

    t_arr = np.array(times)
    mean_arr = np.array(means)
    sigma_arr = np.array(sigmas)
    n = len(t_arr)
    area = np.empty(n)
    lin_ent = np.empty(n)
    ent_rate = np.empty(n)
    for i in range(n):
        rep = _entropy.report(sigma_arr[i], drift, diffusion, hbar)
        area[i] = rep.area
        lin_ent[i] = rep.lin_entropy
        ent_rate[i] = rep.entropy_rate

    return Trajectory(t=t_arr, mean=mean_arr, sigma=sigma_arr,
                      area=area, lin_entropy=lin_ent, entropy_rate=ent_rate,
                      drift=drift, diffusion=diffusion, hbar=hbar,
                      dt_sample=dt * sample_every)


def stationary_covariance(drift, diffusion):
    """Unique symmetric solution of drift@S + S@drift.T + 2*diffusion = 0.

    Requires a Hurwitz drift (both eigenvalues with negative real part);
    raises :class:`~lindosc.errors.NotStable` without one, and when the
    linear solve is singular or inaccurate.
    """
    drift = np.asarray(drift, dtype=float)
    diffusion = np.asarray(diffusion, dtype=float)
    eigs = np.linalg.eigvals(drift)
    if not all(z.real < 0 for z in eigs):
        raise NotStable(f"drift eigenvalues {eigs} are not all in the left half-plane")

    y11, y12 = drift[0]
    y21, y22 = drift[1]
    # Unknowns (S11, S12, S22); rows are the (11), (12), (22) components.
    a = np.array([
        [2.0 * y11, 2.0 * y12, 0.0],
        [y21, y11 + y22, y12],
        [0.0, 2.0 * y21, 2.0 * y22],
    ])
    b = -2.0 * np.array([diffusion[0, 0], diffusion[0, 1], diffusion[1, 1]])
    try:
        s11, s12, s22 = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NotStable(str(exc)) from exc
    sigma = np.array([[s11, s12], [s12, s22]])

    residual = rhs_sigma(sigma, drift, diffusion)
    rhs_norm = np.linalg.norm(2.0 * diffusion)
    if np.linalg.norm(residual) > 1e-10 * max(rhs_norm, 1e-300):
        raise NotStable(
            f"stationary solve residual {np.linalg.norm(residual)} too large")
    return sigma
