"""Time evolution of Gaussian states: means, covariance and diagnostics.

The covariance matrix obeys the linear matrix ODE

    d(sigma)/dt = drift @ sigma + sigma @ drift.T + 2 * diffusion

and the means follow the drift flow d(mean)/dt = drift @ mean.  Both are
integrated jointly with a fixed-step classical Runge-Kutta 4 scheme, which
keeps trajectories bit-reproducible for identical inputs.

The joint system on z = (x1, x2, S11, S12, S22) is linear with constant
coefficients, so one RK4 step is the affine map z -> z + (M z + q), with M
and q built once per run from the 5x5 generator (Van Loan, "Computing
integrals involving the matrix exponential", IEEE TAC 23, 1978).  Steps are
written into a fixed block of rows, and each block is checked at once for
lost positive definiteness and for overflow.  The entropy diagnostics of all
samples are then computed in one call over the sample stack.
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


def heisenberg_slack(sigma, hbar):
    """det(sigma) - hbar**2 / 4; negative values flag unphysical states.

    The determinant is taken on sigma scaled by a power of two, so a
    covariance whose determinant exceeds the float range gives inf, not nan.
    """
    unit, s = _mat2.normalize(np.asarray(sigma, dtype=float))
    with np.errstate(over="ignore"):
        return s * (s * _mat2.det(unit)) - hbar * hbar / 4.0


def _sigma_generator(drift):
    """3x3 matrix L with rhs_sigma = L @ (S11, S12, S22) + 2 * (D11, D12, D22).

    Rows are the (11), (12) and (22) components of drift@S + S@drift.T.
    """
    y11, y12 = drift[0]
    y21, y22 = drift[1]
    return np.array([
        [2.0 * y11, 2.0 * y12, 0.0],
        [y21, y11 + y22, y12],
        [0.0, 2.0 * y21, 2.0 * y22],
    ])


def _propagator(drift, diffusion, dt):
    """``(M.T, q)`` such that one RK4 step of z' = G z + c is z + (M z + q).

    Here z = (x1, x2, S11, S12, S22), G is block-diagonal with blocks
    ``drift`` and :func:`_sigma_generator`, and c = 2 * (0, 0, D11, D12, D22).
    With hG = dt * G, M = hG (I + hG/2 + (hG)^2/6 + (hG)^3/24) and
    q = dt (I + hG/2 + (hG)^2/6 + (hG)^3/24) c: the classical RK4 stages of a
    linear system with constant coefficients, collapsed into one affine map.
    Stepping the increment, not z -> (I + M) z + q, keeps each step's
    rounding relative to the increment rather than to z.  A map past the
    float range makes the first step non-finite, which the step check reports.
    """
    g = np.zeros((5, 5))
    g[:2, :2] = drift
    g[2:, 2:] = _sigma_generator(drift)
    c = 2.0 * np.array([0.0, 0.0, diffusion[0, 0], diffusion[0, 1], diffusion[1, 1]])
    eye = np.eye(5)
    hg = dt * g
    with np.errstate(all="ignore"):
        series = eye + hg @ (eye / 2.0 + hg @ (eye / 6.0 + hg / 24.0))
        return (hg @ series).T.copy(), dt * (series @ c)


def _pack(state):
    """``state`` as one row z = (x1, x2, S11, S12, S22), S12 the mean of
    sigma's off-diagonal entries, halved before the sum so it cannot overflow."""
    mean = np.asarray(state.mean, dtype=float)
    sigma = np.asarray(state.sigma, dtype=float)
    return np.array([mean[0], mean[1], sigma[0, 0],
                     0.5 * sigma[0, 1] + 0.5 * sigma[1, 0], sigma[1, 1]])


def _unpack(z):
    """Means ``(n, 2)`` and covariances ``(n, 2, 2)`` from rows of packed states."""
    sigma = np.empty((len(z), 2, 2))
    sigma[:, 0, 0] = z[:, 2]
    sigma[:, 0, 1] = sigma[:, 1, 0] = z[:, 3]
    sigma[:, 1, 1] = z[:, 4]
    return z[:, :2].copy(), sigma


def _step(z, mt, q, block):
    """Fill the rows of ``block`` with successive RK4 steps from ``z``.

    Runs under ``np.errstate`` so that a run which overflows leaves no
    warnings; :func:`_first_failure` reports it instead.
    """
    with np.errstate(all="ignore"):
        for row in block:
            np.add(z, z @ mt + q, out=row)
            z = row


def _first_failure(block):
    """``(index, message)`` of the first row of ``block`` that is not finite or
    whose covariance lost positive definiteness beyond tolerance, else None.

    The smallest eigenvalue is :func:`_mat2.spectrum`'s formula over a stack
    of packed rows.  ``_mat2`` keeps ``math.hypot``, whose last bit can differ
    from ``np.hypot``'s, so that the decompositions built on it do not move.
    """
    with np.errstate(all="ignore"):
        s11, s12, s22 = block[:, 2], block[:, 3], block[:, 4]
        tr = s11 + s22
        lam_min = 0.5 * (tr - np.hypot(s11 - s22, 2.0 * s12))
        finite = np.isfinite(block).all(axis=1)
        bad = ~finite | (lam_min <= -_PD_TOL * np.abs(tr))
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    if not finite[i]:
        return i, "state is no longer finite"
    return i, f"covariance lost positive definiteness (min eigenvalue {lam_min[i]})"


#: Steps held at once between positivity checks; memory stays flat for any
#: step count.
_BLOCK = 1024


def evolve(state, params, t_final, dt, sample_every=1):
    """Integrate the model from ``state`` and record sampled diagnostics.

    Samples are taken at t = 0 and then every ``sample_every`` steps, so the
    recorded times are uniformly spaced by ``sample_every * dt``.  Every step
    is checked; :class:`~lindosc.errors.PositivityLost` reports the time of
    the first step whose covariance lost positive definiteness or whose state
    is no longer finite.
    """
    if not t_final >= 0:
        raise ValueError("t_final must be nonnegative")
    if not dt > 0:
        raise ValueError("dt must be positive")
    if sample_every < 1:
        raise ValueError("sample_every must be a positive integer")
    n_steps = int(round(t_final / dt))

    drift = _model.build_drift(params)
    diffusion = _model.build_scaled_diffusion(params)
    hbar = params.hbar
    mt, q = _propagator(drift, diffusion, dt)

    samples = np.empty((n_steps // sample_every + 1, 5))
    samples[0] = z = _pack(state)
    block = np.empty((min(_BLOCK, n_steps), 5))
    done, n_samples = 0, 1
    while done < n_steps:
        rows = block[:min(_BLOCK, n_steps - done)]
        _step(z, mt, q, rows)
        failure = _first_failure(rows)
        if failure:
            i, message = failure
            t = (done + i + 1) * dt
            raise PositivityLost(f"{message} at t = {t}", time=t)
        # Row k holds step done + k + 1; keep the multiples of sample_every.
        picked = rows[(-done - 1) % sample_every::sample_every]
        samples[n_samples:n_samples + len(picked)] = picked
        n_samples += len(picked)
        z = rows[-1].copy()
        done += len(rows)

    mean, sigma = _unpack(samples)
    rep = _entropy.report(sigma, drift, diffusion, hbar)
    return Trajectory(t=np.arange(0, n_steps + 1, sample_every) * dt,
                      mean=mean, sigma=sigma,
                      area=rep.area, lin_entropy=rep.lin_entropy,
                      entropy_rate=rep.entropy_rate,
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
    if not _mat2.hurwitz(drift):
        raise NotStable(f"drift {drift.tolist()} is not Hurwitz")

    b = -2.0 * np.array([diffusion[0, 0], diffusion[0, 1], diffusion[1, 1]])
    try:
        s11, s12, s22 = np.linalg.solve(_sigma_generator(drift), b)
    except np.linalg.LinAlgError as exc:
        raise NotStable(str(exc)) from exc
    sigma = np.array([[s11, s12], [s12, s22]])

    residual = rhs_sigma(sigma, drift, diffusion)
    rhs_norm = np.linalg.norm(2.0 * diffusion)
    if np.linalg.norm(residual) > 1e-10 * max(rhs_norm, 1e-300):
        raise NotStable(
            f"stationary solve residual {np.linalg.norm(residual)} too large")
    return sigma
