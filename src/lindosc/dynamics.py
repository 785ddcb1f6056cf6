"""Time evolution of Gaussian states: means, covariance and diagnostics.

The covariance matrix obeys the linear matrix ODE

    d(sigma)/dt = drift sigma + sigma drift^T + 2 diffusion

and the means follow the drift flow d(mean)/dt = drift mean.  Both are
integrated jointly with a fixed-step classical Runge-Kutta 4 scheme, which
keeps trajectories bit-reproducible for identical inputs.

The joint system on z = (x1, x2, S11, S12, S22) is linear with constant
coefficients, so one RK4 step is the affine map z -> z + (M z + q), with M
and q built from the 5x5 generator (Van Loan, "Computing integrals involving
the matrix exponential", IEEE TAC 23, 1978).  On the row (z, 1) that step is
one 6x6 matrix A, and k steps are A^k.  The increments D_k = A^k - I,
k = 1 ... B, are built by the doubling D_(j+m) = D_j + D_m + D_j D_m in
log2(B) batched products (the squaring of Higham, "The scaling and squaring
method for the matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26,
2005), and each block of B steps is filled at once as z + (z, 1) D_k.  The
stack does not depend on the state, so :func:`_stack` keeps the last two,
read-only, keyed by the exact bits of the drift, the diffusion and dt and by
B: runs of many states under one model and dt build it once, at 147 kB per
stack.  The increment form keeps each step's rounding relative to its
increment; the power form (z, 1) A^k drifts.  A step's rounding is still a
few ulp of z, the block's start, so a block ends early at its first step
whose mean or covariance has fallen far below z's: a run that relaxes from a
broad state keeps each step accurate to its own size.  The stack ends before
its first D_k that is not finite, so a run that grows past the float range is
stepped in shorter blocks, and its steps overflow where the step-by-step map
would, not where the stack does.

The generator is block-diagonal, a 2x2 block for the mean and a 3x3 block
for the covariance, so 14 of the 30 entries of every D_k (without its zero
last column) are exact zeros.  The stack keeps only the two diagonal blocks,
packed as ``(6, 3, B)`` with the step axis last: rows 0-1 hold the mean
block, column 2 a zero pad, and rows 2-5 the covariance block and the
constant row.  A block of steps is ``(5, B)``, one packed state per column.
Each doubling product is then three slab terms and each block fill two
:func:`_mat2.dot` calls, with inner loops along the steps.  The terms left
out are exact zeros and the kept ones are summed in the full product's
order, so each entry has the full product's value, and its bits wherever it
is not zero: a trajectory can differ from the full product's only in the
sign of a zero that a -0.0 of its initial state leaves.  Every product here
is a :func:`_mat2.dot`, in its fixed order, so a trajectory's bytes do not
depend on the host's BLAS kernel.  Each block is checked at once by
:func:`_mat2.spd`, the package's one test of a covariance, whose entries are
the block's covariance rows, and the entropy diagnostics of all samples are
computed in one call over the sample stack.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass

import numpy as np

from . import _mat2
from . import entropy as _entropy
from . import model as _model
from .errors import NotSPD, NotStable, PositivityLost, UnphysicalState


@dataclass(frozen=True)
class GaussianState:
    """First moments plus 2x2 covariance, both in scaled coordinates.

    Construction raises :class:`~lindosc.errors.UnphysicalState` unless the
    mean is two finite numbers, and :class:`~lindosc.errors.NotSPD` unless
    the covariance is one 2x2 matrix that passes :func:`_mat2.check_spd`.
    """

    mean: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.shape != (2,) or not np.isfinite(mean).all():
            raise UnphysicalState(f"mean {mean.tolist()} is not two finite numbers")
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.shape != (2, 2):
            raise NotSPD(f"covariance of shape {sigma.shape} is not a 2x2 matrix")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "sigma", sigma)
        _mat2.check_spd(sigma, "covariance")


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
    """Right-hand side of the covariance ODE at one 2x2 ``sigma``, not a stack
    (``ValueError``); symmetric if it is."""
    s, y, d = (np.asarray(m, dtype=float).reshape(2, 2).tolist() for m in (sigma, drift, diffusion))
    return np.array([[_mat2.dot(y[i], col) + _mat2.dot(s[i], y[j]) + 2.0 * d[i][j]
                      for j, col in enumerate(zip(*s))] for i in range(2)])


def heisenberg_slack(sigma, hbar):
    """det(sigma) - hbar**2 / 4; negative values flag unphysical states.

    The determinant is taken on sigma scaled by a power of two, so a
    covariance whose determinant exceeds the float range gives inf, not nan.
    Raises :class:`~lindosc.errors.NotSPD` unless sigma is one finite 2x2 matrix.
    """
    unit, s, _ = _mat2.normalize(_mat2.check_2x2(sigma, "covariance"))
    return s * (s * _mat2.det(unit)) - hbar * _model._positive(hbar) / 4.0


def _propagator(drift, diffusion, dt):
    """D_1 = A - I, without its zero last column: the ``(6, 5)`` increment of
    one RK4 step of z' = G z + c on the row (z, 1), ``[[M.T], [q]]``, of
    which :func:`_increments` keeps the two diagonal blocks.

    Here z = (x1, x2, S11, S12, S22), G is block-diagonal with blocks
    ``drift`` and the 3x3 L with drift S + S drift^T = L (S11, S12, S22),
    and c = 2 * (0, 0, D11, D12, D22).
    With hG = dt * G, one step is z -> z + (M z + q), where
    M = hG (I + hG/2 + (hG)^2/6 + (hG)^3/24) and
    q = dt (I + hG/2 + (hG)^2/6 + (hG)^3/24) c: the classical RK4 stages of a
    linear system with constant coefficients, collapsed into one affine map.
    M is block-diagonal as G is, and q's first two entries are zero.
    A map past the float range makes the first step non-finite, which the
    step check reports.
    """
    (y11, y12), (y21, y22) = drift
    g = np.zeros((5, 5))
    g[:2, :2] = drift
    g[2:, 2:] = [[2.0 * y11, 2.0 * y12, 0.0], [y21, y11 + y22, y12], [0.0, 2.0 * y21, 2.0 * y22]]
    c = 2.0 * np.array([0.0, 0.0, diffusion[0, 0], diffusion[0, 1], diffusion[1, 1]])
    eye = np.eye(5)
    hg = dt * g
    columns = hg.T[:, :, None]  # hg @ b is dot(columns, b[:, None, :])
    d1 = np.empty((6, 5))
    with np.errstate(all="ignore"):
        inner = eye / 2.0 + _mat2.dot(columns, (eye / 6.0 + hg / 24.0)[:, None, :])
        series = eye + _mat2.dot(columns, inner[:, None, :])
        d1[:5] = _mat2.dot(columns, series[:, None, :]).T
        d1[5] = dt * _mat2.dot(series.T, c)
    return d1


#: Row of D_m that term l of a doubling product takes, for each row of the
#: packed D_j: row l for the mean rows 0-1, row 2 + l for rows 2-5.
_ROWS = np.array([[0, 0, 2, 2, 2, 2], [1, 1, 3, 3, 3, 3], [2, 2, 4, 4, 4, 4]])


def _increments(d1, n):
    """The packed stack ``(6, 3, m)`` of D_k = A^k - I, k = 1 ... m, the step
    axis last: ``d[:, :, k - 1]`` holds D_k's mean block in rows 0-1,
    columns 0-1, a zero in column 2, and its covariance block and constant
    row, columns 2-4 of its rows 2-5, in rows 2-5.  ``d1`` is the full D_1
    of :func:`_propagator`.  m is ``n``, or less where D_(m+1) is the first
    that is not finite, and at least 1.

    A^(j+m) = A^j A^m gives D_(j+m) = D_j + D_m + D_j D_m, so one batched
    product takes D_1 ... D_m to D_1 ... D_2m.  The full product is the sum
    over l = 0 ... 4 of column l of D_j times row l of D_m; in each entry
    the terms that cross the blocks are exact zeros.  The packed product
    keeps the others in that order, as three terms l = 0, 1, 2, each one
    operation on a slab ``(6, 3, k)`` whose inner loop runs along the steps:
    packed column l of D_j times, per row, row :data:`_ROWS` ``[l]`` of D_m
    (in the mean rows, term 2 is the zero pad times a row).  A non-finite
    D_k would turn a finite row into nan (inf - inf, inf * 0) before the row
    itself overflows, so the stack stops before it.
    """
    d = np.empty((6, 3, n))
    d[:2, :2, 0], d[:2, 2, 0], d[2:, :, 0] = d1[:2, :2], 0.0, d1[2:, 2:]
    m = 1
    with np.errstate(all="ignore"):
        while m < n:
            k = min(m, n - m)
            dj, dm = d[:, :, :k], d[:, :, m - 1]
            out = np.add(dj, dm[:, :, None], out=d[:, :, m:m + k])
            out += _mat2.dot(dj.transpose(1, 0, 2)[:, :, None], dm[_ROWS][..., None])
            m += k
    finite = np.isfinite(d).all(axis=(0, 1))
    return d if finite.all() else d[:, :, :max(1, int(np.argmin(finite)))]


def _pack(state):
    """``state`` as one row z = (x1, x2, S11, S12, S22), S12 the mean of
    sigma's off-diagonal entries, halved before the sum so it cannot overflow,
    or the entry itself where both are equal and not zero: halving a
    subnormal entry rounds, which can make a nearly singular sigma fail
    :func:`_mat2.spd`."""
    mean, sigma = state.mean, state.sigma
    s12, s21 = sigma[0, 1], sigma[1, 0]
    return np.array([mean[0], mean[1], sigma[0, 0],
                     s12 if s12 == s21 != 0.0 else 0.5 * s12 + 0.5 * s21, sigma[1, 1]])


def _unpack(z):
    """Means ``(n, 2)`` and covariances ``(n, 2, 2)`` from the columns of
    ``z`` ``(5, n)``, one packed state each."""
    sigma = np.empty((z.shape[1], 2, 2))
    sigma[:, 0, 0] = z[2]
    sigma[:, 0, 1] = sigma[:, 1, 0] = z[3]
    sigma[:, 1, 1] = z[4]
    return z[:2].T.copy(), sigma


def _step(z, d, block):
    """Fill the n columns of ``block`` ``(5, n)`` with the RK4 steps 1 ... n
    from ``z``, column k - 1 with z + (z, 1) D_k from the packed stack ``d``
    of :func:`_increments`: the mean rows are :func:`_mat2.dot` of
    ``z[:2]`` and D_k's mean block, the covariance rows that of
    (S11, S12, S22, 1) and its rows 2-5, each term a scalar times a slab.
    The terms of the full (z, 1) D_k left out are exact zeros.  Overflow
    raises no warning here; :func:`_first_failure` reports it.
    """
    with np.errstate(all="ignore"):
        _mat2.dot(z[:2], d[:2, :2], out=block[:2])
        _mat2.dot((*z[2:], 1.0), d[2:], out=block[2:])
        block += z[:, None]


def _kept(z, block):
    """How many columns of ``block``, stepped from ``z``, to keep: all, or
    those before the first whose mean or covariance has fallen below
    :data:`_SHRINK` of z's, and at least one.

    Each column carries a few ulp of z in rounding.  A column kept is the
    first, one step from z as in a step-by-step loop, or within a factor
    1 / _SHRINK of z's scale, so its error stays a few ulp of its own size
    however far the run relaxes.  The next block starts from the last column
    kept.  The mean's scale is max(|x1|, |x2|) and the covariance's
    max(|S11|, |S22|), taken apart since the two relax apart.
    """
    a = np.abs(block)
    fell = np.maximum(a[0], a[1]) < _SHRINK * max(abs(z[0]), abs(z[1]))
    fell |= np.maximum(a[2], a[4]) < _SHRINK * max(abs(z[2]), abs(z[4]))
    i = int(np.argmax(fell))
    return max(i, 1) if fell[i] else block.shape[1]


def _first_failure(block):
    """Index of the first column of ``block`` ``(5, n)`` that
    :class:`GaussianState` rejects, its mean not finite or its covariance
    failing :func:`_mat2.spd`; else None.  The covariances' entries are the
    rows S11, S12 and S22, entry (i, j) row 2 + i + j."""
    ok = np.isfinite(block[0]) & np.isfinite(block[1])
    ok &= _mat2.spd(((block[2], block[3]), (block[3], block[4])))[0]
    return None if ok.all() else int(np.argmin(ok))


#: Steps held at once between positivity checks, and the most increments
#: D_k built per run; memory stays flat for any step count.
_BLOCK = 1024

#: The most steps one :func:`evolve` runs, the bound the CLI checks a
#: config's step count against.
_MAX_STEPS = 10 ** 6

#: Fraction of its starting scale below which :func:`_kept` ends a block.
_SHRINK = 1.0 / 16.0


#: The stacks of the last two keys of :func:`_stack`, least recently used
#: first, and the lock that makes each look-up, build and store one step.
_STACKS = {}
_STACKS_LOCK = threading.Lock()


def _stack(drift, diffusion, dt, n):
    """The read-only stack of :func:`_increments` of ``n`` steps of ``dt``
    from the float64 ``drift`` and ``diffusion``, kept for the last two keys:
    the bytes of both matrices, so ``-0.0`` and ``0.0`` apart, dt as a float,
    which for a positive dt is its bits, and ``n``.  The least recently used
    stack is dropped before a new one is built, so at most two, 2 x 147 kB,
    are held.  Runs of many states under one model, as the coarse and fine
    runs of a certificate, build each stack once."""
    key = (drift.tobytes(), diffusion.tobytes(), float(dt), n)
    with _STACKS_LOCK:
        d = _STACKS.pop(key, None)
        if d is None:
            if len(_STACKS) == 2:
                del _STACKS[next(iter(_STACKS))]
            d = _increments(_propagator(drift, diffusion, dt), n)
            d.setflags(write=False)
        _STACKS[key] = d
    return d


def evolve(state, params, t_final, dt, sample_every=1):
    """Integrate the model from ``state`` and record sampled diagnostics.

    Samples are taken at t = 0 and then every ``sample_every`` steps, so the
    recorded times are uniformly spaced by ``sample_every * dt``.
    :class:`GaussianState` checks the initial state; every step is checked,
    and :class:`~lindosc.errors.PositivityLost` reports the time of the first
    step whose covariance fails :func:`_mat2.check_spd`'s test or whose mean
    is not finite.  A t_final, dt or sample_every out of range raises
    ``ValueError``, as does a run of more than :data:`_MAX_STEPS` steps.
    """
    if not 0 <= t_final < np.inf:
        raise ValueError("t_final must be nonnegative and finite")
    if not dt > 0:
        raise ValueError("dt must be positive")
    steps = float(t_final) / float(dt)  # a Python quotient: inf past the float range, no warning
    if not steps <= _MAX_STEPS:
        raise ValueError(f"t_final/dt is {steps}, past the bound of {_MAX_STEPS} steps")
    try:
        sample_every = operator.index(sample_every)
    except TypeError:
        sample_every = 0  # not an integer, so refused below
    if sample_every < 1:
        raise ValueError("sample_every must be a positive integer")
    n_steps = round(steps)

    drift = _model.build_drift(params)
    diffusion = _model.build_scaled_diffusion(params)
    hbar = params.hbar
    d = _stack(*(np.asarray(m, dtype=float) for m in (drift, diffusion)), dt,
               min(_BLOCK, max(n_steps, 1)))

    samples = np.empty((5, n_steps // sample_every + 1))
    samples[:, 0] = z = _pack(state)
    block = np.empty((5, d.shape[2]))
    done, n_samples = 0, 1
    while done < n_steps:
        # Each block is stepped and checked in full, also past n_steps and
        # past where _kept ends it, so that its temporaries keep one size.
        # Temporaries that change size from block to block fragment the
        # heap: peak RSS grew by ~1 MB over 1 500 evolves of 3 000 steps.
        _step(z, d, block)
        i = _first_failure(block)
        steps = block[:, :min(_kept(z, block), n_steps - done)]
        if i is not None and i < steps.shape[1]:
            t = (done + i + 1) * dt
            mean, sigma = _unpack(steps[:, i:i + 1])
            try:  # raises: the same test on the same state
                GaussianState(mean=mean[0], sigma=sigma[0])
            except (NotSPD, UnphysicalState) as exc:
                raise PositivityLost(f"{exc} at t = {t}", time=t) from None
        # Column k holds step done + k + 1; keep the multiples of sample_every.
        picked = steps[:, (-done - 1) % sample_every::sample_every]
        samples[:, n_samples:n_samples + picked.shape[1]] = picked
        n_samples += picked.shape[1]
        z = steps[:, -1].copy()
        done += steps.shape[1]

    mean, sigma = _unpack(samples)
    rep = _entropy.report(sigma, drift, diffusion, hbar)
    return Trajectory(t=np.arange(0, n_steps + 1, sample_every) * dt,
                      mean=mean, sigma=sigma,
                      area=rep.area, lin_entropy=rep.lin_entropy,
                      entropy_rate=rep.entropy_rate,
                      drift=drift, diffusion=diffusion, hbar=hbar,
                      dt_sample=dt * sample_every)


#: Largest stationary residual, relative to the terms that cancel in it.
_STATIONARY_RTOL = 1e-12


def stationary_covariance(drift, diffusion):
    """Unique symmetric solution S of Y S + S Y^T + 2 D = 0, Y the drift, D the diffusion.

    As Y adj(Y) = det(Y) I, S = (det(Y) D + adj(Y) D adj(Y)^T) / (-tr(Y) det(Y)),
    here built symmetric on Y and D divided by powers of two: within 1e-14
    max(S11, S22) max|Y_ij|^2 / det(Y) of the exact S of the same floats.
    Raises :class:`~lindosc.errors.NotSPD` unless both are finite 2x2
    matrices, as :func:`~lindosc.entropy.report` does, and
    :class:`~lindosc.errors.NotStable` for a drift that is not Hurwitz or a
    residual whose largest entry passes :data:`_STATIONARY_RTOL` of that of
    |Y||S| + |S||Y|^T + 2|D| = ``rhs_sigma(|S|, |Y|, |D|)``.
    """
    drift, diffusion = _mat2.check_2x2(drift, "drift"), _mat2.check_2x2(diffusion, "diffusion")
    if not _mat2.hurwitz(drift):
        raise NotStable(f"drift {drift} is not Hurwitz")
    (y, s_y, _), (d, s_d, _) = _mat2.normalize(drift), _mat2.normalize(diffusion)
    det, adj = _mat2.det(y), _mat2.inv(y, 1.0)
    adj_d = [[_mat2.dot(row, col) for col in zip(*d)] for row in adj]
    m = [[_mat2.dot(row, adj_row) for adj_row in adj] for row in adj_d]  # adj d adj^T
    sigma = (np.array([[det * d[i][j] + 0.5 * (m[i][j] + m[j][i]) for j in range(2)]
                       for i in range(2)]) / (-(y[0][0] + y[1][1]) * det))
    residual = np.abs(rhs_sigma(sigma, y, d)).max()
    terms = rhs_sigma(np.abs(sigma), np.abs(y), np.abs(d)).max()
    if not residual <= _STATIONARY_RTOL * terms:  # NaN fails
        raise NotStable(f"stationary residual {residual} past {_STATIONARY_RTOL} of terms {terms}")
    return sigma * (s_d / s_y)
