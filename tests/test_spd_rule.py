"""One rule for an acceptable covariance or diffusion matrix: every entry
point that takes a 2x2 matrix rejects the same bad matrices with NotSPD, and
takes every covariance GaussianState accepts.  Each value type checks its
own fields at construction."""

import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from lindosc import (CovDecomposition, DiffDecomposition, GaussianState,
                     ModelParams, QuadratureSpec, area, build_scaled_diffusion,
                     compose, compose_diffusion, decompose, decompose_diffusion,
                     evolve, heisenberg_slack, initial_rate, linear_entropy,
                     wigner_eval, wigner_grid)
from lindosc._mat2 import check_spd
from lindosc.dynamics import _first_failure
from lindosc.entropy import report
from lindosc.errors import ConfigError, NotSPD, PositivityLost, UnphysicalState

HBAR = 1.0
GOOD = 0.5 * HBAR * np.eye(2)
DRIFT = np.array([[-0.3, 1.0], [-1.0, -0.3]])
PARAMS = ModelParams(m=1.0, omega=1.0, mu=0.0, hbar=HBAR,
                     D_qq=0.4, D_pp=0.4, D_pq=0.0, lam=0.3)

BAD = {
    "minus_identity": -np.eye(2),
    "indefinite": np.diag([1.0, -1.0]),
    "zero": np.zeros((2, 2)),
    "nan_entry": np.array([[1.0, np.nan], [np.nan, 1.0]]),
    "inf_entry": np.array([[np.inf, 0.0], [0.0, 1.0]]),
    "asymmetric": np.array([[1.0, 0.5], [-0.5, 1.0]]),
}


def state(sigma):
    return GaussianState(mean=[0.0, 0.0], sigma=sigma)


ENTRY_POINTS = {
    "area": lambda m: area(m, HBAR),
    "linear_entropy": lambda m: linear_entropy(m, HBAR),
    "initial_rate": lambda m: initial_rate(m, GOOD, 0.3, HBAR),
    "report": lambda m: report(m, DRIFT, GOOD, HBAR),
    "report_stack": lambda m: report(np.array([GOOD, m, GOOD]), DRIFT, GOOD, HBAR),
    "decompose": lambda m: decompose(m, HBAR),
    "decompose_diffusion": lambda m: decompose_diffusion(m, HBAR),
    "wigner_eval": lambda m: wigner_eval(state(m), (0.0, 0.0)),
    "wigner_grid": lambda m: wigner_grid(state(m), QuadratureSpec(n_points=5)),
    "evolve_t0": lambda m: evolve(state(m), PARAMS, 0.0, 0.1),
    "evolve": lambda m: evolve(state(m), PARAMS, 1.0, 0.1),
}


@pytest.mark.parametrize("matrix", BAD.values(), ids=BAD.keys())
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_every_entry_point_rejects_the_same_matrices(entry, matrix):
    entry(GOOD)
    with pytest.raises(NotSPD):
        entry(matrix)


def test_check_spd_takes_only_2x2_matrices_and_stacks():
    check_spd(np.array([GOOD, GOOD, GOOD]))
    for m in (np.diag([1.0, 1.0, -5.0]), np.eye(3), np.ones(2), np.ones((2, 3)),
              np.ones((3, 2, 3)), np.float64(1.0)):
        with pytest.raises(NotSPD, match="not a 2x2 matrix"):
            check_spd(m)


@pytest.mark.parametrize("sigma", [np.diag([1.0, 1.0, -5.0]), np.array([GOOD] * 3)],
                         ids=["3x3", "stack"])
def test_a_state_has_one_2x2_covariance(sigma):
    with pytest.raises(NotSPD, match="not a 2x2 matrix"):
        state(sigma)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("diffusion, drift, lam", [
    ([[np.nan, 0.0], [0.0, 1.0]], DRIFT, 0.3),
    ([[1.0, np.inf], [np.inf, 1.0]], DRIFT, 0.3),
    (np.eye(3), DRIFT, 0.3),
    # initial_rate has no drift argument: its drift is -lam * I.
    (GOOD, [[np.nan, 1.0], [-1.0, -0.3]], None),
    (GOOD, [[-0.3, -np.inf], [-1.0, -0.3]], None),
    (GOOD, -0.3 * np.eye(3), None),
    (GOOD, [[np.nan, 0.0], [0.0, np.nan]], np.nan),
    (GOOD, [[-np.inf, 0.0], [0.0, -np.inf]], np.inf),
], ids=["nan", "inf", "3x3", "nan_drift", "inf_drift", "3x3_drift", "nan_lam",
        "inf_lam"])
def test_rates_reject_a_diffusion_that_is_not_a_finite_2x2_matrix(diffusion, drift,
                                                                  lam):
    if lam is not None:
        with pytest.raises(NotSPD):
            initial_rate(GOOD, diffusion, lam, HBAR)
    with pytest.raises(NotSPD):
        report(GOOD, drift, diffusion, HBAR)


@pytest.mark.filterwarnings("error")
def test_a_singular_diffusion_gives_a_rate():
    # D = 0 (no environment) and a rank-one D are valid diffusions; with
    # D = 0 a pure state's rate is the drift's trace, -2 * lam.
    assert initial_rate(GOOD, np.zeros((2, 2)), 0.3, HBAR) == pytest.approx(-0.6)
    assert np.isfinite(initial_rate(GOOD, np.ones((2, 2)), 0.3, HBAR))


def _decompose(m, hbar):
    """The closed form of (Delta, d, phi) on the matrix itself, unscaled."""
    det = m[0, 0] * m[1, 1] - m[1, 0] * m[0, 1]
    sqrt_det = math.sqrt(det)
    tr = m[0, 0] + m[1, 1]
    lam_max = 0.5 * (tr + math.hypot(m[0, 0] - m[1, 1], 2.0 * m[0, 1]))
    ratio2 = lam_max / sqrt_det
    if ratio2 - 1.0 < 1e-12:
        ratio2, angle = 1.0, 0.0
    else:
        angle = 0.5 * math.atan2(-2.0 * m[0, 1], m[0, 0] - m[1, 1]) % math.pi
    return DiffDecomposition(2.0 * sqrt_det / hbar, math.sqrt(ratio2), angle)


def test_decompose_diffusion_in_range_is_the_unscaled_formula():
    # The power-of-two scaling is exact: on well-conditioned SPD matrices
    # with entries from 1e-16 to 1e16 the result is the closed form's, bit
    # for bit.
    rng = np.random.default_rng(13)
    for _ in range(2000):
        theta = rng.uniform(0.0, math.pi)
        c, s = math.cos(theta), math.sin(theta)
        o = np.array([[c, -s], [s, c]])
        m = o.T @ np.diag(rng.uniform(0.1, 10.0, 2)) @ o
        m = 0.5 * (m + m.T) * 10.0 ** rng.uniform(-16, 16)
        assert decompose_diffusion(m, HBAR) == _decompose(m, HBAR)


@pytest.mark.filterwarnings("error")
def test_decompose_diffusion_past_the_determinant_range():
    # det = 1e400 overflows; Delta = 2 sqrt(det) / hbar does not.
    assert decompose_diffusion(1e200 * np.eye(2), HBAR) == \
        DiffDecomposition(2e200, 1.0, 0.0)


@st.composite
def accepted_covariances(draw):
    """sigma = 2**e R diag(1, 10**-k) R^T: squeezed by up to 330 decades,
    rotated and rescaled."""
    k = draw(st.floats(0.0, 330.0))
    e = draw(st.integers(-1000, 1000))
    theta = draw(st.floats(0.0, math.pi))
    c, s = math.cos(theta), math.sin(theta)
    small = 10.0 ** -k
    with np.errstate(under="ignore"):
        m = np.array([[c * c + s * s * small, c * s * (1.0 - small)],
                      [c * s * (1.0 - small), s * s + c * c * small]])
        return np.ldexp(m, e)


def finite_or_inf(*values):
    for value in values:
        assert not np.isnan(value).any() and (np.asarray(value) > -np.inf).all()


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(accepted_covariances())
@example(np.diag([1e8, 1e-8]))
@example(np.diag([1.0, 1e-320]))
@example(np.diag([1.76e13, 1.76e-3]))  # its first RK4 step fails check_spd
def test_every_accepted_covariance_has_diagnostics(sigma):
    # What GaussianState accepts, the diagnostics take: each comes out
    # finite or inf, with no NotSPD and no warning.  One RK4 step at
    # omega dt = 1e-3 is off by ~3e-16 of the largest eigenvalue, which past
    # ~12 decades of squeezing can exceed the smallest: evolve then stops at
    # that step with PositivityLost, by the same test.
    try:
        state = GaussianState(mean=[0.0, 0.0], sigma=sigma)
    except NotSPD:
        reject()
    rep = report(state.sigma, DRIFT, build_scaled_diffusion(PARAMS), HBAR)
    finite_or_inf(rep.area, rep.lin_entropy, rep.area_rate, rep.entropy_rate)
    try:
        traj = evolve(state, PARAMS, 1e-3, 1e-3)
    except PositivityLost as exc:
        assert exc.time == 1e-3
    else:
        assert len(traj) == 2
        finite_or_inf(traj.sigma, traj.area, traj.lin_entropy, traj.entropy_rate)
    # At the mean, and one standard deviation off it along each axis, where
    # the inverse covariance may pass the float range.
    for point in (state.mean, state.mean + np.sqrt(np.diag(state.sigma))):
        finite_or_inf(wigner_eval(state, point))


@pytest.mark.filterwarnings("error")
def test_a_block_the_stepper_passes_passes_check_spd_row_by_row():
    # Packed rows (x1, x2, S11, S12, S22) about the boundary of positive
    # definiteness, S12**2 = S11 S22 (1 +- 10**-k), over 1200 binades, with
    # some entries not finite.  In each block, the rows before the stepper's
    # first failure pass check_spd with a finite mean, and that row does not.
    rng = np.random.default_rng(29)
    n = 4000
    s11, s22 = np.ldexp(rng.uniform(1.0, 2.0, (2, n)), rng.integers(-600, 600, (2, n)))
    near = 1.0 + rng.choice([-1.0, 1.0], n) * 10.0 ** -rng.uniform(0.0, 17.0, n)
    s12 = rng.choice([-1.0, 1.0], n) * np.sqrt(s11) * np.sqrt(s22) * np.sqrt(near)
    rows = np.column_stack([rng.normal(size=(n, 2)), s11, s12, s22])
    rows[rng.integers(0, n, 40), rng.integers(0, 5, 40)] = rng.choice(
        [np.nan, np.inf, -np.inf], 40)

    def passes(z):
        try:
            check_spd(np.array([[z[2], z[3]], [z[3], z[4]]]))
        except NotSPD:
            return False
        return bool(np.isfinite(z[:2]).all())

    failures = 0
    for block in np.split(rows, n // 4):
        # The stepper holds a block's states as columns, (5, n).
        first = _first_failure(block.T)
        assert all(passes(z) for z in block[:first])
        if first is not None:
            failures += 1
            assert not passes(block[first])
    assert 0 < failures < n // 4


EDGES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "zero": 0.0,
         "negative": -1.0}
#: The edges that a field which must be finite, or positive and finite, takes.
_FINITE, _POSITIVE = ("zero", "negative"), ()
_MODEL = dict(m=1.0, omega=1.0, mu=0.0, hbar=1.0, D_qq=0.4, D_pp=0.4, D_pq=0.0,
              lam=0.3)

#: Each value type's fields: how to build it with one field set, the edges
#: that field takes, and the error for the others.
VALUE_FIELDS = {
    "CovDecomposition.A": (lambda v: CovDecomposition(v, 2.0, 0.3), _FINITE, ConfigError),
    "CovDecomposition.aleph": (lambda v: CovDecomposition(1.0, v, 0.3), _POSITIVE,
                               ConfigError),
    "CovDecomposition.theta": (lambda v: CovDecomposition(1.0, 2.0, v), _FINITE,
                               ConfigError),
    "DiffDecomposition.Delta": (lambda v: DiffDecomposition(v, 2.0, 0.3), _FINITE,
                                ConfigError),
    "DiffDecomposition.d": (lambda v: DiffDecomposition(1.0, v, 0.3), _POSITIVE,
                            ConfigError),
    "DiffDecomposition.phi": (lambda v: DiffDecomposition(1.0, 2.0, v), _FINITE,
                              ConfigError),
    "QuadratureSpec.n_sigma": (lambda v: QuadratureSpec(v, 11), _POSITIVE, ConfigError),
    "QuadratureSpec.n_points": (lambda v: QuadratureSpec(8.0, v), _POSITIVE, ConfigError),
    **{f"ModelParams.{name}": (
        lambda v, name=name: ModelParams(**{**_MODEL, name: v}),
        _POSITIVE if name in ("m", "omega", "hbar") else _FINITE, ConfigError)
       for name in _MODEL},
    "GaussianState.mean": (lambda v: GaussianState(mean=[0.0, v], sigma=GOOD), _FINITE,
                           UnphysicalState),
    "GaussianState.sigma": (lambda v: GaussianState(mean=[0.0, 0.0],
                                                    sigma=np.diag([1.0, v])),
                            _POSITIVE, NotSPD),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edge", EDGES)
@pytest.mark.parametrize("field", VALUE_FIELDS)
def test_each_value_type_checks_its_fields(field, edge):
    build, accepted, error = VALUE_FIELDS[field]
    if edge in accepted:
        build(EDGES[edge])
    else:
        with pytest.raises(error):
            build(EDGES[edge])


#: Every function that takes hbar directly; each checks it where it enters.
HBAR_TAKERS = {
    "area": lambda h: area(GOOD, h),
    "linear_entropy": lambda h: linear_entropy(GOOD, h),
    "initial_rate": lambda h: initial_rate(GOOD, GOOD, 0.3, h),
    "report": lambda h: report(GOOD, DRIFT, GOOD, h),
    "heisenberg_slack": lambda h: heisenberg_slack(GOOD, h),
    "decompose": lambda h: decompose(GOOD, h),
    "decompose_diffusion": lambda h: decompose_diffusion(GOOD, h),
    "compose": lambda h: compose(CovDecomposition(1.0, 2.0, 0.3), h),
    "compose_diffusion": lambda h: compose_diffusion(DiffDecomposition(1.0, 2.0, 0.3), h),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edge", EDGES)
@pytest.mark.parametrize("taker", HBAR_TAKERS)
def test_hbar_that_is_not_positive_and_finite_is_config_error(taker, edge):
    HBAR_TAKERS[taker](HBAR)
    with pytest.raises(ConfigError, match="hbar must be positive and finite"):
        HBAR_TAKERS[taker](EDGES[edge])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("taker", [*HBAR_TAKERS, "ModelParams"])
def test_subnormal_hbar_is_config_error(taker):
    # 1e-320 is positive and finite, but 2 / hbar is not; the smallest
    # normal float is the smallest hbar accepted.
    take = HBAR_TAKERS.get(taker, lambda h: ModelParams(**dict(_MODEL, hbar=h)))
    take(np.finfo(float).tiny)
    with pytest.raises(ConfigError, match="hbar must be positive and finite"):
        take(1e-320)
