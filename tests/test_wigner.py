import dataclasses
import math

import numpy as np
import pytest

from lindosc import _mat2, wigner
from lindosc import (CovDecomposition, GaussianState, ModelParams,
                     QuadratureSpec, compose, evolve, fp_residual,
                     stationary_covariance, wigner_eval, wigner_grid,
                     wigner_normalization)
from lindosc.errors import ConfigError, NotSPD

HBAR = 1.0


def coherent(mean=(0.0, 0.0)):
    return GaussianState(mean=mean, sigma=0.5 * HBAR * np.eye(2))


def params(**kw):
    base = dict(m=1.0, omega=1.0, mu=0.0, hbar=HBAR,
                D_qq=0.0, D_pp=0.0, D_pq=0.0, lam=0.0)
    base.update(kw)
    return ModelParams(**base)


class TestWignerEval:
    def test_peak_of_coherent_state(self):
        assert wigner_eval(coherent(), (0.0, 0.0)) == pytest.approx(1 / math.pi)

    def test_even_symmetry(self):
        state = GaussianState(mean=[0.4, -0.2],
                              sigma=np.array([[0.8, 0.2], [0.2, 0.7]]))
        v = np.array([0.53, -1.1])
        assert wigner_eval(state, state.mean + v) == \
            wigner_eval(state, state.mean - v)

    def test_far_point_vanishes(self):
        assert wigner_eval(coherent(), (50.0, 0.0)) < 1e-300 or \
            wigner_eval(coherent(), (50.0, 0.0)) == 0.0

    def test_strictly_positive_nearby(self):
        assert wigner_eval(coherent(), (3.0, -2.0)) > 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(NotSPD):
            wigner_eval(GaussianState(mean=[0, 0], sigma=np.diag([1.0, -1.0])),
                        (0.0, 0.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("point", [(math.nan, 0.0), (0.0, math.inf),
                                       [[0.0, 0.0], [1.0, -math.inf]]])
    def test_point_that_is_not_finite_is_config_error(self, point):
        # NaN gave a nan density, inf an invalid-value warning.
        with pytest.raises(ConfigError, match="is not finite"):
            wigner_eval(coherent(), point)


class TestQuadratureSpec:
    @pytest.mark.parametrize("n_points", [2.5, 3.0, "3", True, 1, None])
    def test_n_points_that_is_not_an_integer_of_at_least_2_is_config_error(self, n_points):
        # 2.5 was accepted, and 3.0 failed later in linspace.
        with pytest.raises(ConfigError, match="integer n_points >= 2"):
            QuadratureSpec(8.0, n_points)

    def test_numpy_integer_n_points_accepted(self):
        x1, _, _ = wigner_grid(coherent(), QuadratureSpec(8.0, np.int64(5)))
        assert len(x1) == 5

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", [wigner_grid, wigner_normalization])
    @pytest.mark.parametrize("mean, n_sigma", [((0.0, 0.0), 1e300), ((0.0, 0.0), 1e154),
                                               ((1e300, 0.0), 8.0), ((0.0, -1.7e308), 8.0)])
    def test_box_past_the_float_range_is_config_error(self, call, mean, n_sigma):
        # n_sigma = 1e300 overflowed in a square; about a mean of 1e300 a
        # coordinate's offset is a rounding of the mean, ~1e284.
        with pytest.raises(ConfigError, match="passes the float range"):
            call(coherent(mean), QuadratureSpec(n_sigma, 3))

    @pytest.mark.filterwarnings("error")
    def test_widest_box_accepted(self):
        # The largest half-width: its largest exponent, 16 half**2, is finite.
        n_sigma = wigner._MAX_HALF / math.sqrt(0.5 * HBAR)
        x1, x2, f = wigner_grid(coherent(), QuadratureSpec(n_sigma, 3))
        assert x1[-1] <= wigner._MAX_HALF and f[1, 1] == pytest.approx(1 / math.pi)
        assert f[0, 0] == 0.0


class TestNormalization:
    def test_coherent_state(self):
        n = wigner_normalization(coherent(), QuadratureSpec(8.0, 301))
        assert n == pytest.approx(1.0, abs=1e-8)

    def test_squeezed_state(self):
        sigma = compose(CovDecomposition(A=1.0, aleph=3.0, theta=0.8), HBAR)
        state = GaussianState(mean=[1.0, -2.0], sigma=sigma)
        n = wigner_normalization(state, QuadratureSpec(8.0, 501))
        assert n == pytest.approx(1.0, abs=1e-8)

    def test_small_box_rejected(self):
        with pytest.raises(ConfigError):
            wigner_normalization(coherent(), QuadratureSpec(2.0, 101))


def test_second_moments_from_quadrature():
    sigma = compose(CovDecomposition(A=1.6, aleph=1.8, theta=0.5), HBAR)
    state = GaussianState(mean=[0.7, -0.3], sigma=sigma)
    x1, x2, f = wigner_grid(state, QuadratureSpec(8.0, 401))
    dx1 = (x1 - state.mean[0])[:, None]
    dx2 = (x2 - state.mean[1])[None, :]

    def integrate(values):
        return np.trapezoid(np.trapezoid(values, x2, axis=1), x1)

    m11 = integrate(f * dx1 ** 2)
    m12 = integrate(f * dx1 * dx2)
    m22 = integrate(f * dx2 ** 2)
    assert m11 == pytest.approx(sigma[0, 0], rel=1e-6)
    assert m12 == pytest.approx(sigma[0, 1], rel=1e-6)
    assert m22 == pytest.approx(sigma[1, 1], rel=1e-6)


def damped_params():
    return params(lam=0.6, mu=0.1, D_qq=0.8, D_pp=0.5, D_pq=0.1)


class TestFokkerPlanckResidual:
    def test_stationary_state_has_tiny_residual(self):
        p = damped_params()
        from lindosc import build_drift, build_scaled_diffusion
        sigma = stationary_covariance(build_drift(p), build_scaled_diffusion(p))
        state = GaussianState(mean=[0.0, 0.0], sigma=sigma)
        traj = evolve(state, p, 0.01, 1e-3, sample_every=1)
        point = (0.5, -0.4)
        res = fp_residual(traj, point, 5, 1e-3)
        assert abs(res) <= 1e-6 * wigner_eval(state, point)

    def test_free_model_residual_vanishes(self):
        p = params(omega=1.0)  # no damping, no diffusion: rigid rotation
        state = coherent(mean=(1.0, 0.0))
        traj = evolve(state, p, 0.02, 1e-3, sample_every=1)
        res = fp_residual(traj, (0.8, 0.3), 10, 1e-3)
        assert abs(res) < 1e-7

    def test_second_order_convergence(self):
        p = damped_params()
        sigma0 = compose(CovDecomposition(A=1.5, aleph=1.6, theta=0.4), HBAR)
        state = GaussianState(mean=[0.8, -0.5], sigma=sigma0)
        traj_c = evolve(state, p, 1.0, 2e-3, sample_every=1)
        traj_f = evolve(state, p, 1.0, 1e-3, sample_every=1)
        point = (0.9, 0.7)
        r_c = fp_residual(traj_c, point, 250, 2e-2)   # t = 0.5
        r_f = fp_residual(traj_f, point, 500, 1e-2)
        assert abs(r_c / r_f) == pytest.approx(4.0, rel=0.15)

    def test_boundary_index_rejected(self):
        p = damped_params()
        traj = evolve(coherent(), p, 0.01, 1e-3, sample_every=1)
        with pytest.raises(IndexError):
            fp_residual(traj, (0.0, 0.0), 0, 1e-3)
        with pytest.raises(IndexError):
            fp_residual(traj, (0.0, 0.0), len(traj) - 1, 1e-3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h_x", [0.0, -1e-3, math.nan, math.inf, 1e-320])
    def test_step_that_is_not_positive_and_finite_is_config_error(self, h_x):
        traj = evolve(coherent(), damped_params(), 0.01, 1e-3, sample_every=1)
        with pytest.raises(ConfigError, match="h_x must be positive and finite"):
            fp_residual(traj, (0.0, 0.0), 5, h_x)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h_x", [1e155, 1e200, 1.7e308])
    def test_step_whose_square_passes_the_float_range_is_config_error(self, h_x):
        traj = evolve(coherent(), damped_params(), 0.01, 1e-3, sample_every=1)
        with pytest.raises(ConfigError, match="squared passes the float range"):
            fp_residual(traj, (0.0, 0.0), 5, h_x)
        assert math.isfinite(fp_residual(traj, (0.0, 0.0), 5, wigner._MAX_H_X))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("point", [(math.nan, 0.0), (math.inf, 0.0),
                                       (0.0, -math.inf), np.array([0.1, math.nan])])
    def test_point_that_is_not_finite_is_config_error(self, point, monkeypatch):
        # NaN and inf gave a nan residual; refused as by wigner_eval, before
        # the window is looked up.
        traj = evolve(coherent(), damped_params(), 0.01, 1e-3, sample_every=1)
        monkeypatch.setattr(wigner, "_window", None)
        with pytest.raises(ConfigError, match=r"point \[.*\] is not finite"):
            fp_residual(traj, point, 5, 1e-3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("point", [(0.1, 0.2, 0.3), (0.1,), [[0.1, 0.2]], 0.1])
    def test_point_that_is_not_two_numbers_is_config_error(self, point, monkeypatch):
        traj = evolve(coherent(), damped_params(), 0.01, 1e-3, sample_every=1)
        monkeypatch.setattr(wigner, "_window", None)
        with pytest.raises(ConfigError, match="is not two numbers"):
            fp_residual(traj, point, 5, 1e-3)


# The scalar Wigner layer that the array-valued one replaced, kept as the
# reference: one SPD check and inverse per point, the stencil as 13 calls,
# np.trapezoid for the normalization.
def reference_eval(state, point):
    sigma = np.asarray(state.sigma, dtype=float)
    det = sigma[0, 0] * sigma[1, 1] - sigma[1, 0] * sigma[0, 1]
    inv = np.array([[sigma[1, 1], -sigma[0, 1]], [-sigma[1, 0], sigma[0, 0]]]) / det
    dx = np.asarray(point, dtype=float) - state.mean
    return math.exp(-0.5 * (dx @ inv @ dx)) / math.sqrt((2.0 * math.pi) ** 2 * det)


def reference_fp_residual(trajectory, point, t_index, h_x):
    point = np.asarray(point, dtype=float)
    drift, diffusion = trajectory.drift, trajectory.diffusion
    state = trajectory.state(t_index)
    f_plus = reference_eval(trajectory.state(t_index + 1), point)
    f_minus = reference_eval(trajectory.state(t_index - 1), point)
    dfdt = (f_plus - f_minus) / (2.0 * trajectory.dt_sample)

    e = np.eye(2) * h_x
    f0 = reference_eval(state, point)
    fp = [reference_eval(state, point + e[i]) for i in range(2)]
    fm = [reference_eval(state, point - e[i]) for i in range(2)]
    drift_term = 0.0
    for i in range(2):
        xp, xm = point + e[i], point - e[i]
        for j in range(2):
            drift_term += drift[i, j] * (xp[j] * fp[i] - xm[j] * fm[i]) / (2.0 * h_x)
    diff_term = 0.0
    for i in range(2):
        diff_term += diffusion[i, i] * (fp[i] - 2.0 * f0 + fm[i]) / h_x ** 2
    corners = [reference_eval(state, point + a * e[0] + b * e[1])
               for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    diff_term += 2.0 * diffusion[0, 1] * (
        corners[0] - corners[1] - corners[2] + corners[3]) / (4.0 * h_x ** 2)
    return dfdt + drift_term - diff_term


#: The points of the stacked formula in units of h_x, and the sample each
#: is taken on (0, 1, 2 for t - 1, t, t + 1): the point at t -/+ 1, then the
#: nine-point stencil at t (centre, +e1, +e2, -e1, -e2, ++, +-, -+, --).
STENCIL = np.array([[0, 0], [0, 0], [0, 0], [1, 0], [0, 1], [-1, 0], [0, -1],
                    [1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
SAMPLE = np.array([0, 2] + [1] * 9)


def stacked_fp_residual(trajectory, point, t_index, h_x):
    """``(residual, scale)``: fp_residual as it was computed before its
    numbers became Python floats, its eleven densities in one numpy call over
    the three samples, and the sum of the absolute values of its terms.  In
    range the densities are those of that formula bit for bit: half the
    inverse covariance, then ``np.exp``."""
    window = slice(t_index - 1, t_index + 2)
    sigma, mean = trajectory.sigma[window][SAMPLE], trajectory.mean[window][SAMPLE]
    det = sigma[:, 0, 0] * sigma[:, 1, 1] - sigma[:, 1, 0] * sigma[:, 0, 1]
    h00, h01 = 0.5 * sigma[:, 1, 1] / det, 0.5 * -sigma[:, 0, 1] / det
    h11 = 0.5 * sigma[:, 0, 0] / det
    x = np.asarray(point, dtype=float) + h_x * STENCIL
    dx1, dx2 = (x - mean).T
    f = np.exp((-2.0 * h01 * dx1) * dx2 - h00 * dx1 ** 2 - h11 * dx2 ** 2)
    f /= np.sqrt((2.0 * math.pi) ** 2 * det)
    y, d = trajectory.drift, trajectory.diffusion
    terms = [f[1] / (2.0 * trajectory.dt_sample), -f[0] / (2.0 * trajectory.dt_sample)]
    for i in range(2):
        for j in range(2):
            terms += [y[i, j] * x[3 + i, j] * f[3 + i] / (2.0 * h_x),
                      -y[i, j] * x[5 + i, j] * f[5 + i] / (2.0 * h_x)]
    dfdt = (f[1] - f[0]) / (2.0 * trajectory.dt_sample)
    drift_term = 0.0
    for i in range(2):
        for j in range(2):
            drift_term += y[i, j] * (x[3 + i, j] * f[3 + i] - x[5 + i, j] * f[5 + i]) / (2.0 * h_x)
    diff_term = 0.0
    for i in range(2):
        diff_term += d[i, i] * (f[3 + i] - 2.0 * f[2] + f[5 + i]) / h_x ** 2
        terms += [d[i, i] * f[k] / h_x ** 2 for k in (3 + i, 2, 2, 5 + i)]
    diff_term += 2.0 * d[0, 1] * (f[7] - f[8] - f[9] + f[10]) / (4.0 * h_x ** 2)
    terms += [2.0 * d[0, 1] * f[k] / (4.0 * h_x ** 2) for k in (7, 8, 9, 10)]
    return dfdt + drift_term - diff_term, float(np.sum(np.abs(terms)))


def frozen_fp_residual(trajectory, point, t_index, h_x):
    """fp_residual as it was before it ran one preamble per sample: a closure
    per sample and a generator for the corners, each point's density divided
    by its norm inside the evaluation."""
    def gaussian(inv, shift, norm, dx1, dx2):
        q = -2.0 * inv[0][1] * dx1 * dx2
        q -= inv[0][0] * (dx1 * dx1)
        q -= inv[1][1] * (dx2 * dx2)
        try:
            return math.exp(math.ldexp(q, shift)) / norm
        except OverflowError:
            return (0.0 if q < 0.0 else math.inf) / norm

    def density(k):
        inv, shift, norm = wigner._density(trajectory.sigma[k])
        m1, m2 = trajectory.mean[k].tolist()
        return lambda x: gaussian(inv, shift, norm, x[0] - m1, x[1] - m2)

    before, f, after = (density(k) for k in range(t_index - 1, t_index + 2))
    x = tuple(np.asarray(point, dtype=float).tolist())
    y, d = trajectory.drift.tolist(), trajectory.diffusion.tolist()
    plus = ((x[0] + h_x, x[1]), (x[0], x[1] + h_x))
    minus = ((x[0] - h_x, x[1]), (x[0], x[1] - h_x))
    f_x, f_plus, f_minus = f(x), [f(p) for p in plus], [f(p) for p in minus]
    dfdt = (after(x) - before(x)) / (2.0 * trajectory.dt_sample)
    drift_term = diff_term = 0.0
    for i in range(2):
        for j in range(2):
            drift_term += y[i][j] * (plus[i][j] * f_plus[i]
                                     - minus[i][j] * f_minus[i]) / (2.0 * h_x)
        diff_term += d[i][i] * (f_plus[i] - 2.0 * f_x + f_minus[i]) / h_x ** 2
    pp, pm, mp, mm = (f((x[0] + a, x[1] + b)) for a in (h_x, -h_x) for b in (h_x, -h_x))
    diff_term += 2.0 * d[0][1] * (pp - pm - mp + mm) / (4.0 * h_x ** 2)
    return dfdt + drift_term - diff_term


def same_float(a, b):
    """Whether two floats have the same bits, any NaN matching any NaN."""
    return (a != a and b != b) or np.float64(a).view(np.uint64) == np.float64(b).view(np.uint64)


def reference_grid(state, spec):
    sigma = np.asarray(state.sigma, dtype=float)
    det = sigma[0, 0] * sigma[1, 1] - sigma[1, 0] * sigma[0, 1]
    inv = np.array([[sigma[1, 1], -sigma[0, 1]], [-sigma[1, 0], sigma[0, 0]]]) / det
    tr = sigma[0, 0] + sigma[1, 1]
    half = spec.n_sigma * math.sqrt(
        0.5 * (tr + math.hypot(sigma[0, 0] - sigma[1, 1], 2.0 * sigma[0, 1])))
    x1 = state.mean[0] + np.linspace(-half, half, spec.n_points)
    x2 = state.mean[1] + np.linspace(-half, half, spec.n_points)
    dx1 = x1[:, None] - state.mean[0]
    dx2 = x2[None, :] - state.mean[1]
    quad = (inv[0, 0] * dx1 ** 2
            + 2.0 * inv[0, 1] * dx1 * dx2
            + inv[1, 1] * dx2 ** 2)
    f = np.exp(-0.5 * quad) / math.sqrt((2.0 * math.pi) ** 2 * det)
    return x1, x2, f


def seeded_states(seed, n):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        sigma = compose(CovDecomposition(A=rng.uniform(1.0, 2.0),
                                         aleph=rng.uniform(1.0, 2.5),
                                         theta=rng.uniform(0.0, math.pi)), HBAR)
        yield GaussianState(mean=rng.normal(size=2), sigma=sigma), rng


class TestAgainstScalarReference:
    def test_array_evaluation_is_per_point_evaluation(self):
        for state, rng in seeded_states(11, 5):
            points = state.mean + rng.normal(scale=2.0, size=(64, 2))
            f = wigner_eval(state, points)
            assert f.shape == (64,)
            assert np.array_equal(f, [wigner_eval(state, p) for p in points])
            ref = np.array([reference_eval(state, p) for p in points])
            assert np.all(np.abs(f - ref) <= 1e-13 * ref)

    def test_fp_residual_matches_the_thirteen_call_stencil(self):
        p = damped_params()
        worst = 0.0
        for state, rng in seeded_states(12, 6):
            traj = evolve(state, p, 0.02, 1e-3, sample_every=1)
            sd = math.sqrt(max(np.linalg.eigvalsh(traj.sigma[10])))
            for h_x in (1e-2, 2e-2):
                for u in rng.uniform(-2.0, 2.0, size=(20, 2)):
                    point = traj.mean[10] + u * sd
                    f = reference_eval(traj.state(10), point)
                    err = abs(fp_residual(traj, point, 10, h_x)
                              - reference_fp_residual(traj, point, 10, h_x))
                    worst = max(worst, err / (f / h_x ** 2))
        assert worst <= 1e-12

    def test_fp_residual_is_the_stacked_formula_to_rounding(self):
        # Each density is now math.exp of a Python float, where the stacked
        # formula took np.exp of an array: the two differ in the last bit of
        # some densities, so the residual moves by at most a few ulp of the
        # sum of its terms' absolute values.
        worst = 0.0
        for k, (state, rng) in enumerate(seeded_states(15, 20)):
            p = params(lam=rng.uniform(0.05, 1.0), mu=rng.uniform(-0.3, 0.3),
                       omega=rng.uniform(0.5, 2.0), D_qq=rng.uniform(0.3, 2.0),
                       D_pp=rng.uniform(0.3, 2.0), D_pq=rng.uniform(-0.1, 0.1))
            traj = evolve(state, p, 0.2, 1e-2, sample_every=1)
            for _ in range(20):
                t_index = int(rng.integers(1, len(traj) - 1))
                sd = math.sqrt(max(np.linalg.eigvalsh(traj.sigma[t_index])))
                point = traj.mean[t_index] + rng.uniform(-3.0, 3.0, 2) * sd
                h_x = 10.0 ** rng.uniform(-3.0, -1.0)
                want, scale = stacked_fp_residual(traj, point, t_index, h_x)
                got = fp_residual(traj, point, t_index, h_x)
                worst = max(worst, abs(got - want) / (np.finfo(float).eps * scale))
        assert worst <= 4.0

    @pytest.mark.filterwarnings("error")
    def test_fp_residual_is_the_frozen_copy_bit_for_bit(self):
        # Seeded models and points from the peak out to 40 standard
        # deviations, where every density underflows to 0.
        checked = zeros = 0
        for state, rng in seeded_states(16, 12):
            p = params(lam=rng.uniform(0.05, 1.0), mu=rng.uniform(-0.3, 0.3),
                       omega=rng.uniform(0.5, 2.0), D_qq=rng.uniform(0.3, 2.0),
                       D_pp=rng.uniform(0.3, 2.0), D_pq=rng.uniform(-0.1, 0.1))
            traj = evolve(state, p, 0.2, 1e-2, sample_every=1)
            for reach in (1.0, 3.0, 10.0, 40.0):
                for _ in range(10):
                    t_index = int(rng.integers(1, len(traj) - 1))
                    sd = math.sqrt(max(np.linalg.eigvalsh(traj.sigma[t_index])))
                    point = traj.mean[t_index] + rng.uniform(-reach, reach, 2) * sd
                    h_x = 10.0 ** rng.uniform(-3.0, -1.0)
                    got = fp_residual(traj, point, t_index, h_x)
                    assert same_float(got, frozen_fp_residual(traj, point, t_index, h_x))
                    checked, zeros = checked + 1, zeros + (got == 0.0)
        assert checked == 480 and 0 < zeros < checked

    @pytest.mark.filterwarnings("error")
    def test_fp_residual_past_the_exponent_range_is_the_frozen_copy(self):
        # sigma ~ 1e-200 I, damped without diffusion: the exponent is scaled
        # by 2**shift, shift ~ 660, and at 1e60 from the mean q ~ 1e120
        # passes the float range in math.ldexp, whose OverflowError gives
        # each density 0.
        traj = evolve(GaussianState(mean=[0.0, 0.0], sigma=1e-200 * np.eye(2)),
                      params(omega=1.0, lam=0.5), 0.02, 1e-3, sample_every=1)
        assert wigner._density(traj.sigma[10])[1] > 600
        for point in ((1e60, 0.0), (-3e59, 2e59), (0.0, 0.0), (1e-100, -2e-100)):
            for h_x in (1e-3, 1e-101):
                got = fp_residual(traj, point, 10, h_x)
                assert same_float(got, frozen_fp_residual(traj, point, 10, h_x))
        assert fp_residual(traj, (1e60, 0.0), 10, 1e-3) == 0.0

    def test_normalization_divides_the_per_cell_sum_once(self):
        # The trapezoid sum of the exponential divided by the norm once, not
        # each cell's density: rounding only, within the reference's 1e-14,
        # at covariances from 1e-100 to 1e100.
        rng = np.random.default_rng(17)
        for state, _ in seeded_states(17, 8):
            state = GaussianState(mean=state.mean,
                                  sigma=state.sigma * 10.0 ** rng.uniform(-100.0, 100.0))
            for spec in (QuadratureSpec(8.0, 301), QuadratureSpec(6.0, 501)):
                x1, x2, f = wigner_grid(state, spec)
                per_cell = float(wigner._trapezoid_weights(x1) @ f
                                 @ wigner._trapezoid_weights(x2))
                assert abs(wigner_normalization(state, spec) - per_cell) <= 1e-14

    def test_normalization_matches_trapezoid(self):
        for state, _ in seeded_states(13, 5):
            for spec in (QuadratureSpec(8.0, 301), QuadratureSpec(6.0, 501)):
                x1, x2, f = reference_grid(state, spec)
                ref = np.trapezoid(np.trapezoid(f, x2, axis=1), x1)
                assert abs(wigner_normalization(state, spec) - ref) <= 1e-14

    def test_grid_is_bit_identical(self):
        for state, _ in seeded_states(14, 5):
            spec = QuadratureSpec(8.0, 201)
            for got, want in zip(wigner_grid(state, spec),
                                 reference_grid(state, spec)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("offset", [-1, 1])
    def test_indefinite_neighbour_sample_rejected(self, offset):
        traj = evolve(coherent(), damped_params(), 0.01, 1e-3, sample_every=1)
        sigma = traj.sigma.copy()
        sigma[5 + offset] = np.diag([1.0, -1.0])
        with pytest.raises(NotSPD):
            fp_residual(dataclasses.replace(traj, sigma=sigma), (0.1, 0.2), 5, 1e-3)


@pytest.fixture
def windows(monkeypatch):
    """An empty window memo for one test."""
    memo = {}
    monkeypatch.setattr(wigner, "_WINDOWS", memo)
    return memo


def density_spy(monkeypatch):
    """A list that grows by one on each call of wigner._density."""
    calls, density = [], wigner._density
    monkeypatch.setattr(wigner, "_density", lambda sigma: calls.append(1) or density(sigma))
    return calls


class TestWindowMemo:
    @pytest.mark.filterwarnings("error")
    def test_misses_and_hits_are_the_frozen_copy(self, windows, monkeypatch):
        # Three trajectories in turn miss on every call (three preambles
        # each); two of them alternating, as criterion 8's coarse and fine
        # runs do, hit on every call.
        calls = density_spy(monkeypatch)
        trajs = [evolve(state, damped_params(), 0.05, 1e-3, sample_every=1)
                 for state, _ in seeded_states(31, 3)]
        rng = np.random.default_rng(31)
        for order, builds in (((0, 1, 2) * 4, 3), ((1, 2) * 6, 0)):
            for k in order:
                point = trajs[k].mean[25] + rng.uniform(-3.0, 3.0, 2)
                before = len(calls)
                got = fp_residual(trajs[k], point, 25, 1e-2)
                assert len(calls) - before == builds
                assert same_float(got, frozen_fp_residual(trajs[k], point, 25, 1e-2))

    @pytest.mark.filterwarnings("error")
    def test_written_or_replaced_samples_get_their_own_preambles(self, windows):
        state = GaussianState(mean=[0.3, -0.2],
                              sigma=compose(CovDecomposition(1.5, 1.6, 0.4), HBAR))
        traj = evolve(state, damped_params(), 0.02, 1e-3, sample_every=1)
        point = (0.5, 0.1)
        last = fp_residual(traj, point, 10, 1e-2)
        for samples, k in ((traj.sigma, 11), (traj.mean, 9)):  # one array, then the other
            samples[k] *= 1.25
            got = fp_residual(traj, point, 10, 1e-2)
            assert not same_float(got, last)
            assert same_float(got, frozen_fp_residual(traj, point, 10, 1e-2))
            last = got
        copy = dataclasses.replace(traj, sigma=traj.sigma * 0.5)
        assert same_float(fp_residual(copy, point, 10, 1e-2),
                          frozen_fp_residual(copy, point, 10, 1e-2))

    def test_holds_at_most_two_windows(self, windows, monkeypatch):
        calls = density_spy(monkeypatch)
        traj = evolve(coherent(), damped_params(), 0.02, 1e-3, sample_every=1)
        last = len(traj) - 2
        for t_index in range(1, last + 1):
            fp_residual(traj, (0.1, 0.2), t_index, 1e-2)
            assert len(windows) == min(t_index, 2)
        assert len(calls) == 3 * last
        fp_residual(traj, (0.1, 0.2), last - 1, 1e-2)  # kept: no preamble
        assert len(calls) == 3 * last
        fp_residual(traj, (0.1, 0.2), last - 2, 1e-2)  # dropped: three
        assert len(calls) == 3 * last + 3 and len(windows) == 2

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_indefinite_window_raises_on_every_call_and_is_not_kept(self, windows, offset):
        traj = evolve(coherent(), damped_params(), 0.01, 1e-3, sample_every=1)
        fp_residual(traj, (0.1, 0.2), 4, 1e-3)
        good = fp_residual(traj, (0.1, 0.2), 5, 1e-3)
        kept = list(windows.items())
        sigma = traj.sigma.copy()
        sigma[5 + offset] = np.diag([1.0, -1.0])
        bad = dataclasses.replace(traj, sigma=sigma)
        for _ in range(3):
            with pytest.raises(NotSPD):
                fp_residual(bad, (0.1, 0.2), 5, 1e-3)
            assert list(windows.items()) == kept
        assert same_float(fp_residual(traj, (0.1, 0.2), 5, 1e-3), good)

    def test_criterion_8_builds_six_preambles(self, windows, monkeypatch):
        # Criterion 8's 40 calls, 20 points on a coarse and a fine run at one
        # time, read two windows of three samples.
        calls = density_spy(monkeypatch)
        p = params(mu=0.15, D_qq=0.8, D_pp=0.5, D_pq=0.1, lam=0.6)
        state = GaussianState(mean=[0.9, -0.4],
                              sigma=compose(CovDecomposition(A=1.4, aleph=1.7, theta=0.6), HBAR))
        coarse = evolve(state, p, 1.0, 2e-3, sample_every=1)
        fine = evolve(state, p, 1.0, 1e-3, sample_every=1)
        sd = math.sqrt(max(np.linalg.eigvalsh(coarse.sigma[250])))
        rng = np.random.default_rng(108)
        for _ in range(20):
            point = coarse.mean[250] + rng.uniform(-2, 2, size=2) * sd
            fp_residual(coarse, point, 250, 2e-2)
            fp_residual(fine, point, 500, 1e-2)
        assert len(calls) == 6

    @pytest.mark.filterwarnings("error")
    def test_exponent_past_the_float_range_is_the_frozen_copy(self, windows):
        # Samples 2**-40 I: the inverse is 2 I with shift 38, and at 1e150
        # from the mean the exponent, -2e300, scaled by 2**38 passes the
        # float range in math.ldexp, whose OverflowError gives the density 0.
        traj = evolve(coherent(), damped_params(), 0.02, 1e-3, sample_every=1)
        traj = dataclasses.replace(
            traj, sigma=np.broadcast_to(2.0 ** -40 * np.eye(2), traj.sigma.shape).copy())
        c01, h00, h11, shift, _, m1, _ = wigner._window(traj.sigma[9:12], traj.mean[9:12])[1]
        assert (c01, h00, h11, shift) == (0.0, 2.0, 2.0, 38)
        with pytest.raises(OverflowError):
            math.ldexp(-h00 * ((1e150 - m1) * (1e150 - m1)), shift)
        for point in ((1e150, 0.0), (0.0, -1e150), (-1e150, 1e150)):
            got = fp_residual(traj, point, 10, 1e-3)
            assert got == 0.0 and same_float(got, frozen_fp_residual(traj, point, 10, 1e-3))


class TestScaledDeterminant:
    def test_in_range_density_is_the_plain_formula(self):
        # The determinant is taken on sigma divided by a power of two, and
        # the inverse is scaled by powers of two, which is exact: in range,
        # the inverse scaled back and the norm are bit for bit those of the
        # unscaled formulas, for each matrix.
        rng = np.random.default_rng(21)
        sigma = np.array([state.sigma for state, _ in seeded_states(21, 40)])
        sigma *= 10.0 ** rng.uniform(-100.0, 100.0, 40)[:, None, None]
        det = sigma[:, 0, 0] * sigma[:, 1, 1] - sigma[:, 1, 0] * sigma[:, 0, 1]
        inv = np.stack([[sigma[:, 1, 1], -sigma[:, 0, 1]],
                        [-sigma[:, 1, 0], sigma[:, 0, 0]]]).transpose(2, 0, 1)
        inv /= det[:, None, None]
        norm = np.sqrt((2.0 * math.pi) ** 2 * det)
        for k in range(len(sigma)):
            one_inv, one_shift, one_norm = wigner._density(sigma[k])
            assert np.array_equal(np.ldexp(one_inv, one_shift + 1), inv[k])
            assert one_norm == norm[k]

    @pytest.mark.filterwarnings("error")
    def test_density_past_the_determinant_range(self):
        # det sigma = 1e320 overflows; the density does not.
        state = GaussianState(mean=[0.0, 0.0], sigma=1e160 * np.eye(2))
        f = wigner_eval(state, (0.0, 0.0))
        assert f == pytest.approx(1.0 / (2.0 * math.pi * 1e160), rel=1e-15)
        assert np.array_equal(wigner_eval(state, np.zeros((3, 2))), [f] * 3)

    @pytest.mark.filterwarnings("error")
    def test_spd_check_up_to_the_largest_float(self):
        # The power of two is taken at or below the largest entry, so it is
        # finite however large a finite entry is.
        m = np.diag([1.7e308, 1e308])
        unit, s, det = _mat2.check_spd(m)
        assert s == 2.0 ** 1023 and np.array_equal(np.multiply(unit, s), m)
        assert det == (1.7e308 / s) * (1e308 / s)
