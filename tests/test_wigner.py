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
        state = GaussianState(mean=[0, 0], sigma=np.diag([1.0, -1.0]))
        with pytest.raises(NotSPD):
            wigner_eval(state, (0.0, 0.0))


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


class TestScaledDeterminant:
    def test_in_range_density_is_the_plain_formula(self):
        # The determinant is taken on sigma divided by a power of two, which
        # is exact: in range, the inverse and the norm are bit for bit those
        # of the unscaled formulas, for a stack and for each matrix.
        rng = np.random.default_rng(21)
        sigma = np.array([state.sigma for state, _ in seeded_states(21, 40)])
        sigma *= 10.0 ** rng.uniform(-100.0, 100.0, 40)[:, None, None]
        det = sigma[:, 0, 0] * sigma[:, 1, 1] - sigma[:, 1, 0] * sigma[:, 0, 1]
        inv = np.stack([[sigma[:, 1, 1], -sigma[:, 0, 1]],
                        [-sigma[:, 1, 0], sigma[:, 0, 0]]]).transpose(2, 0, 1)
        inv /= det[:, None, None]
        norm = np.sqrt((2.0 * math.pi) ** 2 * det)
        got_inv, got_norm = wigner._density(sigma)
        assert np.array_equal(got_inv, inv) and np.array_equal(got_norm, norm)
        for k in range(len(sigma)):
            one_inv, one_norm = wigner._density(sigma[k])
            assert np.array_equal(one_inv, inv[k]) and one_norm == norm[k]

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
        assert s == 2.0 ** 1023 and np.array_equal(unit * s, m)
        assert det == (1.7e308 / s) * (1e308 / s)
