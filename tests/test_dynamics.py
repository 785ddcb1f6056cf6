import math

import numpy as np
import pytest

from lindosc import (CovDecomposition, DiffDecomposition, GaussianState, ModelParams,
                     build_drift, build_scaled_diffusion, compose, compose_diffusion, dynamics,
                     entropy, evolve,
                     heisenberg_slack, rhs_sigma, stationary_covariance)
from lindosc.errors import NotSPD, NotStable, PositivityLost, UnphysicalState

HBAR = 1.0


def iso(a):
    return 0.5 * HBAR * a * np.eye(2)


def params(**kw):
    base = dict(m=1.0, omega=1.0, mu=0.0, hbar=HBAR,
                D_qq=0.0, D_pp=0.0, D_pq=0.0, lam=0.0)
    base.update(kw)
    return ModelParams(**base)


ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


class TestRightHandSides:
    def test_rotation_preserves_isotropic_sigma(self):
        np.testing.assert_allclose(
            rhs_sigma(iso(1.0), ROTATION, np.zeros((2, 2))), np.zeros((2, 2)),
            atol=1e-16)

    def test_uniform_damping_with_diffusion(self):
        lam, delta = 0.7, 1.2
        out = rhs_sigma(iso(1.0), -lam * np.eye(2), iso(delta))
        np.testing.assert_allclose(out, (HBAR * delta - HBAR * lam) * np.eye(2))

    def test_a_stack_is_refused(self):
        # The products are of one matrix; a stack of two would broadcast
        # into a wrong (2, 2, 2) array instead of raising.
        with pytest.raises(ValueError):
            rhs_sigma(np.stack([iso(1.0), iso(2.0)]), ROTATION, np.zeros((2, 2)))

    def test_pure_diffusion(self):
        sigma = np.array([[1.3, 0.4], [0.4, 0.8]])
        d = np.array([[0.2, 0.1], [0.1, 0.5]])
        np.testing.assert_allclose(rhs_sigma(sigma, np.zeros((2, 2)), d), 2 * d)


class TestStepRK4:
    def test_rotation_preserves_determinant_to_fifth_order(self):
        # params() has the drift ROTATION and no diffusion; one step of dt.
        state = GaussianState(mean=[1.0, 0.0],
                              sigma=np.array([[0.9, 0.2], [0.2, 0.6]]))
        det0 = np.linalg.det(state.sigma)
        for dt in (0.1, 0.05):
            out = evolve(state, params(), dt, dt).sigma[-1]
            assert abs(np.linalg.det(out) - det0) < 2.0 * dt ** 5

    def test_matches_closed_form_isotropic_relaxation(self):
        # For mu=0 with isotropic diffusion an isotropic covariance stays
        # isotropic and its area obeys a'(t) = -2*lam*a + 2*Delta.
        lam, delta = 0.8, 1.4
        p = params(lam=lam, D_qq=delta / 2, D_pp=delta / 2)
        state = GaussianState(mean=[0.0, 0.0], sigma=iso(1.0))
        traj = evolve(state, p, 1.0, 1e-3, sample_every=1000)
        a_exact = delta / lam + (1.0 - delta / lam) * math.exp(-2.0 * lam)
        assert traj.area[-1] == pytest.approx(a_exact, abs=1e-8)


class TestEvolve:
    def test_zero_time_single_sample(self):
        state = GaussianState(mean=[0.1, 0.2], sigma=iso(2.0))
        traj = evolve(state, params(), 0.0, 1e-3)
        assert len(traj) == 1 and traj.t[0] == 0.0
        np.testing.assert_array_equal(traj.sigma[0], state.sigma)

    def test_unitary_model_conserves_entropy(self):
        state = GaussianState(mean=[1.0, 0.0],
                              sigma=np.array([[0.9, 0.2], [0.2, 0.6]]))
        traj = evolve(state, params(), 5.0, 1e-3, sample_every=100)
        assert np.max(np.abs(traj.lin_entropy - traj.lin_entropy[0])) < 1e-10

    def test_damped_isotropic_approaches_stationary_area(self):
        lam, delta = 0.9, 1.8
        p = params(lam=lam, D_qq=delta / 2, D_pp=delta / 2)
        state = GaussianState(mean=[1.0, -1.0], sigma=iso(3.0))
        traj = evolve(state, p, 20.0 / lam, 2e-3, sample_every=100)
        assert traj.area[-1] == pytest.approx(delta / lam, abs=1e-7)

    def test_sampling_is_uniform(self):
        traj = evolve(GaussianState(mean=[0, 0], sigma=iso(1.0)),
                      params(), 1.0, 1e-2, sample_every=7)
        assert traj.dt_sample == pytest.approx(7e-2)
        np.testing.assert_allclose(np.diff(traj.t), traj.dt_sample, rtol=1e-12)

    def test_symmetry_preserved(self):
        p = params(lam=0.4, mu=0.2, D_qq=0.6, D_pp=0.9, D_pq=0.2)
        traj = evolve(GaussianState(mean=[1, 1], sigma=iso(2.0)),
                      p, 3.0, 1e-3, sample_every=10)
        assert np.max(np.abs(traj.sigma[:, 0, 1] - traj.sigma[:, 1, 0])) < 1e-12

    @pytest.mark.parametrize("t_final, dt, sample_every",
                             [(1.0, 0.0, 1), (1.0, -1e-3, 1),
                              (-1.0, 1e-3, 1), (1.0, 1e-3, 0),
                              (math.inf, 1e-3, 1), (1.0, 1e-3, 1.5)])
    def test_bad_arguments_raise_value_error(self, t_final, dt, sample_every):
        state = GaussianState(mean=[0.0, 0.0], sigma=iso(1.0))
        with pytest.raises(ValueError):
            evolve(state, params(), t_final, dt, sample_every)

    def test_failure_reports_time(self):
        p = params(lam=-3.0, D_qq=0.0, D_pp=0.0)  # anti-damped, no diffusion
        state = GaussianState(mean=[0, 0],
                              sigma=np.array([[0.5, 0.49], [0.49, 0.5]]))
        with pytest.raises(PositivityLost) as err:
            evolve(state, p, 50.0, 0.5)
        assert err.value.time is not None


def test_determinant_rate_identity():
    # d(det)/dt along the flow equals det * tr(sigma' @ sigma^-1).
    p = params(lam=0.5, mu=0.1, D_qq=0.7, D_pp=0.5, D_pq=0.1)
    traj = evolve(GaussianState(mean=[0.5, 0.0], sigma=iso(1.4)),
                  p, 0.2, 1e-4, sample_every=1)
    dets = traj.sigma[:, 0, 0] * traj.sigma[:, 1, 1] - traj.sigma[:, 0, 1] ** 2
    for i in range(1, len(traj) - 1, 50):
        fd = (dets[i + 1] - dets[i - 1]) / (2 * traj.dt_sample)
        sdot = rhs_sigma(traj.sigma[i], traj.drift, traj.diffusion)
        analytic = dets[i] * np.trace(sdot @ np.linalg.inv(traj.sigma[i]))
        assert fd == pytest.approx(analytic, rel=1e-6)


def test_rk4_order_of_convergence():
    p = params(lam=0.6, mu=0.3, D_qq=0.8, D_pp=0.4, D_pq=-0.1)
    state = GaussianState(mean=[1.0, -0.5], sigma=iso(1.2))

    def final_sigma(dt):
        n = int(round(1.0 / dt))
        return evolve(state, p, 1.0, dt, sample_every=n).sigma[-1]

    ref = final_sigma(1e-3 / 16)
    err_coarse = np.linalg.norm(final_sigma(2e-3) - ref)
    err_fine = np.linalg.norm(final_sigma(1e-3) - ref)
    assert err_coarse / err_fine == pytest.approx(16.0, rel=0.2)


def test_heisenberg_preserved_for_random_valid_models():
    from lindosc import LindbladCouplings, ModelParams
    rng = np.random.default_rng(42)
    for _ in range(30):
        c = LindbladCouplings(
            a1=complex(*rng.normal(size=2)), b1=complex(*rng.normal(size=2)),
            a2=complex(*rng.normal(size=2)), b2=complex(*rng.normal(size=2)))
        p = ModelParams.from_couplings(c, m=1.0, omega=rng.uniform(0.5, 2),
                                       mu=rng.uniform(-0.3, 0.3), hbar=HBAR)
        sigma0 = compose(CovDecomposition(A=1.0, aleph=rng.uniform(1, 3),
                                          theta=rng.uniform(0, np.pi)), HBAR)
        t_final = 10.0 / max(p.lam, p.omega)
        traj = evolve(GaussianState(mean=[0, 0], sigma=sigma0), p,
                      t_final, t_final / 2000, sample_every=10)
        slacks = np.array([heisenberg_slack(s, HBAR) for s in traj.sigma])
        assert slacks.min() >= -1e-9 * HBAR ** 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mean", [[math.nan, 0.0], [0.0, math.inf], [1.0, 2.0, 3.0],
                                  [1.0]], ids=["nan", "inf", "three", "one"])
def test_state_mean_must_be_two_finite_numbers(mean):
    with pytest.raises(UnphysicalState):
        GaussianState(mean=mean, sigma=iso(1.0))


class TestStationaryCovariance:
    def test_isotropic(self):
        lam, delta = 0.5, 1.5
        y = np.array([[-lam, 1.0], [-1.0, -lam]])
        d = iso(delta)
        np.testing.assert_allclose(stationary_covariance(y, d),
                                   iso(delta / lam), rtol=1e-12, atol=1e-14)

    def test_marginal_drift_not_stable(self):
        # Eigenvalues +-i (trace 0 < det), -1 and 0 (trace < 0 = det), and
        # +-i again on a drift that is not normal.
        for drift in (ROTATION, np.diag([-1.0, 0.0]),
                      np.array([[1.0, 2.0], [-1.0, -1.0]])):
            with pytest.raises(NotStable):
                stationary_covariance(drift, iso(1.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("drift, diffusion", [
        (-np.eye(3), iso(1.0)), (-np.eye(2), np.eye(3)), (np.ones((1, 2)), iso(1.0)),
        (-np.eye(2), [[math.nan, 0.0], [0.0, 1.0]]),
        ([[-1.0, math.inf], [0.0, -1.0]], iso(1.0))],
        ids=["3x3_drift", "3x3_diffusion", "1x2_drift", "nan_diffusion", "inf_drift"])
    def test_wrong_shape_is_not_spd(self, drift, diffusion):
        # The message entropy.report gives for the same drift and diffusion.
        with pytest.raises(NotSPD) as expected:
            entropy.report(iso(1.0), drift, diffusion, HBAR)
        with pytest.raises(NotSPD) as got:
            stationary_covariance(drift, diffusion)
        assert str(got.value) == str(expected.value)

    def test_random_hurwitz_residual(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            lam = rng.uniform(0.1, 2)
            mu = rng.uniform(-0.5, 0.5)
            omega = rng.uniform(0.6, 3)
            y = np.array([[-(lam - mu), omega], [-omega, -(lam + mu)]])
            d = np.array([[rng.uniform(0.1, 2), 0.0], [0.0, rng.uniform(0.1, 2)]])
            d[0, 1] = d[1, 0] = rng.uniform(-0.2, 0.2)
            sigma = stationary_covariance(y, d)
            residual = rhs_sigma(sigma, y, d)
            assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(2 * d)


class TestHeisenbergSlack:
    def test_pure_state_equality(self):
        assert heisenberg_slack(iso(1.0), HBAR) == pytest.approx(0.0, abs=1e-16)

    def test_mixed(self):
        assert heisenberg_slack(HBAR * np.eye(2), HBAR) == pytest.approx(0.75 * HBAR ** 2)

    def test_unphysical_is_negative(self):
        assert heisenberg_slack(0.25 * HBAR * np.eye(2), HBAR) == pytest.approx(
            -3.0 / 16.0 * HBAR ** 2)

    def test_beyond_the_float_range_is_inf(self):
        sigma = np.array([[1.25e306, -1.98e305], [-1.98e305, 4.17e305]])
        with np.errstate(all="raise"):
            assert heisenberg_slack(sigma, HBAR) == np.inf


# The hand-unrolled RK4 step that the affine propagator replaced, kept as the
# reference: same scheme, different rounding.
def reference_step(mean, sigma, drift, diffusion, dt):
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


def stack_mul(a, b):
    """Matrix product of broadcast stacks, summed over k = 0, 1, ... of
    ``a[..., :, k] * b[..., k, :]`` in that order: the stepper's summation
    order, written here apart from the package's code."""
    out = a[..., :, :1] * b[..., :1, :]
    for k in range(1, a.shape[-1]):
        out += a[..., :, k:k + 1] * b[..., k:k + 1, :]
    return out


def one_step_map(mean, sigma, drift, diffusion, dt):
    """One step of the affine map z -> z + (z, 1) D_1 on z = (x1, x2, S11,
    S12, S22): the stepper's one-step map, taken one row at a time."""
    z = np.array([[*mean, sigma[0, 0], sigma[0, 1], sigma[1, 1], 1.0]])
    z = z[0, :5] + stack_mul(z, dynamics._propagator(drift, diffusion, dt))[0]
    return z[:2], np.array([[z[2], z[3]], [z[3], z[4]]])


def reference_lost(sigma):
    if not np.isfinite(sigma).all():
        return True
    tr = sigma[0, 0] + sigma[1, 1]
    lam_min = 0.5 * (tr - math.hypot(sigma[0, 0] - sigma[1, 1], 2.0 * sigma[0, 1]))
    return lam_min <= -1e-10 * abs(tr)


def reference_evolve(state, drift, diffusion, n_steps, dt, sample_every,
                     step=reference_step):
    """Sampled (means, sigmas), or the time of the first step that lost
    positive definiteness or finiteness."""
    mean, sigma = state.mean, state.sigma
    means, sigmas = [mean], [sigma]
    # The one-step map is run past the float range; the hand-unrolled
    # reference under tier-1's warnings-as-errors.
    errors = dict(over="ignore", invalid="ignore") if step is one_step_map else {}
    for i in range(n_steps):
        with np.errstate(**errors):
            mean, sigma = step(mean, sigma, drift, diffusion, dt)
        if reference_lost(sigma):
            return (i + 1) * dt
        if (i + 1) % sample_every == 0:
            means.append(mean)
            sigmas.append(sigma)
    return np.array(means), np.array(sigmas)


class TestAgainstReferenceRK4:
    def test_long_run_matches(self):
        # 10^4 steps cross several blocks of the stepper; sampling every 7th
        # step puts the samples at a different offset in each block.
        p = params(lam=0.4, mu=0.2, omega=1.3, D_qq=0.6, D_pp=0.9, D_pq=0.2)
        state = GaussianState(mean=[1.0, -0.5],
                              sigma=np.array([[1.1, 0.3], [0.3, 0.7]]))
        traj = evolve(state, p, 10.0, 1e-3, sample_every=7)
        means, sigmas = reference_evolve(state, traj.drift, traj.diffusion,
                                         10_000, 1e-3, 7)
        assert len(traj) == len(means) == 10_000 // 7 + 1
        assert np.max(np.abs(traj.mean - means)) <= 1e-13 * np.max(np.abs(means))
        assert np.max(np.abs(traj.sigma - sigmas)) <= 1e-13 * np.max(np.abs(sigmas))

    @pytest.mark.parametrize("dt, sigma0, t_final, step, lost", [
        (0.5, [[0.5, 0.49], [0.49, 0.5]], 50.0, reference_step, 1),
        (0.2, [[0.5, 0.49], [0.49, 0.5]], 50.0, reference_step, 5),
        (0.1, [[0.5, 0.49], [0.49, 0.5]], 50.0, reference_step, 62),
        (0.2, [[0.5, 0.0], [0.0, 0.5]], 2000.0, one_step_map, 596),
    ], ids=["0.5", "0.2", "0.1", "overflow"])
    def test_positivity_lost_at_the_same_step(self, dt, sigma0, t_final, step, lost):
        # The model of TestEvolve.test_failure_reports_time.  From the nearly
        # singular state the reference fails at steps 1, 5 and 62.  From
        # 0.5 I the covariance grows by ~e^1.2 a step and passes the float
        # range at step 596, t = 119.2, past the stack of increments, which
        # stops at D_592 (so the failing row is in the second block).  The
        # hand-unrolled stages pass the range two steps before their
        # result does, so the reference there is the one-step map.
        p = params(lam=-3.0, D_qq=0.0, D_pp=0.0)
        state = GaussianState(mean=[0, 0], sigma=np.array(sigma0))
        with pytest.raises(PositivityLost) as err:
            evolve(state, p, t_final, dt)
        t_ref = reference_evolve(state, build_drift(p), np.zeros((2, 2)),
                                 round(t_final / dt), dt, 1, step)
        assert err.value.time == t_ref == lost * dt

    def test_truncated_stack_matches_the_one_step_map(self):
        # The overflow model of test_positivity_lost_at_the_same_step, run
        # to its last finite step: the stack of 595 increments stops before
        # its first that is not finite, and the run steps shorter blocks.
        p = params(lam=-3.0, D_qq=0.0, D_pp=0.0)
        state = GaussianState(mean=[0, 0], sigma=0.5 * np.eye(2))
        traj = evolve(state, p, 119.0, 0.2)
        d = dynamics._increments(
            dynamics._propagator(traj.drift, traj.diffusion, 0.2), 595)
        assert d.shape[:2] == (6, 5) and d.shape[2] < 595 and np.isfinite(d).all()
        means, sigmas = reference_evolve(state, traj.drift, traj.diffusion,
                                         595, 0.2, 1, one_step_map)
        assert len(traj) == 596 and np.isfinite(traj.sigma).all()
        np.testing.assert_array_equal(traj.mean, means)
        err = np.max(np.abs(traj.sigma - sigmas), axis=(1, 2))
        assert np.all(err <= 1e-13 * np.max(np.abs(sigmas), axis=(1, 2)))

    @pytest.mark.parametrize("scale", [1e16, 1e8])
    def test_relaxing_far_keeps_each_row_accurate(self, scale):
        # Damped: the covariance relaxes from scale * I to ~1 and the mean
        # decays by e^-40, both far below the start of any block of 1 000
        # steps.  Each row's error is measured against that row's own size.
        p = params(lam=0.3, D_qq=0.4, D_pp=0.4)
        state = GaussianState(mean=[3.0, -2.0], sigma=scale * np.eye(2))
        traj = evolve(state, p, 100.0, 0.1)
        means, sigmas = reference_evolve(state, traj.drift, traj.diffusion,
                                         1000, 0.1, 1)
        err = np.max(np.abs(traj.mean - means), axis=1)
        assert np.all(err <= 1e-13 * np.max(np.abs(means), axis=1))
        err = np.max(np.abs(traj.sigma - sigmas), axis=(1, 2))
        assert np.all(err <= 1e-13 * np.max(np.abs(sigmas), axis=(1, 2)))

    def test_step_rk4_matches(self):
        # One step of dt; m * omega = 1, so the scaled diffusion is
        # [[0.5, 0.1], [0.1, 0.8]] up to rounding.
        p = params(lam=0.4, mu=-0.1, omega=1.2, m=1 / 1.2,
                   D_qq=0.5, D_pp=0.8, D_pq=0.1)
        state = GaussianState(mean=[0.4, -0.1],
                              sigma=np.array([[1.4, 0.2], [0.2, 0.9]]))
        traj = evolve(state, p, 0.05, 0.05)
        mean, sigma = reference_step(state.mean, state.sigma, traj.drift,
                                     traj.diffusion, 0.05)
        np.testing.assert_allclose(traj.mean[-1], mean, rtol=0, atol=1e-15)
        np.testing.assert_allclose(traj.sigma[-1], sigma, rtol=0, atol=1e-15)


def reference_increments(d1, n):
    """D_1 ... D_m as a stack ``(m, 6, 5)``, the step axis first: the
    stepper's doubling with each product one :func:`stack_mul` call."""
    d = np.empty((n, 6, 5))
    d[0] = d1
    m = 1
    with np.errstate(all="ignore"):
        while m < n:
            k = min(m, n - m)
            dm = d[m - 1]
            np.add(d[:k] + dm, stack_mul(d[:k], dm[:5]), out=d[m:m + k])
            m += k
    finite = np.isfinite(d).all(axis=(1, 2))
    return d if finite.all() else d[:max(1, int(np.argmin(finite)))]


def random_model(rng, sign):
    p = params(lam=sign * rng.uniform(0.05, 2.0), mu=rng.uniform(-0.5, 0.5),
               omega=rng.uniform(0.2, 3.0), D_qq=rng.uniform(0.0, 2.0),
               D_pp=rng.uniform(0.0, 2.0), D_pq=rng.uniform(-0.3, 0.3))
    return build_drift(p), build_scaled_diffusion(p), rng.uniform(1e-3, 0.2)


def increment_cases():
    rng = np.random.default_rng(19)
    for sign, name in ((1.0, "damped"), (-1.0, "anti_damped")):
        for i in range(3):
            yield pytest.param(*random_model(rng, sign), id=f"{name}_{i}")
    # The overflow model of test_positivity_lost_at_the_same_step: its stack
    # stops before its first non-finite increment.
    yield pytest.param(build_drift(params(lam=-3.0)), np.zeros((2, 2)), 0.2,
                       id="truncated")


@pytest.mark.parametrize("drift, diffusion, dt", increment_cases())
def test_step_axis_last_keeps_the_bits(drift, diffusion, dt):
    # The stack (6, 5, m) and a block (5, m) hold the same floats, bit for
    # bit, as the step-axis-first stack and one mul of (z, 1) with it.
    d1 = dynamics._propagator(drift, diffusion, dt)
    ref = reference_increments(d1, dynamics._BLOCK)
    d = dynamics._increments(d1, dynamics._BLOCK)
    assert d.shape == (6, 5, len(ref))
    assert np.array_equal(np.moveaxis(d, -1, 0).view(np.uint64), ref.view(np.uint64))
    z = np.array([0.7, -1.3, 2.1, 0.4, 1.6])
    with np.errstate(all="ignore"):
        ref_block = z + stack_mul(np.append(z, 1.0)[None, :], ref)[:, 0]
    block = np.empty(d.shape[1:])
    dynamics._step(z, d, block)
    assert np.array_equal(block.T.view(np.uint64), ref_block.view(np.uint64))


def test_stacked_diagnostics_equal_report_per_sample():
    p = params(lam=0.5, mu=0.1, D_qq=0.7, D_pp=0.5, D_pq=0.1)
    traj = evolve(GaussianState(mean=[0.5, 0.0], sigma=iso(1.4)),
                  p, 2.0, 1e-3, sample_every=3)
    reports = [entropy.report(s, traj.drift, traj.diffusion, HBAR)
               for s in traj.sigma]
    for field, column in (("area", traj.area), ("lin_entropy", traj.lin_entropy),
                          ("entropy_rate", traj.entropy_rate)):
        per_sample = np.array([getattr(r, field) for r in reports])
        assert np.array_equal(per_sample, column), field


def test_compose_and_rhs_sigma_are_the_fixed_order_formulas():
    # Bit for bit, so on every BLAS kernel: compose and compose_diffusion
    # build (hbar * scale / 2) O^T diag(r^2, r^-2) O, rhs_sigma
    # Y S + S Y^T + 2 D, each product summed in one fixed order.
    rng = np.random.default_rng(21)
    for _ in range(200):
        scale, ratio = rng.uniform(0.5, 5.0), rng.uniform(1.0, 4.0)
        angle = rng.uniform(0.0, math.pi)
        c, s = math.cos(angle), math.sin(angle)
        r = np.float64(ratio)
        o = np.array([[c, -s], [s, c]])
        expected = (HBAR * scale / 2.0) * stack_mul(
            stack_mul(o.T, np.array([[r ** 2, 0.0], [0.0, r ** -2]])), o)
        for got in (compose(CovDecomposition(scale, ratio, angle), HBAR),
                    compose_diffusion(DiffDecomposition(scale, ratio, angle), HBAR)):
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        y, sigma, d = rng.normal(size=(3, 2, 2))
        sigma, d = sigma + sigma.T, d + d.T
        expected = stack_mul(y, sigma) + stack_mul(sigma, y.T) + 2.0 * d
        got = rhs_sigma(sigma, y, d)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
