import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindosc import (LindbladCouplings, ModelParams, build_drift,
                     build_scaled_diffusion, validate)
from lindosc.cli import _check_config
from lindosc.errors import ConfigError


def params(**kw):
    base = dict(m=1.0, omega=1.0, mu=0.0, hbar=1.0,
                D_qq=0.5, D_pp=0.5, D_pq=0.0, lam=0.0)
    base.update(kw)
    return ModelParams(**base)


def derive_coefficients(couplings, hbar):
    """(D_qq, D_pp, D_pq, lam) of ModelParams.from_couplings."""
    p = ModelParams.from_couplings(couplings, m=1.0, omega=1.0, mu=0.0, hbar=hbar)
    return p.D_qq, p.D_pp, p.D_pq, p.lam


class TestDeriveCoefficients:
    def test_momentum_position_pair(self):
        c = LindbladCouplings(a1=1.0, b1=-1j)
        assert derive_coefficients(c, 1.0) == pytest.approx((0.5, 0.5, 0.0, 1.0))

    def test_zero_couplings(self):
        c = LindbladCouplings(a1=0, b1=0)
        assert derive_coefficients(c, 1.0) == (0.0, 0.0, 0.0, 0.0)

    def test_two_pairs_hbar_two(self):
        c = LindbladCouplings(a1=0, b1=1.0, a2=1.0, b2=0)
        assert derive_coefficients(c, 2.0) == pytest.approx((1.0, 1.0, 0.0, 0.0))


complex_coeff = st.builds(
    complex,
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
)


@settings(max_examples=1000, deadline=None)
@given(a1=complex_coeff, b1=complex_coeff, a2=complex_coeff, b2=complex_coeff)
def test_derived_coefficients_always_satisfy_positivity(a1, b1, a2, b2):
    d_qq, d_pp, d_pq, lam = derive_coefficients(
        LindbladCouplings(a1=a1, b1=b1, a2=a2, b2=b2), 1.0)
    slack = d_pp * d_qq - d_pq ** 2 - lam ** 2 / 4
    assert slack >= -1e-12 * max(1.0, d_pp * d_qq)


class TestValidate:
    def test_pass_with_unit_slack(self):
        rep = validate(params(D_qq=1.0, D_pp=1.0))
        assert rep.passed and rep.slack == pytest.approx(1.0)

    def test_equality_case_passes(self):
        rep = validate(params(lam=1.0))
        assert rep.passed and rep.slack == pytest.approx(0.0, abs=1e-15)

    def test_violation_reports_negative_slack(self):
        rep = validate(params(D_qq=0.1, D_pp=0.1, lam=1.0))
        assert not rep.passed
        assert rep.slack == pytest.approx(-0.24)

    @pytest.mark.parametrize("kw", [{"D_pq": 1e200}, {"lam": 1e200},
                                    {"lam": 1.0, "hbar": 1e200}])
    def test_squares_past_the_float_range_fail(self, kw):
        rep = validate(params(**kw))
        assert not rep.passed and rep.slack == -np.inf

    def test_negative_friction_is_warning_not_failure(self):
        rep = validate(params(D_qq=2.0, D_pp=2.0, lam=-1.0))
        assert rep.passed and rep.anti_damped and not rep.hurwitz


class TestBuildDrift:
    def test_pure_rotation(self):
        np.testing.assert_array_equal(
            build_drift(params()), [[0.0, 1.0], [-1.0, 0.0]])

    def test_damped(self):
        np.testing.assert_array_equal(
            build_drift(params(lam=1.0, omega=2.0)), [[-1.0, 2.0], [-2.0, -1.0]])

    def test_with_mixing(self):
        np.testing.assert_array_equal(
            build_drift(params(lam=1.0, mu=1.0)), [[0.0, 1.0], [-1.0, -2.0]])

    def test_trace_is_minus_two_lambda(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = params(lam=rng.normal(), mu=rng.normal(),
                       omega=rng.uniform(0.1, 5))
            scale = abs(p.lam) + abs(p.mu)
            assert abs(np.trace(build_drift(p)) + 2.0 * p.lam) <= 4e-16 * scale


class TestBuildScaledDiffusion:
    def test_identity_scaling(self):
        np.testing.assert_allclose(
            build_scaled_diffusion(params()), np.diag([0.5, 0.5]))

    def test_anisotropic_scaling(self):
        p = params(m=2.0, omega=3.0, D_qq=1.0, D_pp=6.0, D_pq=0.2)
        np.testing.assert_allclose(
            build_scaled_diffusion(p), [[6.0, 0.2], [0.2, 1.0]])

    def test_zero(self):
        p = params(D_qq=0.0, D_pp=0.0, D_pq=0.0)
        np.testing.assert_array_equal(build_scaled_diffusion(p), np.zeros((2, 2)))

    def test_determinant_invariant_under_scaling(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            d_qq, d_pp = rng.uniform(0, 4, 2)
            d_pq = rng.uniform(-1, 1)
            p = params(m=rng.uniform(0.1, 5), omega=rng.uniform(0.1, 5),
                       D_qq=d_qq, D_pp=d_pp, D_pq=d_pq)
            mat = build_scaled_diffusion(p)
            expected = d_pp * d_qq - d_pq ** 2
            assert np.linalg.det(mat) == pytest.approx(expected, rel=1e-12, abs=1e-15)


class TestConstruction:
    @pytest.mark.parametrize("field", ["m", "omega", "hbar"])
    def test_nonpositive_constants_rejected(self, field):
        with pytest.raises(ConfigError):
            params(**{field: 0.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["m", "omega", "hbar", "mu", "D_qq", "D_pp",
                                       "D_pq", "lam"])
    def test_non_finite_constants_rejected(self, field, value):
        with pytest.raises(ConfigError):
            params(**{field: value})

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mu, lam", [(1e308, -1e308), (1e308, 1e308), (-1e308, 1e308)])
    def test_drift_past_the_float_range_rejected(self, mu, lam):
        # Each constant is finite, but lam - mu or lam + mu is not, and
        # build_drift had an inf entry.
        with pytest.raises(ConfigError, match=r"lam [-+] mu must be finite"):
            params(mu=mu, lam=lam)
        assert np.isfinite(build_drift(params(mu=mu, lam=0.0))).all()

    def test_from_couplings_matches_derive(self):
        c = LindbladCouplings(a1=1.0, b1=-1j)
        p = ModelParams.from_couplings(c, m=2.0, omega=0.5, mu=0.1, hbar=1.0)
        assert (p.D_qq, p.D_pp, p.D_pq, p.lam) == pytest.approx((0.5, 0.5, 0.0, 1.0))


class TestModelDocument:
    # The model table of a config document, read by the CLI's config check.
    def doc(self, diffusion):
        return {"m": 1.0, "omega": 1.0, "mu": 0.0, "hbar": 1.0,
                "lambda": 0.3, "diffusion": diffusion}

    def test_mixed_forms_rejected(self):
        with pytest.raises(ConfigError):
            _check_config({"model": self.doc({"D_qq": 0.5, "Delta": 1.0})})

    @pytest.mark.parametrize("diffusion, hbar", [
        ({"D_qq": True, "D_pp": 0.5, "D_pq": 0.0}, 1.0),  # a bool
        ({"D_qq": 0.5, "D_pp": 0.5, "D_pq": 0.0}, "1.0"),  # a numeric string
        ({"Delta": 1.0, "d": 0.0, "phi": 0.0}, 1.0)])  # d ** -2 divides by 0
    def test_non_number_or_zero_anisotropy_rejected(self, diffusion, hbar):
        with pytest.raises(ConfigError):
            _check_config({"model": {**self.doc(diffusion), "hbar": hbar}})

    @pytest.mark.parametrize("override", [
        {"diffusion": {"Delta": 1.0, "d": 1e200, "phi": 0.0}},  # d ** 2 overflows
        {"lambda": 10 ** 400}])  # no float holds it
    def test_past_the_float_range_rejected(self, override):
        doc = {**self.doc({"D_qq": 0.5, "D_pp": 0.5, "D_pq": 0.0}), **override}
        with pytest.raises(ConfigError):
            _check_config({"model": doc})

    def test_missing_field_rejected(self):
        doc = self.doc({"D_qq": 0.5, "D_pp": 0.5, "D_pq": 0.0})
        del doc["omega"]
        with pytest.raises(ConfigError):
            _check_config({"model": doc})
