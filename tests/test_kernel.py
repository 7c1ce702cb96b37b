import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from pointscatter import kernel, specfun
from pointscatter.errors import ConvergenceError, QuadratureError, ValidationError
from pointscatter.kernel import CutoffSpec, Dispersion

D1 = Dispersion(1.0)

# -(i/4) H0(1) assembled from the frozen Bessel values
GREEN_AT_1 = complex(0.08825696421567696 / 4.0, -0.7651976865579666 / 4.0)


class TestDispersionAndCutoffTypes:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, True])
    def test_dispersion_validation(self, bad):
        with pytest.raises(ValidationError):
            Dispersion(bad)

    def test_wavenumber_whose_square_underflows_rejected(self):
        with pytest.raises(ValidationError, match="underflows"):
            Dispersion(1e-155)
        assert Dispersion(kernel.MIN_WAVENUMBER).k == kernel.MIN_WAVENUMBER

    def test_cutoff_validation(self):
        with pytest.raises(ValidationError):
            CutoffSpec(-1.0)
        with pytest.raises(ValidationError):
            CutoffSpec(True)
        with pytest.raises(ValidationError):
            CutoffSpec(2.0, "no-such-policy")
        with pytest.raises(ValidationError):
            CutoffSpec(2.0, kernel.FINITE_EPSILON)  # missing epsilon
        with pytest.raises(ValidationError):
            CutoffSpec(2.0, kernel.PV_PLUS_DELTA, epsilon=1e-6)


class TestVarpi:
    def test_center_of_band(self):
        assert kernel.varpi(0.0, D1) == 1.0 + 0j

    def test_branch_point_exactly_zero(self):
        assert kernel.varpi(1.0, D1) == 0j
        assert kernel.varpi(-1.0, D1) == 0j

    def test_evanescent_branch(self):
        w = kernel.varpi(math.sqrt(2.0), D1)
        assert w.real == 0.0
        assert abs(w.imag - 1.0) < 1e-15

    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_square_identity(self, p):
        w = kernel.varpi(p, D1)
        assert abs(w * w + p * p - 1.0) < 1e-12 * max(1.0, p * p)

    @given(st.floats(min_value=0.0, max_value=50.0))
    def test_even(self, p):
        assert kernel.varpi(p, D1) == kernel.varpi(-p, D1)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            kernel.varpi(math.nan, D1)


class TestGreenClosed:
    def test_value_at_unit_radius(self):
        assert abs(kernel.green_closed(1.0, D1) - GREEN_AT_1) < 1e-13

    def test_origin_is_error(self):
        with pytest.raises(ValidationError):
            kernel.green_closed(0.0, D1)

    def test_log_growth_toward_origin(self):
        r = 1e-6
        expected = abs(math.log(r)) / (2.0 * math.pi)
        assert abs(abs(kernel.green_closed(r, D1)) / expected - 1.0) < 0.05

    def test_asymptotic_magnitude(self):
        g = kernel.green_closed(100.0, D1)
        assert abs(abs(g) / (0.25 * math.sqrt(2.0 / (math.pi * 100.0))) - 1.0) < 1e-3


class TestGreenCutoffZero:
    def test_closed_form_at_ten(self):
        g = kernel.green_cutoff_zero(CutoffSpec(10.0), D1)
        assert abs(g.real + math.log(99.0) / (4.0 * math.pi)) < 1e-15
        assert g.imag == -0.25

    def test_vanishing_log_at_sqrt2(self):
        g = kernel.green_cutoff_zero(CutoffSpec(math.sqrt(2.0)), D1)
        assert abs(g.real) < 1e-15
        assert g.imag == -0.25

    def test_large_cutoff_log_form(self):
        g = kernel.green_cutoff_zero(CutoffSpec(100.0), D1)
        approx = complex(-math.log(100.0) / (2.0 * math.pi), -0.25)
        assert abs(g - approx) < 2e-5

    def test_imaginary_part_independent_of_cutoff(self):
        for lam in (2.0, 10.0, 100.0):
            assert kernel.green_cutoff_zero(CutoffSpec(lam), D1).imag == -0.25

    def test_cutoff_below_k_rejected(self):
        with pytest.raises(ValidationError):
            kernel.green_cutoff_zero(CutoffSpec(0.5), D1)

    def test_ratio_whose_square_overflows_rejected(self):
        assert math.isfinite(kernel.green_cutoff_zero(CutoffSpec(1e154), D1).real)
        for lam in (1.35e154, 1e300):
            with pytest.raises(ValidationError):
                kernel.green_cutoff_zero(CutoffSpec(lam), D1)


class TestGreenCutoffQuadrature:
    @pytest.mark.parametrize("lam", [2.0, 10.0, 100.0])
    def test_matches_closed_form_at_origin(self, lam):
        q = kernel.green_cutoff_quadrature(0.0, CutoffSpec(lam), D1)
        assert abs(q.value - kernel.green_cutoff_zero(CutoffSpec(lam), D1)) < 1e-8
        assert q.error_estimate < 1e-6

    def test_approaches_closed_green_at_large_cutoff(self):
        q = kernel.green_cutoff_quadrature(1.0, CutoffSpec(200.0), D1)
        assert abs(q.value - kernel.green_closed(1.0, D1)) < 1e-4

    def test_policies_cross_validate(self):
        pv = kernel.green_cutoff_quadrature(0.0, CutoffSpec(2.0), D1)
        eps = kernel.green_cutoff_quadrature(
            0.0, CutoffSpec(2.0, kernel.FINITE_EPSILON, epsilon=1e-6), D1)
        assert abs(pv.value - eps.value) < 1e-4

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError):
            kernel.green_cutoff_quadrature(-1.0, CutoffSpec(10.0), D1)


class TestRegularizedH0AtZero:
    def test_closed_form_at_ten(self):
        v = kernel.regularized_h0_at_zero(CutoffSpec(10.0), D1)
        assert v.real == 1.0
        assert abs(v.imag + (2.0 / math.pi) * math.acosh(10.0)) < 1e-15
        assert abs(v - complex(1.0, -1.9055448469464207)) < 1e-13

    def test_cosh_half_pi_gives_one_minus_i(self):
        lam = math.cosh(0.5 * math.pi)
        v = kernel.regularized_h0_at_zero(CutoffSpec(lam), D1)
        assert abs(v - (1.0 - 1.0j)) < 1e-14

    def test_against_adaptive_quadrature(self):
        # independent evaluation of (1/pi) int dq / varpi(q) at lam = 10
        lam = 10.0
        band, _ = integrate.quad(lambda q: 1.0, -1.0, 1.0,
                                 weight="alg", wvar=(-0.5, -0.5))
        tail, _ = integrate.quad(lambda q: 1.0 / math.sqrt(q + 1.0), 1.0, lam,
                                 weight="alg", wvar=(-0.5, 0.0))
        oracle = complex(band / math.pi, -2.0 * tail / math.pi)
        v = kernel.regularized_h0_at_zero(CutoffSpec(lam), D1)
        assert abs(v - oracle) < 1e-10

    def test_scheme_difference_vs_closed_hankel(self):
        # pi * H0_reg(1/r) - pi * H0(k r) -> -2 i gamma as r -> 0
        for kr in (1e-4, 1e-5):
            diff = (math.pi * kernel.regularized_h0_at_zero(CutoffSpec(1.0 / kr), D1)
                    - math.pi * specfun.hankel1_0(kr))
            assert abs(diff - complex(0.0, -2.0 * specfun.EULER_GAMMA)) < 1e-6


class TestMomentumIdentity:
    def test_traveling_point(self):
        res = kernel.momentum_identity_check(1.0, 0.0, D1, tail_cutoff=50.0)
        assert res.residual <= 1e-6

    def test_pure_evanescent_point(self):
        res = kernel.momentum_identity_check(0.0, 2.0, D1, tail_cutoff=4e5)
        assert res.residual <= 1e-4
        assert res.error_estimate > 0.0

    def test_mixed_point_kr_five(self):
        res = kernel.momentum_identity_check(3.0, 4.0, D1, tail_cutoff=50.0)
        assert res.residual <= 1e-6

    def test_grid_within_tolerance(self, rng):
        for _ in range(4):
            r = rng.uniform(0.5, 10.0)
            phi = rng.uniform(0.1, 1.4)
            res = kernel.momentum_identity_check(r * math.cos(phi), r * math.sin(phi),
                                                 D1, tail_cutoff=50.0)
            assert res.residual <= 1e-5

    def test_too_close_to_origin(self):
        with pytest.raises(QuadratureError):
            kernel.momentum_identity_check(1e-4, 0.0, D1, tail_cutoff=50.0)

    def test_bad_tail_cutoff(self):
        with pytest.raises(ValidationError):
            kernel.momentum_identity_check(1.0, 0.0, D1, tail_cutoff=1.0)


class TestSchemeMatchingLimit:
    RADII = [0.05 * 0.5 ** j for j in range(8)]

    def test_alpha_two_gives_euler_over_2pi(self):
        lim = kernel.scheme_matching_limit(2.0, D1, self.RADII)
        assert abs(lim - specfun.EULER_GAMMA / (2.0 * math.pi)) < 1e-6

    def test_alpha_cancelling_gamma(self):
        alpha = 2.0 * math.exp(-specfun.EULER_GAMMA)
        lim = kernel.scheme_matching_limit(alpha, D1, self.RADII)
        assert abs(lim) < 1e-6

    def test_alpha_one(self):
        lim = kernel.scheme_matching_limit(1.0, D1, self.RADII)
        target = (specfun.EULER_GAMMA + math.log(0.5)) / (2.0 * math.pi)
        assert abs(lim - target) < 1e-6

    def test_imaginary_part_cancels(self):
        lim = kernel.scheme_matching_limit(2.0, D1, self.RADII)
        assert abs(lim.imag) < 1e-6

    def test_rejects_non_decreasing_radii(self):
        with pytest.raises(ValidationError):
            kernel.scheme_matching_limit(2.0, D1, [0.01, 0.02])

    def test_rejects_large_radii(self):
        with pytest.raises(ValidationError):
            kernel.scheme_matching_limit(2.0, D1, [0.5, 0.25])

    def test_detects_non_contracting_sequence(self):
        with pytest.raises(ConvergenceError):
            kernel.scheme_matching_limit(2.0, D1, [0.05, 0.049999, 1e-5])
