import math
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special

from pointscatter import specfun, verify
from pointscatter.errors import ConvergenceError, DomainError
from pointscatter.verify import oracle_j0_y0

# frozen reference values, computed from the decimal series oracles
J0_AT_1 = 0.7651976865579666
Y0_AT_1 = 0.08825696421567696
Y0_AT_10 = 0.05567116728359939
J0_AT_10 = -0.24593576445134835
J0_ZEROS = (2.404825557695773, 5.520078110286311, 8.653727912911012)
H0_AT_20 = complex(0.16702466434058316, 0.06264059680938383)
H0_AT_100 = complex(0.019985850304223122, -0.07724431336508315)

ORACLE_GRID = [1e-6, 1e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 2.404825557695773,
               3.7, 5.0, 8.0, 10.0, 11.9, 12.0, 12.1, 13.0, 20.0, 50.0, 100.0,
               200.0, 500.0, 1000.0]

# (J0, Y0) as floats, recorded from separate decimal series passes for J0 and
# for Y0, on ORACLE_GRID (which holds J0's first zero, 2.404825557695773) and
# at the first two zeros of Y0
ORACLE_REFERENCE = {
    1e-06: (0.99999999999975, -8.869031481659444),
    0.0001: (0.9999999975, -5.937289069709337),
    0.01: (0.9999750001562495, -3.005455637083646),
    0.1: (0.99750156206604, -1.5342386513503667),
    0.5: (0.9384698072408129, -0.44451873350670656),
    1.0: (0.7651976865579666, 0.08825696421567696),
    2.0: (0.22389077914123567, 0.5103756726497451),
    2.404825557695773: (-6.10876525973673e-17, 0.509924383448479),
    3.7: (-0.39923020337119114, 0.1060743153203541),
    5.0: (-0.1775967713143383, -0.30851762524903376),
    8.0: (0.1716508071375539, 0.22352148938756622),
    10.0: (-0.24593576445134835, 0.055671167283599395),
    11.9: (0.025049441699589645, -0.22983321394337505),
    12.0: (0.047689310796833535, -0.22523731263436145),
    12.1: (0.06966677360680731, -0.2184383805509255),
    13.0: (0.20692610237706782, -0.07820786452787591),
    20.0: (0.16702466434058316, 0.06264059680938383),
    50.0: (0.055812327669251816, -0.09806499547007708),
    100.0: (0.019985850304223122, -0.07724431336508315),
    200.0: (-0.015437439930565091, -0.05426577524981791),
    500.0: (-0.034100556880732, 0.010506708739831373),
    1000.0: (0.024786686152420176, 0.0047159179776228135),
    0.8935769662791675: (0.8101238593535642, -2.3389279284062102e-17),
    3.9576784193148578: (-0.39960203885530415, -4.3331064642935194e-17),
}


class TestBesselJ0:
    def test_value_at_zero(self):
        assert specfun.bessel_j0(0.0) == 1.0

    def test_value_at_one(self):
        assert abs(specfun.bessel_j0(1.0) - J0_AT_1) < 1e-13
        assert abs(specfun.bessel_j0(1.0) - float(oracle_j0_y0(1.0)[0])) < 1e-13

    def test_matches_series_oracle_on_grid(self):
        for x in ORACLE_GRID:
            assert abs(specfun.bessel_j0(x) - float(oracle_j0_y0(x)[0])) <= 1e-14, x

    def test_sign_alternates_across_first_three_zeros(self):
        brackets = [0.5 * (a + b) for a, b in zip((0.0,) + J0_ZEROS, J0_ZEROS + (11.0,))]
        signs = [math.copysign(1.0, specfun.bessel_j0(x)) for x in brackets]
        assert signs == [1.0, -1.0, 1.0, -1.0]

    @pytest.mark.parametrize("bad", [-1.0, -1e-30, math.inf, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            specfun.bessel_j0(bad)


class TestBesselY0:
    def test_value_at_one(self):
        assert abs(specfun.bessel_y0(1.0) - Y0_AT_1) < 1e-13

    def test_value_at_ten(self):
        assert abs(specfun.bessel_y0(10.0) - Y0_AT_10) < 1e-13

    def test_matches_series_oracle_on_grid(self):
        for x in ORACLE_GRID:
            assert abs(specfun.bessel_y0(x) - float(oracle_j0_y0(x)[1])) <= 1e-14, x

    def test_logarithmic_behavior_near_zero(self):
        # Y0(x) - (2/pi)(ln(x/2) + gamma) vanishes at rate O(x^2)
        def residual(x):
            lead = (2.0 / math.pi) * (math.log(0.5 * x) + specfun.EULER_GAMMA)
            return abs(specfun.bessel_y0(x) - lead)

        for x in (1e-2, 1e-3):
            assert residual(x) < x * x * (1.0 + abs(math.log(x)))
            ratio = residual(0.5 * x) / residual(x)
            assert ratio < 0.3  # quadratic decay, log-corrected

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            specfun.bessel_y0(bad)


class TestOracleOnePass:
    def test_reference_covers_grid(self):
        assert set(ORACLE_GRID) < set(ORACLE_REFERENCE)

    @pytest.mark.parametrize("x", sorted(ORACLE_REFERENCE))
    def test_reproduces_recorded_values(self, x):
        j0, y0 = oracle_j0_y0(x)
        assert (float(j0), float(y0)) == ORACLE_REFERENCE[x]


def decimal_series_reference(x, prec):
    """The oracle's series pass and stop rule in Decimal arithmetic at
    ``prec`` digits, rounded at every step: the reference that the oracle's
    integer fixed-point loop is held to."""
    with localcontext() as ctx:
        ctx.prec = prec
        stop = Decimal(10) ** (-(prec - 20))
        q = Decimal(x) * Decimal(x) / 4
        term = Decimal(1)
        j0 = Decimal(1)
        harmonic = Decimal(0)
        total = Decimal(0)
        m = 0
        while True:
            m += 1
            term = term * q / (m * m)
            harmonic += Decimal(1) / m
            contrib = term * harmonic
            j0 += term if m % 2 == 0 else -term
            total += -contrib if m % 2 == 0 else contrib
            if m > 4 and abs(contrib) < stop:
                break
            assert m <= 2000
        log_part = (Decimal(x) / 2).ln(Context(prec=50)) + verify._GAMMA_50
        return j0, (2 / verify._PI_50) * (log_part * j0 + total)


class TestOracleFixedPoint:
    @given(st.floats(min_value=1e-6, max_value=1000.0))
    def test_matches_decimal_reference(self, x):
        prec = verify._oracle_prec(x)
        got = oracle_j0_y0(x)
        ref = decimal_series_reference(x, prec)
        assert tuple(map(float, got)) == tuple(map(float, ref))
        # both sums cancel down from terms of size up to e^x, so the
        # reference's own rounding is relative to e^x, not to the value
        with localcontext() as ctx:
            ctx.prec = prec
            peak = Decimal(x).exp()
            for a, b in zip(got, ref):
                assert abs(a - b) <= Decimal(10) ** (-(prec - 25)) * max(abs(b), peak), x

    @pytest.mark.parametrize("bad", [0.0, -1.0, -1e-300, math.nan, math.inf, -math.inf,
                                     10 ** 400, "2", True, None, 1j])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            oracle_j0_y0(bad)

    @pytest.mark.parametrize("x", [1300.0, 4002.0, 4003.0, 1e6, 1e300])
    def test_guard_is_a_convergence_error(self, x):
        with pytest.raises(ConvergenceError, match="2000 terms"):
            oracle_j0_y0(x)

    def test_accepts_an_int(self):
        assert oracle_j0_y0(2) == oracle_j0_y0(2.0)

    def test_precision_is_not_a_parameter(self):
        # the working precision always follows x; a caller's prec <= 20 once
        # ended the pass after five terms with wrong digits
        with pytest.raises(TypeError):
            oracle_j0_y0(1.0, prec=19)


def decimal_ln_half(x):
    """(Decimal(x) / 2).ln(Context(prec=50)) with x/2 exact: the value the
    oracle's integer ln(x/2) is held to, digits and exponent alike."""
    with localcontext() as ctx:
        ctx.prec = 2000
        return (Decimal(x) / 2).ln(Context(prec=50))


CHECK_10A_POINTS = [1e-6, 1e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 2.404825557695773, 5.0,
                    8.0, 11.9, 12.1, 20.0, 50.0, 100.0]
# subnormal x, x/2 next to 1 (ln within 2^-52 of 0), m at its range's ends
EDGE_POINTS = [5e-324, 3e-320, 2.2250738585072014e-308, math.nextafter(2.0, 0.0),
               math.nextafter(2.0, 3.0), 4.0, math.sqrt(2.0), 2.0 * math.sqrt(2.0), 1e300]


class TestOracleLn:
    @pytest.mark.parametrize("x", CHECK_10A_POINTS + EDGE_POINTS)
    def test_check_and_edge_points(self, x):
        assert str(verify._oracle_ln_half(x)) == str(decimal_ln_half(x))

    @given(st.floats(min_value=1e-6, max_value=4002.0))
    def test_matches_decimal_ln(self, x):
        assert str(verify._oracle_ln_half(x)) == str(decimal_ln_half(x))

    def test_undecided_rounding_goes_to_decimal_ln(self, monkeypatch):
        # at 168 bits most intervals straddle a 50-digit rounding boundary
        monkeypatch.setattr(verify, "_LN_BITS", 168)
        for x in np.geomspace(1e-6, 4002.0, 40):
            assert str(verify._oracle_ln_half(float(x))) == str(decimal_ln_half(float(x)))


class TestHankel:
    def test_definitional_identity_exact(self):
        for x in ORACLE_GRID:
            assert specfun.hankel1_0(x) == complex(specfun.bessel_j0(x),
                                                   specfun.bessel_y0(x))

    @given(st.floats(min_value=1e-6, max_value=100.0))
    def test_definitional_identity_property(self, x):
        assert specfun.hankel1_0(x) == complex(specfun.bessel_j0(x),
                                               specfun.bessel_y0(x))

    def test_value_at_one(self):
        h = specfun.hankel1_0(1.0)
        assert abs(h - complex(J0_AT_1, Y0_AT_1)) < 2e-13

    def test_small_argument_log_divergence(self):
        x = 1e-8
        h = specfun.hankel1_0(x)
        lead = (2.0 / math.pi) * math.log(x)
        assert abs(h.imag / lead - 1.0) < 1e-2
        assert abs(h.real - 1.0) < 1e-6

    def test_large_argument_magnitude_and_phase(self):
        h = specfun.hankel1_0(100.0)
        assert abs(h - H0_AT_100) < 1e-12
        lead_mag = math.sqrt(2.0 / (math.pi * 100.0))
        # leading-order deviation is the 1/(8x) correction, ~6e-6 at x=100
        assert abs(abs(h) / lead_mag - 1.0) < 1e-5
        phase_lead = math.remainder(100.0 - 0.25 * math.pi, 2.0 * math.pi)
        assert abs(math.remainder(math.atan2(h.imag, h.real) - phase_lead,
                                  2.0 * math.pi)) < 1.3e-3

    def test_branch_consistency_at_twenty(self):
        # frozen decimal-oracle value between the small- and large-x regimes
        assert abs(specfun.hankel1_0(20.0) - H0_AT_20) < 1e-13

    def test_zero_argument_is_hard_error(self):
        with pytest.raises(DomainError):
            specfun.hankel1_0(0.0)


class TestSmallXExpansion:
    def test_residual_bounded_by_x_squared(self):
        x = 0.1
        r = abs(specfun.hankel1_0(x) - specfun.hankel1_0_small_x_expansion(x))
        assert r <= x * x

    def test_residual_at_hundredth(self):
        r = abs(specfun.hankel1_0(0.01) - specfun.hankel1_0_small_x_expansion(0.01))
        assert r <= 1e-4

    def test_quadratic_scaling_ratio(self):
        def residual(x):
            return abs(specfun.hankel1_0(x) - specfun.hankel1_0_small_x_expansion(x))

        for hi, lo in ((0.2, 0.1), (0.1, 0.05)):
            ratio = residual(hi) / residual(lo)
            assert abs(ratio / 4.0 - 1.0) <= 0.25

    def test_residual_over_x2_bounded(self):
        # the x^2 coefficient carries a slowly growing log factor; measured
        # sup over this grid is ~1.30
        xs = np.geomspace(1e-3, 0.3, 25)
        bound = 0.0
        for x in xs:
            r = abs(specfun.hankel1_0(float(x))
                    - specfun.hankel1_0_small_x_expansion(float(x)))
            bound = max(bound, r / (x * x))
        assert bound < 2.0

    @pytest.mark.parametrize("bad", [0.0, 0.5, 0.7, -0.1])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            specfun.hankel1_0_small_x_expansion(bad)


SCALAR_FUNCTIONS = [specfun.bessel_j0, specfun.bessel_y0, specfun.hankel1_0,
                    specfun.hankel1_0_small_x_expansion]


class TestArgumentTypes:
    """errors.finite_real's type rule: an int or a float, not a bool."""

    @pytest.mark.parametrize("function", SCALAR_FUNCTIONS)
    @pytest.mark.parametrize("bad", ["2", " 3 ", "0.25", True, False, None, 0.25 + 0j,
                                     [0.25], np.int64(2), Decimal("0.25"),
                                     pytest.param(10 ** 400, id="int-beyond-float")])
    def test_rejected(self, function, bad):
        with pytest.raises(DomainError):
            function(bad)

    @pytest.mark.parametrize("function", SCALAR_FUNCTIONS)
    def test_float_subclass_accepted(self, function):
        assert function(np.float64(0.25)) == function(0.25)

    @pytest.mark.parametrize("function", SCALAR_FUNCTIONS[:3])
    def test_int_accepted(self, function):
        assert function(2) == function(2.0)


class TestArrayVariants:
    def test_match_scalars_exactly(self):
        h_arr = specfun.hankel1_0_array(np.array(ORACLE_GRID))
        for i, x in enumerate(ORACLE_GRID):
            assert h_arr[i] == specfun.hankel1_0(x)

    def test_first_order_matches_scipy_hankel1(self):
        # J1 + i Y1 and scipy's hankel1(1, x) come from different libraries:
        # they agree to 1e-16 near the origin and 2e-14 at x = 1000
        x = np.array(ORACLE_GRID)
        h1 = specfun.hankel1_1_array(x)
        assert np.max(np.abs(h1 - special.hankel1(1, x)) / np.abs(h1)) <= 1e-13

    def test_domain_errors(self):
        for array_fn in (specfun.hankel1_0_array, specfun.hankel1_1_array):
            for bad in ([1.0, -2.0], [1.0, 0.0], [np.nan]):
                with pytest.raises(DomainError):
                    array_fn(np.array(bad))
