import math

import pytest

from pointscatter import amplitudes as amp
from pointscatter import singfree, specfun, transfer
from pointscatter.errors import PoleError, ValidationError
from pointscatter.kernel import Dispersion, regularized_h0_at_zero
from pointscatter.singfree import FamilyParams, FRepresentation
from pointscatter.transfer import Coupling

D1 = Dispersion(1.0)
W = amp.IncidentWave(1.0, math.pi)
Z1 = Coupling.finite(1.0)


class TestFamilyParams:
    def test_sum(self):
        # the amplitude depends on the edge weights only through b- + b+
        amplitudes = {singfree.family_amplitude(W, Z1, FamilyParams(b_plus, b_minus), 10.0)
                      for b_plus, b_minus in ((1.0 + 2.0j, 3.0), (3.0, 1.0 + 2.0j),
                                              (4.0 + 2.0j, 0j))}
        assert len(amplitudes) == 1

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            FamilyParams(math.inf, 0.0)


class TestFRepresentation:
    def test_times_varpi_product_rule(self):
        # huge opposite edge weights too: each atom is annihilated on its own,
        # with no cancellation between b+ and b-
        for b_plus, b_minus in ((5.0, -7.0j), (1e6, -1e6)):
            f = FRepresentation(-0.3, 1.0, b_plus, b_minus, 2.0 + 1.0j)
            b = f.times_varpi(D1)
            weights = {a.location: a.weight for a in b.atoms}
            assert weights[1.0] == 0j  # edge atoms annihilated exactly
            assert weights[-1.0] == 0j
            assert abs(weights[-0.3]
                       - 2.0 * math.pi * math.sqrt(1.0 - 0.09)) < 1e-13
            assert b.background == 2.0 + 1.0j

    def test_plain_integral(self):
        f = FRepresentation(0.0, 1.0, 1.0, 1.0, 0.0)
        v = f.integrate_plain(10.0, D1)
        assert abs(v - 2.0 * math.pi * 3.0) < 1e-13


class TestFamilySolution:
    def test_explicit_small_cutoff(self):
        lam = math.sqrt(2.0)
        h_reg = regularized_h0_at_zero(lam, D1)
        assert abs(h_reg - (1.0 - 2.0j * math.log(math.sqrt(2.0) + 1.0) / math.pi)) < 1e-14
        _, c = singfree.family_solution(W, Z1, FamilyParams(0j, 0j), lam)
        assert abs(c - (-1.0j / (2.0 * (1.0 + 0.25j * h_reg)))) < 1e-14

    def test_dark_parameter_point(self):
        _, c = singfree.family_solution(W, Z1, FamilyParams(-1.0, 0j), 10.0)
        assert c == 0j
        f = singfree.family_amplitude(W, Z1, FamilyParams(-1.0, 0j), 10.0)
        assert f == 0j

    def test_requires_finite_coupling(self):
        with pytest.raises(ValidationError):
            singfree.family_solution(W, Coupling.renormalized(1.0, 1.0),
                                     FamilyParams(0j, 0j), 10.0)


class TestAbsorption:
    @pytest.mark.parametrize("zv", [1.0, 0.5j, 2.0 - 1.0j])
    @pytest.mark.parametrize("lam", [2.0, 10.0, 100.0])
    def test_roundtrip_reproduces_fundamental(self, zv, lam):
        z = Coupling.finite(zv)
        b_sum = singfree.absorption_condition(z, lam, D1)
        f_fam = singfree.family_amplitude(W, z, FamilyParams(b_sum, 0j), lam)
        f_ref = transfer.scattering_amplitude_dfss(W, z)
        assert abs(f_fam - f_ref) < 1e-12

    @pytest.mark.parametrize("lam", [2.0, 10.0, 100.0])
    def test_constant_matches_fundamental(self, lam):
        params = FamilyParams(singfree.absorption_condition(Z1, lam, D1), 0j)
        _, c = singfree.family_solution(W, Z1, params, lam)
        assert abs(c - transfer.solve_fundamental(W, Z1).c_prime) < 1e-12

    def test_amplitude_depends_on_sum_only(self):
        for b in (0.7 + 0.3j, -2.0j, 5.0):
            f1 = singfree.family_amplitude(W, Z1, FamilyParams(b, 0j), 10.0)
            f2 = singfree.family_amplitude(W, Z1, FamilyParams(0j, b), 10.0)
            assert f1 == f2

    def test_b_sum_grows_logarithmically(self):
        b1 = abs(singfree.absorption_condition(Z1, 1e3, D1))
        b2 = abs(singfree.absorption_condition(Z1, 1e6, D1))
        scale = abs(1.0 / (1.0 - 4.0j))
        assert abs(b2 - b1 - (2.0 / math.pi) * math.log(1e3) * scale) < 1e-3

    @pytest.mark.parametrize("zv", [4.0j, complex(-1e-320, 4.0)], ids=["4i", "4i-1e-320"])
    @pytest.mark.parametrize("call", [
        lambda z: singfree.absorption_condition(z, 10.0, D1),
        singfree.renormalized_b_limit,
    ], ids=["absorption_condition", "renormalized_b_limit"])
    def test_pole_at_four_i(self, call, zv):
        # next to 4i the amplitude denominator is too small to invert
        with pytest.raises(PoleError):
            call(Coupling.finite(zv))

    def test_fixed_bare_pathology(self):
        # with b = 0 the amplitude dies off like 1/ln(lam)
        f6 = abs(singfree.family_amplitude(W, Z1, FamilyParams(0j, 0j), 1e6))
        f12 = abs(singfree.family_amplitude(W, Z1, FamilyParams(0j, 0j), 1e12))
        assert f12 < f6
        ratio = (f6 * math.log(2e6)) / (f12 * math.log(2e12))
        assert abs(ratio - 1.0) < 0.15


class TestRenormalizedB:
    def test_zero_maps_to_zero(self):
        assert singfree.renormalized_b(0j, 10.0, D1) == 0j

    def test_doubling_log_halves_value(self):
        s = 1.0 + 2.0j
        b1 = singfree.renormalized_b(s, 100.0, D1)
        b2 = singfree.renormalized_b(s, 100.0 ** 2, D1)
        assert abs(b1 / b2 - 2.0) < 1e-12

    def test_limit_is_z_over_z_minus_4i(self):
        target = singfree.renormalized_b_limit(Z1)
        assert abs(target - 1.0 / (1.0 - 4.0j)) < 1e-16
        samples = []
        for lam in (1e3, 1e6, 1e9):
            b_sum = singfree.absorption_condition(Z1, lam, D1)
            samples.append((1.0 / math.log(lam),
                            singfree.renormalized_b(b_sum, lam, D1)))
        diffs = [abs(b - target) for _, b in samples]
        assert diffs[0] > diffs[1] > diffs[2]
        (t1, b1), (t2, b2) = samples[-2:]
        extrapolated = b2 + (b2 - b1) * t2 / (t1 - t2)
        assert abs(extrapolated - target) < 1e-3

    def test_limit_under_position_scheme(self):
        # same limit when H0(0) is regularized at cutoff 1/r instead
        target = singfree.renormalized_b_limit(Z1)
        samples = []
        for lam in (1e6, 1e9):
            h_pos = singfree.regularized_h0_position_scheme(lam, D1)
            b_sum = (h_pos - 1.0) / (1.0 - 4.0j / Z1.value)
            samples.append((1.0 / math.log(lam),
                            singfree.renormalized_b(b_sum, lam, D1)))
        (t1, b1), (t2, b2) = samples
        extrapolated = b2 + (b2 - b1) * t2 / (t1 - t2)
        assert abs(extrapolated - target) < 1e-3

    def test_scheme_offset_constant(self):
        lam = 1e8
        h_pos = singfree.regularized_h0_position_scheme(lam, D1)
        h_mom = regularized_h0_at_zero(lam, D1)
        assert abs((h_pos - h_mom) - 2j * specfun.EULER_GAMMA / math.pi) < 1e-8

    def test_cutoff_at_or_below_k_rejected(self):
        with pytest.raises(ValidationError):
            singfree.renormalized_b(1.0, 1.0, D1)


class TestEdgeAnnihilation:
    def test_projected_family_matches_fundamental_b_minus(self):
        lam = 10.0
        b_sum = singfree.absorption_condition(Z1, lam, D1)
        f_repr, c = singfree.family_solution(W, Z1, FamilyParams(b_sum, 0j), lam)
        projected = amp.project_band(f_repr.times_varpi(D1), D1)
        sol = transfer.solve_fundamental(W, Z1)
        assert projected.atoms == sol.b_minus.atoms
        assert abs(projected.background - sol.b_minus.background) < 1e-12
