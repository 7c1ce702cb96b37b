import math

import numpy as np
import pytest

from pointscatter import amplitudes as amp
from pointscatter import transfer
from pointscatter.errors import ForwardAngleError, PoleError, ValidationError
from pointscatter.kernel import CutoffSpec, Dispersion, green_cutoff_zero
from pointscatter.transfer import Coupling, K_MATRIX, SIGMA_2, SIGMA_3

D1 = Dispersion(1.0)
W = amp.IncidentWave(1.0, math.pi)

C_PRIME_AT_1 = complex(-2.0 / 17.0, -8.0 / 17.0)
F_AT_1 = complex(-0.18773754371832127, 0.04693438592958032)


def random_band_amplitude(rng):
    n = int(rng.integers(0, 4))
    atoms = tuple((float(rng.uniform(-0.9, 0.9)),
                   complex(rng.normal(), rng.normal())) for _ in range(n))
    return amp.GeneralizedAmplitude(atoms, complex(rng.normal(), rng.normal()),
                                    amp.BAND)


class TestCoupling:
    def test_zero_rejected_everywhere(self):
        # 1e-320 is nonzero, but its reciprocal overflows
        for value in (0.0, 1e-320, complex(1e-320, 1e-320)):
            for maker in (Coupling.finite,
                          lambda z: Coupling.bare(z, 10.0),
                          lambda z: Coupling.renormalized(z, 1.0)):
                with pytest.raises(ValidationError):
                    maker(value)

    def test_bare_requires_cutoff(self):
        with pytest.raises(ValidationError):
            Coupling(transfer.BARE, 1.0)

    def test_renormalized_requires_scale(self):
        with pytest.raises(ValidationError):
            Coupling(transfer.RENORMALIZED, 1.0)


class TestKMatrix:
    def test_entries(self):
        assert np.array_equal(K_MATRIX, np.array([[1, 1], [-1, -1]], dtype=complex))

    def test_nilpotent_exactly(self):
        assert np.all(K_MATRIX @ K_MATRIX == 0)

    def test_pauli_decomposition(self):
        assert np.array_equal(K_MATRIX, SIGMA_3 + 1j * SIGMA_2)


class TestEntries:
    def test_auxiliary_m12_turns_source_into_background(self):
        m12, _ = transfer.auxiliary_entries(Coupling.finite(1.0), 10.0, D1)
        out = m12.apply(W.delta_source(amp.FULL_LINE), D1)
        assert out.atoms == ()
        assert abs(out.background - (-0.5j)) < 1e-14  # -i z / 2 at z = 1

    def test_auxiliary_m22_keeps_atom_adds_background(self):
        _, m22 = transfer.auxiliary_entries(Coupling.finite(1.0), 10.0, D1)
        src = W.delta_source(amp.FULL_LINE)
        out = m22.apply(src, D1)
        assert out.atoms == src.atoms
        assert abs(out.background - 0.5j) < 1e-14

    def test_free_limit_is_identity(self):
        m12, m22 = transfer.auxiliary_entries(Coupling.finite(1e-30), 10.0, D1)
        src = W.delta_source(amp.FULL_LINE)
        assert abs(m12.apply(src, D1).background) < 1e-29
        out = m22.apply(src, D1)
        assert out.atoms == src.atoms
        assert abs(out.background) < 1e-29

    def test_fundamental_equals_auxiliary_with_band_domain(self):
        z = Coupling.finite(2.0 - 1.0j)
        f12, f22 = transfer.fundamental_entries(z, D1)
        a12, a22 = transfer.auxiliary_entries(z, 10.0, D1)
        assert f12.rank_one_coefficient == a12.rank_one_coefficient
        assert f22.rank_one_coefficient == a22.rank_one_coefficient
        assert f12.domain == amp.BAND_DOMAIN and f22.domain == amp.BAND_DOMAIN

    def test_fundamental_m22_on_background(self):
        _, m22 = transfer.fundamental_entries(Coupling.finite(1.0), D1)
        out = m22.apply(amp.GeneralizedAmplitude((), 1.0, amp.BAND), D1)
        assert abs(out.background - (1.0 + 0.25j)) < 1e-14  # 1 + i z / 4

    def test_fundamental_requires_finite(self):
        with pytest.raises(ValidationError):
            transfer.fundamental_entries(Coupling.bare(1.0, 10.0), D1)

    def test_projection_sandwich_identity(self, rng):
        # fundamental action == project o auxiliary o project, exactly
        z = Coupling.finite(0.7 + 0.3j)
        f12, f22 = transfer.fundamental_entries(z, D1)
        a12, a22 = transfer.auxiliary_entries(z, 25.0, D1)
        for _ in range(10):
            phi = random_band_amplitude(rng)
            for fund, aux in ((f12, a12), (f22, a22)):
                direct = fund.apply(phi, D1)
                sandwich = amp.project_band(
                    aux.apply(amp.project_band(phi, D1), D1), D1)
                assert direct == sandwich


class TestHamiltonianKernel:
    def test_single_application_rank_one(self):
        kern = transfer.hamiltonian_kernel(Coupling.finite(1.0))
        pair = (amp.GeneralizedAmplitude((), 1.0, amp.BAND),
                amp.zero_amplitude(amp.BAND))
        out_plus, out_minus = kern.apply(pair, D1)
        # (z / 4 pi) * pi = z / 4 on the band
        assert abs(out_plus.background - 0.25) < 1e-15
        assert out_minus.background == -out_plus.background

    def test_nilpotency_on_random_amplitudes(self, rng):
        kern = transfer.hamiltonian_kernel(Coupling.finite(1.3 - 0.4j))
        for _ in range(50):
            pair = (random_band_amplitude(rng), random_band_amplitude(rng))
            assert kern.nilpotency_residual(pair, D1) == 0.0

    def test_bare_coupling_pins_cutoff_domain(self):
        kern = transfer.hamiltonian_kernel(Coupling.bare(1.0, 30.0))
        assert kern.domain == amp.cutoff_line(30.0)

    def test_renormalized_rejected(self):
        with pytest.raises(ValidationError):
            transfer.hamiltonian_kernel(Coupling.renormalized(1.0, 1.0))


class TestSolveFundamental:
    def test_closed_form_constant_at_unit_coupling(self):
        sol = transfer.solve_fundamental(W, Coupling.finite(1.0))
        assert abs(sol.c_prime - C_PRIME_AT_1) < 1e-15

    def test_hand_value_at_two_i(self):
        sol = transfer.solve_fundamental(W, Coupling.finite(2.0j))
        assert abs(sol.c_prime - 2.0) < 1e-14

    def test_weak_coupling_limit(self):
        sol = transfer.solve_fundamental(W, Coupling.finite(1e-10))
        assert abs(sol.c_prime) < 1e-9
        assert sol.b_minus.atoms == W.delta_source(amp.BAND).atoms

    def test_solution_structure(self):
        sol = transfer.solve_fundamental(W, Coupling.finite(1.0))
        assert sol.b_minus.background == sol.c_prime
        assert abs(sol.a_plus.background - sol.c_prime) < 1e-15
        assert sol.a_plus.atoms == ()

    def test_pole_at_four_i(self):
        with pytest.raises(PoleError):
            transfer.solve_fundamental(W, Coupling.finite(4.0j))


class TestScatteringAmplitudes:
    def test_frozen_value_at_unit_coupling(self):
        f = transfer.scattering_amplitude_dfss(W, Coupling.finite(1.0), 0.3)
        assert abs(f - F_AT_1) < 1e-15

    def test_isotropy_exact(self, rng):
        z = Coupling.finite(1.0)
        values = {transfer.scattering_amplitude_dfss(W, z, float(t))
                  for t in rng.uniform(-1.5, 1.5, size=20)}
        assert len(values) == 1

    def test_routes_agree_bitwise(self, rng):
        for _ in range(10):
            zv = complex(rng.normal(), rng.normal())
            f1 = transfer.scattering_amplitude_dfss(W, Coupling.finite(zv), 0.3)
            f2 = transfer.scattering_amplitude_renormalized(
                W, Coupling.renormalized(zv, 1.0))
            assert f1 == f2

    def test_unitarity_circle_for_real_couplings(self):
        target = -math.sqrt(2.0 * math.pi) / 2.0
        for zv in (0.1, 1.0, 10.0, -3.0):
            f = transfer.scattering_amplitude_dfss(W, Coupling.finite(zv), 0.3)
            assert abs((1.0 / f).imag - target) < 1e-12

    def test_strong_coupling_magnitude_limit(self):
        f = transfer.scattering_amplitude_renormalized(
            W, Coupling.renormalized(1e8, 1.0))
        assert abs(abs(f) - math.sqrt(2.0 / math.pi)) < 1e-7

    def test_weak_coupling_vanishes(self):
        f = transfer.scattering_amplitude_dfss(W, Coupling.finite(1e-12), 0.3)
        assert abs(f) < 1e-12

    def test_forward_angle_error(self):
        with pytest.raises(ForwardAngleError):
            transfer.scattering_amplitude_dfss(W, Coupling.finite(1.0), math.pi)

    def test_grazing_angles_rejected(self):
        for theta in (0.5 * math.pi, -0.5 * math.pi):
            with pytest.raises(ValidationError):
                transfer.scattering_amplitude_dfss(W, Coupling.finite(1.0), theta)

    def test_out_of_range_angle_rejected(self):
        with pytest.raises(ValidationError):
            transfer.scattering_amplitude_dfss(W, Coupling.finite(1.0), 5.0)

    def test_pole_error(self):
        with pytest.raises(PoleError):
            transfer.scattering_amplitude_dfss(W, Coupling.finite(4.0j), 0.3)

    def test_renormalized_requires_kind(self):
        with pytest.raises(ValidationError):
            transfer.scattering_amplitude_renormalized(W, Coupling.finite(1.0))


class TestRenormalizationFlow:
    def test_lambda_equal_mu_is_identity(self):
        assert transfer.renormalize_bare(0.7 + 0.2j, 5.0, 5.0) == 0.7 + 0.2j

    @pytest.mark.parametrize("lam", [2.0, 10.0, 100.0])
    def test_flow_round_trip(self, lam):
        z_bare = transfer.flow_bare_coupling(1.0, lam, 1.0)
        assert abs(transfer.renormalize_bare(z_bare, lam, 1.0) - 1.0) < 1e-14

    def test_bare_coupling_asymptotics(self):
        # z_bare -> -2 pi / ln(lam/mu) from below as the cutoff grows
        lam = math.exp(200.0)
        z_bare = transfer.flow_bare_coupling(1.0, lam, 1.0)
        approx = -2.0 * math.pi / math.log(lam)
        assert z_bare.real < 0.0
        assert abs(z_bare / approx - 1.0) < 1.5 * (2.0 * math.pi / math.log(lam))

    def test_bare_amplitude_at_sqrt2_cutoff(self):
        # G_lam(0) = -i/4 there, so the denominator is 1 + i/4 at unit inverse
        f = transfer.bare_amplitude_with_cutoff(W, 1.0, math.sqrt(2.0))
        assert abs(f - F_AT_1) < 1e-14

    def test_fixed_bare_coupling_is_suppressed_with_cutoff(self):
        f10 = abs(transfer.bare_amplitude_with_cutoff(W, 1.0, 10.0))
        f100 = abs(transfer.bare_amplitude_with_cutoff(W, 1.0, 100.0))
        assert f100 < f10

    def test_flow_collapse_is_monotone(self):
        f_ren = transfer.scattering_amplitude_renormalized(
            W, Coupling.renormalized(1.0, 1.0))
        diffs = []
        for lam in (1e2, 1e3, 1e4):
            z_bare = transfer.flow_bare_coupling(1.0, lam, 1.0)
            diffs.append(abs(transfer.bare_amplitude_with_cutoff(W, z_bare, lam) - f_ren))
        assert diffs[0] > diffs[1] > diffs[2]

    def test_green_cutoff_zero_consistency(self):
        # the bare amplitude uses the closed-form G_lam(0)
        lam = 7.0
        g0 = green_cutoff_zero(CutoffSpec(lam), D1)
        f = transfer.bare_amplitude_with_cutoff(W, 2.0, lam)
        expected = (-1.0 / transfer.SQRT_8PI) / (0.5 - g0)
        assert f == expected

    def test_zero_bare_coupling_rejected(self):
        with pytest.raises(ValidationError):
            transfer.renormalize_bare(0.0, 2.0, 1.0)
        with pytest.raises(ValidationError):
            transfer.bare_amplitude_with_cutoff(W, 0.0, 2.0)
