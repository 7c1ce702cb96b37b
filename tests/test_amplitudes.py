import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import integrate

from pointscatter import amplitudes as amp
from pointscatter.errors import (
    OnShellAtomError,
    PointScatterError,
    SupportMismatchError,
    ValidationError,
)
from pointscatter.transfer import TransferEntry
from pointscatter.kernel import Dispersion, varpi

D1 = Dispersion(1.0)

finite_complex = st.complex_numbers(min_magnitude=0.0, max_magnitude=10.0,
                                    allow_nan=False, allow_infinity=False)
band_locations = st.floats(min_value=-0.95, max_value=0.95)


def band_amplitudes():
    atoms = st.lists(st.tuples(band_locations, finite_complex), max_size=4)
    return st.builds(
        lambda ats, bg: amp.GeneralizedAmplitude(tuple(ats), bg, amp.BAND),
        atoms, finite_complex)


class TestConstruction:
    def test_coincident_atoms_merge(self):
        a = amp.GeneralizedAmplitude(((0.5, 1.0), (0.5, 2.0 + 1.0j)), 0j, amp.BAND)
        assert len(a.atoms) == 1
        assert a.atoms[0].weight == 3.0 + 1.0j

    def test_atoms_sorted_by_location(self):
        a = amp.GeneralizedAmplitude(((0.7, 1.0), (-0.2, 1.0), (0.1, 1.0)))
        assert [at.location for at in a.atoms] == [-0.2, 0.1, 0.7]

    def test_zero_weight_parts_are_positive(self):
        # a lone atom keeps the weight a merge would give it: 0j + w
        a = amp.GeneralizedAmplitude(((0.5, complex(-0.0, -0.0)),))
        w = a.atoms[0].weight
        assert (math.copysign(1.0, w.real), math.copysign(1.0, w.imag)) == (1.0, 1.0)

    def test_zero_weight_atoms_are_kept(self):
        a = amp.GeneralizedAmplitude(((1.0, 0j),), 0j, amp.FULL_LINE)
        assert len(a.atoms) == 1

    def test_bad_support_rejected(self):
        with pytest.raises(ValidationError):
            amp.GeneralizedAmplitude((), 0j, "half-line")

    def test_nonfinite_location_rejected(self):
        with pytest.raises(ValidationError):
            amp.GeneralizedAmplitude(((math.inf, 1.0),))

    @pytest.mark.parametrize("build", [
        lambda: amp.GeneralizedAmplitude((), None, amp.BAND),
        lambda: amp.GeneralizedAmplitude((), "x"),
        lambda: amp.GeneralizedAmplitude((), math.nan),
        lambda: amp.GeneralizedAmplitude(((None, 1.0),)),
        lambda: amp.Atom(None, "x"),
        lambda: amp.GeneralizedAmplitude(((0.5, 1e308), (0.5, 1e308))),
    ], ids=["none-background", "str-background", "nan-background", "none-location", "atom",
            "merged-weight-overflow"])
    def test_bad_arguments_rejected(self, build):
        # a typed error naming the argument, not a bare TypeError or ValueError
        with pytest.raises(ValidationError):
            build()


class TestAdd:
    def test_zero_identity(self):
        a = amp.GeneralizedAmplitude(((0.5, 1.0 + 2.0j),), 3.0j, amp.BAND)
        assert amp.add(a, amp.zero_amplitude(amp.BAND)) == a

    def test_same_location_weights_merge(self):
        a = amp.GeneralizedAmplitude(((0.5, 1.0),), 0j, amp.BAND)
        b = amp.GeneralizedAmplitude(((0.5, 2.0),), 0j, amp.BAND)
        assert amp.add(a, b).atoms[0].weight == 3.0 + 0j

    def test_backgrounds_sum(self):
        a = amp.GeneralizedAmplitude((), 1.0, amp.BAND)
        b = amp.GeneralizedAmplitude((), 1.0j, amp.BAND)
        assert amp.add(a, b).background == 1.0 + 1.0j

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatchError):
            amp.add(amp.zero_amplitude(amp.BAND), amp.zero_amplitude(amp.FULL_LINE))


# The algebra's operations as written with the validating constructors alone:
# the reference their unvalidated fast paths are held to, bit for bit.

def validating_add(a, b):
    return amp.GeneralizedAmplitude(a.atoms + b.atoms, a.background + b.background, a.support)


def validating_scale(a, factor):
    factor = complex(factor)
    if factor == 0:
        return amp.GeneralizedAmplitude((), 0j, a.support)
    return amp.GeneralizedAmplitude(
        tuple(amp.Atom(at.location, factor * at.weight) for at in a.atoms),
        factor * a.background, a.support)


def validating_apply(entry, phi, d):
    smeared = entry.rank_one_coefficient * amp.integrate_inverse_varpi(phi, entry.domain, d)
    base = validating_scale(phi, entry.identity_coefficient)
    return validating_add(base, amp.GeneralizedAmplitude((), smeared, phi.support))


def outcome(build):
    """repr of the result, signed zeros included, or the error's type and message."""
    try:
        return repr(build())
    except PointScatterError as exc:
        return f"{type(exc).__name__}: {exc}"


signed_zeros = st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])
any_weights = signed_zeros | st.complex_numbers(max_magnitude=1e308, allow_nan=False,
                                                allow_infinity=False)
factors = signed_zeros | st.complex_numbers(max_magnitude=1e12, allow_nan=False,
                                            allow_infinity=False)
# on-shell, coincident and signed-zero locations among them
locations = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0]) | st.floats(-3.0, 3.0)
supports = st.sampled_from([amp.FULL_LINE, amp.BAND])


def amplitudes_on(support):
    atoms = st.lists(st.tuples(locations, any_weights), max_size=4, unique_by=lambda t: t[0])
    return st.builds(lambda ats, bg: amp.GeneralizedAmplitude(tuple(ats), bg, support),
                     atoms, any_weights)


amplitude_pairs = supports.flatmap(lambda s: st.tuples(amplitudes_on(s), amplitudes_on(s)))


class TestAlgebraMatchesValidatingPath:
    @given(amplitude_pairs)
    def test_add(self, pair):
        a, b = pair
        assert outcome(lambda: amp.add(a, b)) == outcome(lambda: validating_add(a, b))

    @given(supports.flatmap(amplitudes_on), any_weights | st.complex_numbers())
    @example(amp.GeneralizedAmplitude((), 1j, amp.BAND), complex(math.inf, 0.0))
    def test_add_constant(self, a, c):  # the error names c itself when c is not finite
        assert outcome(lambda: amp.add_constant(a, c)) == outcome(
            lambda: validating_add(a, amp.GeneralizedAmplitude((), c, a.support)))

    @given(supports.flatmap(amplitudes_on), factors)
    def test_scale(self, a, factor):
        assert outcome(lambda: amp.scale(a, factor)) == outcome(
            lambda: validating_scale(a, factor))

    @given(supports.flatmap(amplitudes_on), factors, factors,
           st.sampled_from([amp.BAND_DOMAIN, amp.cutoff_line(10.0)]))
    def test_transfer_entry_apply(self, phi, identity, rank_one, domain):
        entry = TransferEntry(identity, rank_one, domain)
        assert outcome(lambda: entry.apply(phi, D1)) == outcome(
            lambda: validating_apply(entry, phi, D1))

    @given(st.floats(0.1, 10.0), st.floats(0.5 * math.pi + 1e-3, 1.5 * math.pi - 1e-3),
           supports)
    def test_delta_source(self, k, theta0, support):
        w = amp.IncidentWave(k, theta0)
        atom = amp.Atom(w.p0, complex(2.0 * math.pi * w.varpi0))
        assert repr(w.delta_source(support)) == repr(
            amp.GeneralizedAmplitude((atom,), 0j, support))

    def test_overflowing_scale_names_the_atom_weight(self):
        a = amp.GeneralizedAmplitude(((0.5, 1e300),), 0j, amp.BAND)
        with pytest.raises(ValidationError, match="atom weight"):
            amp.scale(a, 1e10)

    @pytest.mark.parametrize("build", [
        lambda: amp.zero_amplitude("half-line"),
        lambda: amp.IncidentWave(1.0, math.pi).delta_source("half-line"),
    ], ids=["zero_amplitude", "delta_source"])
    def test_unknown_support_rejected(self, build):
        with pytest.raises(ValidationError, match="unknown support"):
            build()


class TestProjectBand:
    def test_inside_atom_unchanged(self):
        a = amp.GeneralizedAmplitude(((0.5, 1.0),), 0j, amp.FULL_LINE)
        p = amp.project_band(a, D1)
        assert p.support == amp.BAND
        assert p.atoms == a.atoms

    def test_edge_atoms_dropped_background_kept(self):
        a = amp.GeneralizedAmplitude(((1.0, 2.0), (-1.0, 3.0)), 5.0j, amp.FULL_LINE)
        p = amp.project_band(a, D1)
        assert p.atoms == ()
        assert p.background == 5.0j
        assert p.support == amp.BAND

    @given(band_amplitudes())
    def test_idempotent(self, a):
        once = amp.project_band(a, D1)
        assert amp.project_band(once, D1) == once


class TestIntegrateInverseVarpi:
    def test_source_atom_gives_two_pi(self):
        p0 = -0.4
        a = amp.GeneralizedAmplitude(
            ((p0, 2.0 * math.pi * varpi(p0, D1)),), 0j, amp.BAND)
        v = amp.integrate_inverse_varpi(a, amp.BAND_DOMAIN, D1)
        assert abs(v - 2.0 * math.pi) < 1e-14

    def test_band_background_gives_pi_exactly(self):
        a = amp.GeneralizedAmplitude((), 1.0, amp.BAND)
        assert amp.integrate_inverse_varpi(a, amp.BAND_DOMAIN, D1) == complex(math.pi)

    def test_cutoff_line_background(self):
        a = amp.GeneralizedAmplitude((), 1.0, amp.FULL_LINE)
        v = amp.integrate_inverse_varpi(a, amp.cutoff_line(10.0), D1)
        expected = complex(math.pi, -2.0 * math.acosh(10.0))
        assert abs(v - expected) < 1e-13

    def test_band_support_ignores_cutoff_domain(self):
        # a band amplitude's background lives on (-k, k) only
        a = amp.GeneralizedAmplitude((), 1.0, amp.BAND)
        v = amp.integrate_inverse_varpi(a, amp.cutoff_line(10.0), D1)
        assert v == complex(math.pi)

    def test_evanescent_atom_contributes_imaginary(self):
        p = math.sqrt(2.0)
        a = amp.GeneralizedAmplitude(((p, 1.0),), 0j, amp.FULL_LINE)
        v = amp.integrate_inverse_varpi(a, amp.cutoff_line(10.0), D1)
        assert abs(v - 1.0 / varpi(p, D1)) < 1e-15

    def test_band_domain_skips_outside_atoms(self):
        a = amp.GeneralizedAmplitude(((2.0, 1.0), (0.5, 1.0)), 0j, amp.FULL_LINE)
        v = amp.integrate_inverse_varpi(a, amp.BAND_DOMAIN, D1)
        assert abs(v - 1.0 / varpi(0.5, D1)) < 1e-15

    def test_on_shell_atom_is_typed_error(self):
        a = amp.GeneralizedAmplitude(((1.0, 2.0),), 0j, amp.FULL_LINE)
        with pytest.raises(OnShellAtomError) as err:
            amp.integrate_inverse_varpi(a, amp.cutoff_line(10.0), D1)
        assert err.value.location == 1.0

    def test_zero_weight_on_shell_atom_is_fine(self):
        a = amp.GeneralizedAmplitude(((1.0, 0j),), 1.0, amp.BAND)
        assert amp.integrate_inverse_varpi(a, amp.BAND_DOMAIN, D1) == complex(math.pi)

    def test_full_line_domain_rejected(self):
        # the full-line integral diverges; it exists only as a cutoff line
        with pytest.raises(ValidationError):
            amp.IntegrationDomain(amp.FULL_LINE)

    def test_cutoff_must_exceed_k(self):
        a = amp.GeneralizedAmplitude((), 1.0, amp.FULL_LINE)
        with pytest.raises(ValidationError):
            amp.integrate_inverse_varpi(a, amp.cutoff_line(0.5), D1)

    @given(band_amplitudes(), band_amplitudes(), finite_complex, finite_complex)
    def test_linearity(self, a, b, ca, cb):
        lhs = amp.integrate_inverse_varpi(
            amp.add(amp.scale(a, ca), amp.scale(b, cb)), amp.BAND_DOMAIN, D1)
        rhs = (ca * amp.integrate_inverse_varpi(a, amp.BAND_DOMAIN, D1)
               + cb * amp.integrate_inverse_varpi(b, amp.BAND_DOMAIN, D1))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))

    def test_against_brute_force_quadrature(self, rng):
        for _ in range(5):
            n = rng.integers(0, 4)
            atoms = tuple((float(rng.uniform(-0.8, 0.8)),
                           complex(rng.normal(), rng.normal())) for _ in range(n))
            bg = complex(rng.normal(), rng.normal())
            a = amp.GeneralizedAmplitude(atoms, bg, amp.BAND)
            v = amp.integrate_inverse_varpi(a, amp.BAND_DOMAIN, D1)
            # oracle: QAWS quadrature for the background, direct sum for atoms
            band, _ = integrate.quad(lambda q: 1.0, -1.0, 1.0,
                                     weight="alg", wvar=(-0.5, -0.5))
            oracle = bg * band + sum(
                w / math.sqrt((1.0 - p) * (1.0 + p)) for p, w in
                ((at.location, at.weight) for at in a.atoms))
            assert abs(v - oracle) < 1e-10


class TestIncidentWave:
    def test_transverse_momentum(self):
        w = amp.IncidentWave(2.0, math.pi)
        assert abs(w.p0) < 1e-15
        assert abs(w.varpi0 - 2.0) < 1e-15

    def test_oblique_incidence(self):
        w = amp.IncidentWave(1.0, 2.0 * math.pi / 3.0)
        assert abs(w.p0 - math.sin(2.0 * math.pi / 3.0)) < 1e-15
        assert 0.0 < w.varpi0 < 1.0

    def test_delta_source_weight(self):
        w = amp.IncidentWave(1.0, math.pi)
        src = w.delta_source(amp.BAND)
        assert src.atoms[0].location == w.p0
        assert abs(src.atoms[0].weight - 2.0 * math.pi * w.varpi0) < 1e-14

    @pytest.mark.parametrize("theta0", [0.5 * math.pi, 1.5 * math.pi, 0.0, 5.0])
    def test_grazing_and_left_incidence_rejected(self, theta0):
        with pytest.raises(ValidationError):
            amp.IncidentWave(1.0, theta0)

    def test_bad_wavenumber(self):
        with pytest.raises(ValidationError):
            amp.IncidentWave(0.0, math.pi)
        with pytest.raises(ValidationError):
            amp.IncidentWave(True, math.pi)
