"""Transfer-matrix treatment of the point scatterer, both routes.

In the dynamical formulation of stationary scattering (the ``dfss`` suffix
below) the transfer matrix plays the role of an evolution operator along the
scattering axis.  The delta potential's effective Hamiltonian factors through
the nilpotent matrix K = [[1, 1], [-1, -1]], so the Dyson series truncates
after one term and every transfer-matrix entry is a rank-one perturbation of
the identity.  The fundamental entries integrate over the traveling band only
and stay finite at any coupling; the auxiliary entries integrate over the
full line, which is representable here only at a finite cutoff -- there is
deliberately no "infinite" evaluation path, because that integral diverges.

The standard route (bare coupling + cutoff + renormalization) lives here too,
so the two treatments can be compared number by number.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .amplitudes import (
    BAND,
    BAND_DOMAIN,
    GeneralizedAmplitude,
    IncidentWave,
    IntegrationDomain,
    add,
    cutoff_line,
    integrate_inverse_varpi,
    scale,
)
from .errors import (ForwardAngleError, PoleError, PointScatterError, ValidationError,
                     finite_complex, finite_real, require_cutoff_above_k)
from .kernel import FOUR_PI, CutoffSpec, Dispersion, green_cutoff_zero

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_8PI = math.sqrt(8.0 * math.pi)

FINITE = "finite"
BARE = "bare"
RENORMALIZED = "renormalized"


@dataclass(frozen=True)
class Coupling:
    """Coupling constant in one of three interpretations.

    finite        -- the physical coupling of the singularity-free route;
    bare          -- cutoff-dependent, meaningful only together with lam;
    renormalized  -- scheme/scale-dependent, carries the momentum scale mu.
    """

    kind: str
    value: complex
    lam: float | None = None
    mu: float | None = None

    def __post_init__(self):
        if self.kind not in (FINITE, BARE, RENORMALIZED):
            raise ValidationError(f"unknown coupling kind {self.kind!r}")
        value = finite_complex("coupling", self.value)
        if value == 0:
            raise ValidationError("coupling must be nonzero (its inverse must exist)")
        if not cmath.isfinite(1.0 / value):
            raise ValidationError(f"coupling {value!r} has no finite inverse")
        object.__setattr__(self, "value", value)
        if self.kind == BARE:
            object.__setattr__(self, "lam", finite_real("cutoff", self.lam, above=0.0))
        elif self.kind == RENORMALIZED:
            object.__setattr__(self, "mu", finite_real("scale mu", self.mu, above=0.0))

    @classmethod
    def finite(cls, z: complex) -> "Coupling":
        return cls(FINITE, z)

    @classmethod
    def bare(cls, z: complex, lam: float) -> "Coupling":
        return cls(BARE, z, lam=lam)

    @classmethod
    def renormalized(cls, z: complex, mu: float) -> "Coupling":
        return cls(RENORMALIZED, z, mu=mu)


K_MATRIX = np.array([[1.0, 1.0], [-1.0, -1.0]], dtype=complex)
"""The fixed nilpotent matrix K = sigma_3 + i sigma_2 = [[1, 1], [-1, -1]]."""
K_MATRIX.flags.writeable = False


def _amplitude_pole_denominator(z: complex) -> complex:
    """z^{-1} + i/4; vanishing marks the excluded coupling z = 4i."""
    den = 1.0 / z + 0.25j
    if den == 0:
        raise PoleError(f"coupling {z!r} sits on the amplitude pole z = 4i")
    return den


def _amplitude(den: complex, weight: complex = 1.0) -> complex:
    """f = -(1/sqrt(8 pi)) weight / den, evaluated left to right: the one
    amplitude formula behind both routes and the solution family."""
    return (-1.0 / SQRT_8PI) * weight / den


def _closed_form_amplitude(z: complex) -> complex:
    return _amplitude(_amplitude_pole_denominator(z))


@dataclass(frozen=True)
class TransferEntry:
    """Rank-one perturbation of the identity acting on a coefficient function:

        phi -> identity_coefficient * phi
               + rank_one_coefficient * (integral of phi/varpi over domain) * 1
    """

    identity_coefficient: complex
    rank_one_coefficient: complex
    domain: IntegrationDomain

    def apply(self, phi: GeneralizedAmplitude, d: Dispersion) -> GeneralizedAmplitude:
        smeared = self.rank_one_coefficient * integrate_inverse_varpi(phi, self.domain, d)
        base = scale(phi, self.identity_coefficient)
        return add(base, GeneralizedAmplitude((), smeared, phi.support))


@dataclass(frozen=True)
class DeltaHamiltonianKernel:
    """x-integrated action of the delta-potential Hamiltonian (1/2) v varpi^-1 K.

    The potential smear is rank one -- (z/(2 pi)) times the plain integral --
    and K mixes the two components into (s, -s) form, so applying the kernel
    twice feeds it an amplitude pair summing to zero: the kernel is nilpotent
    as an exact algebraic fact, not to a tolerance.
    """

    coupling_value: complex
    domain: IntegrationDomain

    def apply(self, pair, d: Dispersion):
        xi_plus, xi_minus = pair
        total = add(xi_plus, xi_minus)
        c = (self.coupling_value / FOUR_PI) * integrate_inverse_varpi(total, self.domain, d)
        support = xi_plus.support
        return (GeneralizedAmplitude((), c, support),
                GeneralizedAmplitude((), -c, support))

    def nilpotency_residual(self, pair, d: Dispersion) -> float:
        """Magnitude of the kernel applied twice; exactly zero for any input."""
        out_plus, out_minus = self.apply(self.apply(pair, d), d)
        return max(_magnitude(out_plus), _magnitude(out_minus))


def _magnitude(a: GeneralizedAmplitude) -> float:
    m = abs(a.background)
    for atom in a.atoms:
        m = max(m, abs(atom.weight))
    return m


def hamiltonian_kernel(z: Coupling, domain: IntegrationDomain | None = None) -> DeltaHamiltonianKernel:
    """Factored delta-potential Hamiltonian for a finite or bare coupling.

    A bare coupling pins the smear integral to its own cutoff line; a finite
    coupling defaults to the band (the projected action used by the
    fundamental route).
    """
    if z.kind == RENORMALIZED:
        raise ValidationError("the Hamiltonian kernel takes a finite or bare coupling")
    if domain is None:
        domain = cutoff_line(z.lam) if z.kind == BARE else BAND_DOMAIN
    return DeltaHamiltonianKernel(z.value, domain)


def auxiliary_entries(z: Coupling, lam: float, d: Dispersion):
    """Nontrivial entries of the auxiliary transfer matrix at cutoff lam.

    M12 = -(i z / 4 pi) * full-line smear, M22 = identity + (i z / 4 pi) *
    full-line smear; the full line is represented at the finite cutoff only.
    """
    dom = cutoff_line(lam)
    require_cutoff_above_k(dom.lam, d.k)
    coeff = 1j * z.value / FOUR_PI
    return (TransferEntry(0j, -coeff, dom), TransferEntry(1.0 + 0j, coeff, dom))


def fundamental_entries(z: Coupling, d: Dispersion):
    """Nontrivial entries of the fundamental transfer matrix (band smear).

    Identical in form to the auxiliary entries with the integration domain
    replaced by the traveling band: the projection sandwich is what makes
    the fundamental route blind to the evanescent divergence.
    """
    if z.kind != FINITE:
        raise ValidationError("the fundamental transfer matrix takes a finite coupling")
    coeff = 1j * z.value / FOUR_PI
    return (TransferEntry(0j, -coeff, BAND_DOMAIN), TransferEntry(1.0 + 0j, coeff, BAND_DOMAIN))


def _residual_scale(z: complex, c: complex) -> float:
    """max(1, |c|, S) with S = |z| |c| / (4 pi): the scale of rounding in the
    residual of a smear with coefficient i z / (4 pi) whose background
    integrates to pi c.

    The smear cancels terms of size ~S down to the solution's constant; at
    strong coupling S grows like |z| while that constant stays near 2, so a
    bound relative to the constant alone fails on rounding.
    """
    return max(1.0, abs(c), abs(z / FOUR_PI) * abs(c))


@dataclass(frozen=True)
class FundamentalSolution:
    b_minus: GeneralizedAmplitude
    a_plus: GeneralizedAmplitude
    c_prime: complex


def solve_fundamental(w: IncidentWave, z: Coupling) -> FundamentalSolution:
    """Solve M22 B- = 2 pi varpi(p0) delta_{p0} by the atom + constant ansatz.

    The closed-form constant is c' = -i / (2 (z^{-1} + i/4)); the returned
    B- is the source atom plus c' background, A+ the constant c'.  The
    residual of M22 B- against the source is verified to 1e-12 max(1, |c'|, S)
    before returning, with S from ``_residual_scale(z, c')``.
    """
    if z.kind != FINITE:
        raise ValidationError("solve_fundamental takes a finite coupling")
    d = w.dispersion()
    den = _amplitude_pole_denominator(z.value)
    c_prime = -0.5j / den

    source = w.delta_source(BAND)
    b_minus = add(source, GeneralizedAmplitude((), c_prime, BAND))
    m12, m22 = fundamental_entries(z, d)
    a_plus = m12.apply(b_minus, d)

    residual = add(m22.apply(b_minus, d), scale(source, -1.0))
    # written so that a NaN residual fails the check
    if not _magnitude(residual) <= 1e-12 * _residual_scale(z.value, c_prime):
        raise PointScatterError(
            f"internal solve inconsistency: residual {_magnitude(residual):.3e}")
    return FundamentalSolution(b_minus, a_plus, c_prime)


def _validate_scattering_angle(theta: float, theta0: float) -> float:
    """``theta`` as a float if it is an admissible scattering angle."""
    theta = finite_real("scattering angle", theta)
    if not (-0.5 * math.pi < theta < 1.5 * math.pi):
        raise ValidationError(
            f"scattering angle must lie in (-pi/2, pi/2) u (pi/2, 3pi/2), got {theta!r}")
    if theta == 0.5 * math.pi or theta == -0.5 * math.pi or theta == 1.5 * math.pi:
        raise ValidationError(
            f"grazing angle {theta!r} excluded (varpi vanishes there)")
    if theta == theta0:
        raise ForwardAngleError(
            f"theta = theta0 = {theta!r}: the forward direction carries the "
            "unscattered delta beam -2 pi delta(theta - theta0), reported "
            "symbolically only")
    return theta


def scattering_amplitude_dfss(w: IncidentWave, z: Coupling) -> complex:
    """Scattering amplitude from the fundamental transfer matrix.

    Isotropic by construction: f = -(1/sqrt(8 pi)) / (z^{-1} + i/4) at every
    scattering angle, so it takes none (``fields.cross_section`` tabulates it
    over checked angles).  Both extraction paths (transmission-side A+ and
    reflection-side B- background, the delta beam removed symbolically) are
    evaluated and must agree to 1e-14 max(1, |c'|, S) before the value is
    returned, with S from ``_residual_scale(z, c')``.  The guard bounds
    rounding in the smear that yields A+; it does not check the
    transmission-side value against the closed form, which it returns.
    """
    if z.kind != FINITE:
        raise ValidationError("the singularity-free amplitude takes a finite coupling")
    sol = solve_fundamental(w, z)
    f_transmission = -1j * sol.a_plus.background / SQRT_2PI
    f_reflection = -1j * sol.b_minus.background / SQRT_2PI
    f = _closed_form_amplitude(z.value)
    tol = 1e-14 * _residual_scale(z.value, sol.c_prime)
    if not (abs(f_transmission - f_reflection) <= tol and abs(f_reflection - f) <= tol):
        raise PointScatterError("extraction paths for the amplitude disagree")
    return f


def scattering_amplitude_renormalized(w: IncidentWave, z_tilde: Coupling) -> complex:
    """Scattering amplitude of the standard renormalized route.

    Same closed form as the singularity-free amplitude with the renormalized
    coupling in place of the finite one; with equal numeric couplings the two
    functions return bit-identical values.
    """
    if z_tilde.kind != RENORMALIZED:
        raise ValidationError("expected a renormalized coupling")
    return _closed_form_amplitude(z_tilde.value)


def renormalize_bare(z_bare: complex, lam: float, mu: float) -> complex:
    """Renormalized coupling (z_bare^{-1} + ln(lam/mu)/(2 pi))^{-1}."""
    z_bare = finite_complex("bare coupling", z_bare)
    if z_bare == 0:
        raise ValidationError("bare coupling must be nonzero")
    lam, mu = finite_real("cutoff", lam, above=0.0), finite_real("scale mu", mu, above=0.0)
    log_term = math.log(lam / mu) / (2.0 * math.pi)
    if log_term == 0.0:
        return z_bare  # lam = mu is an exact fixed point of the map
    den = 1.0 / z_bare + log_term
    if den == 0:
        raise PoleError("renormalization map denominator vanished")
    return 1.0 / den


def flow_bare_coupling(z_tilde: complex, lam: float, mu: float) -> complex:
    """Bare coupling that renormalizes to z_tilde at (lam, mu): the inverse map."""
    z_tilde = finite_complex("renormalized coupling", z_tilde)
    if z_tilde == 0:
        raise ValidationError("renormalized coupling must be nonzero")
    lam, mu = finite_real("cutoff", lam, above=0.0), finite_real("scale mu", mu, above=0.0)
    log_term = math.log(lam / mu) / (2.0 * math.pi)
    if log_term == 0.0:
        return z_tilde
    den = 1.0 / z_tilde - log_term
    if den == 0:
        raise PoleError("bare coupling diverges at this cutoff (flow pole)")
    return 1.0 / den


def bare_amplitude_with_cutoff(w: IncidentWave, z_bare: complex, lam: float) -> complex:
    """Amplitude of the standard route before renormalization, at finite cutoff.

    f = -(1/sqrt(8 pi)) / (z_bare^{-1} - G_lam(0)).  At fixed bare coupling
    this decays logarithmically with the cutoff; along the renormalization
    flow it stabilizes onto the renormalized amplitude.
    """
    z_bare = finite_complex("bare coupling", z_bare)
    if z_bare == 0:
        raise ValidationError("bare coupling must be nonzero")
    d = w.dispersion()
    g0 = green_cutoff_zero(CutoffSpec(lam), d)
    den = 1.0 / z_bare - g0
    if den == 0:
        raise PoleError("bare coupling inverse equals G_lam(0): amplitude pole")
    return _amplitude(den)
