"""Two-parameter solution family and the singularity-absorption mechanism.

The integral equation for the left-going coefficient function has, besides
the textbook solution, a family indexed by two complex weights b+ and b- of
Dirac atoms parked exactly on the on-shell edge p = +-k.  Written as
B-(p) = varpi(p) F(p), the edge atoms are annihilated by the product rule
varpi(+-k) delta(p -+ k) = 0 and never reach the traveling band -- yet their
sum b+ + b- can absorb the regularized divergence H0(0) so that the finite
coupling stays physical.  This module implements that family, the absorption
condition, and the renormalization of b+ + b- that stays finite in the
infinite-cutoff limit.

The divergent H0(0) is always represented by the sharp-momentum-cutoff value
from ``kernel``; the position-space regulator (cutoff = 1/r) differs from it
by the constant 2 i gamma / pi (``regularized_h0_position_scheme``), so
limits taken in either scheme can be compared without a silent O(1) offset.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .amplitudes import Atom, GeneralizedAmplitude, FULL_LINE, IncidentWave
from .errors import (PoleError, PointScatterError, ValidationError, finite_complex,
                     require_cutoff_above_k)
from .kernel import FOUR_PI, TWO_PI, Dispersion, regularized_h0_at_zero, varpi
from .specfun import hankel1_0
from .transfer import Coupling, FINITE, _amplitude, _amplitude_pole_denominator, _residual_scale


@dataclass(frozen=True)
class FamilyParams:
    """Free complex weights of the on-shell edge atoms at p = +k and p = -k."""

    b_plus: complex
    b_minus: complex

    def __post_init__(self):
        for name in ("b_plus", "b_minus"):
            object.__setattr__(self, name, finite_complex(name, getattr(self, name)))


@dataclass(frozen=True)
class FRepresentation:
    """The function F with B- = varpi * F: incident atom of weight 2 pi at p0,
    edge atoms of weight 2 pi b+- at +-k, and a c/varpi(p) background."""

    p0: float
    k: float
    b_plus: complex
    b_minus: complex
    background_over_varpi: complex

    def times_varpi(self, d: Dispersion) -> GeneralizedAmplitude:
        """B- = varpi * F as a generalized amplitude.

        The product rule acts per atom: varpi(p0) rescales the incident
        weight, varpi(+-k) = 0 exactly annihilates the edge atoms (their
        weights become exactly zero, kept in place as witnesses), and the
        c/varpi background turns into the constant background c.
        """
        atoms = (
            Atom(self.p0, TWO_PI * varpi(self.p0, d)),
            Atom(self.k, TWO_PI * self.b_plus * varpi(self.k, d)),
            Atom(-self.k, TWO_PI * self.b_minus * varpi(-self.k, d)),
        )
        return GeneralizedAmplitude(atoms, self.background_over_varpi, FULL_LINE)

    def integrate_plain(self, lam: float, d: Dispersion) -> complex:
        """Plain integral of F over the cutoff line: atom weights integrate as
        themselves, the 1/varpi background picks up pi * H0_reg(lam)."""
        h_reg = regularized_h0_at_zero(lam, d)
        return (TWO_PI * (1.0 + self.b_plus + self.b_minus)
                + self.background_over_varpi * math.pi * h_reg)


def _family_denominator(z: Coupling, lam: float, d: Dispersion) -> complex:
    if z.kind != FINITE:
        raise ValidationError("the solution family takes a finite coupling")
    h_reg = regularized_h0_at_zero(lam, d)
    den = 1.0 / z.value + 0.25j * h_reg
    if den == 0:
        raise PoleError(
            f"coupling {z.value!r} hits the regularized family pole at cutoff {lam!r}")
    return den


def _overflow(params: FamilyParams, what: str, lam: float) -> ValidationError:
    return ValidationError(
        f"edge weights b+ = {params.b_plus!r}, b- = {params.b_minus!r} "
        f"overflow {what} at cutoff {lam!r}")


def family_solution(w: IncidentWave, z: Coupling, params: FamilyParams,
                    lam: float) -> tuple[FRepresentation, complex]:
    """Member of the solution family at cutoff lam.

    c = -i (1 + b- + b+) / (2 (z^{-1} + (i/4) H0_reg)); the returned F is
    verified to satisfy its own fixed-point equation before use, to 1e-12
    times ``transfer._residual_scale`` of the smeared background c H0_reg.
    Edge weights so large that c or that check leaves the float range are a
    ValidationError.
    """
    d = w.dispersion()
    den = _family_denominator(z, lam, d)
    c = -1j * (1.0 + params.b_minus + params.b_plus) / (2.0 * den)
    if not cmath.isfinite(c):
        raise _overflow(params, "the family constant", lam)
    f_repr = FRepresentation(w.p0, w.k, params.b_plus, params.b_minus, c)

    c_check = (-1j * z.value / FOUR_PI) * f_repr.integrate_plain(lam, d)
    try:
        residual = abs(c_check - c)
        # the background c/varpi integrates to pi c H0_reg on the cutoff line
        bound = 1e-12 * _residual_scale(z.value, c * regularized_h0_at_zero(lam, d))
    except OverflowError:  # a modulus beyond the float range
        raise _overflow(params, "the fixed-point check", lam) from None
    if not residual <= bound:  # a NaN residual fails too
        if not cmath.isfinite(c_check):
            raise _overflow(params, "the fixed-point check", lam)
        raise PointScatterError(
            f"family fixed-point residual {residual:.3e} exceeds {bound:.3e}")
    return f_repr, c


def family_amplitude(w: IncidentWave, z: Coupling, params: FamilyParams,
                     lam: float) -> complex:
    """Amplitude of the family member:
    f = -(1/sqrt(8 pi)) (1 + b- + b+) / (z^{-1} + (i/4) H0_reg).

    Depends on the parameters only through b- + b+.  With b+- = 0 and a
    growing cutoff this reproduces the fixed-bare-coupling pathology
    |f| ~ 1/ln(lam); with the absorption choice it reproduces the
    singularity-free amplitude exactly at every finite cutoff.
    """
    den = _family_denominator(z, lam, w.dispersion())
    f = _amplitude(den, 1.0 + params.b_minus + params.b_plus)
    if not cmath.isfinite(f):
        raise _overflow(params, "the family amplitude", lam)
    return f


def absorption_condition(z: Coupling, lam: float, d: Dispersion) -> complex:
    """Value of b- + b+ that absorbs the regularized singularity at this cutoff.

    Inverting the matching condition gives
    b_sum = (H0_reg - 1) / (1 - 4i/z), exact per finite cutoff, so the
    round-trip against the fundamental-route amplitude is an equality test
    rather than a limit statement.
    """
    if z.kind != FINITE:
        raise ValidationError("the absorption condition takes a finite coupling")
    _amplitude_pole_denominator(z.value)  # PoleError at and next to z = 4i
    h_reg = regularized_h0_at_zero(lam, d)
    return (h_reg - 1.0) / (1.0 - 4j / z.value)


def renormalized_b(params_sum: complex, lam: float, d: Dispersion) -> complex:
    """Renormalized edge-atom weight: b_tilde = i pi (b- + b+) / (2 ln(lam/k))."""
    lam = require_cutoff_above_k(lam, d.k)
    b_sum = finite_complex("edge weight sum", params_sum)
    return 1j * math.pi * b_sum / (2.0 * math.log(lam / d.k))


def renormalized_b_limit(z: Coupling) -> complex:
    """Infinite-cutoff limit of the renormalized edge weight: z / (z - 4i)."""
    _amplitude_pole_denominator(z.value)  # PoleError at and next to z = 4i
    return z.value / (z.value - 4j)


def regularized_h0_position_scheme(lam: float, d: Dispersion) -> complex:
    """Position-space regularization of H0(0): the value H0^(1)(k r) at r = 1/lam.

    Differs from the sharp momentum cutoff ``kernel.regularized_h0_at_zero``
    by the constant 2 i gamma / pi as lam grows; limits taken in the two
    schemes disagree by exactly that O(1) constant.
    """
    lam = require_cutoff_above_k(lam, d.k)
    return hankel1_0(d.k / lam)
