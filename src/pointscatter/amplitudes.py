"""Momentum-space coefficient functions: Dirac atoms plus a constant background.

Transfer-matrix entries act on these objects, so the representation is exact
rather than gridded: every manipulation stays closed-form, and the problem's
divergence shows up either as a typed error (an atom parked on the on-shell
edge |p| = k) or as an explicit cutoff value, never as silent numerical
garbage.

Values are immutable; all operations return new instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OnShellAtomError, SupportMismatchError, ValidationError
from .kernel import CutoffSpec, Dispersion, regularized_h0_at_zero, varpi

FULL_LINE = "full-line"
BAND = "band"


@dataclass(frozen=True)
class Atom:
    """A weighted Dirac term w * delta(p - location)."""

    location: float
    weight: complex


@dataclass(frozen=True)
class IntegrationDomain:
    """Where a 1/varpi integral runs: the traveling band or a cutoff line.

    There is no full-line domain: that integral diverges without a cutoff.
    """

    kind: str
    lam: float | None = None

    def __post_init__(self):
        if self.kind not in (BAND, "cutoff-line"):
            raise ValidationError(
                f"domain kind must be {BAND!r} or 'cutoff-line', got {self.kind!r}")
        if self.kind == "cutoff-line":
            if self.lam is None or not (math.isfinite(self.lam) and self.lam > 0):
                raise ValidationError("cutoff-line domain requires a positive cutoff")
        elif self.lam is not None:
            raise ValidationError(f"{self.kind} domain takes no cutoff")


BAND_DOMAIN = IntegrationDomain(BAND)


def cutoff_line(lam: float) -> IntegrationDomain:
    return IntegrationDomain("cutoff-line", float(lam))


@dataclass(frozen=True)
class GeneralizedAmplitude:
    """Finitely many Dirac atoms plus a constant background on a support.

    The background multiplies the constant function 1 *on the support*: a
    band amplitude's background lives on (-k, k) only.  Coincident atom
    locations are merged on construction (exact equality; locations are
    constructed, not measured), and atoms are kept sorted for determinism.
    """

    atoms: tuple = ()
    background: complex = 0j
    support: str = FULL_LINE

    def __post_init__(self):
        if self.support not in (FULL_LINE, BAND):
            raise ValidationError(f"unknown support {self.support!r}")
        merged: dict[float, complex] = {}
        for atom in self.atoms:
            if isinstance(atom, Atom):
                loc, w = atom.location, atom.weight
            else:
                loc, w = atom
            loc = float(loc)
            if not math.isfinite(loc):
                raise ValidationError(f"atom location must be finite, got {loc!r}")
            merged[loc] = merged.get(loc, 0j) + complex(w)
        canonical = tuple(Atom(loc, merged[loc]) for loc in sorted(merged))
        object.__setattr__(self, "atoms", canonical)
        object.__setattr__(self, "background", complex(self.background))

    def is_zero(self) -> bool:
        return self.background == 0 and all(a.weight == 0 for a in self.atoms)


def zero_amplitude(support: str = FULL_LINE) -> GeneralizedAmplitude:
    return GeneralizedAmplitude((), 0j, support)


def add(a: GeneralizedAmplitude, b: GeneralizedAmplitude) -> GeneralizedAmplitude:
    """Sum of two amplitudes; atom multisets merge at coincident locations."""
    if a.support != b.support:
        raise SupportMismatchError(
            f"cannot add amplitudes with supports {a.support!r} and {b.support!r}")
    return GeneralizedAmplitude(a.atoms + b.atoms, a.background + b.background, a.support)


def scale(a: GeneralizedAmplitude, factor: complex) -> GeneralizedAmplitude:
    factor = complex(factor)
    if factor == 0:
        return zero_amplitude(a.support)
    return GeneralizedAmplitude(
        tuple(Atom(at.location, factor * at.weight) for at in a.atoms),
        factor * a.background, a.support)


def project_band(a: GeneralizedAmplitude, d: Dispersion) -> GeneralizedAmplitude:
    """Band projection: drop every atom with |p| >= k, keep the background.

    Atoms sitting exactly on the edge |p| = k are annihilated too -- the
    projection is what shields the fundamental route from the on-shell
    divergence.  Idempotent.
    """
    kept = tuple(at for at in a.atoms if abs(at.location) < d.k)
    return GeneralizedAmplitude(kept, a.background, BAND)


def integrate_inverse_varpi(a: GeneralizedAmplitude, domain: IntegrationDomain,
                            d: Dispersion) -> complex:
    """Integral of a(p)/varpi(p) over the domain (intersected with the support).

    Atom terms contribute w_j / varpi(p_j); the constant background
    contributes background * I with I = pi on the band and
    I = pi - 2i arccosh(lam/k) on a cutoff line.  A nonzero-weight atom
    exactly on |p| = k is a typed error: that is the problem's divergence
    surfacing explicitly, and only the varpi * F product representation may
    consume such atoms.
    """
    k = d.k
    if domain.kind == "cutoff-line":
        if not domain.lam > k:
            raise ValidationError(
                f"cutoff {domain.lam!r} must exceed the wavenumber {k!r}")
        if a.support == BAND:
            bg_integral = complex(math.pi, 0.0)
            p_max = k
        else:
            bg_integral = math.pi * regularized_h0_at_zero(CutoffSpec(domain.lam), d)
            p_max = domain.lam
    else:  # the band
        bg_integral = complex(math.pi, 0.0)
        p_max = k

    total = a.background * bg_integral
    for atom in a.atoms:
        if atom.weight == 0:
            continue  # the zero distribution, wherever it sits
        if abs(atom.location) == k:
            raise OnShellAtomError(atom.location, atom.weight)
        if abs(atom.location) >= p_max:
            continue
        total += atom.weight / varpi(atom.location, d)
    return total


@dataclass(frozen=True)
class IncidentWave:
    """Right-incident plane wave: wavenumber k, incidence angle in (pi/2, 3pi/2).

    The transverse momentum is p0 = k sin(theta0); the x-component of the
    incident wave vector is -varpi(p0).  Grazing incidence (theta0 exactly
    pi/2 or 3pi/2) is excluded: there varpi(p0) = 0 and the source atom sits
    on the on-shell edge.
    """

    k: float
    theta0: float

    def __post_init__(self):
        if not (isinstance(self.k, (int, float)) and not isinstance(self.k, bool)
                and math.isfinite(self.k) and self.k > 0):
            raise ValidationError(f"wavenumber must be positive, got {self.k!r}")
        Dispersion(self.k)  # also rejects k below kernel.MIN_WAVENUMBER
        if not (isinstance(self.theta0, (int, float)) and math.isfinite(self.theta0)):
            raise ValidationError(f"incidence angle must be finite, got {self.theta0!r}")
        if not (0.5 * math.pi < self.theta0 < 1.5 * math.pi):
            raise ValidationError(
                f"right-incidence requires theta0 in (pi/2, 3pi/2), got {self.theta0!r}")
        object.__setattr__(self, "k", float(self.k))
        object.__setattr__(self, "theta0", float(self.theta0))

    @property
    def p0(self) -> float:
        return self.k * math.sin(self.theta0)

    def dispersion(self) -> Dispersion:
        return Dispersion(self.k)

    @property
    def varpi0(self) -> float:
        w = varpi(self.p0, self.dispersion())
        return w.real

    def delta_source(self, support: str = BAND) -> GeneralizedAmplitude:
        """The source coefficient function 2 pi varpi(p0) delta(p - p0)."""
        return GeneralizedAmplitude(
            (Atom(self.p0, complex(2.0 * math.pi * self.varpi0)),), 0j, support)
