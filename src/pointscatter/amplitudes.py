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
from dataclasses import dataclass, field

from .errors import (OnShellAtomError, SupportMismatchError, ValidationError, finite_complex,
                     finite_real, require_cutoff_above_k)
from .kernel import Dispersion, regularized_h0_at_zero, varpi

FULL_LINE = "full-line"
BAND = "band"


@dataclass(frozen=True)
class Atom:
    """A weighted Dirac term w * delta(p - location)."""

    location: float
    weight: complex

    def __post_init__(self):
        object.__setattr__(self, "location", finite_real("atom location", self.location))
        # 0j + stores a zero part as +0, the sign any sum of weights gives it
        object.__setattr__(self, "weight", 0j + finite_complex("atom weight", self.weight))


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
            object.__setattr__(self, "lam", finite_real("cutoff", self.lam, above=0.0))
        elif self.lam is not None:
            raise ValidationError(f"{self.kind} domain takes no cutoff")


BAND_DOMAIN = IntegrationDomain(BAND)


def cutoff_line(lam: float) -> IntegrationDomain:
    return IntegrationDomain("cutoff-line", lam)


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
        _check_support(self.support)
        object.__setattr__(self, "atoms", _merged(self.atoms))
        object.__setattr__(self, "background", finite_complex("background", self.background))


# The algebra's own results are built from parts that are valid already, so
# they skip the dataclass checks: the unvalidated constructors below check
# only the numbers an operation computes.  Nothing outside this module's
# operations calls them, so every outside input passes the checks above.

def _new_atom(location: float, weight: complex) -> Atom:
    """An Atom at a valid location with a weight the caller computed: the
    weight's finiteness and signed zeros as ``Atom`` treats them."""
    atom = object.__new__(Atom)
    object.__setattr__(atom, "location", location)
    object.__setattr__(atom, "weight", 0j + finite_complex("atom weight", weight))
    return atom


def _new_amplitude(atoms: tuple, background: complex, support: str) -> GeneralizedAmplitude:
    """A GeneralizedAmplitude from merged, sorted Atoms, a finite background
    and a valid support."""
    a = object.__new__(GeneralizedAmplitude)
    object.__setattr__(a, "atoms", atoms)
    object.__setattr__(a, "background", background)
    object.__setattr__(a, "support", support)
    return a


def _check_support(support: str):
    if support not in (FULL_LINE, BAND):
        raise ValidationError(f"unknown support {support!r}")


def _merged(atoms) -> tuple:
    """Atoms (or (location, weight) pairs, checked as Atoms) sorted by
    location, coincident ones merged into one whose weight is the (checked:
    it may overflow) sum."""
    merged: dict[float, Atom] = {}
    for atom in atoms:
        if not isinstance(atom, Atom):
            atom = Atom(*atom)
        if atom.location in merged:
            atom = _new_atom(atom.location, merged[atom.location].weight + atom.weight)
        merged[atom.location] = atom
    return tuple(merged[loc] for loc in sorted(merged))


def zero_amplitude(support: str = FULL_LINE) -> GeneralizedAmplitude:
    _check_support(support)
    return _new_amplitude((), 0j, support)


def add(a: GeneralizedAmplitude, b: GeneralizedAmplitude) -> GeneralizedAmplitude:
    """Sum of two amplitudes; atom multisets merge at coincident locations."""
    if a.support != b.support:
        raise SupportMismatchError(
            f"cannot add amplitudes with supports {a.support!r} and {b.support!r}")
    # one side's atoms alone are merged and sorted already
    atoms = _merged(a.atoms + b.atoms) if a.atoms and b.atoms else a.atoms or b.atoms
    return _new_amplitude(atoms, finite_complex("background", a.background + b.background),
                          a.support)


def add_constant(a: GeneralizedAmplitude, c: complex) -> GeneralizedAmplitude:
    """a plus the constant c on a's support: ``add`` with an atom-free
    amplitude of background c."""
    c = finite_complex("background", c)
    return _new_amplitude(a.atoms, finite_complex("background", a.background + c), a.support)


def scale(a: GeneralizedAmplitude, factor: complex) -> GeneralizedAmplitude:
    factor = finite_complex("scale factor", factor)
    if factor == 0:
        return zero_amplitude(a.support)
    return _new_amplitude(
        tuple(_new_atom(at.location, factor * at.weight) for at in a.atoms),
        finite_complex("background", factor * a.background), a.support)


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
        require_cutoff_above_k(domain.lam, k)
        if a.support == BAND:
            bg_integral = complex(math.pi, 0.0)
            p_max = k
        else:
            bg_integral = math.pi * regularized_h0_at_zero(domain.lam, d)
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
    _dispersion: Dispersion = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = Dispersion(self.k)
        theta0 = finite_real("incidence angle", self.theta0)
        if not (0.5 * math.pi < theta0 < 1.5 * math.pi):
            raise ValidationError(
                f"right-incidence requires theta0 in (pi/2, 3pi/2), got {theta0!r}")
        object.__setattr__(self, "k", d.k)
        object.__setattr__(self, "theta0", theta0)
        object.__setattr__(self, "_dispersion", d)

    @property
    def p0(self) -> float:
        return self.k * math.sin(self.theta0)

    def dispersion(self) -> Dispersion:
        return self._dispersion

    @property
    def varpi0(self) -> float:
        w = varpi(self.p0, self.dispersion())
        return w.real

    def delta_source(self, support: str = BAND) -> GeneralizedAmplitude:
        """The source coefficient function 2 pi varpi(p0) delta(p - p0)."""
        atom = _new_atom(finite_real("atom location", self.p0),
                         complex(2.0 * math.pi * self.varpi0))
        _check_support(support)
        return _new_amplitude((atom,), 0j, support)
