"""Typed error surface shared across the library.

Divergences of the underlying scattering problem are deliberately surfaced as
distinct exception types (pole of the amplitude, on-shell Dirac atom) rather
than as floating-point garbage.  The argument rules that every module shares
live here too, so each is written once.
"""

import cmath
import math


class PointScatterError(Exception):
    """Base class for all library-specific failures."""


class ValidationError(PointScatterError, ValueError):
    """A precondition on arguments was violated."""


def finite_real(name: str, value, above: float | None = None) -> float:
    """``value`` as a float if it is an int or float (not a bool), finite and,
    given ``above``, greater than it; otherwise a ValidationError naming the
    parameter and the value."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            v = float(value)
        except OverflowError:  # an int beyond the float range
            v = math.inf
        if math.isfinite(v) and (above is None or v > above):
            return v
    bound = "" if above is None else f" above {above!r}"
    raise ValidationError(f"{name} must be a finite real number{bound}, got {value!r}")


def finite_complex(name: str, value) -> complex:
    """``value`` as a complex if it is an int, float or complex (not a bool)
    and finite; otherwise a ValidationError naming the parameter and the
    value.  The twin of ``finite_real``."""
    if isinstance(value, (int, float, complex)) and not isinstance(value, bool):
        try:
            v = complex(value)
        except OverflowError:  # an int beyond the float range
            v = complex(math.inf)
        if cmath.isfinite(v):
            return v
    raise ValidationError(f"{name} must be a finite complex number, got {value!r}")


def require_cutoff_above_k(lam, k: float) -> float:
    """``lam`` as a float if it is an int or float (not a bool), above the
    wavenumber ``k`` and finite: the one cutoff rule.  A number is compared
    with ``k`` first (NaN fails that), so a cutoff at or below ``k`` reads
    "must exceed the wavenumber"; an infinite cutoff or a non-number gets
    ``finite_real``'s message."""
    if isinstance(lam, (int, float)) and not isinstance(lam, bool) and not lam > k:
        raise ValidationError(f"cutoff {lam!r} must exceed the wavenumber {k!r}")
    return finite_real("cutoff", lam, above=0.0)


def coupling(name: str, value) -> complex:
    """``value`` as a complex if ``finite_complex`` takes it and its inverse
    is a finite complex too: the one coupling rule.  Zero reads "must be
    nonzero"; a value so small that 1/value overflows, or turns into NaN,
    reads "has no finite inverse"."""
    z = finite_complex(name, value)
    if z == 0:
        raise ValidationError(f"{name} must be nonzero (its inverse must exist)")
    if not cmath.isfinite(1.0 / z):
        raise ValidationError(f"{name} {z!r} has no finite inverse")
    return z


class DomainError(ValidationError):
    """Argument outside the mathematical domain of a special function."""


class PoleError(PointScatterError):
    """A coupling denominator vanished (the amplitude pole, or a degenerate
    renormalization map).  No bound-state interpretation is attempted."""


class OnShellAtomError(PointScatterError):
    """A Dirac atom with nonzero weight sits exactly at |p| = k, where 1/varpi
    diverges.  Callers must route such amplitudes through the varpi-times-F
    product representation instead of integrating them directly."""

    def __init__(self, location: float, weight: complex):
        self.location = location
        self.weight = weight
        super().__init__(
            f"atom at p = {location!r} (weight {weight!r}) sits on the "
            "on-shell edge |p| = k; 1/varpi integration is undefined there"
        )


class SupportMismatchError(PointScatterError):
    """Two generalized amplitudes with incompatible supports were combined."""


class QuadratureError(PointScatterError):
    """Numerical integration did not converge to the requested accuracy."""

    def __init__(self, message: str, error_estimate: float | None = None):
        self.error_estimate = error_estimate
        if error_estimate is not None:
            message = f"{message} (achieved error estimate {error_estimate:.3e})"
        super().__init__(message)


class ConvergenceError(PointScatterError):
    """A limit or extrapolation sequence failed to contract."""
