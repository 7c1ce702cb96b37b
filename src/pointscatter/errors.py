"""Typed error surface shared across the library.

Divergences of the underlying scattering problem are deliberately surfaced as
distinct exception types (pole of the amplitude, on-shell Dirac atom, forward
delta beam) rather than as floating-point garbage.  The argument rules that
every module shares live here too, so each is written once.
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


def require_cutoff_above_k(lam: float, k: float) -> float:
    """``lam`` unchanged if it exceeds the wavenumber ``k``: the one
    "cutoff above k" rule.  Takes floats already validated, such as a built
    ``CutoffSpec``'s lam or the result of ``finite_real``."""
    if not lam > k:
        raise ValidationError(f"cutoff {lam!r} must exceed the wavenumber {k!r}")
    return lam


class DomainError(ValidationError):
    """Argument outside the mathematical domain of a special function."""


class PoleError(PointScatterError):
    """A coupling denominator vanished (the amplitude pole, or a degenerate
    renormalization map).  No bound-state interpretation is attempted."""


class ForwardAngleError(PointScatterError):
    """Scattering angle coincides with the incidence angle.  The amplitude
    there carries the unscattered delta beam, which is reported symbolically
    and never as a finite number."""


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


class GridCoarseWarning(UserWarning):
    """Finite-difference grid spacing exceeds the advertised error budget."""
