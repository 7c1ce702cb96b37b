"""Zero-order cylinder functions: J0, Y0 and the outgoing Hankel function.

Everything downstream (Green functions, regularized limits, wavefields) is
assembled from these three functions, plus the first-order Hankel function
H1(1) = -H0(1)' for the gradient of a wavefield.  Values come from
``scipy.special.j0`` and ``y0``; H0(1) is built as J0 + i Y0 from those same
two values, so the identity holds exactly, and the grid-fill
``hankel1_0_array`` equals the scalar exactly.  H1(1) is J1 + i Y1 in the
same way.  Arguments follow "positive real in, value out", else
``DomainError``.  H0(1) at exactly zero is a hard error by design: the
logarithmic divergence there must be handled explicitly by the caller (see
``kernel.regularized_h0_at_zero``).
"""

from __future__ import annotations

import math

from ._lazy import load_on_first_use
from .errors import DomainError

np = load_on_first_use("numpy")
scipy = load_on_first_use("scipy")  # scipy.special loads when first reached

EULER_GAMMA = 0.5772156649015329
"""Euler-Mascheroni constant, 16 significant digits, fixed at compile time."""


def _as_checked_float(x, allow_zero):
    # errors.finite_real's type rule (an int or float, not a bool), inline:
    # green_cutoff_quadrature at r > 0 calls bessel_j0 at every quadrature node
    if type(x) is not float:
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise DomainError(f"expected an int or float argument, got {x!r}")
        try:
            x = float(x)
        except OverflowError:  # an int beyond the float range
            raise DomainError(f"argument must be finite, got {x!r}") from None
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x!r}")
    if x < 0.0 or (x == 0.0 and not allow_zero):
        bound = "x >= 0" if allow_zero else "x > 0"
        raise DomainError(f"argument out of domain ({bound}), got {x!r}")
    return x


def bessel_j0(x: float) -> float:
    """Bessel function of the first kind, order zero, for x >= 0."""
    return float(scipy.special.j0(_as_checked_float(x, allow_zero=True)))


def bessel_y0(x: float) -> float:
    """Bessel function of the second kind, order zero, for x > 0.

    Reproduces the logarithmic small-argument behavior
    (2/pi)(ln(x/2) + gamma) J0(x) + analytic series.
    """
    return float(scipy.special.y0(_as_checked_float(x, allow_zero=False)))


def hankel1_0(x: float) -> complex:
    """Outgoing Hankel function H0^(1)(x) = J0(x) + i Y0(x), for x > 0.

    x = 0 raises: the logarithmic divergence there is the central difficulty
    of the point-scatterer problem and must never be evaluated silently.
    Callers needing a regularized stand-in go through
    ``kernel.regularized_h0_at_zero``.
    """
    x = _as_checked_float(x, allow_zero=False)
    return complex(scipy.special.j0(x), scipy.special.y0(x))


def hankel1_0_small_x_expansion(x: float) -> complex:
    """Truncated small-argument form (2i/pi)(ln(x/2) + gamma) + 1, 0 < x < 0.5.

    The dropped remainder is O(x^2); the residual against ``hankel1_0``
    shrinks quadratically, which downstream tests exploit as a scaling check.
    """
    x = _as_checked_float(x, allow_zero=False)
    if not x < 0.5:
        raise DomainError(f"expansion valid only on 0 < x < 0.5, got {x!r}")
    return complex(1.0, (2.0 / math.pi) * (math.log(0.5 * x) + EULER_GAMMA))


def _positive_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("array argument contains non-finite entries")
    if np.any(arr <= 0.0):
        raise DomainError("array argument out of domain (x > 0)")
    return arr


def hankel1_0_array(x) -> np.ndarray:
    """Elementwise ``hankel1_0`` for grid fills."""
    arr = _positive_array(x)
    return scipy.special.j0(arr) + 1j * scipy.special.y0(arr)


def hankel1_1_array(x) -> np.ndarray:
    """Elementwise H1^(1)(x) = J1(x) + i Y1(x) = -d/dx H0^(1)(x), for x > 0:
    the radial derivative behind the exact current of a grid fill."""
    arr = _positive_array(x)
    return scipy.special.j1(arr) + 1j * scipy.special.y1(arr)
