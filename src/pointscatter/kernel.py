"""Dispersion relation, the outgoing 2D Green function, and its cutoff forms.

The free Green function G(r) = -(i/4) H0^(1)(k r) diverges logarithmically at
the origin.  This module owns every regularized stand-in used elsewhere:

* the sharp momentum cutoff ``G_lam(0)`` in closed form and by quadrature,
* the cutoff value of H0^(1)(0) obtained from the half-plane momentum
  representation,
* the scheme-matching constant linking position-space and momentum-space
  regulators.

The i*epsilon prescription is realized by the exact decomposition
PV - i*pi*delta on shell; a finite-epsilon mode exists only so the two can
cross-validate each other.  Every momentum integral reports an error estimate
next to its value.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy  # bare package: scipy.integrate loads on first use

from .errors import (ConvergenceError, QuadratureError, ValidationError, finite_real,
                     require_cutoff_above_k)
from .specfun import bessel_j0, hankel1_0

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
MIN_WAVENUMBER = math.sqrt(sys.float_info.min)
"""Smallest accepted wavenumber, ~1.49e-154: below it k*k is subnormal or 0."""
MAX_WAVENUMBER = math.sqrt(sys.float_info.max)
"""Largest accepted wavenumber, ~1.34e154: above it k*k overflows, and so
does k^2 - p^2 inside varpi(p) for |p| well below k."""

PV_PLUS_DELTA = "pv-delta"
FINITE_EPSILON = "finite-epsilon"


@dataclass(frozen=True)
class Dispersion:
    """Fixed wavenumber k > 0 defining the longitudinal momentum varpi(p)."""

    k: float

    def __post_init__(self):
        k = finite_real("wavenumber", self.k, above=0.0)
        if k * k < sys.float_info.min:
            raise ValidationError(
                f"wavenumber {k!r} is below {MIN_WAVENUMBER!r}, where k*k underflows")
        if k > MAX_WAVENUMBER:
            raise ValidationError(
                f"wavenumber {k!r} is above {MAX_WAVENUMBER!r}, where k*k overflows")
        object.__setattr__(self, "k", k)


@dataclass(frozen=True)
class CutoffSpec:
    """Momentum cutoff plus the prescription for the on-shell pole."""

    lam: float
    epsilon_policy: str = PV_PLUS_DELTA
    epsilon: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "lam", finite_real("cutoff", self.lam, above=0.0))
        if self.epsilon_policy not in (PV_PLUS_DELTA, FINITE_EPSILON):
            raise ValidationError(f"unknown epsilon policy {self.epsilon_policy!r}")
        if self.epsilon_policy == FINITE_EPSILON:
            object.__setattr__(self, "epsilon", finite_real("epsilon", self.epsilon, above=0.0))
        elif self.epsilon is not None:
            raise ValidationError("epsilon is only meaningful under the finite-epsilon policy")


class QuadratureValue(NamedTuple):
    """Integral value together with the achieved error estimate."""

    value: complex
    error_estimate: float


class IdentityCheckResult(NamedTuple):
    """Residual of the momentum identity plus the quadrature/truncation budget."""

    residual: float
    error_estimate: float


def varpi(p: float, d: Dispersion) -> complex:
    """Longitudinal momentum: sqrt(k^2-p^2) traveling, i sqrt(p^2-k^2) evanescent.

    Exactly zero on shell (|p| = k), which downstream code relies on for the
    delta(p -+ k) * varpi(p) = 0 product rule.
    """
    p = finite_real("momentum", p)
    k = d.k
    ap = abs(p)
    if ap < k:
        return complex(math.sqrt((k - ap) * (k + ap)), 0.0)
    if ap == k:
        return 0j
    return complex(0.0, math.sqrt((ap - k) * (ap + k)))


def green_closed(r: float, d: Dispersion) -> complex:
    """Outgoing Green function -(i/4) H0^(1)(k r) for r > 0."""
    r = finite_real("radius", r, above=0.0)  # G diverges at r = 0
    return -0.25j * hankel1_0(d.k * r)


def green_cutoff_zero(c: CutoffSpec, d: Dispersion) -> complex:
    """Closed form of the cutoff Green function at the origin.

    G_lam(0) = -(1/4 pi) ln(lam^2/k^2 - 1) - i/4.  The imaginary part is the
    on-shell delta contribution and is exactly -1/4 for every cutoff.
    """
    require_cutoff_above_k(c.lam, d.k)
    ratio = c.lam / d.k
    if not math.isfinite(ratio * ratio):
        raise ValidationError(f"(lam/k)^2 overflows for lam/k = {ratio!r}")
    return complex(-math.log(ratio * ratio - 1.0) / (4.0 * math.pi), -0.25)


def regularized_h0_at_zero(c: CutoffSpec, d: Dispersion) -> complex:
    """Cutoff stand-in for H0^(1)(0): (1/pi) * integral_{-lam}^{lam} dq/varpi(q).

    Evaluates to 1 - (2i/pi) arccosh(lam/k).  The real part 1 comes from the
    traveling band, the log-divergent imaginary part from the evanescent
    tails.
    """
    require_cutoff_above_k(c.lam, d.k)
    return complex(1.0, -(2.0 / math.pi) * math.acosh(c.lam / d.k))


def _quad(f, a, b, **kwargs):
    kwargs.setdefault("epsabs", 1e-11)
    kwargs.setdefault("epsrel", 1e-11)
    kwargs.setdefault("limit", 400)
    out = scipy.integrate.quad(f, a, b, full_output=1, **kwargs)
    value, abserr = out[0], out[1]
    if len(out) > 3 and abserr > 1e-6 * max(1.0, abs(value)):
        raise QuadratureError(f"quadrature on [{a!r}, {b!r}] did not converge: {out[3]}",
                              error_estimate=abserr)
    return value, abserr


def _quad_complex(f, a, b, **kwargs):
    re, ere = _quad(lambda t: f(t).real, a, b, **kwargs)
    im, eim = _quad(lambda t: f(t).imag, a, b, **kwargs)
    return complex(re, im), ere + eim


def _pv_across_pole(g, k, half_width, **kwargs):
    """PV of integral g(p)/(k-p) dp over [k-w, k+w] by symmetric pairing.

    The substitution p = k -+ t turns the window into
    integral_0^w [g(k-t) - g(k+t)]/t dt whose integrand extends smoothly to
    -2 g'(k) at t = 0, so the 1/(k-p) singularity is cancelled analytically.
    """
    def paired(t):
        if t == 0.0:  # quadrature nodes are interior, but guard anyway
            t = 1e-14 * k
        return (g(k - t) - g(k + t)) / t

    return _quad(paired, 0.0, half_width, **kwargs)


def green_cutoff_quadrature(r: float, c: CutoffSpec, d: Dispersion) -> QuadratureValue:
    """Numerical cutoff Green function: int_0^lam dp/(2 pi) p J0(p r)/(k^2-p^2+i eps).

    Under the default policy the epsilon limit is taken exactly first:
    the real part is the principal value, the imaginary part the on-shell
    delta term -(i/4) J0(k r).  Under the finite-epsilon policy the complex
    integrand is integrated as-is for cross-validation.
    """
    r = finite_real("radius", r)
    if r < 0:
        raise ValidationError(f"radius must be nonnegative, got {r!r}")
    require_cutoff_above_k(c.lam, d.k)
    k, lam = d.k, c.lam
    limit = max(400, int(60 + 2.0 * lam * r))

    if c.epsilon_policy == PV_PLUS_DELTA:
        def g(p):
            # residue-carrying factor: integrand = g(p)/(k - p)
            return p * bessel_j0(p * r) / (TWO_PI * (p + k))

        def h(p):
            return p * bessel_j0(p * r) / (TWO_PI * (k - p) * (k + p))

        w = min(k / 10.0, (lam - k) / 10.0)
        left, e1 = _quad(h, 0.0, k - w, limit=limit)
        window, e2 = _pv_across_pole(g, k, w, limit=limit)
        right, e3 = _quad(h, k + w, lam, limit=limit)
        value = complex(left + window + right, -0.25 * bessel_j0(k * r))
        return QuadratureValue(value, e1 + e2 + e3)

    eps = c.epsilon

    def f(p):
        return p * bessel_j0(p * r) / (TWO_PI * complex(k * k - p * p, eps))

    # the on-shell Lorentzian has width ~ eps/(2k); ladder the subdivision
    # points geometrically so adaptive refinement sees it
    ladder = [k]
    t = 0.5 * eps / k
    while t < 0.4 * min(k, lam - k):
        ladder.extend((k - t, k + t))
        t *= 8.0
    value, err = _quad_complex(f, 0.0, lam, points=sorted(ladder),
                               limit=max(limit, 800))
    return QuadratureValue(value, err)


def momentum_identity_check(x: float, y: float, d: Dispersion,
                            tail_cutoff: float) -> IdentityCheckResult:
    """Residual of int dp e^{i varpi(p)|x|} e^{i p y} / varpi(p) = pi H0^(1)(k r).

    The traveling band is mapped by p = k sin(phi), which removes the
    integrable 1/varpi endpoint singularity.  The evanescent tails are mapped
    by p = k cosh(u); they converge superexponentially for |x| > 0 and are
    truncated at ``tail_cutoff`` for x = 0, with the first-order
    integration-by-parts bound folded into the reported error estimate.
    """
    k = d.k
    x, y = finite_real("x", x), finite_real("y", y)
    r = math.hypot(x, y)
    if k * r < 1e-3:
        raise QuadratureError(f"point too close to the scatterer (k r = {k * r!r} < 1e-3)")
    tail_cutoff = finite_real("tail cutoff", tail_cutoff, above=2.0 * k)
    ax = abs(x)

    def band(phi):
        return np.exp(1j * k * (math.cos(phi) * ax + math.sin(phi) * y))

    n_osc = int(10 + k * r)
    band_val, band_err = _quad_complex(band, -0.5 * math.pi, 0.5 * math.pi,
                                       limit=max(200, 8 * n_osc))

    truncation = 0.0
    if ax > 0.0:
        u_max = math.asinh(45.0 / (k * ax))
        def tail(u):
            return math.exp(-k * ax * math.sinh(u)) * math.cos(k * math.cosh(u) * y)
        tail_re, tail_err = _quad(tail, 0.0, u_max,
                                  limit=max(200, int(20 + k * abs(y) * math.cosh(u_max))))
        evan = complex(0.0, -2.0 * tail_re)
    else:
        # pure oscillatory tails: cosh substitution near the branch point,
        # then an oscillatory-weight rule out to the cutoff
        u_knee = math.acosh(2.0)
        def tail_near(u):
            return math.cos(k * math.cosh(u) * y)
        t1, e1 = _quad(tail_near, 0.0, u_knee, limit=400)

        def tail_far(p):
            return 1.0 / math.sqrt((p - k) * (p + k))
        t2, e2 = _quad(tail_far, 2.0 * k, tail_cutoff, weight="cos", wvar=y,
                       limit=800)
        tail_err = e1 + e2
        truncation = 2.0 / (abs(y) * math.sqrt(tail_cutoff ** 2 - k * k))
        evan = complex(0.0, -2.0 * (t1 + t2))

    value = band_val + evan
    residual = abs(value - math.pi * hankel1_0(k * r))
    return IdentityCheckResult(residual, band_err + 2.0 * tail_err + 2.0 * truncation)


def scheme_matching_limit(alpha: float, d: Dispersion, r_sequence) -> complex:
    """Limit of G(r) - G_{alpha/r}(0) as r -> 0.

    Converges to (gamma + ln(alpha/2)) / (2 pi), which is the constant that
    matches the position-space and sharp-momentum regularization schemes.
    The returned value is Richardson-extrapolated assuming the O(r^2)
    leading correction; the sequence must contract or the call fails.
    """
    alpha = finite_real("alpha", alpha, above=0.0)
    radii = [finite_real("radius", r, above=0.0) for r in r_sequence]
    if len(radii) < 2:
        raise ValidationError("need at least two radii to extrapolate")
    for a, b in zip(radii, radii[1:]):
        if not b < a:
            raise ValidationError("radii must be strictly decreasing")
    if any(d.k * rr >= 0.1 for rr in radii):
        raise ValidationError("all radii must satisfy k r < 0.1")

    values = [green_closed(rr, d) - green_cutoff_zero(CutoffSpec(alpha / rr), d)
              for rr in radii]
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    for a, b in zip(diffs, diffs[1:]):
        if b > a * (1.0 + 1e-9) and b > 1e-15:
            raise ConvergenceError(
                f"successive differences do not shrink ({a:.3e} -> {b:.3e})")

    s = (radii[-1] / radii[-2]) ** 2
    return values[-1] + (values[-1] - values[-2]) * s / (1.0 - s)
