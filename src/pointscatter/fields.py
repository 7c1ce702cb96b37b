"""Real-space observables: wavefields, probability currents, far-field samples.

The total field is the incident plane wave plus c'/(4 pi) times the outgoing
Hankel function; it genuinely diverges at the scatterer, so grid points with
k r below the exclusion threshold are masked (NaN values behind a boolean
mask), never evaluated at their own k r.  The probability current
J = 2 Im(psi* grad psi) comes with the field, from its closed-form gradient:
the plane wave's i k_inc psi_inc and the scattered wave's
-(c' k/(4 pi)) H1(k r) r/|r|.  It is exact to rounding on every unmasked
node, the rim and the scatterer's neighbours included, at any grid spacing.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

from ._lazy import load_on_first_use
from .amplitudes import IncidentWave
from .errors import ValidationError, finite_real
from .kernel import FOUR_PI, TWO_PI
from .singfree import FamilyParams
from .specfun import EULER_GAMMA, hankel1_0_array, hankel1_1_array
from .transfer import (Coupling, _amplitude_pole_denominator, _closed_form_amplitude,
                       solve_fundamental)

np = load_on_first_use("numpy")

ORIGIN_EXCLUSION_KR = 1e-6


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling window: [x0, x1] x [y0, y1] with nx x ny points."""

    x0: float
    x1: float
    nx: int
    y0: float
    y1: float
    ny: int

    def __post_init__(self):
        for name in ("x0", "x1", "y0", "y1"):
            finite_real(f"grid bound {name}", getattr(self, name))
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValidationError("grid bounds must be strictly increasing")
        counts = (self.nx, self.ny)
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool)
                   for n in counts):
            raise ValidationError(f"grid point counts must be integers, got {counts!r}")
        if self.nx < 2 or self.ny < 2:
            raise ValidationError("grid needs at least 2 points per axis")
        for axis, lo, hi, n in (("x", self.x0, self.x1, self.nx),
                                ("y", self.y0, self.y1, self.ny)):
            h = (hi - lo) / (n - 1)
            # outside input: nodes must be finite and distinct, and the
            # divergence stencil divides by products of two spacings
            if not (math.isfinite(h) and h * h >= sys.float_info.min):
                raise ValidationError(
                    f"{axis} spacing {h!r} must be finite and its square at least "
                    f"{sys.float_info.min!r}")

    def axes(self):
        return (np.linspace(self.x0, self.x1, self.nx),
                np.linspace(self.y0, self.y1, self.ny))


@dataclass
class FieldGrid:
    """Sampled complex field and its probability current J = (jx, jy);
    values[i, j], jx[i, j] and jy[i, j] belong to (x[i], y[j]).

    Masked points hold NaN in all three and are never meaningful; everything
    downstream must honor ``excluded_mask``.
    """

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray
    jx: np.ndarray
    jy: np.ndarray
    excluded_mask: np.ndarray


def _incident_values(w: IncidentWave, X, Y):
    return np.exp(1j * (-w.varpi0 * X + w.p0 * Y)) / TWO_PI


def field_values_at(w: IncidentWave, c_prime: complex, xs, ys) -> np.ndarray:
    """Total field at arbitrary points (no mask; rejects near-origin points)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    kr = w.k * np.hypot(xs, ys)
    if np.any(kr < ORIGIN_EXCLUSION_KR):
        raise ValidationError(
            f"a requested point has k r < {ORIGIN_EXCLUSION_KR} (field diverges there)")
    return _incident_values(w, xs, ys) + (c_prime / FOUR_PI) * hankel1_0_array(kr)


def total_field(w: IncidentWave, z: Coupling, spec: GridSpec) -> FieldGrid:
    """psi(x, y) = e^{i k.r} / (2 pi) + (c'/(4 pi)) H0^(1)(k r) on the grid,
    with its current.

    k.r = -varpi(p0) x + p0 y for the right-incident wave; c' comes from the
    fundamental-route solve.  With grad psi = i (-varpi(p0), p0) psi_inc
    + s (x, y), s = -(c' k/(4 pi)) H1^(1)(k r)/r, the current is
    J = 2 (-varpi(p0), p0) Re(psi* psi_inc) + 2 (x, y) Im(psi* s).  Points
    with k r below the exclusion threshold are masked.
    """
    a = solve_fundamental(w, z).c_prime / FOUR_PI
    x, y = spec.axes()
    X, Y = np.meshgrid(x, y, indexing="ij")
    r = np.hypot(X, Y)
    kr = w.k * r
    mask = kr < ORIGIN_EXCLUSION_KR
    # a stand-in k r = 1 at masked nodes keeps H0 and H1 finite; they become NaN below
    r = np.where(mask, 1.0 / w.k, r)
    kr = np.where(mask, 1.0, kr)
    incident = _incident_values(w, X, Y)
    values = incident + a * hankel1_0_array(kr)
    # Re(psi* psi_inc) and Im(psi* s) in real arithmetic: no full-grid complex temporary
    overlap = 2.0 * (values.real * incident.real + values.imag * incident.imag)
    s = (-a * w.k) * hankel1_1_array(kr) / r
    radial = 2.0 * (values.real * s.imag - values.imag * s.real)
    jx = -w.varpi0 * overlap + X * radial
    jy = w.p0 * overlap + Y * radial
    values[mask] = complex(math.nan, math.nan)
    jx[mask] = jy[mask] = math.nan
    return FieldGrid(x, y, values, jx, jy, mask)


def psi0_field(params: FamilyParams, k: float, spec: GridSpec) -> FieldGrid:
    """Non-scattering solution psi0(y) = (b+ e^{iky} + b- e^{-iky}) / (2 pi),
    with its current.

    Constant in x by construction (the rows are literally copies), finite
    everywhere, so the mask is empty.  Only d/dy psi0 =
    i k (b+ e^{iky} - b- e^{-iky}) / (2 pi) is nonzero, so jx is exactly 0.
    """
    k = finite_real("wavenumber", k, above=0.0)
    x, y = spec.axes()
    up, down = params.b_plus * np.exp(1j * k * y), params.b_minus * np.exp(-1j * k * y)
    row = (up + down) / TWO_PI
    dy_row = (1j * k) * (up - down) / TWO_PI
    values = np.tile(row, (len(x), 1))
    jy = np.tile(2.0 * np.imag(np.conj(row) * dy_row), (len(x), 1))
    return FieldGrid(x, y, values, np.zeros(jy.shape), jy, np.zeros(values.shape, dtype=bool))


def current_divergence(field: FieldGrid) -> tuple[np.ndarray, np.ndarray]:
    """div J by centered differences of the exact current; returns (div, valid)."""
    div = (np.gradient(field.jx, field.x, axis=0)
           + np.gradient(field.jy, field.y, axis=1))
    valid = np.isfinite(div)
    valid[0, :] = valid[-1, :] = False
    valid[:, 0] = valid[:, -1] = False
    return np.where(valid, div, math.nan), valid


class NearFieldCheck(NamedTuple):
    max_residual: float
    max_relative_residual: float


def _transverse_points(w: IncidentWave, radii):
    # direction orthogonal to the incident wave vector: the plane-wave phase
    # vanishes there, so the log expansion is probed without its O(kr) term
    radii = np.asarray(list(radii), dtype=float)
    if not np.all((radii > 0) & (w.k * radii <= 0.05)):  # a NaN radius fails too
        raise ValidationError("near-field radii must satisfy 0 < k r <= 0.05")
    ux, uy = w.p0 / w.k, w.varpi0 / w.k
    return radii * ux, radii * uy, radii


def near_field_expansion_check(w: IncidentWave, z: Coupling, r_points) -> NearFieldCheck:
    """Residual of the near-field logarithmic form.

    Compares the total field at radii with k r <= 0.05 (sampled transverse to
    the incident wave vector) against
    psi ~ [ln(kr/2) + 2 pi z^{-1} + gamma] / (4 pi^2 (z^{-1} + i/4)).
    The residual scales like O((k r)^2 ln(k r)); in directions with a
    nonvanishing incident phase an additional O(k r) term would enter the
    budget.
    """
    xs, ys, radii = _transverse_points(w, r_points)
    sol = solve_fundamental(w, z)
    psi = field_values_at(w, sol.c_prime, xs, ys)
    den = _amplitude_pole_denominator(z.value)
    slope = 1.0 / (4.0 * math.pi ** 2 * den)
    approx = slope * (np.log(0.5 * w.k * radii) + TWO_PI / z.value + EULER_GAMMA)
    residuals = np.abs(psi - approx)
    return NearFieldCheck(float(residuals.max()),
                          float((residuals / np.abs(psi)).max()))


def near_field_log_slope(w: IncidentWave, z: Coupling, r_points) -> complex:
    """ln(kr) slope of the near field, by least squares over the given radii.

    Matches 1 / (4 pi^2 (z^{-1} + i/4)) as k r -> 0.
    """
    xs, ys, radii = _transverse_points(w, r_points)
    sol = solve_fundamental(w, z)
    psi = field_values_at(w, sol.c_prime, xs, ys)
    coeffs = np.polyfit(np.log(w.k * radii), psi, 1)
    return complex(coeffs[0])


class FarFieldSamples(NamedTuple):
    """One circle of fixed k r; ``residual`` is |psi - psi_asymptotic| per angle
    and ``scale`` the scattered-wave amplitude |f| / (2 pi sqrt(kr))."""

    kr: float
    theta: np.ndarray
    psi: np.ndarray
    psi_asymptotic: np.ndarray
    residual: np.ndarray
    scale: float


def far_field_samples(w: IncidentWave, z: Coupling, kr_values,
                      n_theta: int = 240) -> list[FarFieldSamples]:
    """Total field and its far-field asymptotic form on circles of fixed k r.

    psi_asym = [e^{i k.r} + sqrt(i/(k r)) e^{i k r} f] / (2 pi), at n_theta
    angles centred in equal bins of [-pi, pi).
    """
    sol = solve_fundamental(w, z)
    f = _closed_form_amplitude(z.value)
    thetas = -math.pi + (np.arange(n_theta) + 0.5) * TWO_PI / n_theta
    out = []
    for kr in kr_values:
        kr = float(kr)
        r = kr / w.k
        xs, ys = r * np.cos(thetas), r * np.sin(thetas)
        psi = field_values_at(w, sol.c_prime, xs, ys)
        asym = _incident_values(w, xs, ys) + np.sqrt(1j / kr) * np.exp(1j * kr) * f / TWO_PI
        diff = psi - asym  # hypot, not np.abs: that one may differ in the last bit
        out.append(FarFieldSamples(kr, thetas, psi, asym, np.hypot(diff.real, diff.imag),
                                   abs(f) / (TWO_PI * math.sqrt(kr))))
    return out
