"""Real-space observables: wavefields, probability currents, cross sections.

The total field is the incident plane wave plus c'/(4 pi) times the outgoing
Hankel function; it genuinely diverges at the scatterer, so grid points with
k r below the exclusion threshold are masked (NaN values behind a boolean
mask), never evaluated.  Currents come from 2nd-order centered differences,
which keeps every advertised tolerance without adaptive machinery provided
the spacing stays at or below 1/(50 k).
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .amplitudes import IncidentWave
from .errors import GridCoarseWarning, ValidationError
from .kernel import FOUR_PI, TWO_PI
from .singfree import FamilyParams
from .specfun import EULER_GAMMA, hankel1_0_array
from .transfer import (
    Coupling,
    _amplitude_pole_denominator,
    _closed_form_amplitude,
    _validate_scattering_angle,
    scattering_amplitude_dfss,
    solve_fundamental,
)

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
        bounds = (self.x0, self.x1, self.y0, self.y1)
        if not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in bounds):
            raise ValidationError(f"grid bounds must be finite real numbers, got {bounds!r}")
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
            # the current stencil divides by spacing products, which must not underflow
            if not (math.isfinite(h) and h * h >= sys.float_info.min):
                raise ValidationError(
                    f"{axis} spacing {h!r} must be finite and its square at least "
                    f"{sys.float_info.min!r}")

    def axes(self):
        return (np.linspace(self.x0, self.x1, self.nx),
                np.linspace(self.y0, self.y1, self.ny))


@dataclass
class FieldGrid:
    """Sampled complex field; values[i, j] belongs to (x[i], y[j]).

    Masked points hold NaN and are never meaningful; everything downstream
    must honor ``excluded_mask``.
    """

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray
    excluded_mask: np.ndarray


@dataclass
class CurrentGrid:
    """Probability current components on the same axes as the source field.

    Defined on interior points whose finite-difference stencil touches no
    masked point; elsewhere jx/jy hold NaN and valid_mask is False.
    """

    x: np.ndarray
    y: np.ndarray
    jx: np.ndarray
    jy: np.ndarray
    valid_mask: np.ndarray


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
    """psi(x, y) = e^{i k.r} / (2 pi) + (c'/(4 pi)) H0^(1)(k r) on the grid.

    k.r = -varpi(p0) x + p0 y for the right-incident wave; c' comes from the
    fundamental-route solve.  Points with k r below the exclusion threshold
    are masked.
    """
    sol = solve_fundamental(w, z)
    x, y = spec.axes()
    X, Y = np.meshgrid(x, y, indexing="ij")
    kr = w.k * np.hypot(X, Y)
    mask = kr < ORIGIN_EXCLUSION_KR
    values = _incident_values(w, X, Y).astype(complex)
    if (~mask).any():
        values[~mask] += (sol.c_prime / FOUR_PI) * hankel1_0_array(kr[~mask])
    values[mask] = complex(math.nan, math.nan)
    return FieldGrid(x, y, values, mask)


def psi0_field(params: FamilyParams, k: float, spec: GridSpec) -> FieldGrid:
    """Non-scattering solution psi0(y) = (b+ e^{iky} + b- e^{-iky}) / (2 pi).

    Constant in x by construction (the rows are literally copies), finite
    everywhere, so the mask is empty.
    """
    if not (math.isfinite(k) and k > 0):
        raise ValidationError(f"wavenumber must be positive, got {k!r}")
    x, y = spec.axes()
    row = (params.b_plus * np.exp(1j * k * y) + params.b_minus * np.exp(-1j * k * y)) / TWO_PI
    values = np.tile(row, (len(x), 1))
    return FieldGrid(x, y, values, np.zeros(values.shape, dtype=bool))


def current_density(field: FieldGrid, k: float | None = None) -> CurrentGrid:
    """Probability current J = -i (psi* grad psi - psi grad psi*) by centered
    differences.

    Passing the wavenumber enables the spacing check: above 1/(50 k) the
    2nd-order stencil no longer meets the 1e-4 relative budget and a
    GridCoarseWarning is issued.
    """
    if k is not None:
        h = max(float(np.max(np.diff(field.x))), float(np.max(np.diff(field.y))))
        if h > (1.0 + 1e-9) / (50.0 * k):
            warnings.warn(
                f"grid spacing {h:.4g} exceeds 1/(50 k) = {1.0 / (50.0 * k):.4g}; "
                "current-density error budget not met", GridCoarseWarning)
    v = field.values
    dvx = np.gradient(v, field.x, axis=0)
    dvy = np.gradient(v, field.y, axis=1)
    jx = 2.0 * np.imag(np.conj(v) * dvx)
    jy = 2.0 * np.imag(np.conj(v) * dvy)
    valid = np.isfinite(jx) & np.isfinite(jy)
    valid[0, :] = valid[-1, :] = False  # one-sided stencils at the rim
    valid[:, 0] = valid[:, -1] = False
    jx = np.where(valid, jx, math.nan)
    jy = np.where(valid, jy, math.nan)
    return CurrentGrid(field.x, field.y, jx, jy, valid)


def current_divergence(current: CurrentGrid) -> tuple[np.ndarray, np.ndarray]:
    """div J by a second round of centered differences; returns (div, valid)."""
    div = (np.gradient(current.jx, current.x, axis=0)
           + np.gradient(current.jy, current.y, axis=1))
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
    if np.any(radii <= 0) or np.any(w.k * radii > 0.05):
        raise ValidationError("near-field radii must satisfy 0 < k r <= 0.05")
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
    if np.any(radii <= 0) or np.any(w.k * radii > 0.05):
        raise ValidationError("near-field radii must satisfy 0 < k r <= 0.05")
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


class FarFieldResidual(NamedTuple):
    kr: float
    max_absolute: float
    relative: float


def far_field_circle_residuals(w: IncidentWave, z: Coupling, kr_values,
                               n_theta: int = 240):
    """Largest far-field residual per circle, absolute and relative to the
    scattered-wave amplitude; the relative one decays like 1/(k r)."""
    return [FarFieldResidual(s.kr, float(s.residual.max()),
                             float(s.residual.max()) / s.scale)
            for s in far_field_samples(w, z, kr_values, n_theta)]


def cross_section(w: IncidentWave, z: Coupling, theta_grid):
    """Differential cross section |f(theta)|^2 per angle; constant for the
    point scatterer, tabulated anyway for the report surface."""
    thetas = [float(t) for t in theta_grid]
    for theta in thetas:
        _validate_scattering_angle(theta, w.theta0)
    f = scattering_amplitude_dfss(w, z, thetas[0]) if thetas else None
    return [(theta, abs(f) ** 2) for theta in thetas]
