import cmath
import math

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.special import hankel1

from pointscatter import amplitudes as amp
from pointscatter import fields, specfun, transfer
from pointscatter.errors import ValidationError
from pointscatter.fields import GridSpec
from pointscatter.singfree import FamilyParams

W = amp.IncidentWave(1.0, math.pi)
Z1 = 1.0

# H0(1) from the frozen Bessel values
H0_AT_1 = complex(0.7651976865579666, 0.08825696421567696)


class TestGridSpec:
    def test_axes(self):
        x, y = GridSpec(-1.0, 1.0, 5, 0.0, 2.0, 3).axes()
        assert np.allclose(x, [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert np.allclose(y, [0.0, 1.0, 2.0])

    def test_validation(self):
        with pytest.raises(ValidationError):
            GridSpec(1.0, -1.0, 5, 0.0, 1.0, 5)
        with pytest.raises(ValidationError):
            GridSpec(-1.0, 1.0, 1, 0.0, 1.0, 5)
        for bounds in ((-math.inf, 1.0, 0.0, 1.0), (0.0, 1.0, 0.0, math.nan)):
            x0, x1, y0, y1 = bounds
            with pytest.raises(ValidationError, match="finite"):
                GridSpec(x0, x1, 5, y0, y1, 5)
        for nx, ny in ((5.5, 5), (5, 5.0), (True, 5)):
            with pytest.raises(ValidationError, match="integers"):
                GridSpec(0.0, 1.0, nx, 0.0, 1.0, ny)
        # denormal spacing, spacing whose square underflows, width that overflows
        for axes in ((0.0, 1e-320, 5, 0.0, 1.0, 5), (0.0, 1.0, 5, 1e-200, 3.3e-200, 7),
                     (-1e308, 1e308, 5, 0.0, 1.0, 5)):
            with pytest.raises(ValidationError, match="spacing"):
                GridSpec(*axes)


class TestTotalField:
    def test_weak_coupling_is_plane_wave(self):
        spec = GridSpec(-1.0, 1.0, 5, -1.0, 1.0, 5)
        grid = fields.total_field(W, 1e-12, spec)
        X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
        plane = np.exp(1j * (-W.varpi0 * X + W.p0 * Y)) / (2.0 * math.pi)
        ok = ~grid.excluded_mask
        assert np.max(np.abs(grid.values[ok] - plane[ok])) < 1e-12

    def test_frozen_point_value(self):
        sol = transfer.solve_fundamental(W, Z1)
        psi = complex(fields.field_values_at(W, sol.c_prime, [1.0], [0.0])[0])
        expected = (cmath.exp(-1j) / (2.0 * math.pi)
                    + sol.c_prime * H0_AT_1 / (4.0 * math.pi))
        assert abs(psi - expected) < 1e-13
        assert abs(psi - complex(0.08213302593172567, -0.16340582606234322)) < 1e-12

    def test_origin_masked_not_evaluated(self):
        spec = GridSpec(-1.0, 1.0, 5, -1.0, 1.0, 5)
        grid = fields.total_field(W, Z1, spec)
        assert grid.excluded_mask.sum() == 1
        assert grid.excluded_mask[2, 2]
        assert np.isnan(grid.values[2, 2].real)
        assert np.all(np.isfinite(grid.values[~grid.excluded_mask]))

    @pytest.mark.parametrize("spec", [GridSpec(-1.0, 1.0, 41, -1.0, 1.0, 41),
                                      GridSpec(0.8, 2.2, 71, 0.8, 2.2, 71)],
                             ids=["centered", "offset"])
    def test_values_are_field_values_at_bit_for_bit(self, spec):
        grid = fields.total_field(W, Z1, spec)
        ok = ~grid.excluded_mask
        X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
        c_prime = transfer.solve_fundamental(W, Z1).c_prime
        assert np.array_equal(grid.values[ok], fields.field_values_at(W, c_prime, X[ok], Y[ok]))

    def test_points_api_rejects_origin(self):
        sol = transfer.solve_fundamental(W, Z1)
        with pytest.raises(ValidationError):
            fields.field_values_at(W, sol.c_prime, [0.0], [0.0])

    def test_scattered_part_proportional_to_c_prime(self):
        # (psi(z1) - plane) / (psi(z2) - plane) is constant across the grid
        spec = GridSpec(0.5, 2.0, 21, -1.0, 1.0, 21)
        z2 = 2.0j
        g1 = fields.total_field(W, Z1, spec)
        g2 = fields.total_field(W, z2, spec)
        X, Y = np.meshgrid(g1.x, g1.y, indexing="ij")
        plane = np.exp(1j * (-W.varpi0 * X + W.p0 * Y)) / (2.0 * math.pi)
        ratio = (g1.values - plane) / (g2.values - plane)
        expected = (transfer.solve_fundamental(W, Z1).c_prime
                    / transfer.solve_fundamental(W, z2).c_prime)
        assert np.max(np.abs(ratio - expected)) < 1e-12


class TestFarField:
    def test_two_percent_at_kr_fifty(self):
        s = fields.far_field_samples(W, Z1, [50.0])[0]
        assert s.residual.max() / s.scale < 0.02

    def test_inverse_kr_decay_within_factor_two(self):
        res = fields.far_field_samples(W, Z1, [20.0, 50.0, 100.0])
        for a, b in zip(res, res[1:]):
            actual = (a.residual.max() / a.scale) / (b.residual.max() / b.scale)
            predicted = b.kr / a.kr
            assert 0.5 <= actual / predicted <= 2.0

    def test_absolute_residual_decay_within_factor_two(self):
        res = fields.far_field_samples(W, Z1, [20.0, 50.0, 100.0])
        for a, b in zip(res, res[1:]):
            actual = a.residual.max() / b.residual.max()
            predicted = b.kr / a.kr
            assert 0.5 <= actual / predicted <= 2.0


class TestNearField:
    def test_residual_small_at_hundredth(self):
        chk = fields.near_field_expansion_check(W, Z1, [0.01])
        assert chk.max_relative_residual <= 1e-3

    def test_halving_reduces_by_3_5x(self):
        r1 = fields.near_field_expansion_check(W, Z1, [0.01]).max_residual
        r2 = fields.near_field_expansion_check(W, Z1, [0.005]).max_residual
        assert r2 / r1 <= 0.6
        assert r2 / r1 <= 1.0 / 3.5

    @pytest.mark.parametrize("zv", [1.0, 2.0j])
    def test_log_slope_matches_closed_form(self, zv):
        radii = np.geomspace(1e-3, 1e-2, 12)
        slope = fields.near_field_log_slope(W, zv, radii)
        closed = 1.0 / (4.0 * math.pi ** 2 * (1.0 / zv + 0.25j))
        assert abs(slope - closed) / abs(closed) < 0.01

    def test_radius_precondition(self):
        for near_field in (fields.near_field_expansion_check, fields.near_field_log_slope):
            for radii in ([0.2], [0.0], [0.01, math.nan]):
                with pytest.raises(ValidationError, match="0 < k r <= 0.05"):
                    near_field(W, Z1, radii)


class TestPsi0:
    SPEC = GridSpec(-1.0, 1.0, 41, -1.0, 1.0, 41)

    def test_cosine_combination(self):
        grid = fields.psi0_field(FamilyParams(1.0, 1.0), 1.0, self.SPEC)
        expected = np.cos(grid.y) / math.pi
        assert np.max(np.abs(grid.values[0, :] - expected)) < 1e-15

    def test_sine_combination(self):
        grid = fields.psi0_field(FamilyParams(1.0, -1.0), 1.0, self.SPEC)
        expected = 1j * np.sin(grid.y) / math.pi
        assert np.max(np.abs(grid.values[0, :] - expected)) < 1e-15

    def test_value_at_axis(self):
        params = FamilyParams(0.3 + 1.0j, -2.0)
        grid = fields.psi0_field(params, 1.0, self.SPEC)
        j0 = np.argmin(np.abs(grid.y))
        assert abs(grid.values[0, j0] - (params.b_minus + params.b_plus) / (2.0 * math.pi)) < 1e-15

    def test_exactly_x_independent(self):
        grid = fields.psi0_field(FamilyParams(0.3 + 1.0j, -2.0), 1.0, self.SPEC)
        assert np.all(grid.values == grid.values[0:1, :])

    def test_transverse_current_vanishes(self):
        spec = GridSpec(-1.0, 1.0, 101, -1.0, 1.0, 101)
        grid = fields.psi0_field(FamilyParams(0.3 + 1.0j, -2.0), 1.0, spec)
        assert np.all(grid.jx == 0.0)

    @pytest.mark.parametrize("b_plus, b_minus", [(1.0, 1.0), (1.0, -1.0), (0.3 + 1.0j, -2.0)])
    def test_longitudinal_current_is_uniform(self, b_plus, b_minus):
        # J_y = k (|b+|^2 - |b-|^2) / (2 pi^2): the cross terms cancel
        k = 1.3
        grid = fields.psi0_field(FamilyParams(b_plus, b_minus), k, self.SPEC)
        expected = k * (abs(b_plus) ** 2 - abs(b_minus) ** 2) / (2.0 * math.pi ** 2)
        assert np.max(np.abs(grid.jy - expected)) <= 1e-15


def _reference_current(w, z, grid):
    """J = 2 Im(psi* grad psi) from scipy's hankel1 of orders 0 and 1, with
    grad H0(k r) = -k H1(k r) r/|r|; NaN at the masked origin."""
    c_prime = transfer.solve_fundamental(w, z).c_prime
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    r = np.hypot(X, Y)
    incident = np.exp(1j * (-w.varpi0 * X + w.p0 * Y)) / (2.0 * math.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = incident + c_prime / (4.0 * math.pi) * hankel1(0, w.k * r)
        radial = -c_prime * w.k / (4.0 * math.pi) * hankel1(1, w.k * r) / r
    jx = 2.0 * np.imag(np.conj(psi) * (-1j * w.varpi0 * incident + radial * X))
    jy = 2.0 * np.imag(np.conj(psi) * (1j * w.p0 * incident + radial * Y))
    return jx, jy


def _gathered_fill(w, z, spec):
    """total_field's arithmetic on the unmasked nodes alone, gathered by the
    keep mask, NaN elsewhere: the reference the full-array fill is held to."""
    a = transfer.solve_fundamental(w, z).c_prime / (4.0 * math.pi)
    X, Y = np.meshgrid(*spec.axes(), indexing="ij")
    r = np.hypot(X, Y)
    keep = ~(w.k * r < fields.ORIGIN_EXCLUSION_KR)
    incident = np.exp(1j * (-w.varpi0 * X[keep] + w.p0 * Y[keep])) / (2.0 * math.pi)
    v = incident + a * specfun.hankel1_0_array(w.k * r[keep])
    s = (-a * w.k) * specfun.hankel1_1_array(w.k * r[keep]) / r[keep]
    overlap = 2.0 * (v.real * incident.real + v.imag * incident.imag)
    radial = 2.0 * (v.real * s.imag - v.imag * s.real)
    values = np.full(X.shape, complex(math.nan, math.nan))
    jx, jy = np.full(X.shape, math.nan), np.full(X.shape, math.nan)
    values[keep] = v
    jx[keep] = -w.varpi0 * overlap + X[keep] * radial
    jy[keep] = w.p0 * overlap + Y[keep] * radial
    return values, jx, jy


def _rim_flux(grid):
    """Net outward flux of J through the window's rim, and the flux of |J.n|,
    by Simpson's rule along each edge."""
    edges = ((grid.jx[-1, :], grid.y), (-grid.jx[0, :], grid.y),
             (grid.jy[:, -1], grid.x), (-grid.jy[:, 0], grid.x))
    net = sum(simpson(jn, x=t) for jn, t in edges)
    total = sum(simpson(np.abs(jn), x=t) for jn, t in edges)
    return net, total


class TestCurrentDensity:
    DEFAULT = GridSpec(-2.0, 2.0, 201, -2.0, 2.0, 201)

    @pytest.mark.parametrize("k, theta0, z", [(1.0, math.pi, 1.0), (1.7, 2.5, 2.0 - 1.0j),
                                              (0.6, 4.0, 0.5j)])
    def test_matches_hankel1_reference(self, k, theta0, z):
        # every unmasked node, the rim and the origin's neighbours included
        w = amp.IncidentWave(k, theta0)
        grid = fields.total_field(w, z, self.DEFAULT)
        jx, jy = _reference_current(w, z, grid)
        ok = ~grid.excluded_mask
        assert ok.sum() == 201 * 201 - 1
        err = np.hypot(grid.jx - jx, grid.jy - jy)[ok] / np.hypot(jx, jy)[ok]
        assert err.max() <= 1e-12

    @pytest.mark.parametrize("k, theta0, z, spec", [
        (1.0, math.pi, 1.0, DEFAULT),
        (1.7, 2.5, 2.0 - 1.0j, GridSpec(-1.0, 1.0, 41, -1.0, 1.0, 41)),
        (0.6, 4.0, 0.5j, GridSpec(0.8, 2.2, 71, 0.8, 2.2, 71)),
    ], ids=["default", "centered", "offset"])
    def test_bit_identical_to_the_gathered_fill(self, k, theta0, z, spec):
        w = amp.IncidentWave(k, theta0)
        grid = fields.total_field(w, z, spec)
        for got, want in zip((grid.values, grid.jx, grid.jy), _gathered_fill(w, z, spec)):
            assert np.array_equal(got, want, equal_nan=True)

    def test_only_the_masked_origin_is_nan(self):
        grid = fields.total_field(W, Z1, self.DEFAULT)
        for j in (grid.values.real, grid.values.imag, grid.jx, grid.jy):
            assert np.array_equal(np.isnan(j), grid.excluded_mask)
        assert grid.excluded_mask.sum() == 1 and grid.excluded_mask[100, 100]

    def test_plane_wave_current(self):
        # weak coupling: J -> 2 k_inc / (2 pi)^2 on every node, the rim included
        grid = fields.total_field(W, 1e-12, GridSpec(0.5, 2.0, 11, 0.5, 2.0, 11))
        target = 2.0 / (2.0 * math.pi) ** 2
        assert np.max(np.abs(grid.jx + W.varpi0 * target)) < 1e-13
        assert np.max(np.abs(grid.jy - W.p0 * target)) < 1e-13

    @pytest.mark.parametrize("zv", [1.0, -3.0, 2.0 - 1.0j, 0.5j])
    @pytest.mark.parametrize("half_width", [0.37, 1.0, 2.0])
    def test_net_rim_flux_is_the_absorption(self, zv, half_width):
        # the flux through any loop around the scatterer is -(4/pi) Im(1/z) |f|^2:
        # zero for real z
        f = transfer._closed_form_amplitude(zv)
        expected = -(4.0 / math.pi) * (1.0 / zv).imag * abs(f) ** 2
        a = half_width
        grid = fields.total_field(W, zv, GridSpec(-a, a, 201, -a, a, 201))
        net, total = _rim_flux(grid)
        assert abs(net - expected) <= 1e-9 * total

    def test_divergence_free_away_from_origin(self):
        spec = GridSpec(0.8, 2.2, 71, 0.8, 2.2, 71)
        grid = fields.total_field(W, Z1, spec)
        div, valid = fields.current_divergence(grid)
        scale = W.k * max(np.nanmax(np.abs(grid.jx)), np.nanmax(np.abs(grid.jy)))
        assert np.nanmax(np.abs(div[valid])) / scale < 1e-3
