import cmath
import math

import numpy as np
import pytest

from pointscatter import amplitudes as amp
from pointscatter import fields, transfer
from pointscatter.errors import (
    ForwardAngleError,
    GridCoarseWarning,
    ValidationError,
)
from pointscatter.fields import GridSpec
from pointscatter.singfree import FamilyParams
from pointscatter.transfer import Coupling

W = amp.IncidentWave(1.0, math.pi)
Z1 = Coupling.finite(1.0)

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
        grid = fields.total_field(W, Coupling.finite(1e-12), spec)
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

    def test_points_api_rejects_origin(self):
        sol = transfer.solve_fundamental(W, Z1)
        with pytest.raises(ValidationError):
            fields.field_values_at(W, sol.c_prime, [0.0], [0.0])

    def test_scattered_part_proportional_to_c_prime(self):
        # (psi(z1) - plane) / (psi(z2) - plane) is constant across the grid
        spec = GridSpec(0.5, 2.0, 21, -1.0, 1.0, 21)
        z2 = Coupling.finite(2.0j)
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
        res = fields.far_field_circle_residuals(W, Z1, [50.0])[0]
        assert res.relative < 0.02

    def test_inverse_kr_decay_within_factor_two(self):
        res = fields.far_field_circle_residuals(W, Z1, [20.0, 50.0, 100.0])
        for a, b in zip(res, res[1:]):
            actual = a.relative / b.relative
            predicted = b.kr / a.kr
            assert 0.5 <= actual / predicted <= 2.0

    def test_absolute_residual_decay_within_factor_two(self):
        res = fields.far_field_circle_residuals(W, Z1, [20.0, 50.0, 100.0])
        for a, b in zip(res, res[1:]):
            actual = a.max_absolute / b.max_absolute
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
        slope = fields.near_field_log_slope(W, Coupling.finite(zv), radii)
        closed = 1.0 / (4.0 * math.pi ** 2 * (1.0 / zv + 0.25j))
        assert abs(slope - closed) / abs(closed) < 0.01

    def test_radius_precondition(self):
        with pytest.raises(ValidationError):
            fields.near_field_expansion_check(W, Z1, [0.2])


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
        assert abs(grid.values[0, j0] - params.b_sum / (2.0 * math.pi)) < 1e-15

    def test_exactly_x_independent(self):
        grid = fields.psi0_field(FamilyParams(0.3 + 1.0j, -2.0), 1.0, self.SPEC)
        assert np.all(grid.values == grid.values[0:1, :])

    def test_transverse_current_vanishes(self):
        spec = GridSpec(-1.0, 1.0, 101, -1.0, 1.0, 101)
        grid = fields.psi0_field(FamilyParams(0.3 + 1.0j, -2.0), 1.0, spec)
        cur = fields.current_density(grid, k=1.0)
        assert np.nanmax(np.abs(cur.jx)) <= 1e-10


class TestCurrentDensity:
    def test_plane_wave_current(self):
        x = np.linspace(0.0, 2.0, 101)
        y = np.linspace(0.0, 2.0, 101)
        X, _ = np.meshgrid(x, y, indexing="ij")
        psi = np.exp(1j * X) / (2.0 * math.pi)
        grid = fields.FieldGrid(x, y, psi, np.zeros(psi.shape, dtype=bool))
        cur = fields.current_density(grid, k=1.0)
        target = 2.0 / (2.0 * math.pi) ** 2
        assert np.nanmax(np.abs(cur.jx - target)) / target < 1e-4
        assert np.nanmax(np.abs(cur.jy)) < 1e-15

    def test_coarse_grid_warns(self):
        spec = GridSpec(-1.0, 1.0, 11, -1.0, 1.0, 11)
        grid = fields.psi0_field(FamilyParams(1.0, 1.0), 1.0, spec)
        with pytest.warns(GridCoarseWarning):
            fields.current_density(grid, k=1.0)

    def test_divergence_free_away_from_origin(self):
        spec = GridSpec(0.8, 2.2, 71, 0.8, 2.2, 71)
        cur = fields.current_density(fields.total_field(W, Z1, spec), k=W.k)
        div, valid = fields.current_divergence(cur)
        scale = W.k * max(np.nanmax(np.abs(cur.jx)), np.nanmax(np.abs(cur.jy)))
        assert np.nanmax(np.abs(div[valid])) / scale < 1e-3

    def test_rim_is_invalid(self):
        spec = GridSpec(-0.2, 0.2, 21, -0.2, 0.2, 21)
        grid = fields.psi0_field(FamilyParams(1.0, 1.0), 1.0, spec)
        cur = fields.current_density(grid, k=1.0)
        assert not cur.valid_mask[0, :].any()
        assert np.isnan(cur.jx[0, 0])


class TestCrossSection:
    def test_frozen_constant_value(self):
        table = fields.cross_section(W, Z1, [0.1, 0.4, 2.0, 3.0])
        assert all(abs(s - 0.03744822190397538) < 1e-15 for _, s in table)

    def test_isotropy_spread_exactly_zero(self):
        table = fields.cross_section(W, Z1, np.linspace(-1.0, 1.0, 9))
        values = {s for _, s in table}
        assert len(values) == 1

    def test_real_coupling_closed_form(self):
        for zv in (0.5, 3.0):
            table = fields.cross_section(W, Coupling.finite(zv), [0.3])
            expected = (1.0 / (8.0 * math.pi)) / (zv ** -2 + 1.0 / 16.0)
            assert abs(table[0][1] - expected) < 1e-15

    def test_weak_coupling_vanishes(self):
        table = fields.cross_section(W, Coupling.finite(1e-12), [0.3])
        assert table[0][1] < 1e-24

    def test_forward_angle_rejected(self):
        with pytest.raises(ForwardAngleError):
            fields.cross_section(W, Z1, [math.pi])

    def test_grazing_rejected(self):
        with pytest.raises(ValidationError):
            fields.cross_section(W, Z1, [0.5 * math.pi])
