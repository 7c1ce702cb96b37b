import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import hankel1

from pointscatter import cli, fields, kernel, transfer
from pointscatter.errors import GridCoarseWarning
from pointscatter.amplitudes import IncidentWave
from pointscatter.singfree import FamilyParams
from pointscatter.transfer import Coupling

THETA0 = "3.141592653589793"


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestAmplitudeCommand:
    def test_constant_rows_csv(self, capsys):
        code, out, _ = run(["amplitude", "--k", "1", "--theta0", THETA0,
                            "--z", "1,0", "--theta-grid", "4"], capsys)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 4
        for row in rows:
            assert abs(float(row["re_f_dfss"]) + 0.187737543718321) < 1e-12
            assert abs(float(row["im_f_dfss"]) - 0.0469343859295803) < 1e-12
            assert row["abs_route_difference"] == "0"

    def test_json_routes_agree(self, capsys):
        code, out, _ = run(["amplitude", "--format", "json",
                            "--theta-grid", "4"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["routes_agree"] is True
        assert len(obj["rows"]) == 4

    def test_pole_coupling_exits_with_diagnostic(self, capsys):
        code, out, err = run(["amplitude", "--z", "0,4"], capsys)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(cli.ERROR_PREFIX)
        assert "PoleError" in err

    def test_theta_grid_hitting_forbidden_angle(self, capsys):
        code, _, err = run(["amplitude", "--theta-grid", "2"], capsys)
        assert code == 1
        assert "ValidationError" in err

    @pytest.mark.parametrize("n, angle", [(1, 0.5 * math.pi), (2, math.pi)])
    def test_theta_grid_hitting_excluded_angle_line(self, n, angle, capsys):
        # N=1 puts its only angle on the grazing direction pi/2; N=2 puts
        # its second angle on the default forward direction theta0 = pi
        code, out, err = run(["amplitude", f"--theta-grid={n}"], capsys)
        assert (code, out) == (1, "")
        assert err == (f"{cli.ERROR_PREFIX} ValidationError: theta grid with N={n} "
                       f"hits an excluded angle ({angle!r}); "
                       "choose a different --theta-grid\n")

    def test_bad_complex_pair(self, capsys):
        code, _, err = run(["amplitude", "--z", "1"], capsys)
        assert code == 1
        assert err.startswith(cli.ERROR_PREFIX)

    @pytest.mark.parametrize("n", [0, cli.MAX_THETA_GRID + 1, 10 ** 12])
    def test_theta_grid_outside_bounds(self, n, capsys):
        code, out, err = run(["amplitude", f"--theta-grid={n}"], capsys)
        assert (code, out, err.count("\n")) == (1, "", 1)
        assert err.startswith(cli.ERROR_PREFIX) and "--theta-grid" in err

    def test_unwritable_out_path(self, tmp_path, capsys):
        code, _, err = run(["amplitude", "--out", str(tmp_path)], capsys)
        assert code == 1
        assert err.startswith(cli.ERROR_PREFIX) and err.count("\n") == 1

    def test_one_solve_per_command(self, monkeypatch):
        calls = []
        solve = transfer.solve_fundamental
        monkeypatch.setattr(transfer, "solve_fundamental",
                            lambda *a: calls.append(a) or solve(*a))
        cli.render_command(["amplitude", "--theta-grid=64"])
        assert len(calls) == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_match_one_solve_per_angle(self, fmt):
        k, theta0, z, n = 0.8, 2.5, 0.7 - 1.3j, 64
        payload = cli.render_command([
            "amplitude", f"--k={k!r}", f"--theta0={theta0!r}",
            f"--z={z.real!r},{z.imag!r}", f"--theta-grid={n}", f"--format={fmt}"])
        assert payload == _reference_amplitude_bytes(k, theta0, z, n, fmt)


class TestFlowCommand:
    def test_difference_column_decreases(self, capsys):
        code, out, _ = run(["flow", "--z", "1,0",
                            "--lambda", "100,10000,1000000"], capsys)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        diffs = [float(r["abs_route_difference"]) for r in rows]
        assert diffs[0] > diffs[1] > diffs[2]

    def test_lambda_equal_mu_gives_bare_equal_renormalized(self, capsys):
        code, out, _ = run(["flow", "--z", "1,0", "--lambda", "2",
                            "--mu", "2"], capsys)
        assert code == 0
        row = next(csv.DictReader(out.splitlines()))
        assert float(row["re_z_bare"]) == 1.0
        assert float(row["im_z_bare"]) == 0.0

    def test_b_tilde_approaches_limit(self, capsys):
        code, out, _ = run(["flow", "--z", "1,0",
                            "--lambda", "100,10000,1000000"], capsys)
        rows = list(csv.DictReader(out.splitlines()))
        b_tilde = complex(float(rows[-1]["re_b_tilde"]),
                          float(rows[-1]["im_b_tilde"]))
        # leading error |limit| ln2 / ln(1e6) = 1.22e-2
        assert abs(b_tilde - 1.0 / (1.0 - 4.0j)) < 2e-2

    def test_non_increasing_cutoffs_rejected(self, capsys):
        code, _, err = run(["flow", "--lambda", "100,10"], capsys)
        assert code == 1
        assert "ValidationError" in err


class TestFamilyCommand:
    def test_absorbed_amplitude_matches_dfss(self, capsys):
        code, out, _ = run(["family", "--z", "2,-1",
                            "--lambda", "2,10,100"], capsys)
        assert code == 0
        for row in csv.DictReader(out.splitlines()):
            assert float(row["abs_f_absorbed_minus_dfss"]) < 1e-12

    def test_dark_point(self, capsys):
        code, out, _ = run(["family", "--z", "1,0", "--lambda", "10",
                            "--b-plus=-1,0"], capsys)
        row = next(csv.DictReader(out.splitlines()))
        assert float(row["re_f_family"]) == 0.0
        assert float(row["im_f_family"]) == 0.0

    # points of the 8-angle scattering grid that family once built, unused
    @pytest.mark.parametrize("theta0", [1.9634954084936207, 2.7488935718910685,
                                        3.5342917352885177, 4.319689898685965])
    def test_every_incidence_angle(self, theta0, capsys):
        plain = run(["family"], capsys)
        assert plain[0] == 0
        # the table does not depend on theta0
        assert run(["family", f"--theta0={theta0!r}"], capsys) == plain


class TestStrongCoupling:
    """Valid couplings far above 1.  The solve and extraction guards bound
    rounding relative to the terms the smear cancels, which grow like |z|,
    so every command completes and reports the closed-form amplitude."""

    @staticmethod
    def closed_form(z):
        return (-1.0 / math.sqrt(8.0 * math.pi)) / (1.0 / z + 0.25j)

    @staticmethod
    def amplitudes(rows, re, im):
        return [complex(float(row[re]), float(row[im])) for row in rows]

    # the last |z| overflows a float, though both its parts are finite
    STRONG = [1e3, -1e4, 1e5, 1e10, 1e3j, complex(sys.float_info.max, sys.float_info.max)]

    @pytest.mark.parametrize("z", STRONG)
    def test_amplitude_and_family(self, z, capsys):
        f = self.closed_form(z)
        flag = f"--z={z.real!r},{z.imag!r}"
        code, out, err = run(["amplitude", flag], capsys)
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(out.splitlines()))
        got = (self.amplitudes(rows, "re_f_dfss", "im_f_dfss")
               + self.amplitudes(rows, "re_f_renormalized", "im_f_renormalized"))
        code, out, err = run(["family", flag, "--lambda=2,10,100,1e6"], capsys)
        assert (code, err) == (0, "")
        got += self.amplitudes(csv.DictReader(out.splitlines()), "re_f_absorbed", "im_f_absorbed")
        assert len(got) == 20
        assert all(abs(g - f) <= 1e-12 * abs(f) for g in got)

    @pytest.mark.parametrize("z", STRONG)
    def test_field(self, z, capsys):
        # scattered part psi - incident = (c'/4pi) H0(k r), c' = i sqrt(2 pi) f
        w = IncidentWave(1.0, math.pi)
        code, out, err = run(["field", f"--z={z.real!r},{z.imag!r}", "--format=json",
                              "--grid=0.5,0.54,3,-0.3,-0.26,3"], capsys)
        assert (code, err) == (0, "")
        f = self.closed_form(z)
        for row in json.loads(out)["rows"]:
            x, y = row["x"], row["y"]
            incident = np.exp(1j * (-w.varpi0 * x + w.p0 * y)) / (2.0 * math.pi)
            scattered = complex(row["re_psi"], row["im_psi"]) - incident
            c_prime = scattered * 4.0 * math.pi / hankel1(0, math.hypot(x, y))
            assert abs(c_prime / (1j * math.sqrt(2.0 * math.pi)) - f) <= 1e-12 * abs(f)


class TestTotalFieldOverflow:
    """A total field whose incident phase leaves the float range is a
    ValidationError, never a table of NaN cells; where that happens depends
    on k, theta0 and the grid, so the non-finite value itself is detected."""

    @pytest.mark.parametrize("argv", [
        ["--k=1e300", "--grid=-0.1,0.1,3,-0.1,0.1,3"],
        ["--k=1e150", "--grid=-1e200,1e200,3,-1,1,3"],
    ])
    def test_rejected(self, argv, capsys):
        code, out, err = run(["field", *argv], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"{cli.ERROR_PREFIX} ValidationError: ") and err.count("\n") == 1


class TestHugeWavenumber:
    """A wavenumber whose square overflows is a ValidationError; below that
    cap the amplitude table, which does not depend on k, is unchanged."""

    def test_square_overflow_rejected(self, capsys):
        code, out, err = run(["amplitude", "--k=1.35e154"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"{cli.ERROR_PREFIX} ValidationError: wavenumber 1.35e+154 ")
        assert err.count("\n") == 1

    def test_below_cap_unchanged(self, capsys):
        assert run(["amplitude", "--k=1.3e154"], capsys) == run(["amplitude"], capsys)


class TestEdgeWeightOverflow:
    """Edge weights whose family constant, fixed-point check, psi0, |psi0|^2
    or current leaves the float range are a ValidationError, never a silent
    inf/nan or an untyped error; the last finite inputs print as before."""

    ERROR = f"{cli.ERROR_PREFIX} ValidationError: "

    def assert_rejected(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith(self.ERROR) and err.count("\n") == 1, err

    def test_family_constant_overflow(self, capsys):
        self.assert_rejected(["family", "--b-plus=1.7e308,1.7e308"], capsys)

    def test_family_fixed_point_check_overflow(self, capsys):
        self.assert_rejected(["family", "--b-plus=1e308,0"], capsys)

    def test_psi0_current_overflow(self, capsys):
        with pytest.warns(GridCoarseWarning):
            self.assert_rejected(["field", "--psi0-only", "--b-plus=1e300,0",
                                  "--grid=-0.1,0.1,5,-0.1,0.1,5"], capsys)

    # c is finite, but its fixed-point check reads nan + nan i
    @pytest.mark.parametrize("b_plus", ["1.5e308,0", "1e308,1e308", "7e307,7e307"])
    def test_family_fixed_point_check_nan(self, b_plus, capsys):
        self.assert_rejected(["family", f"--b-plus={b_plus}"], capsys)

    def test_largest_finite_family_unchanged(self, capsys):
        code, out, err = run(["family", "--b-plus=2e307,2e307"], capsys)
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 3
        assert all(math.isfinite(float(v)) for row in rows for v in row.values())
        # lam = 2: c = -i (1 + b) / (2 (1/z + (i/4) H0_reg)) at z = 1
        h_reg = kernel.regularized_h0_at_zero(kernel.CutoffSpec(2.0), kernel.Dispersion(1.0))
        c = -1j * (1.0 + complex(2e307, 2e307)) / (2.0 * (1.0 + 0.25j * h_reg))
        assert (rows[0]["re_c"], rows[0]["im_c"]) == (f"{c.real:.15g}", f"{c.imag:.15g}")

    @staticmethod
    def finite_table(command, out):
        rows = list(csv.DictReader(out.splitlines()))
        if command == "family":
            return len(rows) == 3 and all(math.isfinite(float(v))
                                          for row in rows for v in row.values())
        # a 4x4 psi0 grid: the current is NaN on the rim and finite inside
        for row in rows:
            x, y = float(row["x"]), float(row["y"])
            if not all(math.isfinite(float(row[c])) for c in ("re_psi", "im_psi", "abs2_psi")):
                return False
            check = math.isnan if x in (0.0, 0.03) or y in (0.0, 0.03) else math.isfinite
            if not (check(float(row["jx"])) and check(float(row["jy"]))):
                return False
        return len(rows) == 16

    @pytest.mark.parametrize("command", ["family", "field"])
    def test_sweep_up_to_dbl_max(self, command, capsys):
        magnitudes = [10.0 ** e for e in range(150, 309, 4)] + [
            1e154, 6e154, 9e154, 2.8e307, 2.9e307, 1.5e308, sys.float_info.max]
        outcomes = set()
        for m in magnitudes:
            for phase in (0.0, 0.25 * math.pi, 0.5 * math.pi, 2.5, math.pi):
                b = m * complex(math.cos(phase), math.sin(phase))
                flag = f"{b.real!r},{b.imag!r}"
                for weights in ([f"--b-plus={flag}"], [f"--b-minus={flag}"],
                                [f"--b-plus={flag}", f"--b-minus={flag}"]):
                    argv = [command, *weights]
                    if command == "field":
                        argv += ["--psi0-only", "--grid=0,0.03,4,0,0.03,4"]
                    code, out, err = run(argv, capsys)
                    if code == 0:
                        assert err == "" and self.finite_table(command, out), argv
                    else:
                        assert code == 1 and out == "", argv
                        assert err.startswith(self.ERROR) and err.count("\n") == 1, argv
                    outcomes.add(code)
        assert outcomes == {0, 1}


class TestFieldCommand:
    GRID = "-0.5,0.5,51,-0.5,0.5,51"

    def test_origin_masked_once(self, tmp_path, capsys):
        out_path = tmp_path / "field.csv"
        code, _, _ = run(["field", "--z", "1,0", "--grid=" + self.GRID,
                          "--out", str(out_path)], capsys)
        assert code == 0
        rows = read_csv(out_path)
        masked = [r for r in rows if float(r["mask"]) == 1.0]
        assert len(masked) == 1
        assert float(masked[0]["x"]) == 0.0 and float(masked[0]["y"]) == 0.0

    def test_psi0_only_currents(self, tmp_path, capsys):
        out_path = tmp_path / "psi0.csv"
        code, _, _ = run(["field", "--psi0-only", "--b-plus", "1,0",
                          "--b-minus", "1,0", "--grid=" + self.GRID,
                          "--out", str(out_path)], capsys)
        assert code == 0
        jx = [abs(float(r["jx"])) for r in read_csv(out_path) if r["jx"] != "nan"]
        assert max(jx) <= 1e-10

    def test_far_field_companion_file(self, tmp_path, capsys):
        out_path = tmp_path / "field.csv"
        code, _, _ = run(["field", "--z", "1,0", "--grid=" + self.GRID,
                          "--far-field", "--out", str(out_path)], capsys)
        assert code == 0
        far = read_csv(str(out_path) + ".farfield.csv")
        assert {r["kr"] for r in far} == {"20", "50", "100"}
        by_kr = {}
        for r in far:
            by_kr.setdefault(float(r["kr"]), []).append(float(r["relative_residual"]))
        assert max(by_kr[50.0]) < 0.02

    def test_far_field_requires_out_for_csv(self, capsys):
        code, _, err = run(["field", "--far-field", "--grid=" + self.GRID], capsys)
        assert code == 1
        assert "ValidationError" in err

    def test_far_field_incompatible_with_psi0(self, capsys):
        code, _, err = run(["field", "--far-field", "--psi0-only",
                            "--grid=" + self.GRID], capsys)
        assert code == 1

    @pytest.mark.parametrize("grid", ["0,1,501,0,1,500", "0,1,100000,0,1,100000"])
    def test_grid_over_node_cap(self, grid, capsys):
        code, out, err = run(["field", "--grid=" + grid], capsys)
        assert (code, out, err.count("\n")) == (1, "", 1)
        assert err.startswith(cli.ERROR_PREFIX) and "--grid" in err


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["amplitude", "--z", "1.5,-0.5", "--theta-grid", "8"],
        ["flow", "--z", "1,0", "--lambda", "10,100"],
        ["family", "--z", "2,-1", "--lambda", "2,10"],
        ["field", "--z", "1,0", "--grid=-0.5,0.5,51,-0.5,0.5,51"],
        ["amplitude", "--format", "json", "--theta-grid", "4"],
    ])
    def test_byte_identical_reruns(self, argv, tmp_path, capsys):
        paths = [tmp_path / "run1.out", tmp_path / "run2.out"]
        for path in paths:
            code, _, _ = run(argv + ["--out", str(path)], capsys)
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_render_command_agrees_with_file_output(self, tmp_path, capsys):
        argv = ["amplitude", "--theta-grid", "4"]
        payload = cli.render_command(argv)
        out_path = tmp_path / "a.csv"
        run(argv + ["--out", str(out_path)], capsys)
        assert payload == out_path.read_bytes()

    def test_csv_uses_crlf_rows(self):
        payload = cli.render_command(["amplitude", "--theta-grid", "4"])
        assert payload.count(b"\r\n") == 5  # header + 4 rows


class TestParser:
    @pytest.mark.parametrize("argv, reason", [
        (["field", "--grid=0,1e-320,5,0,1,5"], "x spacing 2.5e-321 must be finite"),
        (["field", "--grid=1,0,5,0,1,5"], "grid bounds must be strictly increasing"),
        (["amplitude", "--z=1,2,3"], "expected RE,IM complex pair, got '1,2,3'"),
        (["flow", "--lambda=a,b"], "bad numeric list 'a,b'"),
        (["flow", "--lambda=,"], "empty numeric list"),
        (["amplitude", "--theta-grid=x"], "N must be an integer, got 'x'"),
        (["family", "--b-plus=1"], "expected RE,IM complex pair, got '1'"),
    ], ids=["denormal-spacing", "decreasing-bounds", "complex-triple", "non-numeric-list",
            "empty-list", "non-integer-theta-grid", "complex-single"])
    def test_type_errors_name_their_reason(self, argv, reason, capsys):
        code, out, err = run(argv, capsys)
        assert (code, out, err.count("\n")) == (1, "", 1)
        assert err.startswith(cli.ERROR_PREFIX)
        assert "_parse_" not in err and reason in err

    def test_parser_reuse_matches_fresh_parser(self, tmp_path, capsys):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()
        for argv in (["flow", "--lambda=2,3", "--mu=2"],
                     ["field", "--grid=-0.1,0.1,11,-0.1,0.1,11", f"--out={tmp_path / 'f.csv'}"],
                     ["family", "--b-plus=1,1"]):
            assert run(argv, capsys)[0] == 0
        assert run(["flow", "--lambda=3,2,x"], capsys)[0] == 1
        for command in cli._DISPATCH:
            fresh = cli._DISPATCH[command](cli.build_parser().parse_args([command]))
            assert cli.render_command([command]) == fresh[0][1]


class TestVerifyCommand:
    def test_clean_run_passes(self, capsys):
        code, out, _ = run(["verify"], capsys)
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith("[")]
        assert all(ln.startswith("[PASS]") for ln in lines)
        assert "all checks passed" in out

    def test_json_report_structure(self, capsys):
        code, out, _ = run(["verify", "--json"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["all_passed"] is True
        names = {c["name"] for c in obj["checks"]}
        assert "1-route-agreement" in names
        assert all({"name", "tolerance", "measured", "passed"} <= set(c)
                   for c in obj["checks"])

    def test_injected_fault_fails_loudly(self, capsys):
        code, out, _ = run(["verify", "--inject-fault"], capsys)
        assert code == 2
        assert "[FAIL] 2a-closed-form-solve" in out
        assert "NUMERICAL INVARIANT FAILURE" in out


class TestScipyLoadsLazily:
    """``scipy.special`` and ``scipy.integrate`` load on first use, so the
    closed-form commands never pay for them.  Each case runs in a fresh
    interpreter, because this test process has long since loaded both."""

    SCRIPT = """
import contextlib, io, json, sys
from pointscatter import cli
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(cli.main(argv))
print(json.dumps([codes, [m for m in ("scipy.special", "scipy.integrate")
                          if m in sys.modules]]))
"""

    def _run(self, argvs):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, json.dumps(argvs)],
                              env=env, capture_output=True, text=True, check=True)
        return json.loads(proc.stdout)

    def test_closed_form_commands_load_neither(self):
        assert self._run([["amplitude"], ["flow"], ["family"]]) == [[0, 0, 0], []]

    def test_verify_loads_both(self):
        assert self._run([["verify"]]) == [[0], ["scipy.special", "scipy.integrate"]]


def _reference_field_payloads(k, theta0, source, grid_axes, fmt):
    """``field`` rendered cell by cell: csv.writer over f"{v:.15g}", scalar
    abs(psi) ** 2 and one field_values_at call per far-field point.
    Independent of the CLI's vectorized rendering.  A coupling ``source``
    gives the total field and the far-field table (``--far-field``); a
    FamilyParams gives psi0 alone (``--psi0-only``)."""
    w = IncidentWave(k, theta0)
    spec = fields.GridSpec(*grid_axes)
    psi0_only = isinstance(source, FamilyParams)
    if psi0_only:
        grid = fields.psi0_field(source, k, spec)
    else:
        coupling = Coupling.finite(source)
        grid = fields.total_field(w, coupling, spec)
    current = fields.current_density(grid, k=k)
    header = ["x", "y", "re_psi", "im_psi", "abs2_psi", "jx", "jy", "mask"]
    rows = []
    for i, xv in enumerate(grid.x):
        for j, yv in enumerate(grid.y):
            psi = grid.values[i, j]
            rows.append([float(xv), float(yv), psi.real, psi.imag, abs(psi) ** 2,
                         float(current.jx[i, j]), float(current.jy[i, j]),
                         float(grid.excluded_mask[i, j])])
    tables = [("rows", header, rows)]
    if not psi0_only:
        c_prime = transfer.solve_fundamental(w, coupling).c_prime
        f = transfer._closed_form_amplitude(coupling.value)
        far_header = ["kr", "theta", "re_psi", "im_psi", "re_psi_asymptotic",
                      "im_psi_asymptotic", "abs_residual", "relative_residual"]
        far_rows = []
        for kr in cli.FAR_FIELD_KR:
            r = kr / w.k
            scale = abs(f) / (2.0 * math.pi * math.sqrt(kr))
            for j in range(cli.FAR_FIELD_NTHETA):
                theta = -math.pi + (j + 0.5) * 2.0 * math.pi / cli.FAR_FIELD_NTHETA
                xv, yv = r * math.cos(theta), r * math.sin(theta)
                psi = complex(fields.field_values_at(w, c_prime, [xv], [yv])[0])
                scattered = np.sqrt(1j / kr) * np.exp(1j * kr) * f / (2.0 * math.pi)
                incident = np.exp(1j * (-w.varpi0 * xv + w.p0 * yv)) / (2.0 * math.pi)
                asym = complex(incident + scattered)
                far_rows.append([kr, theta, psi.real, psi.imag, asym.real, asym.imag,
                                 abs(psi - asym), abs(psi - asym) / scale])
        tables.append(("far_field", far_header, far_rows))

    if fmt == "csv":
        return [_reference_csv_bytes(head, table) for _, head, table in tables]
    report = {"command": "field",
              "parameters": {"k": _json_value(k), "theta0": _json_value(theta0),
                             "psi0_only": psi0_only}}
    return [_reference_json_bytes(report, tables)]


def _reference_amplitude_bytes(k, theta0, z, n, fmt):
    """``amplitude`` rendered with one scattering_amplitude_dfss call per angle."""
    w = IncidentWave(k, theta0)
    header = ["theta", "re_f_dfss", "im_f_dfss", "abs2_f_dfss",
              "re_f_renormalized", "im_f_renormalized", "abs2_f_renormalized",
              "abs_route_difference"]
    rows = []
    for j in range(n):
        theta = -0.5 * math.pi + (j + 0.5) * 2.0 * math.pi / n
        f1 = transfer.scattering_amplitude_dfss(w, Coupling.finite(z))
        f2 = transfer.scattering_amplitude_renormalized(w, Coupling.renormalized(z, k))
        rows.append([theta, f1.real, f1.imag, abs(f1) ** 2,
                     f2.real, f2.imag, abs(f2) ** 2, abs(f1 - f2)])
    if fmt == "csv":
        return _reference_csv_bytes(header, rows)
    report = {"command": "amplitude",
              "parameters": {"k": _json_value(k), "theta0": _json_value(theta0),
                             "z": [_json_value(z.real), _json_value(z.imag)]},
              "forward_direction": "excluded: carries -2*pi*delta(theta - theta0), symbolic only",
              "routes_agree": all(row[-1] == 0 for row in rows)}
    return _reference_json_bytes(report, [("rows", header, rows)])


def _reference_csv_bytes(head, table):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(head)
    for row in table:
        writer.writerow([f"{v:.15g}" for v in row])
    return buf.getvalue().encode("utf-8")


def _json_value(v):
    return float(f"{v:.15g}") if math.isfinite(v) else v


class TestFieldBytesAgainstCellReference:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("k, theta0, z, grid", [
        (1.0, math.pi, 1 + 0j, (-0.5, 0.5, 51, -0.5, 0.5, 51)),
        (0.8, 2.5, 0.7 - 1.3j, (11.5, 12.5, 51, -4.25, -3.25, 51)),
        # non-square grids: an nx/ny mix-up in the row order shows here
        (1.0, math.pi, 2 + 0.5j, (0.1, 0.12, 2, -0.3, -0.18, 7)),
        # node (x[18], y[0]) = (0, 0) sits on the scatterer and is masked
        (1.3, 3.5, -3 + 0j, (-0.27, 0.27, 37, 0.0, 0.06, 5)),
        # edge weights in place of a coupling: --psi0-only, no far field
        (0.9, math.pi, FamilyParams(1 - 0.5j, 0.25 + 2j), (0.0, 0.16, 9, 0.5, 0.56, 4)),
        # 4 941 rows: more than one block of cli._ROWS rows
        (1.0, math.pi, 1 + 0j, (-0.4, 0.4, 81, -0.3, 0.3, 61)),
    ])
    def test_field_and_far_field_bytes(self, k, theta0, z, grid, fmt, tmp_path, capsys):
        out_path = tmp_path / f"field.{fmt}"
        if isinstance(z, FamilyParams):
            source = ["--psi0-only", f"--b-plus={z.b_plus.real!r},{z.b_plus.imag!r}",
                      f"--b-minus={z.b_minus.real!r},{z.b_minus.imag!r}"]
        else:
            source = [f"--z={z.real!r},{z.imag!r}", "--far-field"]
        code, _, _ = run(["field", f"--k={k!r}", f"--theta0={theta0!r}", *source,
                          "--grid=" + ",".join(map(str, grid)), f"--format={fmt}",
                          f"--out={out_path}"], capsys)
        assert code == 0
        written = [out_path.read_bytes()]
        far_path = tmp_path / f"field.{fmt}.farfield.csv"
        if far_path.exists():
            written.append(far_path.read_bytes())
        assert written == _reference_field_payloads(k, theta0, z, grid, fmt)


def _reference_json_bytes(report, tables):
    """json.dumps(indent=2) over one {name: cell} dict per row, each cell
    rounded through its 15-significant-digit form."""
    obj = dict(report)
    for key, header, rows in tables:
        obj[key] = [{name: _json_value(v) for name, v in zip(header, row)} for row in rows]
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


_DBL_MAX = sys.float_info.max


def _table_strategy():
    header = st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True)
    return header.flatmap(lambda names: st.tuples(
        st.just(names),
        st.lists(st.lists(st.floats(), min_size=len(names), max_size=len(names)),
                 max_size=5)))


class TestJsonTableBytes:
    REPORT = {"command": "t", "parameters": {"k": 1.0}}

    @pytest.mark.parametrize("rows", [
        [],
        [[1.5, -2.25]],
        [[_DBL_MAX, -_DBL_MAX], [5e-324, -5e-324]],
        [[1e15, 9.99999999999999e15], [123456789012345.0, 1e16]],
        [[-0.0, 0.0], [1.0, -3.0], [1e14, 2.0 ** 52]],
        [[2.9999999999999996, 0.30000000000000004], [1e-5, 1.7976931348623e308]],
        [[math.nan, math.inf], [-math.inf, -math.nan]],
    ])
    def test_explicit_tables(self, rows):
        tables = [("rows", ["x", "y"], rows)]
        assert cli._json_bytes(self.REPORT, tables) == _reference_json_bytes(self.REPORT, tables)

    @settings(max_examples=300)
    @given(first=_table_strategy(), second=_table_strategy())
    def test_matches_dict_reference(self, first, second):
        tables = [("rows", *first), ("far_field", *second)]
        assert cli._json_bytes(self.REPORT, tables) == _reference_json_bytes(self.REPORT, tables)


_CELLS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-320,
                     3.0, -7.0, 2.0 ** 53, 1e15, 1e16]),
    st.floats())


@st.composite
def _few_valued_table(draw):
    """(header, rows, few, full): a table with some columns given as
    (values, index) in ``few`` and its dense cells in ``rows``, and the same
    table fully dense as ``full``."""
    header = draw(st.lists(st.text(st.one_of(st.sampled_from("%s.g"), st.characters(codec="utf-8")),
                                   max_size=4), min_size=1, max_size=5, unique=True))
    n = draw(st.integers(0, 5))
    full = [[0.0] * len(header) for _ in range(n)]
    few, dense = {}, []
    for col in range(len(header)):
        if draw(st.booleans()):
            values = draw(st.lists(_CELLS, min_size=1, max_size=4))
            index = draw(st.lists(st.integers(0, len(values) - 1), min_size=n, max_size=n))
            few[col] = (values, np.array(index, dtype=np.intp))
            cells = [values[i] for i in index]
        else:
            cells = draw(st.lists(_CELLS, min_size=n, max_size=n))
            dense.append(cells)
        for row, cell in zip(full, cells):
            row[col] = cell
    rows = np.array(dense, dtype=float).T.reshape(n, len(dense))
    return header, rows, few, full


class TestFewValuedColumns:
    """A column given as (values, index) renders exactly as the same column
    given cell by cell."""

    REPORT = {"command": "t"}

    @settings(max_examples=300)
    @given(table=_few_valued_table())
    @example(table=(["%s", "x%%", "%.15g"], np.array([[1e16], [-0.0]]),
                    {0: ((math.nan, 5e-324), np.array([1, 0])), 2: ((3.0,), np.array([0, 0]))},
                    [[5e-324, 1e16, 3.0], [math.nan, -0.0, 3.0]]))
    @example(table=(["%", "y"], np.empty((1, 0)),
                    {0: ((1e15, -math.inf), np.array([1])), 1: ((0.0, 1.0), np.array([0]))},
                    [[-math.inf, 0.0]]))
    @example(table=(["x", "%d"], np.empty((0, 1)), {0: ((1.0,), np.array([], dtype=np.intp))}, []))
    def test_matches_dense_table(self, table):
        header, rows, few, full = table
        plain = "".join(",".join(f"{v:.15g}" for v in row) + "\r\n" for row in full)
        assert (cli._csv_bytes(header, rows, few) == cli._csv_bytes(header, full)
                == (",".join(header) + "\r\n" + plain).encode("utf-8"))
        json_bytes = cli._json_bytes(self.REPORT, [("rows", header, rows, few)])
        assert (json_bytes == cli._json_bytes(self.REPORT, [("rows", header, full)])
                == _reference_json_bytes(self.REPORT, [("rows", header, full)]))


def _ulps(value, steps):
    """``value`` moved ``steps`` floats up (steps > 0) or down."""
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.inf if steps > 0 else -math.inf)
    return value


def _half_digit(digits, zeros, steps):
    """A decimal "0." + zeros + 15 digits + "5", where %.15g rounds on a
    half of its last digit, moved ``steps`` floats."""
    return _ulps(float("0." + "0" * zeros + str(digits) + "5"), steps)


def _exact_half(k, e):
    """An odd multiple of 2^(e - 15) in [10^e, 10^(e + 1)): its 16th
    significant digit is an exact 5, a tie that %.15g breaks to even."""
    lo, hi = math.ceil(10.0 ** e * 2 ** (15 - e)), math.floor(10.0 ** (e + 1) * 2 ** (15 - e))
    return math.ldexp((lo + k % (hi - lo)) | 1, e - 15)


_STEPS = st.integers(-2, 2)
_FIXED_EDGES = st.one_of(
    # the fixed-notation range of "%.15g", 1e-4 <= |v| < 1
    st.floats(-4.0, 0.0, exclude_max=True).map(lambda t: 10.0 ** t),
    # each decade's edges, and values that round up to 1 or to the next decade
    st.builds(_ulps, st.sampled_from([1e-4, 1e-3, 0.01, 0.1, 1.0]), _STEPS),
    st.builds(_ulps, st.sampled_from([0.9999999999999996, 0.09999999999999996,
                                      0.0009999999999999996, 0.99999999999999951]), _STEPS),
    st.builds(_half_digit, st.integers(10 ** 14, 10 ** 15 - 1), st.integers(0, 3), _STEPS),
    st.builds(_ulps, st.just(0.1234567890123455), _STEPS),
    st.builds(_exact_half, st.integers(0, 2 ** 20), st.integers(-4, -1)),
)
_FIXED_CELLS = st.one_of(
    st.builds(lambda v, sign: sign * v, _FIXED_EDGES, st.sampled_from([1.0, -1.0])),
    st.sampled_from([0.0, -0.0, math.nan]))


class TestFixedMantissas:
    """Dense cells of a field table whose "%.15g" text is "[-]0." + digits
    are formatted from integers; the bytes match the cell-by-cell references."""

    REPORT = {"command": "t"}

    @settings(max_examples=300)
    @given(cells=st.lists(_FIXED_CELLS, min_size=1, max_size=60), data=st.data())
    @example(cells=[0.1234567890123455, _ulps(0.1234567890123455, 1), 0.9999999999999996,
                    -_ulps(1e-4, -1), 1e-4, -0.0, math.nan, 0.0], data=None)
    def test_matches_cell_references(self, cells, data):
        width = 3
        n = -(-len(cells) // width)
        cells = cells + [0.5] * (n * width - len(cells))
        dense = np.array(cells).reshape(n, width)
        index = (np.arange(n) % 2 if data is None
                 else np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                               dtype=np.intp))
        header = ["x", "a", "b", "c"]
        few = {0: ((0.25, -3e-5), index)}
        full = [[(0.25, -3e-5)[i], *row] for i, row in zip(index.tolist(), dense.tolist())]
        # one block of rows, and blocks of two rows with a short last one
        for rows_per_block in (cli._ROWS, 2):
            with mock.patch.object(cli, "_ROWS", rows_per_block):
                assert cli._csv_bytes(header, dense, few) == _reference_csv_bytes(header, full)
                assert (cli._json_bytes(self.REPORT, [("rows", header, dense, few)])
                        == _reference_json_bytes(self.REPORT, [("rows", header, full)]))

    def test_default_field_grid_takes_the_integer_path(self):
        # a slide back onto "%.15g" would keep the bytes and lose the speed
        w = IncidentWave(1.0, math.pi)
        grid = fields.total_field(w, Coupling.finite(1.0),
                                  fields.GridSpec(-2.0, 2.0, 201, -2.0, 2.0, 201))
        _, rows, _ = cli._field_rows(grid, fields.current_density(grid, k=1.0))
        code, digits = cli._fixed_mantissas(rows.ravel())
        assert np.count_nonzero(code >= 0) == len(digits) >= 0.95 * rows.size


_EXTREMES = st.one_of(
    st.sampled_from([0.0, 1e-320, -1e-320, -1e300, math.nan, math.inf, -math.inf]),
    st.sampled_from([1e-300, 1e-150, 0.5, 1.0, 2.0, 3.0, 4.0, 1e150, 1e300]))


def _flag(name, values):
    """An optional --name=value flag; omitted flags keep their defaults."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


def _pair(name):
    return _flag(name, st.builds(lambda a, b: f"{a!r},{b!r}", _EXTREMES, _EXTREMES))


def _argv(command):
    lams = st.lists(_EXTREMES, min_size=1, max_size=3).map(lambda vs: ",".join(map(repr, vs)))
    axis = st.tuples(_EXTREMES, _EXTREMES, st.integers(0, 41)).map(
        lambda a: "{!r},{!r},{}".format(*sorted(a[:2]), a[2]))
    grid = st.tuples(axis, axis).map(lambda axes: [f"--grid={axes[0]},{axes[1]}"])
    theta0 = st.one_of(_EXTREMES, st.sampled_from([2.0, 3.0, 4.0]))
    flags = [_flag("k", _EXTREMES.map(repr)), _flag("theta0", theta0.map(repr)),
             _pair("z"), _flag("format", st.sampled_from(["csv", "json"]))]
    flags += {
        "amplitude": [_flag("theta-grid", st.integers(-1, 12))],
        "flow": [_flag("lambda", lams), _flag("mu", _EXTREMES.map(repr))],
        "family": [_flag("lambda", lams), _pair("b-plus"), _pair("b-minus")],
        "field": [grid],
    }[command]
    return st.tuples(*flags).map(lambda parts: [command, *sum(parts, [])])


@pytest.mark.filterwarnings("ignore::pointscatter.errors.GridCoarseWarning")
@settings(max_examples=300)
@given(argv=st.one_of(*map(_argv, ["amplitude", "flow", "family", "field"])))
@example(argv=["flow", "--lambda=1e300"])
@example(argv=["flow", "--k=1e-300"])
@example(argv=["amplitude", "--z=1e-320,1e-320", "--theta-grid=4"])
def test_extreme_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # any exception escaping main is a traceback
    assert code in (0, 1)
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1
        assert err.getvalue().startswith(cli.ERROR_PREFIX)
    elif argv[0] != "field":
        assert not any(word in out.getvalue().lower() for word in ("nan", "inf"))


@pytest.mark.parametrize("argv", [
    ["family", "--k=1e-300"],
    ["field", "--k=1e-300"],
    ["field", "--psi0-only", "--k=1e-300"],
    ["field", "--grid=0,1e-320,5,0,1,5"],
    ["field", "--grid=1e-200,3.3e-200,7,0,1,5"],
])
def test_underflowing_wavenumber_or_spacing_rejected(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert err.startswith(cli.ERROR_PREFIX) and "ValidationError" in err
