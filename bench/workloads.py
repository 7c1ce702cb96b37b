"""Seeded operations for the three workloads and the independent output checks.

Each workload is an endless stream of *cycles*.  A cycle has a fixed mix of
operation classes (command, size, format, branch), so its cost does not drift
with the seed; the seed draws the physical parameters inside each class and
the order of the operations within the cycle.  Every operation is an argv for
``pointscatter.cli.main``; its outputs are judged here against references
computed from the closed forms with ``scipy.special``, never with the
program's own functions.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import special

WORKLOADS = ("field_grid", "crosscheck", "cli_sweep")

ERROR_PREFIX = "pointscatter: error:"
SEED_ENV_VAR = "POINTSCATTER_SEED"
VERIFY_CHECKS = 19

SQRT_8PI = math.sqrt(8.0 * math.pi)
TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
EXCLUSION_KR = 1e-6            # `field` masks nodes with k r below this
FAR_KR = (20.0, 50.0, 100.0)   # `field --far-field` circles
FAR_NTHETA = 120
DEFAULT_GRID = (-2.0, 2.0, 201, -2.0, 2.0, 201)

FIELD_TOL = 1e-10
AMPLITUDE_RTOL = 1e-12

FIELD_HEADER = ("x", "y", "re_psi", "im_psi", "abs2_psi", "jx", "jy", "mask")
FAR_HEADER = ("kr", "theta", "re_psi", "im_psi", "re_psi_asymptotic",
              "im_psi_asymptotic", "abs_residual", "relative_residual")

# field_grid cycle: (grid side, format, placement, extra); "default" runs the
# command with its default grid and physics.  Listed cheapest first.  With 16
# ops per cycle the median falls in the middle of cost ranks 7-10 and the 75th
# percentile in the middle of ranks 11-14, so each of those blocks is four ops
# of one class, well apart in cost from its neighbours: both percentiles are
# medians of one class's samples.
FIELD_CYCLE = (
    (41, "csv", "centered", "psi0"),
    (51, "csv", "offset", None),
    (51, "csv", "centered", None),
    (41, "json", "offset", None),
    (41, "json", "centered", "psi0"),
    (61, "csv", "offset", None),
    *[(71, "csv", "centered", "far")] * 4,   # ranks 7-10: the median
    *[(121, "csv", "offset", None)] * 4,     # ranks 11-14: the 75th percentile
    (201, "csv", "default", None),
    (201, "json", "default", "far"),
)

# cli_sweep cycle: 19 valid invocations plus one deliberately invalid one.
# Each cycle uses every theta-grid size and every cutoff-list length once, so
# the work per cycle does not depend on the seed.
THETA_GRIDS = (2, 4, 8, 16, 24, 40, 64)   # even: never lands on +-pi/2
CUTOFF_COUNTS = (1, 2, 3, 4, 5, 6)
SWEEP_CYCLE = (("amplitude",) * len(THETA_GRIDS) + ("flow",) * len(CUTOFF_COUNTS)
               + ("family",) * len(CUTOFF_COUNTS) + ("invalid",))
INVALID_KINDS = ("pole", "non_increasing", "cutoff_below_k", "excluded_angle")


@dataclass
class Op:
    workload: str
    kind: str
    argv: list
    valid: bool = True
    params: dict = field(default_factory=dict)
    env_seed: int | None = None
    out: Path | None = None


@dataclass
class Outcome:
    ok: bool
    cells: int = 0
    bytes_out: int = 0
    rejected: bool = False
    reason: str = ""


# ---------------------------------------------------------------------------
# Generators


def cycles(workload: str, seed: int, work_dir: Path):
    """Endless stream of cycles (lists of Op) for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    make = {"field_grid": _field_cycle, "crosscheck": _crosscheck_cycle,
            "cli_sweep": _sweep_cycle}[workload]
    index = 0
    while True:
        ops = make(rng, index, Path(work_dir))
        rng.shuffle(ops)
        yield ops
        index += 1


def _complex_flag(name, value: complex) -> str:
    # always the --flag=value form: values may start with a minus sign
    return f"--{name}={value.real!r},{value.imag!r}"


def _coupling(rng) -> complex:
    while True:
        z = 10.0 ** rng.uniform(-1.0, 1.0) * cmath.exp(1j * rng.uniform(0.0, TWO_PI))
        if abs(z - 4j) > 0.5:  # keep clear of the amplitude pole z = 4i
            return z


def _incidence(rng):
    k = 10.0 ** rng.uniform(-0.3, 0.3)
    theta0 = rng.uniform(0.5 * math.pi + 0.05, 1.5 * math.pi - 0.05)
    return k, theta0


def _field_cycle(rng, index, work_dir):
    return [_field_op(rng, *spec, work_dir / f"field{slot}")
            for slot, spec in enumerate(FIELD_CYCLE)]


def _field_op(rng, side, fmt, placement, extra, stem):
    out = stem.with_suffix("." + fmt)
    fmt_args = [] if fmt == "csv" else [f"--format={fmt}"]
    if placement == "default":
        params = dict(k=1.0, theta0=math.pi, z=1 + 0j, grid=DEFAULT_GRID,
                      fmt=fmt, extra=extra)
        far_args = ["--far-field"] if extra == "far" else []
        return Op("field_grid", f"default-{fmt}", ["field", *fmt_args, *far_args, f"--out={out}"],
                  params=params, out=out)
    k, theta0 = _incidence(rng)
    # spacing stays below 1/(50 k), so no GridCoarseWarning is due
    width = (side - 1) / (50.0 * k) * rng.uniform(0.8, 0.99)
    if placement == "centered":  # odd side: a node sits on the scatterer
        cx = cy = 0.0
    else:                        # window straddles k r = 12 (asymptotic branch)
        phi = rng.uniform(0.0, TWO_PI)
        cx, cy = 12.0 / k * math.cos(phi), 12.0 / k * math.sin(phi)
    half = 0.5 * width
    grid = (cx - half, cx + half, side, cy - half, cy + half, side)
    argv = ["field", f"--k={k!r}", f"--theta0={theta0!r}",
            "--grid={!r},{!r},{},{!r},{!r},{}".format(*grid), *fmt_args, f"--out={out}"]
    params = dict(k=k, theta0=theta0, grid=grid, fmt=fmt, extra=extra)
    if extra == "psi0":
        params["b_plus"] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        params["b_minus"] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        argv += ["--psi0-only", _complex_flag("b-plus", params["b_plus"]),
                 _complex_flag("b-minus", params["b_minus"])]
    else:
        params["z"] = _coupling(rng)
        argv.append(_complex_flag("z", params["z"]))
        if extra == "far":
            argv.append("--far-field")
    kind = f"{side}-{fmt}-{placement}" + (f"-{extra}" if extra else "")
    return Op("field_grid", kind, argv, params=params, out=out)


def _crosscheck_cycle(rng, index, work_dir):
    return [Op("crosscheck", "verify", ["verify", "--json"],
               env_seed=rng.randrange(1, 2 ** 31))]


def _cutoffs(rng, k, count):
    while True:
        lams = sorted(10.0 ** rng.uniform(math.log10(1.1 * k), 9.0) for _ in range(count))
        if all(b > a for a, b in zip(lams, lams[1:])):
            return lams


def _list_flag(name, values) -> str:
    return f"--{name}=" + ",".join(repr(v) for v in values)


def _sweep_cycle(rng, index, work_dir):
    sizes = {"amplitude": list(THETA_GRIDS), "flow": list(CUTOFF_COUNTS),
             "family": list(CUTOFF_COUNTS)}
    ops = []
    for slot, command in enumerate(SWEEP_CYCLE):
        fmt = ("csv", "json")[slot % 2]
        if command == "invalid":
            ops.append(_invalid_op(rng, INVALID_KINDS[index % len(INVALID_KINDS)], fmt))
        else:
            ops.append(_sweep_op(rng, command, fmt, sizes[command].pop()))
    return ops


def _sweep_op(rng, command, fmt, size):
    k, theta0 = _incidence(rng)
    z = _coupling(rng)
    argv = [command, f"--k={k!r}", f"--theta0={theta0!r}", _complex_flag("z", z),
            f"--format={fmt}"]
    params = dict(k=k, z=z, fmt=fmt)
    if command == "amplitude":
        # theta0 is drawn off the grid, so no node hits the forward angle
        params["n"] = size
        argv.append(f"--theta-grid={size}")
    else:
        params["lams"] = _cutoffs(rng, k, size)
        argv.append(_list_flag("lambda", params["lams"]))
        if command == "flow" and rng.random() < 0.5:
            argv.append(f"--mu={10.0 ** rng.uniform(-1.0, 2.0)!r}")
        if command == "family":
            argv += [_complex_flag("b-plus", complex(rng.uniform(-2, 2), rng.uniform(-2, 2))),
                     _complex_flag("b-minus", complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))]
    return Op("cli_sweep", command, argv, params=params)


def _invalid_op(rng, kind, fmt):
    k, theta0 = _incidence(rng)
    z = _coupling(rng)
    command = rng.choice(("flow", "family"))
    if kind == "pole":
        command = rng.choice(("amplitude", "flow", "family"))
        z = 4j
    tail = []
    if kind == "non_increasing":
        lams = _cutoffs(rng, k, rng.randint(2, 5))
        i = rng.randrange(len(lams) - 1)
        lams[i], lams[i + 1] = lams[i + 1], (lams[i] if rng.random() < 0.5 else lams[i + 1])
        tail.append(_list_flag("lambda", lams))
    elif kind == "cutoff_below_k":
        lams = [k * rng.choice((rng.uniform(0.1, 1.0), 1.0))] + _cutoffs(rng, k, rng.randint(0, 3))
        tail.append(_list_flag("lambda", lams))
    elif kind == "excluded_angle":
        command = "amplitude"
        if rng.random() < 0.5:   # an odd grid has a node on pi/2
            n = rng.choice((1, 3, 5, 7, 9))
        else:                    # this grid has a node on the forward angle pi
            theta0 = math.pi
            n = rng.choice((2, 6, 10, 14, 18, 22, 26))
        tail.append(f"--theta-grid={n}")
    argv = [command, f"--k={k!r}", f"--theta0={theta0!r}", _complex_flag("z", z),
            f"--format={fmt}", *tail]
    return Op("cli_sweep", f"invalid-{kind}", argv, valid=False)


# ---------------------------------------------------------------------------
# References


def reference_amplitude(z: complex) -> complex:
    return (-1.0 / SQRT_8PI) / (1.0 / z + 0.25j)


def reference_total_field(k, theta0, z, x, y):
    p0 = k * math.sin(theta0)
    varpi0 = math.sqrt(k * k - p0 * p0)
    c_prime = -0.5j / (1.0 / z + 0.25j)
    incident = np.exp(1j * (-varpi0 * x + p0 * y)) / TWO_PI
    return incident + c_prime / FOUR_PI * special.hankel1(0, k * np.hypot(x, y))


def reference_psi0(k, b_plus, b_minus, y):
    return (b_plus * np.exp(1j * k * y) + b_minus * np.exp(-1j * k * y)) / TWO_PI


# ---------------------------------------------------------------------------
# Checks


def check(op: Op, rc, stdout: str, stderr: str, warned: int) -> Outcome:
    """Judge one operation's exit code, streams and outputs."""
    if warned:
        return Outcome(False, reason=f"{warned} warning(s) raised")
    if not op.valid:
        lines = stderr.splitlines()
        if (rc == 1 and stdout == "" and len(lines) == 1
                and lines[0].startswith(ERROR_PREFIX) and stderr.endswith("\n")):
            return Outcome(True, rejected=True)
        return Outcome(False, reason=f"invalid argv not rejected cleanly: rc={rc} "
                                     f"stderr={stderr[-200:]!r}")
    if rc != 0 or stderr:
        return Outcome(False, rejected=rc == 1,
                       reason=f"valid op failed: rc={rc} stderr={stderr[-300:]!r}")
    try:
        if op.workload == "field_grid":
            return _check_field(op)
        if op.workload == "crosscheck":
            return _check_verify(op, stdout)
        return _check_table(op, stdout)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return Outcome(False, reason=f"unreadable output: {type(exc).__name__}: {exc}")


def _close(got, ref, tol):
    return bool(np.all(np.abs(got - ref) <= tol * np.maximum(1.0, np.abs(ref))))


def _rows_as_tuples(pairs):
    keys = tuple(k for k, _ in pairs)
    if keys in (FIELD_HEADER, FAR_HEADER):
        return tuple(v for _, v in pairs)
    return dict(pairs)


def _read_csv_table(path: Path, header):
    with open(path, encoding="utf-8") as fh:
        if fh.readline().rstrip("\r\n") != ",".join(header):
            raise ValueError(f"unexpected header in {path.name}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _check_field(op: Op) -> Outcome:
    p = op.params
    far = p["extra"] == "far"
    bytes_out = op.out.stat().st_size
    if p["fmt"] == "csv":
        data = _read_csv_table(op.out, FIELD_HEADER)
        far_data = None
        if far:
            sidecar = op.out.with_name(op.out.name + ".farfield.csv")
            bytes_out += sidecar.stat().st_size
            far_data = _read_csv_table(sidecar, FAR_HEADER)
    else:
        obj = json.loads(op.out.read_text(encoding="utf-8"), object_pairs_hook=_rows_as_tuples)
        data = np.array(obj["rows"], dtype=float)
        far_data = np.array(obj["far_field"], dtype=float) if far else None
        if far != ("far_field" in obj):
            return Outcome(False, reason="far_field section presence is wrong")

    x0, x1, nx, y0, y1, ny = p["grid"]
    X, Y = np.meshgrid(np.linspace(x0, x1, nx), np.linspace(y0, y1, ny), indexing="ij")
    X, Y = X.ravel(), Y.ravel()
    if data.shape != (nx * ny, len(FIELD_HEADER)):
        return Outcome(False, reason=f"field rows {data.shape}, expected {nx * ny}")
    if not (_close(data[:, 0], X, 1e-13) and _close(data[:, 1], Y, 1e-13)):
        return Outcome(False, reason="grid node coordinates differ")
    k = p["k"]
    mask = (k * np.hypot(X, Y) < EXCLUSION_KR) if p["extra"] != "psi0" else np.zeros(X.shape, bool)
    if not (np.array_equal(data[:, 7], mask.astype(float))
            and np.isnan(data[mask, 2:4]).all()):
        return Outcome(False, reason=f"mask differs (expected {int(mask.sum())} masked cells)")
    psi = data[~mask, 2] + 1j * data[~mask, 3]
    if p["extra"] == "psi0":
        ref = reference_psi0(k, p["b_plus"], p["b_minus"], Y[~mask])
    else:
        ref = reference_total_field(k, p["theta0"], p["z"], X[~mask], Y[~mask])
    if not _close(psi, ref, FIELD_TOL):
        return Outcome(False, reason=f"psi off by {float(np.max(np.abs(psi - ref))):.3e}")
    cells = nx * ny
    if far:
        kr = np.repeat(FAR_KR, FAR_NTHETA)
        theta = np.tile(-math.pi + (np.arange(FAR_NTHETA) + 0.5) * TWO_PI / FAR_NTHETA,
                        len(FAR_KR))
        if far_data.shape != (kr.size, len(FAR_HEADER)):
            return Outcome(False, reason=f"far-field rows {far_data.shape}")
        if not (_close(far_data[:, 0], kr, 1e-14) and _close(far_data[:, 1], theta, 1e-14)):
            return Outcome(False, reason="far-field sample positions differ")
        r = kr / k
        ref = reference_total_field(k, p["theta0"], p["z"], r * np.cos(theta), r * np.sin(theta))
        if not _close(far_data[:, 2] + 1j * far_data[:, 3], ref, FIELD_TOL):
            return Outcome(False, reason="far-field psi differs")
        cells += kr.size
    return Outcome(True, cells=cells, bytes_out=bytes_out)


def _check_verify(op: Op, stdout: str) -> Outcome:
    obj = json.loads(stdout)
    checks = obj["checks"]
    ok = (obj["command"] == "verify" and obj["seed"] == op.env_seed
          and obj["all_passed"] is True and obj["injected_fault"] is False
          and len(checks) == VERIFY_CHECKS and all(c["passed"] is True for c in checks))
    return Outcome(ok, cells=len(checks), bytes_out=len(stdout.encode("utf-8")),
                   reason="" if ok else "verify report is not a clean 19/19 pass")


def _table_rows(op: Op, stdout: str):
    if op.params["fmt"] == "json":
        obj = json.loads(stdout)
        if obj["command"] != op.kind:
            raise ValueError("wrong command in report")
        return obj["rows"]
    reader = csv.reader(io.StringIO(stdout))
    header = next(reader)
    return [dict(zip(header, map(float, row))) for row in reader]


def _check_table(op: Op, stdout: str) -> Outcome:
    p = op.params
    rows = _table_rows(op, stdout)
    ref = reference_amplitude(p["z"])
    if op.kind == "amplitude":
        expected_rows = p["n"]
        columns = ("f_dfss", "f_renormalized")
    else:
        expected_rows = len(p["lams"])
        columns = ("f_renormalized",) if op.kind == "flow" else ("f_absorbed",)
        if not _close(np.array([r["lambda"] for r in rows]), np.array(p["lams"]), 1e-14):
            return Outcome(False, reason="cutoff column differs from the input")
    if len(rows) != expected_rows:
        return Outcome(False, reason=f"{len(rows)} rows, expected {expected_rows}")
    for row in rows:
        for col in columns:
            got = complex(row[f"re_{col}"], row[f"im_{col}"])
            if abs(got - ref) > AMPLITUDE_RTOL * abs(ref):
                return Outcome(False, reason=f"{col} = {got!r}, reference {ref!r}")
    return Outcome(True, cells=len(rows), bytes_out=len(stdout.encode("utf-8")))


# ---------------------------------------------------------------------------
# Golden outputs: default arguments, hashed byte for byte.  Each case is
# (name, argv, file to hash or None for standard output).


def golden_cases(workload: str, work_dir: Path):
    out = Path(work_dir) / "golden"
    if workload == "field_grid":
        far = f"{out}.far.csv"
        return [("field.csv", ["field", f"--out={out}.csv"], Path(f"{out}.csv")),
                ("field.json", ["field", "--format=json", f"--out={out}.json"],
                 Path(f"{out}.json")),
                ("field.farfield.csv", ["field", "--far-field", f"--out={far}"],
                 Path(far + ".farfield.csv"))]
    if workload == "crosscheck":
        return [("verify.json", ["verify", "--json"], None)]
    return [(f"{cmd}.{fmt}", [cmd, f"--format={fmt}"], None)
            for cmd in ("amplitude", "flow", "family") for fmt in ("csv", "json")]
