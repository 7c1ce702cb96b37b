"""Command-line surface: amplitudes, flows, solution families, fields, verify.

Every command renders a deterministic report (CSV with a header row or JSON
with stable key order; floats at 15 significant digits) so repeated runs with
the same configuration are byte-identical.  Physical preconditions are
re-validated at parse time and violations exit with status 1 and a
single-line machine-parseable diagnostic; numerical-invariant failures from
``verify`` exit with status 2.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

from . import fields, kernel, singfree, transfer, verify
from ._lazy import load_on_first_use
from .amplitudes import IncidentWave
from .errors import PointScatterError, ValidationError, finite_real, require_cutoff_above_k
from .singfree import FamilyParams
from .transfer import Coupling

np = load_on_first_use("numpy")  # the field renderer's; the small tables need none

ERROR_PREFIX = "pointscatter: error:"

FAR_FIELD_KR = (20.0, 50.0, 100.0)
FAR_FIELD_NTHETA = 120

MAX_GRID_NODES = 250_000
"""Largest ``field --grid`` node count nx*ny.  The rendered table is held in
memory, about 135 bytes per node as CSV and 266 as JSON, and the render peaks
near 2.6 and 2.3 times that: at the cap 88 MB (CSV) or 154 MB (JSON) by
tracemalloc, in 0.32-0.36 s or 0.39-0.45 s on a 2-vCPU VM; the default grid
has 40 401 nodes."""

MAX_THETA_GRID = 10_000
"""Largest ``amplitude --theta-grid``.  The amplitude is isotropic, so a
command solves once whatever the grid; at the cap it takes 36-58 ms (CSV) or
55-104 ms (JSON) in-process on a noisy 2-vCPU VM, most of it rendering the
80 000 cells in Python, without numpy."""


def _json_float(value: float) -> float:
    # round-trip through the 15-significant-digit form so JSON and CSV agree
    return float(f"{value:.15g}") if math.isfinite(value) else value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


# The argument types raise ArgumentTypeError: argparse shows its message, but
# replaces that of any ValueError (ValidationError included) with
# "invalid <function name> value".

def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected RE,IM complex pair, got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad complex pair {text!r}") from exc


def _parse_float_list(text: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",") if p != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad numeric list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty numeric list")
    return values


def _parse_grid(text: str) -> fields.GridSpec:
    parts = text.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError(f"expected X0,X1,NX,Y0,Y1,NY, got {text!r}")
    try:
        values = [cast(p) for cast, p in zip((float, float, int) * 2, parts)]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}") from exc
    try:
        spec = fields.GridSpec(*values)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if spec.nx * spec.ny > MAX_GRID_NODES:
        raise argparse.ArgumentTypeError(
            f"{spec.nx}x{spec.ny} grid exceeds {MAX_GRID_NODES} nodes")
    return spec


def _parse_theta_grid(text: str) -> int:
    try:
        n = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"N must be an integer, got {text!r}") from exc
    if not 1 <= n <= MAX_THETA_GRID:
        raise argparse.ArgumentTypeError(f"N must be in [1, {MAX_THETA_GRID}], got {n}")
    return n


def build_parser() -> _Parser:
    parser = _Parser(prog="pointscatter",
                     description="2D delta-function point scatterer, both treatments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_z=True):
        p.add_argument("--k", type=float, default=1.0, help="wavenumber (>0)")
        p.add_argument("--theta0", type=float, default=math.pi,
                       help="incidence angle in radians, in (pi/2, 3pi/2)")
        if need_z:
            p.add_argument("--z", type=_parse_complex, default=complex(1.0, 0.0),
                           metavar="RE,IM", help="coupling constant")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="output file (default: stdout)")

    p_amp = sub.add_parser("amplitude", help="scattering amplitude, both routes")
    add_common(p_amp)
    p_amp.add_argument("--theta-grid", type=_parse_theta_grid, default=8, metavar="N",
                       help="number of scattering angles")

    p_flow = sub.add_parser("flow", help="renormalization flow across cutoffs")
    add_common(p_flow)
    p_flow.add_argument("--lambda", dest="lam", type=_parse_float_list,
                        default=[1e2, 1e4, 1e6], metavar="L1,L2,...",
                        help="strictly increasing cutoffs, all > k")
    p_flow.add_argument("--mu", type=float, default=None,
                        help="renormalization scale (default: k)")

    p_fam = sub.add_parser("family", help="two-parameter solution family")
    add_common(p_fam)
    p_fam.add_argument("--lambda", dest="lam", type=_parse_float_list,
                       default=[2.0, 10.0, 100.0], metavar="L1,L2,...")
    p_fam.add_argument("--b-plus", type=_parse_complex, default=0j, metavar="RE,IM")
    p_fam.add_argument("--b-minus", type=_parse_complex, default=0j, metavar="RE,IM")

    p_field = sub.add_parser("field", help="wavefunction and current grids")
    add_common(p_field)
    p_field.add_argument("--grid", type=_parse_grid,
                         default=fields.GridSpec(-2.0, 2.0, 201, -2.0, 2.0, 201),
                         metavar="X0,X1,NX,Y0,Y1,NY")
    p_field.add_argument("--psi0-only", action="store_true",
                         help="emit the non-scattering solution psi0 instead")
    p_field.add_argument("--b-plus", type=_parse_complex, default=0j, metavar="RE,IM")
    p_field.add_argument("--b-minus", type=_parse_complex, default=0j, metavar="RE,IM")
    p_field.add_argument("--far-field", action="store_true",
                         help="also emit polar-circle samples with asymptotic residuals")

    p_verify = sub.add_parser("verify", help="run the numerical invariant suite")
    p_verify.add_argument("--json", action="store_true", dest="as_json")
    p_verify.add_argument("--inject-fault", action="store_true",
                          help="negative control: flip a sign in the solve oracle")
    p_verify.add_argument("--out", default=None, metavar="PATH")

    return parser


@functools.cache
def _parser() -> _Parser:
    """The process's one parser, built on first use.  Reuse is safe: parsing
    mutates no parser, and no command mutates a default."""
    return build_parser()


# ---------------------------------------------------------------------------
# Rendering helpers
#
# A table is a header, the 2-D ``rows`` of its dense cells and an optional
# ``few``, which maps the position of a column that takes few distinct values
# to (values, index): that column's cell in row r is values[index[r]].  The
# dense cells fill the other columns in order.  Each distinct value of a
# ``few`` column is formatted once and its token reused.
#
# Tables render to bytes, and a report's pieces are joined once.  A table
# without ``few`` is a list of rows of floats and renders in one bytes % pass
# ("%.15g" for CSV, "%s" of ``_json_tokens`` for JSON) without numpy: most
# have a few dozen cells, and the commands that print only such tables
# (amplitude, flow, family) never import numpy.
#
# A table with ``few`` (the field grid, tens of thousands of rows) renders in
# blocks of rows with no Python object per cell.  Each block is one byte
# matrix with a row per table row: each piece of the row's literal text
# NUL-padded to 8 bytes, and for each cell a slot of _SLOT bytes holding its
# text NUL-padded.  numpy writes the matrix as uint64 words and
# bytes.translate deletes the NULs; literal text holds none (json.dumps
# escapes it in a name, and CSV rows add only "," and "\r\n").  Most dense
# cells lie in [1e-4, 1) in magnitude, where "%.15g" writes "[-]0." + zeros +
# 15 digits less trailing zeros; numpy finds those digits as an integer and
# gathers their ASCII from a table, four at a time.  Every other dense cell
# gets its token from ``_csv_tokens`` or ``_json_tokens``.

_SPLIT = 2.0 ** 27 + 1.0  # Dekker's splitter for float64


def _split(x):
    """(hi, lo) with x = hi + lo exactly, each of at most 26 significant bits."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _words(text: bytes) -> np.ndarray:
    """``text`` NUL-padded to a multiple of 8 bytes, as uint64 words."""
    return np.frombuffer(text.ljust(-(-len(text) // 8) * 8, b"\0"), dtype=np.uint64)


@functools.cache
def _digit_tables():
    """(scale, scale_hi, scale_lo, prefixes, groups) for ``_fixed_slots``,
    built on the first field render.  scale[e + 4] = 10^(14 - e) for
    e = -4 ... -1 (exact), split as by ``_split``; prefixes holds the words
    of "0.", "0.0", ... "0.000", then the same with "-"; groups holds the
    four-digit groups 0000 ... 9999 as ASCII uint32 words, then the same
    groups with their trailing zeros as NUL (so entry 10 000 is empty)."""
    scale = 10.0 ** np.arange(18, 14, -1)
    prefixes = np.concatenate([_words(sign + b"0." + b"0" * zeros)
                               for sign in (b"", b"-") for zeros in range(4)])
    ascii = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + 48  # "0000" ... "9999"
    # a digit is kept when it, or a digit after it, is not "0"
    kept = np.maximum.accumulate(ascii[:, ::-1], axis=1)[:, ::-1] > 48
    groups = np.ascontiguousarray(np.concatenate([ascii, ascii * kept])).view(np.uint32).ravel()
    return (scale, *_split(scale), prefixes, groups)


_SLOT = 24  # bytes per cell: the longest tokens, such as "-2.22507385850721e-308", have 22
_ROWS = 1 << 12  # table rows per block: keeps each block's arrays near 1 MB


def _fixed_slots(v: np.ndarray):
    """(fixed, slots) for the 1-D float array ``v``: ``fixed`` marks the
    cells whose "%.15g" text numpy writes, and row i of ``slots`` holds that
    text for cell i, NUL-padded to _SLOT bytes, as uint64 words; the rows of
    other cells are left for their tokens.

    Only cells with 1e-4 <= |v| < 1 qualify: there "%.15g" writes "[-]0.",
    -e - 1 zeros and the 15 digits of the integer m nearest to
    s = |v| 10^(14 - e), e = floor(log10 |v|), less trailing zeros.  s is
    formed exactly as p + err (Dekker's product).  A cell whose s lies
    within 1e-6 of a half, or whose m leaves [1e14, 1e15) (a carry to the
    next decade, or log10 off by one), is left out.  A slot is the prefix
    word, then the 16 digits of 10 m as four groups of four from the table
    of groups: the last group with a non-zero digit, and every group after
    it, without trailing zeros.
    """
    scale, scale_hi, scale_lo, prefixes, groups = _digit_tables()
    x = np.abs(v)
    fixed = (x >= 1e-4) & (x < 1.0)
    x[~fixed] = 0.5  # log10 of 0, nan or inf would warn
    decade = np.clip(np.floor(np.log10(x)), -4.0, -1.0).astype(np.intp) + 4  # e + 4
    p = x * scale[decade]
    x_hi, x_lo = _split(x)
    s_hi, s_lo = scale_hi[decade], scale_lo[decade]
    err = ((x_hi * s_hi - p) + x_hi * s_lo + x_lo * s_hi) + x_lo * s_lo
    m = np.rint(p)
    frac = (p - m) + err
    m += (frac > 0.5).astype(float) - (frac < -0.5)
    fixed &= (np.abs(np.abs(frac) - 0.5) > 1e-6) & (m >= 1e14) & (m < 1e15)
    m[~fixed] = 1e14  # keeps every group in the table
    # scalar divisors: numpy divides by one constant with multiplies and
    # shifts, by an array of divisors one hardware division at a time
    digits = 10 * m.astype(np.int64)
    high = digits // 10 ** 8
    low = digits - high * 10 ** 8
    g0, g2 = high // 10 ** 4, low // 10 ** 4
    g1, g3 = high - g0 * 10 ** 4, low - g2 * 10 ** 4
    slots = np.empty((len(v), _SLOT // 8), dtype=np.uint64)
    slots[:, 0] = prefixes[4 * (v < 0) + 3 - decade]
    text = slots[:, 1:].view(np.uint32)
    text[:, 0] = groups[g0 + 10_000 * ((low == 0) & (g1 == 0))]
    text[:, 1] = groups[g1 + 10_000 * (low == 0)]
    text[:, 2] = groups[g2 + 10_000 * (g3 == 0)]
    text[:, 3] = groups[g3 + 10_000]
    return fixed, slots


def _token_slots(tokens) -> np.ndarray:
    """Each token NUL-padded to _SLOT bytes, as rows of uint64 words."""
    return np.frombuffer(b"".join([t.ljust(_SLOT, b"\0") for t in tokens]),
                         dtype=np.uint64).reshape(-1, _SLOT // 8)


def _fill_blocks(literals, rows, few, tokens_of) -> list[bytes]:
    """The rows of a table with ``few`` as pieces to join, one per block of
    ``_ROWS`` rows.  Each row is literals[0], cell 0, literals[1], ...,
    literals[-1]; its cells are a ``few`` column's token, a fixed dense
    cell's text from ``_fixed_slots`` or another dense cell's ``tokens_of``
    token.  Blocks keep the peak memory of a large grid near the text plus
    one block's matrix."""
    dense = np.asarray(rows, dtype=float)
    words = _SLOT // 8
    row, starts = [], []
    for text in literals[:-1]:
        row.append(_words(text))
        starts.append(sum(map(len, row)))
        row.append(np.zeros(words, dtype=np.uint64))
    row = np.concatenate([*row, _words(literals[-1])])
    slot = np.array(starts)[:, None] + np.arange(words)  # each cell's words in a row
    dense_at = slot[[i for i in range(len(starts)) if i not in few]].ravel()
    few_at = [(slot[i], _token_slots(tokens_of(np.asarray(values, dtype=float).tolist())),
               np.asarray(index)) for i, (values, index) in few.items()]
    pieces = []
    for start in range(0, len(dense), _ROWS):
        block = dense[start:start + _ROWS]
        flat = block.ravel()
        fixed, cells = _fixed_slots(flat)
        rest = np.flatnonzero(~fixed)
        cells[rest] = _token_slots(tokens_of(flat[rest].tolist()))
        matrix = np.tile(row, (len(block), 1))
        matrix[:, dense_at] = cells.reshape(len(block), len(dense_at))
        for at, tokens, index in few_at:
            matrix[:, at] = tokens[index[start:start + _ROWS]]
        pieces.append(matrix.tobytes().translate(None, b"\0"))
    return pieces


def _csv_tokens(values) -> list[bytes]:
    return [b"%.15g" % v for v in values]


def _csv_bytes(header, rows, few=None) -> bytes:
    head = (",".join(header) + "\r\n").encode("utf-8")
    if few:
        literals = [b"", *[b","] * (len(header) - 1), b"\r\n"]
        return b"".join([head, *_fill_blocks(literals, rows, few, _csv_tokens)])
    template = (b",".join([b"%.15g"] * len(header)) + b"\r\n") * len(rows)
    return head + template % tuple(itertools.chain.from_iterable(rows))


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_DBL_MAX = sys.float_info.max


def _json_tokens(values) -> list[bytes]:
    """Each of the floats ``values`` rounded to 15 significant digits, as
    json.dumps writes it.

    A "%.15g" token already reads as repr(float(token)), which is what
    json.dumps writes, unless the token is integral ("-0", "3"), has
    exponent e+15 (repr stays positional below 1e16), is subnormal or near
    DBL_MAX (they lose digits or round to inf), or is not finite.  Those
    cells are rewritten through repr.  The test that finds them also takes
    harmless others: every |v| >= 5e13 lies within 1e-14 |v| of an integer.
    """
    tokens = (b"%.15g\n" * len(values) % tuple(values)).split(b"\n")
    tokens.pop()
    remainder = math.remainder  # v less its nearest integer, exactly
    for i, v in enumerate(values):
        size = abs(v)
        if not (1e-290 <= size <= _DBL_MAX and abs(remainder(v, 1.0)) > 1e-14 * size):
            text = repr(float(tokens[i]))
            tokens[i] = _JSON_NONFINITE.get(text, text).encode("ascii")
    return tokens


def _json_table(header, rows, few=None) -> list[bytes]:
    """The table as json.dumps(indent=2) writes a list of {name: cell} row
    objects one level inside a report, as pieces to join: one % pass, or
    with ``few`` one piece per block of rows from ``_fill_blocks``."""
    n = len(rows)
    if n == 0:
        return [b"[]"]
    members = [b"      %s: " % json.dumps(name).encode("ascii") for name in header]
    if few:
        literals = [b"    {\n" + members[0], *[b",\n" + member for member in members[1:]],
                    b"\n    },\n"]
        body = _fill_blocks(literals, rows, few, _json_tokens)
        body[-1] = body[-1][:-2]  # no ",\n" after the last row
    else:
        # a literal "%" of a name must survive the % pass
        cells = b",\n".join([member.replace(b"%", b"%%") + b"%s" for member in members])
        row = b"    {\n" + cells + b"\n    }"
        flat = list(itertools.chain.from_iterable(rows))
        body = [b",\n".join([row] * n) % tuple(_json_tokens(flat))]
    return [b"[\n", *body, b"\n  ]"]


def _json_bytes(report, tables=()) -> bytes:
    """The non-empty ``report`` as json.dumps(indent=2) writes it, with each
    (key, header, rows[, few]) of ``tables`` appended as a list of row objects."""
    text = json.dumps(report, indent=2)
    pieces = [text[:-2].encode("ascii")]  # the report less its closing "\n}"
    for key, *table in tables:
        pieces += (b",\n  %s: " % json.dumps(key).encode("ascii"), *_json_table(*table))
    pieces.append(b"\n}\n")
    return b"".join(pieces)


def _table(args, header, rows, report):
    """The table as CSV, or the JSON ``report`` with the table appended as "rows"."""
    if args.format == "csv":
        return [(None, _csv_bytes(header, rows))]
    return [(None, _json_bytes(report, [("rows", header, rows)]))]


def _incident(args) -> IncidentWave:
    return IncidentWave(args.k, args.theta0)


def _theta_values(w: IncidentWave, n: int) -> list[float]:
    thetas = [-0.5 * math.pi + (j + 0.5) * 2.0 * math.pi / n for j in range(n)]
    for theta in thetas:
        if theta in (0.5 * math.pi, -0.5 * math.pi, 1.5 * math.pi) or theta == w.theta0:
            raise ValidationError(
                f"theta grid with N={n} hits an excluded angle ({theta!r}); "
                "choose a different --theta-grid")
    return thetas


def _increasing_cutoffs(lams, k: float) -> list[float]:
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValidationError("cutoff list must be strictly increasing")
    return [require_cutoff_above_k(lam, k) for lam in lams]


# ---------------------------------------------------------------------------
# Commands.  Each returns [(suffix_or_None, payload_bytes), ...]

def cmd_amplitude(args):
    w = _incident(args)
    z = Coupling.finite(args.z)
    z_tilde = Coupling.renormalized(args.z, w.k)
    thetas = _theta_values(w, args.theta_grid)
    # both amplitudes are isotropic: one solve serves every angle
    f1 = transfer.scattering_amplitude_dfss(w, z)
    f2 = transfer.scattering_amplitude_renormalized(w, z_tilde)
    header = ["theta", "re_f_dfss", "im_f_dfss", "abs2_f_dfss",
              "re_f_renormalized", "im_f_renormalized", "abs2_f_renormalized",
              "abs_route_difference"]
    same = [f1.real, f1.imag, abs(f1) ** 2, f2.real, f2.imag, abs(f2) ** 2, abs(f1 - f2)]
    rows = [[theta, *same] for theta in thetas]
    agree = f1 == f2
    return _table(args, header, rows, {
        "command": "amplitude",
        "parameters": {"k": _json_float(w.k), "theta0": _json_float(w.theta0),
                       "z": [_json_float(args.z.real), _json_float(args.z.imag)]},
        "forward_direction": "excluded: carries -2*pi*delta(theta - theta0), symbolic only",
        "routes_agree": agree,
    })


def cmd_flow(args):
    w = _incident(args)
    d = w.dispersion()
    mu = w.k if args.mu is None else finite_real("--mu", args.mu, above=0.0)
    lams = _increasing_cutoffs(args.lam, w.k)
    z_tilde = args.z
    f_ren = transfer.scattering_amplitude_renormalized(
        w, Coupling.renormalized(z_tilde, mu))
    z_finite = Coupling.finite(z_tilde)
    header = ["lambda", "lambda_over_k", "re_z_bare", "im_z_bare",
              "re_green_cutoff_zero", "im_green_cutoff_zero",
              "re_f_bare", "im_f_bare", "re_f_renormalized", "im_f_renormalized",
              "abs_route_difference", "re_b_sum", "im_b_sum",
              "re_b_tilde", "im_b_tilde"]
    rows = []
    for lam in lams:
        z_bare = transfer.flow_bare_coupling(z_tilde, lam, mu)
        g0 = kernel.green_cutoff_zero(lam, d)
        f_bare = transfer.bare_amplitude_with_cutoff(w, z_bare, lam)
        b_sum = singfree.absorption_condition(z_finite, lam, d)
        b_tilde = singfree.renormalized_b(b_sum, lam, d)
        rows.append([lam, lam / w.k, z_bare.real, z_bare.imag, g0.real, g0.imag,
                     f_bare.real, f_bare.imag, f_ren.real, f_ren.imag,
                     abs(f_bare - f_ren), b_sum.real, b_sum.imag,
                     b_tilde.real, b_tilde.imag])
    b_limit = singfree.renormalized_b_limit(z_finite)
    return _table(args, header, rows, {
        "command": "flow",
        "parameters": {"k": _json_float(w.k), "theta0": _json_float(w.theta0),
                       "z_tilde": [_json_float(z_tilde.real), _json_float(z_tilde.imag)],
                       "mu": _json_float(mu)},
        "b_tilde_limit": [_json_float(b_limit.real), _json_float(b_limit.imag)],
    })


def cmd_family(args):
    w = _incident(args)
    d = w.dispersion()
    z = Coupling.finite(args.z)
    lams = _increasing_cutoffs(args.lam, w.k)
    params = FamilyParams(args.b_plus, args.b_minus)
    f_dfss = transfer.scattering_amplitude_dfss(w, z)
    header = ["lambda", "lambda_over_k", "re_h0_regularized", "im_h0_regularized",
              "re_c", "im_c", "re_f_family", "im_f_family",
              "re_b_sum_absorption", "im_b_sum_absorption",
              "re_f_absorbed", "im_f_absorbed", "abs_f_absorbed_minus_dfss",
              "re_b_tilde", "im_b_tilde"]
    rows = []
    for lam in lams:
        h_reg = kernel.regularized_h0_at_zero(lam, d)
        _, c = singfree.family_solution(w, z, params, lam)
        f_fam = singfree.family_amplitude(w, z, params, lam)
        b_sum = singfree.absorption_condition(z, lam, d)
        f_abs = singfree.family_amplitude(w, z, FamilyParams(b_sum, 0j), lam)
        b_tilde = singfree.renormalized_b(b_sum, lam, d)
        rows.append([lam, lam / w.k, h_reg.real, h_reg.imag, c.real, c.imag,
                     f_fam.real, f_fam.imag, b_sum.real, b_sum.imag,
                     f_abs.real, f_abs.imag, abs(f_abs - f_dfss),
                     b_tilde.real, b_tilde.imag])
    return _table(args, header, rows, {
        "command": "family",
        "parameters": {"k": _json_float(w.k), "theta0": _json_float(w.theta0),
                       "z": [_json_float(args.z.real), _json_float(args.z.imag)],
                       "b_plus": [_json_float(args.b_plus.real), _json_float(args.b_plus.imag)],
                       "b_minus": [_json_float(args.b_minus.real), _json_float(args.b_minus.imag)]},
    })


def _field_rows(grid: fields.FieldGrid):
    """The field table, row (i, j) for node (x[i], y[j]) in ij order: x, y and
    the mask as few-valued columns, the field and current dense."""
    header = ["x", "y", "re_psi", "im_psi", "abs2_psi", "jx", "jy", "mask"]
    v = grid.values
    nx, ny = v.shape
    # hypot and float_power match scalar abs(psi) ** 2 bit for bit; np.abs and ** 2 do not
    abs2 = np.float_power(np.hypot(v.real, v.imag), 2)
    dense = (v.real, v.imag, abs2, grid.jx, grid.jy)
    few = {0: (grid.x, np.repeat(np.arange(nx), ny)),
           1: (grid.y, np.tile(np.arange(ny), nx)),
           7: ((0.0, 1.0), np.ravel(grid.excluded_mask).astype(np.intp))}
    return header, np.column_stack([np.ravel(c) for c in dense]), few


def cmd_field(args):
    w = _incident(args)
    if args.far_field and args.psi0_only:
        raise ValidationError("--far-field applies to the total field only")
    if args.far_field and args.out is None and args.format == "csv":
        raise ValidationError("--far-field with csv output requires --out")
    if args.psi0_only:
        params = FamilyParams(args.b_plus, args.b_minus)
        what = f"psi0 of edge weights b+ = {params.b_plus!r}, b- = {params.b_minus!r}"
    else:
        z = Coupling.finite(args.z)
        what = f"the total field at k = {w.k!r}, theta0 = {w.theta0!r}"
    try:
        # one overflow rule for both fields: a value that leaves the float
        # range, or turns into inf - inf or inf * 0, is an error, not a NaN cell
        with np.errstate(over="raise", invalid="raise"):
            # the grid is a temporary: its arrays are freed before rendering
            header, rows, few = _field_rows(
                fields.psi0_field(params, w.k, args.grid) if args.psi0_only
                else fields.total_field(w, z, args.grid))
    except FloatingPointError:
        raise ValidationError(
            f"{what} overflows its values, |psi|^2 or the current on this grid") from None

    far = None
    if args.far_field:
        far_header = ["kr", "theta", "re_psi", "im_psi", "re_psi_asymptotic",
                      "im_psi_asymptotic", "abs_residual", "relative_residual"]
        samples = fields.far_field_samples(w, z, FAR_FIELD_KR, FAR_FIELD_NTHETA)
        far = (far_header, np.concatenate([np.column_stack((
            np.full(FAR_FIELD_NTHETA, s.kr), s.theta, s.psi.real, s.psi.imag,
            s.psi_asymptotic.real, s.psi_asymptotic.imag, s.residual,
            s.residual / s.scale)) for s in samples]).tolist())

    if args.format == "csv":
        outputs = [(None, _csv_bytes(header, rows, few))]
        if far is not None:
            outputs.append((".farfield.csv", _csv_bytes(*far)))
        return outputs
    tables = [("rows", header, rows, few)]
    if far is not None:
        tables.append(("far_field", *far))
    return [(None, _json_bytes({
        "command": "field",
        "parameters": {"k": _json_float(w.k), "theta0": _json_float(w.theta0),
                       "psi0_only": bool(args.psi0_only)},
    }, tables))]


def render_command(argv) -> bytes:
    """Parse and execute a non-verify command, returning its primary payload."""
    args = _parser().parse_args(argv)
    if args.command == "verify":
        raise ValidationError("render_command does not run the verify suite")
    outputs = _DISPATCH[args.command](args)
    return outputs[0][1]


def _run_verify(args) -> int:
    results = verify.run_all(inject_fault=args.inject_fault)
    all_passed = all(r.passed for r in results)
    if args.as_json:
        payload = _json_bytes({
            "command": "verify",
            "seed": verify.resolve_seed(),
            "injected_fault": bool(args.inject_fault),
            "all_passed": all_passed,
            "checks": [{"name": r.name, "tolerance": _json_float(r.tolerance),
                        "measured": _json_float(r.measured), "passed": r.passed,
                        **({} if r.error is None else {"error": r.error})}
                       for r in results],
        })
    else:
        lines = [r.line() for r in results]
        lines.append("verify: " + ("all checks passed" if all_passed
                                   else "NUMERICAL INVARIANT FAILURE"))
        payload = ("\n".join(lines) + "\n").encode("utf-8")
    _write(args, [(None, payload)])
    return 0 if all_passed else 2


def _write(args, outputs) -> None:
    """Write each (suffix, payload) to --out plus suffix, or all to stdout.

    The bytes go to stdout's binary buffer, after whatever text it holds; only
    a text-only stdout (such as a StringIO) gets a decoded copy.
    """
    for suffix, payload in outputs:
        if args.out is None:
            buffer = getattr(sys.stdout, "buffer", None)
            if buffer is None:
                sys.stdout.write(payload.decode("utf-8"))
            else:
                sys.stdout.flush()
                buffer.write(payload)
        else:
            with open(args.out + (suffix or ""), "wb") as fh:
                fh.write(payload)


_DISPATCH = {
    "amplitude": cmd_amplitude,
    "flow": cmd_flow,
    "family": cmd_family,
    "field": cmd_field,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "verify":
            return _run_verify(args)
        _write(args, _DISPATCH[args.command](args))
        return 0
    except (PointScatterError, OSError) as exc:
        message = str(exc).replace("\n", " ")
        print(f"{ERROR_PREFIX} {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
