"""Numerical invariant suite: every advertised tolerance, measured and judged.

Each check mirrors one acceptance criterion of the library (route agreement,
closed-form solves, regularization limits, field-level behavior, special
functions, output determinism) and reports the measured residual next to the
tolerance it is held to.  The CLI ``verify`` command runs this suite and
exits nonzero on any failure.

``inject_fault=True`` flips a sign in the closed-form constant the solve is
compared against; it exists purely as a negative control so a silent test
harness cannot masquerade as a passing one.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from typing import NamedTuple

from . import fields, kernel, singfree, specfun, transfer
from ._lazy import load_on_first_use
from .amplitudes import IncidentWave
from .errors import (ConvergenceError, DomainError, PointScatterError, ValidationError,
                     finite_real)
from .kernel import Dispersion
from .singfree import FamilyParams
from .transfer import Coupling

np = load_on_first_use("numpy")
scipy = load_on_first_use("scipy")  # scipy.integrate loads when first reached

DEFAULT_SEED = 20260808
SEED_ENV_VAR = "POINTSCATTER_SEED"

_PI_50 = Decimal("3.14159265358979323846264338327950288419716939937511")
_GAMMA_50 = Decimal("0.57721566490153286060651209008240243104215933593992")


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    measured: float
    error: str | None = None  # type and message of what the measure raised

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance  # the one pass rule: a NaN fails

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"[{status}] {self.name}: measured={self.measured:.6e} tolerance={self.tolerance:.1e}"
        return text if self.error is None else f"{text} error={self.error}"


def resolve_seed(seed: int | None = None) -> int:
    """``seed``, else ``POINTSCATTER_SEED``, else ``DEFAULT_SEED``.

    A seed is a non-negative decimal integer: an int (not a bool) or a string
    of ASCII digits.  Anything else is a ValidationError naming the variable
    and the value.
    """
    value = os.environ.get(SEED_ENV_VAR, DEFAULT_SEED) if seed is None else seed
    if isinstance(value, str) and value.isascii() and value.isdigit():
        try:
            value = int(value)
        except ValueError:  # more digits than int() converts
            pass
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return value
    raise ValidationError(
        f"seed ({SEED_ENV_VAR}) must be a non-negative decimal integer, got {value!r}")


# ---------------------------------------------------------------------------
# Independent series oracle (high-precision integer and decimal arithmetic; a
# different algorithm and number system from the scipy routines behind specfun)

_ORACLE_MAX_TERMS = 2000
_LN2_60 = 693147180559945309417232121458176568075500134360255254120680  # ln 2 * 10^60
_LN_BITS = 200  # fraction bits of the ln series, about 60 digits for 50 kept


def _oracle_ln_half(x: float) -> Decimal:
    """ln(x/2) for a float x > 0, correctly rounded to 50 digits: the value
    ``(Decimal(x) / 2).ln(Context(prec=50))`` takes with x/2 exact.

    x/2 = m 2^e with m in [1/sqrt 2, sqrt 2) comes from ``math.frexp``, exact
    for subnormal x too.  ln m = 2 atanh(u), u = (m - 1)/(m + 1), |u| < 0.172,
    sums in integer fixed point with ``_LN_BITS`` fraction bits, and e ln 2
    comes from ``_LN2_60``.  Every step rounds down, so the sum is within
    ``err`` units of its last bit; when both ends of that interval round to
    the same 50 digits, the value between them does too.  Otherwise
    ``Decimal.ln`` decides: for about one point in 1e10, and for x within
    about 1e-8 of 2, where ln(x/2) is too close to 0 for 200 bits.
    """
    if x == 2.0:
        return Decimal(0)  # ln 1, exactly
    f, e = math.frexp(x)  # x/2 = f 2^(e - 1), f in [1/2, 1)
    e -= 1
    if f < math.sqrt(0.5):
        f, e = 2.0 * f, e - 1
    a, b = f.as_integer_ratio()
    bits = _LN_BITS
    term = (abs(a - b) << bits) // (a + b)
    u2 = term * term >> bits
    atanh, j = term, 1
    while term:
        term = term * u2 >> bits
        j += 2
        atanh += term // j
    # each of the (j + 1)/2 terms is below its exact value by less than
    # 2.3 units and the dropped tail is below 1.4; ln 2 * 2^bits is off by
    # less than 2 + 2^bits / 10^60 units
    ln_m = 2 * atanh if a > b else -2 * atanh
    total = ln_m + e * ((_LN2_60 << bits) // 10 ** 60)
    err = 4 * (j + 2) + abs(e) * (2 + (1 << bits) // 10 ** 60)
    ctx = Context(prec=50)
    lo, hi = (ctx.divide(Decimal(total + d), Decimal(1 << bits)) for d in (-err, err))
    if lo == hi:
        return lo
    # a double has at most 767 significant digits, so x/2 is exact at 800
    return ctx.ln(Context(prec=800).divide(Decimal(x), 2))


def _oracle_prec(x: float) -> int:
    # The alternating Maclaurin terms peak near e^x, so x / ln 10 digits cancel
    # before the first significant one; grow the working precision to match.
    return 80 + int(x / math.log(10)) + 5


def oracle_j0_y0(x: float) -> tuple[Decimal, Decimal]:
    """J0 and Y0 from one pass over the Maclaurin terms, x > 0.

    Y0 = (2/pi)[(ln(x/2)+gamma) J0 + harmonic companion series].  The pass
    works at prec = ``_oracle_prec(x)`` decimal digits and stops once the
    companion term falls below 10^-(prec-20); that term is never smaller than
    the J0 term, so the J0 sum has converged too.  ln(x/2) is taken at the
    50 digits that pi and gamma carry.

    The series runs in integer fixed point on the exact ratio x = num/den,
    with prec decimal digits (plus 16 guard bits) after the binary point,
    and the two sums become Decimals once at the end.  Raises DomainError
    unless x is a finite real number above 0, and ConvergenceError when the pass
    needs more than 2000 terms (x above about 1084).
    """
    try:
        x = finite_real("oracle argument", x, above=0.0)
    except ValidationError as exc:
        raise DomainError(str(exc)) from None
    if x > 2.0 * (_ORACLE_MAX_TERMS + 1):
        # every term up to the guard exceeds 1, since (x/2)^2 > m^2 there, so
        # the pass would end at the guard; say so before sizing the integers
        raise ConvergenceError(_oracle_divergence(x))
    prec = _oracle_prec(x)
    bits = int(prec * math.log2(10)) + 16
    one = 1 << bits
    stop = -(-one // 10 ** (prec - 20))  # contrib < stop <=> contrib / one < 10^-(prec-20)
    num, den = x.as_integer_ratio()
    num2, den2 = num * num, 4 * den * den
    term = one
    j0 = one
    harmonic = 0
    total = 0
    m = 0
    while True:
        m += 1
        term = term * num2 // (den2 * m * m)
        harmonic += one // m
        contrib = (term * harmonic) >> bits
        if m % 2 == 0:
            j0 += term
            total -= contrib
        else:
            j0 -= term
            total += contrib
        if m > 4 and contrib < stop:
            break
        if m > _ORACLE_MAX_TERMS:
            raise ConvergenceError(_oracle_divergence(x))
    with localcontext() as ctx:
        ctx.prec = prec
        scale = Decimal(one)
        j0_dec, total_dec = Decimal(j0) / scale, Decimal(total) / scale
        log_part = _oracle_ln_half(x) + _GAMMA_50
        return j0_dec, (2 / _PI_50) * (log_part * j0_dec + total_dec)


def _oracle_divergence(x: float) -> str:
    return f"oracle series at x = {x!r} did not converge within {_ORACLE_MAX_TERMS} terms"


# ---------------------------------------------------------------------------
# The table of checks

class _Run(NamedTuple):  # what a measure may draw on
    rng: object
    inject_fault: bool


_CHECKS = []  # ((name, tolerance), ...) and the measure, in report order


def _check(*entries):
    """Register the decorated measure, after those before it, as the checks
    ``entries``, each a (name, tolerance) pair.  The measure takes a ``_Run``
    and returns a value per entry (a tuple when there are several): a float,
    or a list of residuals that must shrink strictly, judged by its last.
    The worst of several is ``np.max``, as the builtin ``max`` may drop a NaN."""
    def register(measure):
        _CHECKS.append((entries, measure))
        return measure
    return register


def _judged(value) -> float:
    if isinstance(value, list):
        if not all(a > b for a, b in zip(value, value[1:])):
            shown = ", ".join(f"{v:.3e}" for v in value)
            raise ConvergenceError(f"residuals {shown} do not shrink strictly")
        value = value[-1]
    return float(value)


_COUPLINGS = (1.0, 0.5j, 2.0 - 1.0j)


@_check(("1-route-agreement", 1e-14))
def _route_agreement(run):
    w = IncidentWave(1.0, math.pi)
    residuals = []
    for _ in range(10):
        mag = 10.0 ** run.rng.uniform(-1.0, 1.0)
        phase = run.rng.uniform(0.0, 2.0 * math.pi)
        zv = mag * complex(math.cos(phase), math.sin(phase))
        f1 = transfer.scattering_amplitude_dfss(w, Coupling.finite(zv))
        f2 = transfer.scattering_amplitude_renormalized(
            w, Coupling.renormalized(zv, 1.0))
        residuals.append(abs(f1 - f2))
    return np.max(residuals)


@_check(("2a-closed-form-solve", 1e-12))
def _solve_residual(run):
    w = IncidentWave(1.0, math.pi)
    sign = -1.0 if run.inject_fault else 1.0
    return np.max([abs(transfer.solve_fundamental(w, Coupling.finite(zv)).c_prime
                       - sign * (-0.5j) / (1.0 / zv + 0.25j)) for zv in _COUPLINGS])


@_check(("2b-band-integral-pi", 1e-10))
def _band_integral_pi(run):
    # adaptive quadrature with algebraic endpoint weights; the oracle side of
    # the exact band constant used by the solver
    val, _ = scipy.integrate.quad(lambda q: 1.0, -1.0, 1.0, weight="alg", wvar=(-0.5, -0.5))
    return abs(val - math.pi)


@_check(("3a-green-cutoff-quadrature", 1e-8), ("3b-green-imag-minus-quarter", 1e-10))
def _green_cutoff(run):
    """3a and 3b from one quadrature of G_lam(0) per cutoff."""
    d = Dispersion(1.0)
    quad_residuals, imag_residuals = [], []
    for lam in (2.0, 10.0, 100.0):
        closed = kernel.green_cutoff_zero(lam, d)
        quad = kernel.green_cutoff_quadrature(0.0, lam, d).value
        quad_residuals.append(abs(quad - closed))
        imag_residuals += [abs(closed.imag + 0.25), abs(quad.imag + 0.25)]
    return np.max(quad_residuals), np.max(imag_residuals)


@_check(("4-oscillatory-identity", 1e-5))
def _oscillatory_identity(run):
    d = Dispersion(1.0)
    points = [(0.5, 0.0), (1.0, 0.0), (0.7, 0.7), (2.0, 1.0), (1.5, -2.0),
              (3.0, 4.0), (-2.0, 3.0), (5.0, 5.0), (6.0, 8.0), (0.0, 2.0)]
    return np.max([kernel.momentum_identity_check(
        x, y, d, tail_cutoff=4e5 if x == 0.0 else 50.0).residual for x, y in points])


@_check(("5-scheme-matching-constant", 1e-6))
def _scheme_matching(run):
    d = Dispersion(1.0)
    radii = [0.05 * 0.5 ** j for j in range(8)]
    residuals = []
    for alpha in (1.0, 2.0, 2.0 * math.exp(-specfun.EULER_GAMMA)):
        target = (specfun.EULER_GAMMA + math.log(0.5 * alpha)) / (2.0 * math.pi)
        residuals.append(abs(kernel.scheme_matching_limit(alpha, d, radii) - target))
    return np.max(residuals)


@_check(("6-renormalization-flow-collapse", 5e-2))
def _flow_collapse(run):
    w = IncidentWave(1.0, math.pi)
    z_tilde, mu = 1.0, w.k
    f_ren = transfer.scattering_amplitude_renormalized(w, Coupling.renormalized(z_tilde, mu))
    diffs = []
    for lam in (1e2, 1e4, 1e6):
        z_bare = transfer.flow_bare_coupling(z_tilde, lam, mu)
        diffs.append(abs(transfer.bare_amplitude_with_cutoff(w, z_bare, lam) - f_ren))
    return diffs


@_check(("7a-absorption-roundtrip", 1e-12))
def _absorption_roundtrip(run):
    # the absorption choice of b+ + b- gives the fundamental route's f and c'
    w = IncidentWave(1.0, math.pi)
    d = w.dispersion()
    residuals = []
    for zv in _COUPLINGS:
        z = Coupling.finite(zv)
        f_ref = transfer.scattering_amplitude_dfss(w, z)
        c_prime = transfer.solve_fundamental(w, z).c_prime
        for lam in (2.0, 10.0, 100.0):
            params = FamilyParams(singfree.absorption_condition(z, lam, d), 0j)
            f_fam = singfree.family_amplitude(w, z, params, lam)
            _, c = singfree.family_solution(w, z, params, lam)
            residuals += [abs(f_fam - f_ref), abs(c - c_prime)]
    return np.max(residuals)


@_check(("7b-family-sum-only", 0.0))
def _family_sum_dependence(run):
    w = IncidentWave(1.0, math.pi)
    z = Coupling.finite(2.0 - 1.0j)
    return np.max([abs(singfree.family_amplitude(w, z, FamilyParams(b, 0j), 10.0)
                       - singfree.family_amplitude(w, z, FamilyParams(0j, b), 10.0))
                   for b in (0.7 + 0.3j, -2.0j, 5.0)])


@_check(("7c-b-tilde-limit", 1e-3))
def _b_tilde_limit(run):
    # |b_tilde - limit| at three cutoffs, then extrapolated in 1/ln(lam)
    d = Dispersion(1.0)
    z = Coupling.finite(1.0)
    target = singfree.renormalized_b_limit(z)
    samples = []
    for lam in (1e3, 1e6, 1e9):
        b_sum = singfree.absorption_condition(z, lam, d)
        samples.append((1.0 / math.log(lam), singfree.renormalized_b(b_sum, lam, d)))
    (t1, b1), (t2, b2) = samples[-2], samples[-1]
    extrapolated = b2 + (b2 - b1) * t2 / (t1 - t2)
    return [abs(b - target) for _, b in samples] + [abs(extrapolated - target)]


@_check(("8-unitarity-circle", 1e-12))
def _unitarity_circle(run):
    w = IncidentWave(1.0, math.pi)
    target = -math.sqrt(2.0 * math.pi) / 2.0
    amplitudes = [transfer.scattering_amplitude_dfss(w, Coupling.finite(zv))
                  for zv in (0.1, 1.0, 10.0, -3.0)]
    return np.max([abs((1.0 / f).imag - target) for f in amplitudes])


@_check(("9a-far-field-decay", 2.0))
def _far_field_decay(run):
    # the factor by which the largest far-field residual, relative to the
    # scattered-wave amplitude, strays from (kr)^-1 decay between circles
    w = IncidentWave(1.0, math.pi)
    circles = [(s.kr, float(s.residual.max()) / s.scale)
               for s in fields.far_field_samples(w, Coupling.finite(1.0), (20.0, 50.0, 100.0))]
    factors = []
    for (kr_a, rel_a), (kr_b, rel_b) in zip(circles, circles[1:]):
        actual, predicted = rel_a / rel_b, kr_b / kr_a
        factors += [actual / predicted, predicted / actual]
    return np.max(factors)


@_check(("9b-near-field-log-slope", 1e-2))
def _near_field_slope(run):
    w = IncidentWave(1.0, math.pi)
    radii = np.geomspace(1e-3, 1e-2, 12)
    residuals = []
    for zv in (1.0, 2.0j):
        slope = fields.near_field_log_slope(w, Coupling.finite(zv), radii)
        closed = 1.0 / (4.0 * math.pi ** 2 * (1.0 / zv + 0.25j))
        residuals.append(abs(slope - closed) / abs(closed))
    return np.max(residuals)


@_check(("9c-psi0-transverse-current", 1e-10))
def _psi0_current(run):
    # psi0's current against its closed form: jx = 0 and, the cross terms
    # cancelling, the uniform jy = k (|b+|^2 - |b-|^2) / (2 pi^2)
    k = 1.0
    spec = fields.GridSpec(-1.0, 1.0, 101, -1.0, 1.0, 101)
    deviations = []
    for params in (FamilyParams(1.0, 1.0), FamilyParams(1.0, -1.0),
                   FamilyParams(0.3 + 2.0j, -1.5j)):
        grid = fields.psi0_field(params, k, spec)
        jy = k * (abs(params.b_plus) ** 2 - abs(params.b_minus) ** 2) / (2.0 * math.pi ** 2)
        deviations += [np.abs(grid.jx).max(), np.abs(grid.jy - jy).max()]
    return np.max(deviations)


@_check(("9d-current-divergence", 1e-3))
def _current_divergence(run):
    w = IncidentWave(1.0, math.pi)
    spec = fields.GridSpec(0.8, 2.2, 71, 0.8, 2.2, 71)
    grid = fields.total_field(w, Coupling.finite(1.0), spec)
    div, valid = fields.current_divergence(grid)
    scale = w.k * max(float(np.nanmax(np.abs(grid.jx))), float(np.nanmax(np.abs(grid.jy))))
    return float(np.nanmax(np.abs(div[valid]))) / scale


@_check(("10a-specfun-series-oracle", 1e-14))
def _specfun_oracle(run):
    residuals = []
    for x in (1e-6, 1e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 2.404825557695773, 5.0,
              8.0, 11.9, 12.1, 20.0, 50.0, 100.0):
        j0, y0 = oracle_j0_y0(x)
        residuals += [abs(specfun.bessel_j0(x) - float(j0)),
                      abs(specfun.bessel_y0(x) - float(y0))]
    return np.max(residuals)


@_check(("10b-expansion-quadratic-scaling", 0.25))
def _expansion_quadratic(run):
    def residual(x):
        return abs(specfun.hankel1_0(x) - specfun.hankel1_0_small_x_expansion(x))

    return np.max([abs(residual(hi) / residual(lo) / 4.0 - 1.0)
                   for hi, lo in ((0.2, 0.1), (0.1, 0.05))])


@_check(("11-cli-determinism", 0.0))
def _cli_determinism(run):
    from . import cli  # deferred: cli imports this module for its verify command

    argv = ["amplitude", "--k", "1.0", "--theta0", "3.141592653589793",
            "--z", "1,0", "--theta-grid", "8", "--format", "csv"]
    return 0.0 if cli.render_command(argv) == cli.render_command(argv) else 1.0


def run_all(seed: int | None = None, inject_fault: bool = False) -> list[CheckResult]:
    """Run every check in table order; deterministic for a fixed seed (env
    POINTSCATTER_SEED).  A measure that raises a PointScatterError fails its
    checks with measured NaN and the error, and the rest still run; an
    invalid seed raises before any check runs."""
    run = _Run(np.random.default_rng(resolve_seed(seed)), inject_fault)
    results = []
    for entries, measure in _CHECKS:
        try:
            values = measure(run)
            measured = [_judged(v) for v in (values if len(entries) > 1 else [values])]
            error = None
        except PointScatterError as exc:
            measured = [math.nan] * len(entries)
            error = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        results += [CheckResult(name, tolerance, m, error)
                    for (name, tolerance), m in zip(entries, measured)]
    return results
