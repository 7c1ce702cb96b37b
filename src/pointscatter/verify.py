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

from . import fields, kernel, singfree, specfun, transfer
from ._lazy import load_on_first_use
from .amplitudes import IncidentWave
from .errors import ConvergenceError, DomainError, ValidationError, finite_real
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
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: measured={self.measured:.6e} tolerance={self.tolerance:.1e}"


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
        log_part = (Decimal(x) / 2).ln(Context(prec=50)) + _GAMMA_50
        return j0_dec, (2 / _PI_50) * (log_part * j0_dec + total_dec)


def _oracle_divergence(x: float) -> str:
    return f"oracle series at x = {x!r} did not converge within {_ORACLE_MAX_TERMS} terms"


# ---------------------------------------------------------------------------
# The checks

def _check_route_agreement(rng) -> CheckResult:
    w = IncidentWave(1.0, math.pi)
    worst = 0.0
    for _ in range(10):
        mag = 10.0 ** rng.uniform(-1.0, 1.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        zv = mag * complex(math.cos(phase), math.sin(phase))
        f1 = transfer.scattering_amplitude_dfss(w, Coupling.finite(zv))
        f2 = transfer.scattering_amplitude_renormalized(
            w, Coupling.renormalized(zv, 1.0))
        worst = max(worst, abs(f1 - f2))
    return CheckResult("1-route-agreement", 1e-14, worst, worst <= 1e-14)


def _check_solve_residual(inject_fault: bool) -> CheckResult:
    w = IncidentWave(1.0, math.pi)
    worst = 0.0
    for zv in (1.0, 0.5j, 2.0 - 1.0j):
        sol = transfer.solve_fundamental(w, Coupling.finite(zv))
        sign = -1.0 if inject_fault else 1.0
        expected = sign * (-0.5j) / (1.0 / zv + 0.25j)
        worst = max(worst, abs(sol.c_prime - expected))
    return CheckResult("2a-closed-form-solve", 1e-12, worst, worst <= 1e-12)


def _check_band_integral_pi() -> CheckResult:
    k = 1.0
    # adaptive quadrature with algebraic endpoint weights; the oracle side of
    # the exact band constant used by the solver
    val, _ = scipy.integrate.quad(lambda q: 1.0, -k, k, weight="alg", wvar=(-0.5, -0.5))
    measured = abs(val - math.pi)
    return CheckResult("2b-band-integral-pi", 1e-10, measured, measured <= 1e-10)


def _check_green_cutoff() -> tuple[CheckResult, CheckResult]:
    """3a and 3b from one quadrature of G_lam(0) per cutoff."""
    d = Dispersion(1.0)
    worst_quad = worst_imag = 0.0
    for lam in (2.0, 10.0, 100.0):
        closed = kernel.green_cutoff_zero(lam, d)
        quad = kernel.green_cutoff_quadrature(0.0, lam, d).value
        worst_quad = max(worst_quad, abs(quad - closed))
        worst_imag = max(worst_imag, abs(closed.imag + 0.25), abs(quad.imag + 0.25))
    return (CheckResult("3a-green-cutoff-quadrature", 1e-8, worst_quad, worst_quad <= 1e-8),
            CheckResult("3b-green-imag-minus-quarter", 1e-10, worst_imag, worst_imag <= 1e-10))


def _check_oscillatory_identity() -> CheckResult:
    d = Dispersion(1.0)
    points = [(0.5, 0.0), (1.0, 0.0), (0.7, 0.7), (2.0, 1.0), (1.5, -2.0),
              (3.0, 4.0), (-2.0, 3.0), (5.0, 5.0), (6.0, 8.0), (0.0, 2.0)]
    worst = 0.0
    for x, y in points:
        cutoff = 4e5 if x == 0.0 else 50.0
        res = kernel.momentum_identity_check(x, y, d, tail_cutoff=cutoff)
        worst = max(worst, res.residual)
    return CheckResult("4-oscillatory-identity", 1e-5, worst, worst <= 1e-5)


def _check_scheme_matching() -> CheckResult:
    d = Dispersion(1.0)
    radii = [0.05 * 0.5 ** j for j in range(8)]
    worst = 0.0
    for alpha in (1.0, 2.0, 2.0 * math.exp(-specfun.EULER_GAMMA)):
        target = (specfun.EULER_GAMMA + math.log(0.5 * alpha)) / (2.0 * math.pi)
        lim = kernel.scheme_matching_limit(alpha, d, radii)
        worst = max(worst, abs(lim - target))
    return CheckResult("5-scheme-matching-constant", 1e-6, worst, worst <= 1e-6)


def _check_flow_collapse() -> CheckResult:
    w = IncidentWave(1.0, math.pi)
    z_tilde = 1.0
    mu = w.k
    f_ren = transfer.scattering_amplitude_renormalized(
        w, Coupling.renormalized(z_tilde, mu))
    diffs = []
    for lam in (1e2, 1e4, 1e6):
        z_bare = transfer.flow_bare_coupling(z_tilde, lam, mu)
        f_bare = transfer.bare_amplitude_with_cutoff(w, z_bare, lam)
        diffs.append(abs(f_bare - f_ren))
    monotone = diffs[0] > diffs[1] > diffs[2]
    return CheckResult("6-renormalization-flow-collapse", 5e-2, diffs[-1],
                       monotone and diffs[-1] <= 5e-2)


def _check_absorption_roundtrip() -> CheckResult:
    w = IncidentWave(1.0, math.pi)
    d = w.dispersion()
    worst = 0.0
    for zv in (1.0, 0.5j, 2.0 - 1.0j):
        z = Coupling.finite(zv)
        f_ref = transfer.scattering_amplitude_dfss(w, z)
        for lam in (2.0, 10.0, 100.0):
            b_sum = singfree.absorption_condition(z, lam, d)
            f_fam = singfree.family_amplitude(w, z, FamilyParams(b_sum, 0j), lam)
            worst = max(worst, abs(f_fam - f_ref))
            worst = max(worst, singfree.family_c_matches_fundamental(w, z, lam))
    return CheckResult("7a-absorption-roundtrip", 1e-12, worst, worst <= 1e-12)


def _check_family_sum_dependence() -> CheckResult:
    w = IncidentWave(1.0, math.pi)
    z = Coupling.finite(2.0 - 1.0j)
    worst = 0.0
    for b in (0.7 + 0.3j, -2.0j, 5.0):
        f1 = singfree.family_amplitude(w, z, FamilyParams(b, 0j), 10.0)
        f2 = singfree.family_amplitude(w, z, FamilyParams(0j, b), 10.0)
        worst = max(worst, abs(f1 - f2))
    return CheckResult("7b-family-sum-only", 0.0, worst, worst == 0.0)


def _check_b_tilde_limit() -> CheckResult:
    d = Dispersion(1.0)
    z = Coupling.finite(1.0)
    target = singfree.renormalized_b_limit(z)
    samples = []
    for lam in (1e3, 1e6, 1e9):
        b_sum = singfree.absorption_condition(z, lam, d)
        samples.append((1.0 / math.log(lam), singfree.renormalized_b(b_sum, lam, d)))
    diffs = [abs(b - target) for _, b in samples]
    decreasing = diffs[0] > diffs[1] > diffs[2]
    (t1, b1), (t2, b2) = samples[-2], samples[-1]
    extrapolated = b2 + (b2 - b1) * t2 / (t1 - t2)
    err = abs(extrapolated - target)
    return CheckResult("7c-b-tilde-limit", 1e-3, err, decreasing and err <= 1e-3)


def _check_unitarity_circle() -> CheckResult:
    w = IncidentWave(1.0, math.pi)
    target = -math.sqrt(2.0 * math.pi) / 2.0
    worst = 0.0
    for zv in (0.1, 1.0, 10.0, -3.0):
        f = transfer.scattering_amplitude_dfss(w, Coupling.finite(zv))
        worst = max(worst, abs((1.0 / f).imag - target))
    return CheckResult("8-unitarity-circle", 1e-12, worst, worst <= 1e-12)


def _check_far_field_decay() -> CheckResult:
    w = IncidentWave(1.0, math.pi)
    z = Coupling.finite(1.0)
    res = fields.far_field_circle_residuals(w, z, (20.0, 50.0, 100.0))
    worst = 1.0
    for a, b in zip(res, res[1:]):
        actual = a.relative / b.relative
        predicted = b.kr / a.kr  # (kr)^-1 decay of the relative residual
        factor = max(actual / predicted, predicted / actual)
        worst = max(worst, factor)
    return CheckResult("9a-far-field-decay", 2.0, worst, worst <= 2.0)


def _check_near_field_slope() -> CheckResult:
    w = IncidentWave(1.0, math.pi)
    radii = np.geomspace(1e-3, 1e-2, 12)
    worst = 0.0
    for zv in (1.0, 2.0j):
        slope = fields.near_field_log_slope(w, Coupling.finite(zv), radii)
        closed = 1.0 / (4.0 * math.pi ** 2 * (1.0 / zv + 0.25j))
        worst = max(worst, abs(slope - closed) / abs(closed))
    return CheckResult("9b-near-field-log-slope", 1e-2, worst, worst <= 1e-2)


def _check_psi0_current() -> CheckResult:
    spec = fields.GridSpec(-1.0, 1.0, 101, -1.0, 1.0, 101)
    worst = 0.0
    for params in (FamilyParams(1.0, 1.0), FamilyParams(1.0, -1.0),
                   FamilyParams(0.3 + 2.0j, -1.5j)):
        grid = fields.psi0_field(params, 1.0, spec)
        worst = max(worst, float(np.nanmax(np.abs(grid.jx))))
    return CheckResult("9c-psi0-transverse-current", 1e-10, worst, worst <= 1e-10)


def _check_current_divergence() -> CheckResult:
    w = IncidentWave(1.0, math.pi)
    z = Coupling.finite(1.0)
    spec = fields.GridSpec(0.8, 2.2, 71, 0.8, 2.2, 71)
    grid = fields.total_field(w, z, spec)
    div, valid = fields.current_divergence(grid)
    scale = w.k * max(float(np.nanmax(np.abs(grid.jx))), float(np.nanmax(np.abs(grid.jy))))
    measured = float(np.nanmax(np.abs(div[valid]))) / scale
    return CheckResult("9d-current-divergence", 1e-3, measured, measured <= 1e-3)


def _check_specfun_oracle() -> CheckResult:
    xs = [1e-6, 1e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 2.404825557695773, 5.0,
          8.0, 11.9, 12.1, 20.0, 50.0, 100.0]
    worst = 0.0
    for x in xs:
        j0, y0 = oracle_j0_y0(x)
        worst = max(worst, abs(specfun.bessel_j0(x) - float(j0)))
        worst = max(worst, abs(specfun.bessel_y0(x) - float(y0)))
    return CheckResult("10a-specfun-series-oracle", 1e-14, worst, worst <= 1e-14)


def _check_expansion_quadratic() -> CheckResult:
    def residual(x):
        return abs(specfun.hankel1_0(x) - specfun.hankel1_0_small_x_expansion(x))

    worst = 0.0
    for hi, lo in ((0.2, 0.1), (0.1, 0.05)):
        ratio = residual(hi) / residual(lo)
        worst = max(worst, abs(ratio / 4.0 - 1.0))
    return CheckResult("10b-expansion-quadratic-scaling", 0.25, worst, worst <= 0.25)


def _check_cli_determinism() -> CheckResult:
    from . import cli  # deferred: cli imports this module for its verify command

    argv = ["amplitude", "--k", "1.0", "--theta0", "3.141592653589793",
            "--z", "1,0", "--theta-grid", "8", "--format", "csv"]
    first = cli.render_command(argv)
    second = cli.render_command(argv)
    measured = 0.0 if first == second else 1.0
    return CheckResult("11-cli-determinism", 0.0, measured, first == second)


def run_all(seed: int | None = None, inject_fault: bool = False) -> list[CheckResult]:
    """Run every check; deterministic for a fixed seed (env POINTSCATTER_SEED)."""
    rng = np.random.default_rng(resolve_seed(seed))
    return [
        _check_route_agreement(rng),
        _check_solve_residual(inject_fault),
        _check_band_integral_pi(),
        *_check_green_cutoff(),
        _check_oscillatory_identity(),
        _check_scheme_matching(),
        _check_flow_collapse(),
        _check_absorption_roundtrip(),
        _check_family_sum_dependence(),
        _check_b_tilde_limit(),
        _check_unitarity_circle(),
        _check_far_field_decay(),
        _check_near_field_slope(),
        _check_psi0_current(),
        _check_current_divergence(),
        _check_specfun_oracle(),
        _check_expansion_quadratic(),
        _check_cli_determinism(),
    ]
