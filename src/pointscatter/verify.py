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
from decimal import Decimal, localcontext

import numpy as np
from scipy import integrate

from . import fields, kernel, singfree, specfun, transfer
from .amplitudes import IncidentWave
from .kernel import CutoffSpec, Dispersion
from .singfree import FamilyParams
from .transfer import Coupling

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
    if seed is not None:
        return int(seed)
    return int(os.environ.get(SEED_ENV_VAR, DEFAULT_SEED))


# ---------------------------------------------------------------------------
# Independent series oracles (high-precision decimal arithmetic; a different
# algorithm and number system from the scipy routines behind specfun)

def _oracle_prec(x: float) -> int:
    # The alternating Maclaurin terms peak near e^x, so x / ln 10 digits cancel
    # before the first significant one; grow the working precision to match.
    return 80 + int(x / math.log(10)) + 5


def oracle_j0(x: float, prec: int | None = None) -> Decimal:
    """J0 by its Maclaurin series in high-precision decimal arithmetic."""
    if prec is None:
        prec = _oracle_prec(x)
    with localcontext() as ctx:
        ctx.prec = prec
        stop = Decimal(10) ** (-(prec - 20))
        q = Decimal(x) * Decimal(x) / 4
        term = Decimal(1)
        total = Decimal(1)
        m = 0
        while True:
            m += 1
            term = term * q / (m * m)
            total += term if m % 2 == 0 else -term
            if m > 4 and abs(term) < stop:
                break
            if m > 2000:
                raise RuntimeError("oracle series failed to converge")
        return total


def oracle_y0(x: float, prec: int | None = None) -> Decimal:
    """Y0 via (2/pi)[(ln(x/2)+gamma) J0 + harmonic companion series]."""
    if prec is None:
        prec = _oracle_prec(x)
    with localcontext() as ctx:
        ctx.prec = prec
        stop = Decimal(10) ** (-(prec - 20))
        q = Decimal(x) * Decimal(x) / 4
        term = Decimal(1)
        harmonic = Decimal(0)
        total = Decimal(0)
        m = 0
        while True:
            m += 1
            term = term * q / (m * m)
            harmonic += Decimal(1) / m
            contrib = term * harmonic
            total += -contrib if m % 2 == 0 else contrib
            if m > 4 and abs(contrib) < stop:
                break
            if m > 2000:
                raise RuntimeError("oracle series failed to converge")
        log_part = (Decimal(x) / 2).ln() + _GAMMA_50
        return (2 / _PI_50) * (log_part * oracle_j0(x, prec) + total)


def oracle_j0_zero(bracket_lo: float, bracket_hi: float, prec: int = 60) -> float:
    """First-kind zero located by bisection on the decimal series oracle."""
    lo, hi = bracket_lo, bracket_hi
    flo = oracle_j0(lo, prec)
    if flo == 0:
        return lo
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if oracle_j0(mid, prec) * flo > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# The checks

def _check_route_agreement(rng) -> CheckResult:
    w = IncidentWave(1.0, math.pi)
    worst = 0.0
    for _ in range(10):
        mag = 10.0 ** rng.uniform(-1.0, 1.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        zv = mag * complex(math.cos(phase), math.sin(phase))
        f1 = transfer.scattering_amplitude_dfss(w, Coupling.finite(zv), 0.3)
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
    val, _ = integrate.quad(lambda q: 1.0, -k, k, weight="alg", wvar=(-0.5, -0.5))
    measured = abs(val - math.pi)
    return CheckResult("2b-band-integral-pi", 1e-10, measured, measured <= 1e-10)


def _check_green_quadrature() -> CheckResult:
    d = Dispersion(1.0)
    worst = 0.0
    for lam in (2.0, 10.0, 100.0):
        q = kernel.green_cutoff_quadrature(0.0, CutoffSpec(lam), d)
        worst = max(worst, abs(q.value - kernel.green_cutoff_zero(CutoffSpec(lam), d)))
    return CheckResult("3a-green-cutoff-quadrature", 1e-8, worst, worst <= 1e-8)


def _check_green_imaginary_part() -> CheckResult:
    d = Dispersion(1.0)
    worst = 0.0
    for lam in (2.0, 10.0, 100.0):
        closed = kernel.green_cutoff_zero(CutoffSpec(lam), d)
        quad = kernel.green_cutoff_quadrature(0.0, CutoffSpec(lam), d)
        worst = max(worst, abs(closed.imag + 0.25), abs(quad.value.imag + 0.25))
    return CheckResult("3b-green-imag-minus-quarter", 1e-10, worst, worst <= 1e-10)


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
        f_ref = transfer.scattering_amplitude_dfss(w, z, 0.3)
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
        f = transfer.scattering_amplitude_dfss(w, Coupling.finite(zv), 0.3)
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
        cur = fields.current_density(grid, k=1.0)
        worst = max(worst, float(np.nanmax(np.abs(cur.jx))))
    return CheckResult("9c-psi0-transverse-current", 1e-10, worst, worst <= 1e-10)


def _check_current_divergence() -> CheckResult:
    w = IncidentWave(1.0, math.pi)
    z = Coupling.finite(1.0)
    spec = fields.GridSpec(0.8, 2.2, 71, 0.8, 2.2, 71)
    cur = fields.current_density(fields.total_field(w, z, spec), k=w.k)
    div, valid = fields.current_divergence(cur)
    scale = w.k * max(float(np.nanmax(np.abs(cur.jx))), float(np.nanmax(np.abs(cur.jy))))
    measured = float(np.nanmax(np.abs(div[valid]))) / scale
    return CheckResult("9d-current-divergence", 1e-3, measured, measured <= 1e-3)


def _check_specfun_oracle() -> CheckResult:
    xs = [1e-6, 1e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 2.404825557695773, 5.0,
          8.0, 11.9, 12.1, 20.0, 50.0, 100.0]
    worst = 0.0
    for x in xs:
        worst = max(worst, abs(specfun.bessel_j0(x) - float(oracle_j0(x))))
        worst = max(worst, abs(specfun.bessel_y0(x) - float(oracle_y0(x))))
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
        _check_green_quadrature(),
        _check_green_imaginary_part(),
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
