"""Acceptance gate: one test per criterion, each printing its pass/fail line.

The measured residuals come from the same invariant suite that backs the
``verify`` CLI command, so the tolerances asserted here are exactly the ones
the tool reports.  Run with ``pytest -s tests/test_acceptance.py`` to see the
per-criterion lines; ``pointscatter verify`` prints the same information.
"""

import math

import pytest

from pointscatter import cli, kernel, transfer, verify
from pointscatter.amplitudes import IncidentWave
from pointscatter.transfer import Coupling

CRITERIA = {
    1: ("route agreement dfss == renormalized", ["1-route-agreement"]),
    2: ("closed-form solve and band integral", ["2a-closed-form-solve",
                                                "2b-band-integral-pi"]),
    3: ("Green-function regularization", ["3a-green-cutoff-quadrature",
                                          "3b-green-imag-minus-quarter"]),
    4: ("oscillatory momentum identity", ["4-oscillatory-identity"]),
    5: ("scheme-matching constant", ["5-scheme-matching-constant"]),
    6: ("renormalization-flow collapse", ["6-renormalization-flow-collapse"]),
    7: ("singularity absorption", ["7a-absorption-roundtrip",
                                   "7b-family-sum-only", "7c-b-tilde-limit"]),
    8: ("unitarity circle Im(1/f)", ["8-unitarity-circle"]),
    9: ("field-level checks", ["9a-far-field-decay", "9b-near-field-log-slope",
                               "9c-psi0-transverse-current",
                               "9d-current-divergence"]),
    10: ("special functions vs series oracles", ["10a-specfun-series-oracle",
                                                 "10b-expansion-quadratic-scaling"]),
    11: ("CLI determinism", ["11-cli-determinism"]),
}


@pytest.fixture(scope="module")
def suite():
    return {r.name: r for r in verify.run_all()}


@pytest.mark.parametrize("criterion", sorted(CRITERIA))
def test_acceptance_criterion(criterion, suite):
    label, check_names = CRITERIA[criterion]
    results = [suite[name] for name in check_names]
    status = "PASS" if all(r.passed for r in results) else "FAIL"
    detail = "; ".join(f"{r.name} measured={r.measured:.3e} tol={r.tolerance:.1e}"
                       for r in results)
    print(f"[acceptance {criterion:>2}] {status} {label}: {detail}")
    for r in results:
        assert r.passed, r.line()


def test_acceptance_11_file_level_determinism(tmp_path):
    # criterion 11 again at the file level, across distinct command families
    for argv in (["amplitude", "--theta-grid", "8"],
                 ["flow", "--lambda", "10,100"],
                 ["field", "--grid=-0.45,0.45,46,-0.45,0.45,46"]):
        payloads = set()
        for run in range(2):
            path = tmp_path / f"{argv[0]}-{run}.out"
            assert cli.main(argv + ["--out", str(path)]) == 0
            payloads.add(path.read_bytes())
        assert len(payloads) == 1, f"nondeterministic output for {argv[0]}"


def test_run_all_order_and_shared_quadratures(monkeypatch):
    # 3a and 3b share one quadrature of G_lam(0) per cutoff
    calls = []
    quadrature = kernel.green_cutoff_quadrature

    def counted(*args, **kwargs):
        calls.append(args)
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(kernel, "green_cutoff_quadrature", counted)
    names = [r.name for r in verify.run_all()]
    assert names == [name for _, (_, group) in sorted(CRITERIA.items()) for name in group]
    assert len(names) == 19
    assert len(calls) == 3


def test_residuals_must_shrink_strictly(monkeypatch):
    # check 6 passes only if |f_bare - f_ren| falls strictly with the cutoff;
    # a flat sequence within the tolerance fails, naming the residuals
    w = IncidentWave(1.0, math.pi)
    f_ren = transfer.scattering_amplitude_renormalized(w, Coupling.renormalized(1.0, 1.0))
    monkeypatch.setattr(transfer, "bare_amplitude_with_cutoff", lambda *args: f_ren + 0.01)
    results = {r.name: r for r in verify.run_all()}
    flow = results["6-renormalization-flow-collapse"]
    assert not flow.passed and math.isnan(flow.measured)
    assert flow.error == ("ConvergenceError: residuals 1.000e-02, 1.000e-02, 1.000e-02 "
                          "do not shrink strictly")
    assert all(r.passed for name, r in results.items() if name != flow.name)


def test_nan_residual_fails(monkeypatch):
    # a NaN amplitude for one of check 8's four couplings is its worst residual
    amplitude = transfer.scattering_amplitude_dfss
    monkeypatch.setattr(transfer, "scattering_amplitude_dfss",
                        lambda w, z: complex(math.nan, math.nan) if z.value == 10.0
                        else amplitude(w, z))
    unitarity = next(r for r in verify.run_all() if r.name == "8-unitarity-circle")
    assert not unitarity.passed and math.isnan(unitarity.measured)
    assert unitarity.error is None
