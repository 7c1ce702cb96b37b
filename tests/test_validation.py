"""The typed-error contract of every validated scalar argument.

A value of the wrong type, a non-finite value or one at or below its bound
must end as a ValidationError that names the parameter, never as a bare
TypeError/ValueError from float(), math or a comparison further down.
"""

import math

import numpy as np
import pytest

from pointscatter import amplitudes as amp
from pointscatter import fields, kernel, singfree, transfer
from pointscatter.errors import ValidationError, require_cutoff_above_k
from pointscatter.fields import GridSpec
from pointscatter.singfree import FamilyParams
from pointscatter.transfer import Coupling

D1 = kernel.Dispersion(1.0)
W = amp.IncidentWave(1.0, math.pi)
Z1 = Coupling.finite(1.0)
SPEC = GridSpec(-0.1, 0.1, 3, -0.1, 0.1, 3)
PARAMS = FamilyParams(1.0, 0j)

NOT_REAL = [None, "1", True, 1j]
NOT_FINITE = [math.nan, math.inf, -math.inf]
NOT_POSITIVE = [0.0, -1.0]

# (id, callable of the bad value, the bad values that parameter rejects)
ARGUMENTS = [
    ("Dispersion.k", kernel.Dispersion, NOT_POSITIVE + [1.35e154]),
    ("green_cutoff_zero.lam", lambda v: kernel.green_cutoff_zero(v, D1), NOT_POSITIVE + [1.0]),
    ("regularized_h0_at_zero.lam",
     lambda v: kernel.regularized_h0_at_zero(v, D1), NOT_POSITIVE + [1.0]),
    ("green_cutoff_quadrature.lam",
     lambda v: kernel.green_cutoff_quadrature(0.0, v, D1), NOT_POSITIVE + [1.0]),
    ("varpi.p", lambda v: kernel.varpi(v, D1), []),
    ("green_closed.r", lambda v: kernel.green_closed(v, D1), NOT_POSITIVE),
    ("green_cutoff_quadrature.r",
     lambda v: kernel.green_cutoff_quadrature(v, 10.0, D1), [-1.0]),
    ("momentum_identity_check.x",
     lambda v: kernel.momentum_identity_check(v, 1.0, D1, 50.0), []),
    ("momentum_identity_check.y",
     lambda v: kernel.momentum_identity_check(1.0, v, D1, 50.0), []),
    ("momentum_identity_check.tail_cutoff",
     lambda v: kernel.momentum_identity_check(1, 1, D1, v), NOT_POSITIVE + [2.0]),
    ("scheme_matching_limit.alpha",
     lambda v: kernel.scheme_matching_limit(v, D1, [0.05, 0.025]), NOT_POSITIVE),
    ("scheme_matching_limit.radii",
     lambda v: kernel.scheme_matching_limit(1.0, D1, [0.05, v]), NOT_POSITIVE),
    ("IntegrationDomain.lam", lambda v: amp.IntegrationDomain("cutoff-line", v), NOT_POSITIVE),
    ("cutoff_line.lam", amp.cutoff_line, NOT_POSITIVE),
    ("IncidentWave.k", lambda v: amp.IncidentWave(v, math.pi), NOT_POSITIVE),
    ("IncidentWave.theta0", lambda v: amp.IncidentWave(1.0, v), NOT_POSITIVE),
    ("Coupling.renormalized.mu", lambda v: Coupling.renormalized(1.0, v), NOT_POSITIVE),
    ("flow_bare_coupling.lam",
     lambda v: transfer.flow_bare_coupling(1.0, v, 1.0), NOT_POSITIVE),
    ("flow_bare_coupling.mu",
     lambda v: transfer.flow_bare_coupling(1.0, 1.0, v), NOT_POSITIVE),
    ("bare_amplitude_with_cutoff.lam",
     lambda v: transfer.bare_amplitude_with_cutoff(W, 1.0, v), NOT_POSITIVE),
    ("auxiliary_entries.lam", lambda v: transfer.auxiliary_entries(Z1, v, D1), NOT_POSITIVE),
    ("psi0_field.k", lambda v: fields.psi0_field(PARAMS, v, SPEC), NOT_POSITIVE),
    ("renormalized_b.lam", lambda v: singfree.renormalized_b(1.0, v, D1), NOT_POSITIVE),
    ("regularized_h0_position_scheme.lam",
     lambda v: singfree.regularized_h0_position_scheme(v, D1), NOT_POSITIVE),
]

CASES = [pytest.param(call, bad, id=f"{name}={bad!r}")
         for name, call, extra in ARGUMENTS
         for bad in NOT_REAL + NOT_FINITE + extra]

NOT_COMPLEX = [None, "1", True, math.nan, complex(math.inf, 0.0)]

# (id, callable of the bad value) for each validated complex argument
COMPLEX_ARGUMENTS = [
    ("Coupling.finite", Coupling.finite),
    ("Coupling.renormalized.z", lambda v: Coupling.renormalized(v, 1.0)),
    ("FamilyParams.b_plus", lambda v: FamilyParams(v, 0j)),
    ("FamilyParams.b_minus", lambda v: FamilyParams(0j, v)),
    ("flow_bare_coupling.z", lambda v: transfer.flow_bare_coupling(v, 1.0, 1.0)),
    ("bare_amplitude_with_cutoff.z_bare",
     lambda v: transfer.bare_amplitude_with_cutoff(W, v, 10.0)),
    ("renormalized_b.params_sum", lambda v: singfree.renormalized_b(v, 10.0, D1)),
]

CASES += [pytest.param(call, bad, id=f"{name}={bad!r}")
          for name, call in COMPLEX_ARGUMENTS for bad in NOT_COMPLEX]


@pytest.mark.parametrize("call, bad", CASES)
def test_bad_value_is_validation_error(call, bad):
    with pytest.raises(ValidationError):
        call(bad)


@pytest.mark.parametrize("bad", ["a", None])
def test_error_names_parameter_and_value(bad):
    with pytest.raises(ValidationError, match=rf"^cutoff must .*, got {bad!r}$"):
        kernel.green_cutoff_zero(bad, D1)


def test_numpy_float_and_int_accepted():
    assert kernel.Dispersion(np.float64(2.0)).k == 2.0
    for value in (10, np.float64(10.0)):
        lam = require_cutoff_above_k(value, 1.0)
        assert type(lam) is float and lam == 10.0
        assert kernel.green_cutoff_zero(value, D1) == kernel.green_cutoff_zero(10.0, D1)
    assert transfer.flow_bare_coupling(1.0, 100, np.float64(1.0)) == \
        transfer.flow_bare_coupling(1.0, 100.0, 1.0)


def test_numpy_complex_and_int_accepted():
    for value in (2, np.complex128(2.0)):
        z = Coupling.finite(value).value
        assert type(z) is complex and z == 2.0
    params = FamilyParams(np.complex128(1j), 3)
    assert (params.b_plus, params.b_minus) == (1j, 3.0)
    assert transfer.flow_bare_coupling(np.complex128(2.0), 1.0, 10.0) == \
        transfer.flow_bare_coupling(2, 1.0, 10.0) == transfer.flow_bare_coupling(2.0, 1.0, 10.0)
    assert transfer.flow_bare_coupling(np.complex128(1.0), 100.0, 1.0) == \
        transfer.flow_bare_coupling(1, 100.0, 1.0) == transfer.flow_bare_coupling(1.0, 100.0, 1.0)
    assert transfer.bare_amplitude_with_cutoff(W, 2, 10.0) == \
        transfer.bare_amplitude_with_cutoff(W, np.complex128(2.0), 10.0)
    assert singfree.renormalized_b(2, 10.0, D1) == \
        singfree.renormalized_b(np.complex128(2.0), 10.0, D1)


def test_largest_wavenumber_accepted():
    # the cap is the last float whose square is finite
    d = kernel.Dispersion(kernel.MAX_WAVENUMBER)
    assert math.isfinite(d.k * d.k)
    above = math.nextafter(d.k, math.inf)
    assert math.isinf(above * above)
    with pytest.raises(ValidationError, match="k\\*k overflows"):
        kernel.Dispersion(above)


def test_incident_wave_keeps_its_dispersion():
    w = amp.IncidentWave(2, math.pi)
    assert w.dispersion() is w.dispersion()
    assert w.dispersion().k == w.k == 2.0 and type(w.k) is float
