"""Quantum scattering by a 2D delta-function point scatterer.

Two cross-validated treatments of the same exactly-solvable problem: the
standard cutoff-regularized/renormalized route and the singularity-free
transfer-matrix route, exposed as a numerical library plus a CLI
(``pointscatter``).
"""

from .amplitudes import (
    BAND,
    BAND_DOMAIN,
    FULL_LINE,
    Atom,
    GeneralizedAmplitude,
    IncidentWave,
    IntegrationDomain,
    add,
    cutoff_line,
    integrate_inverse_varpi,
    project_band,
    scale,
    zero_amplitude,
)
from .errors import (
    ConvergenceError,
    DomainError,
    OnShellAtomError,
    PointScatterError,
    PoleError,
    QuadratureError,
    SupportMismatchError,
    ValidationError,
)
from .fields import (
    FieldGrid,
    GridSpec,
    current_divergence,
    field_values_at,
    near_field_expansion_check,
    near_field_log_slope,
    psi0_field,
    total_field,
)
from .kernel import (
    Dispersion,
    green_closed,
    green_cutoff_quadrature,
    green_cutoff_zero,
    momentum_identity_check,
    regularized_h0_at_zero,
    scheme_matching_limit,
    varpi,
)
from .singfree import (
    FamilyParams,
    FRepresentation,
    absorption_condition,
    family_amplitude,
    family_solution,
    regularized_h0_position_scheme,
    renormalized_b,
    renormalized_b_limit,
)
from .specfun import (
    EULER_GAMMA,
    bessel_j0,
    bessel_y0,
    hankel1_0,
    hankel1_0_array,
    hankel1_0_small_x_expansion,
    hankel1_1_array,
)
from .transfer import (
    Coupling,
    FundamentalSolution,
    TransferEntry,
    auxiliary_entries,
    bare_amplitude_with_cutoff,
    flow_bare_coupling,
    fundamental_entries,
    scattering_amplitude_dfss,
    scattering_amplitude_renormalized,
    solve_fundamental,
)

__version__ = "0.1.0"
