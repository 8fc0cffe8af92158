"""Entanglement degradation of cavity modes under segmented acceleration.

Two cavities share a maximally entangled pair of field modes; one cavity
then travels through inertial and uniformly accelerated segments.  This
package computes the resulting loss of negativity to second order in the
dimensionless acceleration, both through an explicit mode-mixing pipeline
and through closed-form expressions, and sweeps the results to CSV.
"""

from .spectrum import (
    C_LIGHT,
    HBAR,
    CavityConfig,
    ValidityReport,
    acceleration_period,
    physical_to_dimensionless,
    rindler_frequency,
    validity_report,
)
from .bogoliubov import (
    IdentityResidual,
    PerturbativeTransform,
    check_identities,
    compose,
    identity_transform,
    inverse,
    boost_column,
    massive_boost_transform,
    massless_boost_transform,
    phase_rotation,
)
from .scenario import (
    Accelerated,
    Inertial,
    Scenario,
    alpha_centauri_scenario,
    effective_transform,
    kickstart_scenario,
    negativity_general,
    one_way_scenario,
    round_trip_scenario,
    scenario_negativity,
)
from .closedform import (
    kickstart_deficit,
    massive_limit_deficit,
    one_way_deficit,
    polylog6,
    q_coefficients,
    q_function,
    round_trip_deficit,
    two_way_deficit,
)
from .sweep import (
    Axis,
    ConfigError,
    NumericValidityError,
    PRESETS,
    SweepSpec,
    estimate_physical,
    preset_spec,
    run_sweep,
)
from .verify import CheckResult, VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "C_LIGHT",
    "HBAR",
    "CavityConfig",
    "ValidityReport",
    "acceleration_period",
    "physical_to_dimensionless",
    "rindler_frequency",
    "validity_report",
    "IdentityResidual",
    "PerturbativeTransform",
    "check_identities",
    "compose",
    "identity_transform",
    "inverse",
    "boost_column",
    "massive_boost_transform",
    "massless_boost_transform",
    "phase_rotation",
    "Accelerated",
    "Inertial",
    "Scenario",
    "alpha_centauri_scenario",
    "effective_transform",
    "kickstart_scenario",
    "negativity_general",
    "one_way_scenario",
    "round_trip_scenario",
    "scenario_negativity",
    "kickstart_deficit",
    "massive_limit_deficit",
    "one_way_deficit",
    "polylog6",
    "q_coefficients",
    "q_function",
    "round_trip_deficit",
    "two_way_deficit",
    "Axis",
    "ConfigError",
    "NumericValidityError",
    "PRESETS",
    "SweepSpec",
    "estimate_physical",
    "preset_spec",
    "run_sweep",
    "CheckResult",
    "VerificationReport",
    "run_verification",
    "__version__",
]
