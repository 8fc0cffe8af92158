"""Entanglement degradation of cavity modes under segmented acceleration.

Two cavities share a maximally entangled pair of field modes; one cavity
then travels through inertial and uniformly accelerated segments.  This
package computes the resulting loss of negativity to second order in the
dimensionless acceleration, both through an explicit mode-mixing pipeline
and through closed-form expressions, and sweeps the results to CSV.

cavneg runs on one thread, and its only BLAS calls are two small
matrix-vector products.  So when this package is the first to load numpy and
none of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS is set,
numpy is loaded with one OpenBLAS thread: no idle worker thread then spins
beside the program.  OpenBLAS reads the variable only when its library loads,
so it is removed again at once and the environment of later code and child
processes stays the caller's.  Set any of the three variables, or import
numpy first, to keep OpenBLAS's own thread count.
"""


def _load_numpy() -> None:
    import os
    import sys

    blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    if "numpy" in sys.modules or any(v in os.environ for v in blas_vars):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)


_load_numpy()

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
