"""Cavity spectra, dimensionless parameters, and validity checks.

A Dirichlet cavity of proper length ``delta`` confines a scalar field whose
dimensionless mass is ``M`` (field mass times cavity length in natural
units).  The inertial mode spectrum is ``omega_n = sqrt(M**2 + pi**2 n**2) /
delta``.  While the cavity rides a uniformly accelerated worldline, the
massless modes oscillate at integer multiples of a boost frequency set by the
dimensionless acceleration ``h`` (proper acceleration at the cavity centre
times ``delta``).  Everything downstream works in terms of ``h``, ``M`` and
proper durations measured at the cavity centre; this module converts
laboratory numbers into that language and reports whether the perturbative
treatment applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "C_LIGHT",
    "HBAR",
    "CavityConfig",
    "ValidityReport",
    "validity_report",
    "rindler_frequency",
    "acceleration_period",
    "physical_to_dimensionless",
]

C_LIGHT = 299792458.0  # m / s, exact
HBAR = 1.054571817e-34  # J s, CODATA

# regime thresholds of ValidityReport
KH_THRESHOLD = 0.1
MASSIVE_BOUND = 100.0


@dataclass(frozen=True)
class CavityConfig:
    """Parameters of one cavity run.

    delta: proper cavity length, > 0 (metres, or 1 in natural units).
    M: dimensionless field mass, >= 0.
    h: dimensionless acceleration, signed.  |h| < 2 keeps the proper
        acceleration finite at the trailing cavity wall.
    k: index of the initially excited mode, >= 1.
    n_max: mode truncation cutoff, >= k + 1.
    """

    delta: float = 1.0
    M: float = 0.0
    h: float = 0.0
    k: int = 1
    n_max: int = 200

    def __post_init__(self) -> None:
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not self.M >= 0:
            raise ValueError(f"M must be non-negative, got {self.M}")
        if not abs(self.h) < 2:
            raise ValueError(f"|h| must stay below 2, got {self.h}")
        if self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        if self.n_max < self.k + 1:
            raise ValueError(
                f"n_max must be at least k + 1 = {self.k + 1}, got {self.n_max}"
            )


@dataclass(frozen=True)
class ValidityReport:
    """Regime flags for a parameter choice, at fixed thresholds.

    perturbative_ok: |k h| < KH_THRESHOLD = 0.1.  k h is the expansion
        parameter of the massless deficit, which grows like (k h)**2, so
        the second-order term stays small against the unperturbed value.
    massive_ok: h M**2 <= MASSIVE_BOUND = 100.  h M**2 is the expansion
        parameter of the heavy-field deficit, which grows like h**2 M**4;
        under the bound the large-mass limit remains controlled.
    h_bound_ok: |h| < 2.
    """

    perturbative_ok: bool
    massive_ok: bool
    h_bound_ok: bool

    @classmethod
    def from_parameters(cls, k: int, h: float, M: float = 0.0) -> "ValidityReport":
        return cls(
            perturbative_ok=abs(k * h) < KH_THRESHOLD,
            massive_ok=abs(h) * M * M <= MASSIVE_BOUND,
            h_bound_ok=abs(h) < 2.0,
        )


def validity_report(cfg: CavityConfig) -> ValidityReport:
    """Flags for a config, at the fixed thresholds of ValidityReport."""
    return ValidityReport.from_parameters(cfg.k, cfg.h, cfg.M)


def rindler_frequency(n: int, cfg: CavityConfig) -> float:
    """Frequency of massless mode n with respect to proper time at the cavity
    centre while uniformly accelerated.

    Equals pi h n / (2 delta atanh(h/2)), an even function of h that tends to
    the inertial value pi n / delta as h -> 0.  h = 0 returns that limit so
    sweeps can include the origin.  Only the massless accelerated spectrum is
    available; M > 0 raises NotImplementedError.
    """
    if n < 1:
        raise ValueError(f"mode index must be >= 1, got {n}")
    if cfg.M > 0:
        raise NotImplementedError(
            "the accelerated mode spectrum is implemented for M = 0 only"
        )
    if not abs(cfg.h) < 2:
        raise ValueError(f"|h| must stay below 2, got {cfg.h}")
    if cfg.h == 0:
        return math.pi * n / cfg.delta
    half = cfg.h / 2.0
    return math.pi * n * half / (cfg.delta * math.atanh(half))


def acceleration_period(cfg: CavityConfig) -> float:
    """Proper time after which every accelerated massless mode phase returns
    to one: 2 pi / rindler_frequency(1), which is 2 delta atanh(h/2) / (h/2).

    Even in h, increasing in |h|, with inertial limit 2 delta (the light
    bounce time) as h -> 0.  Raises as rindler_frequency does.
    """
    return 2.0 * math.pi / rindler_frequency(1, cfg)


def physical_to_dimensionless(
    accel: float,
    delta: float,
    mass: float | None = None,
    transverse_wavelength: float | None = None,
    k: int = 1,
) -> tuple[float, float, ValidityReport]:
    """Convert laboratory inputs to (h, M) plus a ValidityReport.

    accel: proper acceleration at the cavity centre in m/s**2, >= 0.
    delta: cavity length in metres, > 0.
    mass: rest mass of the quanta in kg, for massive fields.
    transverse_wavelength: wavelength in metres fixing the transverse
        momentum of light guided along the cavity axis; that momentum acts as
        an effective mass in the longitudinal problem.

    Exactly one of mass / transverse_wavelength may be given; neither means a
    massless longitudinal mode (M = 0).  Doubling delta doubles both h and M.
    """
    if not accel >= 0:
        raise ValueError(f"acceleration must be non-negative, got {accel}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if mass is not None and transverse_wavelength is not None:
        raise ValueError("give either mass or transverse_wavelength, not both")
    h = accel * delta / C_LIGHT**2
    if mass is not None:
        if not mass >= 0:
            raise ValueError(f"mass must be non-negative, got {mass}")
        M = mass * C_LIGHT * delta / HBAR
    elif transverse_wavelength is not None:
        if not transverse_wavelength > 0:
            raise ValueError(
                f"wavelength must be positive, got {transverse_wavelength}"
            )
        M = 2.0 * math.pi * delta / transverse_wavelength
    else:
        M = 0.0
    report = ValidityReport.from_parameters(k, h, M)
    return h, M, report
