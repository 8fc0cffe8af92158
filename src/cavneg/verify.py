"""Self-verification suites: named invariants with residuals and thresholds.

The fast level runs the cheap invariants (identities at moderate cutoff,
cross-checks at a handful of phase points).  The full level raises the cutoff
to 2000, adds doubling convergence, widens the phase grids to 64 points and
covers the heavy-field masses.  Both levels check the column engine against
the closed forms and against the full-matrix reference.  On a 2-vCPU
x86-64 machine (Python 3.11, numpy 2.4) fast takes about 0.4 s and full
about 2.8 s; bench/verify_layers.py times them check by check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import closedform
from .bogoliubov import (
    check_identities,
    massive_boost_transform,
    massless_boost_transform,
)
from .closedform import (
    A_10,
    A_11,
    kickstart_deficit,
    one_way_deficit,
    one_way_deficit_sum,
    q_coefficients,
    q_function,
    round_trip_deficit,
    two_way_deficit,
    two_way_deficit_sum,
)
from .scenario import (
    CavityConfig,
    _transform_steps,
    alpha_centauri_scenario,
    effective_transform,
    kickstart_scenario,
    negativity_general,
    one_way_scenario,
    round_trip_scenario,
    scenario_negativity,
)
from .spectrum import acceleration_period, rindler_frequency

__all__ = ["CheckResult", "VerificationReport", "run_verification"]


@dataclass(frozen=True)
class CheckResult:
    """A single named invariant: measured residual against its threshold."""

    name: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.threshold


@dataclass(frozen=True)
class VerificationReport:
    level: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = []
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            lines.append(
                f"{tag} {c.name}: residual {c.residual:.3e} (threshold {c.threshold:.3e})"
            )
        tally = sum(1 for c in self.checks if c.passed)
        lines.append(f"{tally}/{len(self.checks)} checks passed at level {self.level}")
        return "\n".join(lines)


def _boost(n_max: int, M: float):
    if M == 0:
        return massless_boost_transform(n_max)
    return massive_boost_transform(n_max, M)


def _boost_identities(t, M: float) -> list:
    n_max = t.n_max
    res = check_identities(t)
    label = f"boost-identity-M{M:g}-n{n_max}"
    # The diagonal residual floats on rounding noise proportional to the
    # summed magnitudes, which grow like M**4 for heavy fields.
    scale = max(abs(t.alpha2_diag[: n_max // 2]).max(), 1.0)
    return [
        CheckResult(f"{label}-order1", res.order1_residual, 1e-13),
        CheckResult(
            f"{label}-order2",
            res.order2_diag_residual,
            res.tail_estimate + 5e-13 * n_max * scale,
        ),
    ]


def _identity_checks(n_max: int, masses) -> list:
    # each boost is freed before the next mass builds its own
    return [c for M in masses for c in _boost_identities(_boost(n_max, M), M)]


def _massless_reduction_check(n_max: int = 200) -> CheckResult:
    a = massless_boost_transform(n_max)
    b = massive_boost_transform(n_max, 0.0)
    residual = max(
        float(abs(a.alpha1 - b.alpha1).max()),
        float(abs(a.beta1 - b.beta1).max()),
        float(abs(a.alpha2_diag - b.alpha2_diag).max()),
    )
    return CheckResult(f"massive-reduces-to-massless-n{n_max}", residual, 1e-12)


def _q_series_check() -> CheckResult:
    us = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    s = 1.0 + 2.0 * np.arange(601, dtype=float)
    residual = 0.0
    for n in (1, 3):
        direct = np.cos(np.multiply.outer(us, s)) @ q_coefficients(n, 600).a
        series = q_function(n, np.exp(1j * us))
        residual = max(residual, float(abs(direct - series).max()))
    return CheckResult("q-matches-coefficient-series", residual, 1e-11)


def _positivity_check(r_max: int) -> CheckResult:
    worst = 0.0
    for n in range(1, 33):
        coeffs = q_coefficients(n, max(r_max, n))
        worst = max(worst, float(max(0.0, -coeffs.a.min())))
    return CheckResult(f"coefficients-positive-r{r_max}", worst, 0.0)


def _form_agreement_checks(npoints: int) -> list:
    us = np.linspace(0.1, 2.0 * math.pi - 0.1, npoints)
    vs = np.roll(us, npoints // 3)
    residual_one = 0.0
    for k in (1, 2):
        p = np.exp(1j * us)
        residual_one = max(
            residual_one,
            float(abs(one_way_deficit(k, p) - one_way_deficit_sum(k, p)).max()),
        )
    residual_two = float(
        abs(
            two_way_deficit(1, np.exp(1j * us), np.exp(1j * vs))
            - two_way_deficit_sum(1, np.exp(1j * us), np.exp(1j * vs))
        ).max()
    )
    return [
        CheckResult("one-way-forms-agree", residual_one, 1e-10),
        CheckResult("two-way-forms-agree", residual_two, 1e-10),
    ]


def _two_by_two_check(corrupt_a11: float) -> CheckResult:
    """One-way deficit error of the two-coefficient replacement, relative to
    the quarter-period deficit 2 Q(1,1); lands at 0.66% against the 0.7%
    bound, so even small corruption of a11 trips it."""
    us = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    z = np.exp(1j * us)
    a11 = A_11 * (1.0 + corrupt_a11)

    def small(zz):
        return A_10 * np.real(zz) + 0.5 * a11 * np.real(zz**3)

    exact = 2.0 * (closedform._q_at_one(1) - np.asarray(q_function(1, z)))
    approx = 2.0 * (small(1.0 + 0.0j) - small(z))
    scale = 2.0 * closedform._q_at_one(1)
    residual = float(abs(exact - approx).max()) / scale
    return CheckResult("two-by-two-replacement-bound", residual, 0.007)


def _zero_locus_check() -> CheckResult:
    worst = 0.0
    v = 0.7
    worst = max(worst, abs(float(two_way_deficit(1, 1.0, np.exp(1j * v)))))
    u = 1.3
    worst = max(
        worst, abs(float(two_way_deficit(1, np.exp(1j * u), np.exp(-1j * u))))
    )
    u, v = 0.6, 0.5
    w = 2.0 * math.pi - (2.0 * u + v)
    worst = max(
        worst,
        abs(
            float(
                round_trip_deficit(
                    1, np.exp(1j * u), np.exp(1j * v), np.exp(1j * w)
                )
            )
        ),
    )
    return CheckResult("deficit-vanishes-on-loci", worst, 1e-12)


def _pipeline_checks(n_max: int, npoints: int, ks) -> list:
    cfg0 = CavityConfig(n_max=n_max)
    omega = rindler_frequency(1, cfg0)
    us = np.linspace(0.15, 2.0 * math.pi - 0.15, npoints)
    vs = np.roll(us, max(1, npoints // 3))
    ws = np.roll(us, max(2, 2 * npoints // 3))
    p, pp, ppp = np.exp(1j * us), np.exp(1j * vs), np.exp(1j * ws)
    taus, tps, tds = us / omega, vs / math.pi, ws / math.pi
    checks = []
    for k in ks:
        cfg = CavityConfig(k=k, n_max=n_max)
        cases = (
            ("one-way", lambda i: one_way_scenario(taus[i], cfg), one_way_deficit(k, p)),
            (
                "two-way",
                lambda i: alpha_centauri_scenario(taus[i], tps[i], cfg),
                two_way_deficit(k, p, pp),
            ),
            (
                "round-trip",
                lambda i: round_trip_scenario(taus[i], tps[i], tds[i], cfg),
                round_trip_deficit(k, p, pp, ppp),
            ),
        )
        tol = 1e-8 if n_max >= 2000 else 3e-7 * (500.0 / n_max) ** 3
        for label, scenario_at, closed in cases:
            closed = np.asarray(closed, dtype=float)
            worst = max(
                abs(scenario_negativity(scenario_at(i)).deficit_scaled - closed[i])
                for i in range(npoints)
            )
            checks.append(
                CheckResult(f"pipeline-vs-closed-{label}-k{k}-n{n_max}", worst, tol)
            )
        kick = scenario_negativity(kickstart_scenario(0.8 / omega, cfg))
        worst_kick = abs(kick.deficit_scaled - kickstart_deficit(k))
        checks.append(
            CheckResult(f"pipeline-vs-closed-kickstart-k{k}-n{n_max}", worst_kick, tol)
        )
    return checks


def _column_vs_matrix(boost, M: float) -> float:
    """Largest deficit or tail difference between the column engine and the
    full-matrix reference over the four trip shapes, all transformed with
    this one boost.  The one-way and out-and-stop trips are prefixes of the
    round trip, so one walk along its chain serves all three references."""
    cfg = CavityConfig(M=M, k=2, n_max=boost.n_max)
    round_trip = round_trip_scenario(0.8, 0.45, 0.3, cfg)
    prefixes = {}
    for scenario in (
        one_way_scenario(0.8, cfg),
        alpha_centauri_scenario(0.8, 0.45, cfg),
        round_trip,
    ):
        steps = len(scenario.segments)
        if round_trip.segments[:steps] != scenario.segments:
            raise RuntimeError(
                f"the round trip no longer starts with the {steps}-segment trip"
            )
        prefixes[steps] = scenario

    def difference(scenario, t) -> float:
        col = scenario_negativity(scenario)
        ref = negativity_general(t, cfg.k, cfg.h, M)
        return max(
            abs(col.deficit_scaled - ref.deficit_scaled),
            abs(col.truncation_tail - ref.truncation_tail),
        )

    kick = kickstart_scenario(0.8, cfg)
    worst = difference(kick, effective_transform(kick, boost))
    # each step is dropped before the next is composed
    for steps, t in enumerate(_transform_steps(round_trip, boost), 1):
        if steps in prefixes:
            worst = max(worst, difference(prefixes[steps], t))
    return worst


_COLUMN_MASSES = (0.0, 10.0)


def _column_matches_matrix_check(n_max: int = 500, worst=None) -> CheckResult:
    """Column engine against the full-matrix reference: deficit and tail for
    the four trip shapes, massless and massive.  worst, when given, holds
    the per-mass differences already measured by _boost_checks."""
    if worst is None:
        worst = [_column_vs_matrix(_boost(n_max, M), M) for M in _COLUMN_MASSES]
    return CheckResult(f"column-matches-matrix-n{n_max}", max(worst), 1e-14)


def _boost_checks(n_max: int, M: float) -> tuple:
    """The boost identities and the column-vs-matrix difference of one mass
    from a single boost build, which is freed on return."""
    boost = _boost(n_max, M)
    return _boost_identities(boost, M), _column_vs_matrix(boost, M)


def _periodicity_check(n_max: int = 200) -> CheckResult:
    cfg = CavityConfig(n_max=n_max)
    period = acceleration_period(cfg)
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for tau in rng.uniform(0.2, 2.0, 3):
        a = scenario_negativity(one_way_scenario(tau, cfg))
        b = scenario_negativity(one_way_scenario(tau + period, cfg))
        worst = max(worst, abs(a.deficit_scaled - b.deficit_scaled))
    return CheckResult(f"one-way-periodicity-n{n_max}", worst, 1e-11)


def _doubling_check() -> CheckResult:
    """Deficit change under n_max doubling must sit inside the tail bound."""
    u = 2.4
    cfg_lo = CavityConfig(n_max=1000)
    cfg_hi = CavityConfig(n_max=2000)
    omega = rindler_frequency(1, cfg_lo)
    lo = scenario_negativity(one_way_scenario(u / omega, cfg_lo))
    hi = scenario_negativity(one_way_scenario(u / omega, cfg_hi))
    return CheckResult(
        "one-way-doubling-convergence",
        abs(hi.deficit_scaled - lo.deficit_scaled),
        lo.truncation_tail + 1e-12,
    )


def _diagonal_extrapolation_check() -> CheckResult:
    """Richardson-extrapolated diagonal identity sum against pi^2 n^2 / 120."""
    t_hi = massless_boost_transform(2000)
    t_lo = massless_boost_transform(1000)
    worst = 0.0
    for n in range(1, 9):
        col = n - 1

        def partial(t):
            w = (np.abs(t.alpha1[:, col]) ** 2 - np.abs(t.beta1[:, col]) ** 2).real
            w[col] = 0.0
            return float(np.sum(w))

        s_hi, s_lo = partial(t_hi), partial(t_lo)
        extrapolated = s_hi + (s_hi - s_lo) / 15.0
        target = math.pi**2 * n**2 / 120.0
        worst = max(worst, abs(extrapolated - target) / target)
    return CheckResult("massless-diagonal-identity-extrapolated", worst, 1e-6)


def _heavy_field_engine_check() -> CheckResult:
    """Heavy-field closed form against the pipeline at M = 1000.

    The closed form keeps the leading M**4 piece only, so agreement is
    relative at the level of a few parts in 10**4.
    """
    M, k, n_max = 1e3, 1, 400
    cfg = CavityConfig(M=M, n_max=n_max)
    worst = 0.0
    for tau in (0.3 * M, 0.9 * M):
        closed = float(closedform.massive_limit_deficit(k, M, tau, 1.0, n_max))
        res = scenario_negativity(one_way_scenario(tau, cfg))
        worst = max(worst, abs(res.deficit_scaled - closed) / max(closed, 1.0))
    return CheckResult("heavy-field-closed-vs-pipeline-M1000", worst, 1e-3)


def run_verification(level: str = "fast", corrupt_a11: float = 0.0) -> VerificationReport:
    """Run the invariant suite; corrupt_a11 perturbs the 2x2 bound check's
    small coefficient so the tester itself can be tested."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    checks: list = []
    if level == "fast":
        # the identity and column-vs-matrix checks share n_max 500 and the
        # masses, so each boost is built once; the report order stays
        shared = [_boost_checks(500, M) for M in _COLUMN_MASSES]
        checks += [c for identities, _ in shared for c in identities]
        checks.append(_massless_reduction_check())
        checks.append(_q_series_check())
        checks.append(_positivity_check(2000))
        checks += _form_agreement_checks(16)
        checks.append(_two_by_two_check(corrupt_a11))
        checks.append(_zero_locus_check())
        checks += _pipeline_checks(500, 4, (1,))
        checks.append(_column_matches_matrix_check(500, [w for _, w in shared]))
        checks.append(_periodicity_check())
    else:
        checks += _identity_checks(2000, (0.0, 10.0, 1e3))
        checks.append(_massless_reduction_check())
        checks.append(_diagonal_extrapolation_check())
        checks.append(_q_series_check())
        checks.append(_positivity_check(10000))
        checks += _form_agreement_checks(64)
        checks.append(_two_by_two_check(corrupt_a11))
        checks.append(_zero_locus_check())
        checks += _pipeline_checks(2000, 8, (1, 2))
        checks.append(_column_matches_matrix_check())
        checks.append(_periodicity_check())
        checks.append(_doubling_check())
        checks.append(_heavy_field_engine_check())
    return VerificationReport(level=level, checks=tuple(checks))
