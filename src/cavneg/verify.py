"""Self-verification suites: named invariants with residuals and thresholds.

The fast level runs the cheap invariants (identities at moderate cutoff,
cross-checks at a handful of phase points).  The full level raises the
cutoff to 2000, adds doubling convergence, widens the phase grids to 64
points, covers the heavy-field masses (M = 1000, and M = 10**4, where the
closed form is close enough to police its mode weights), checks the reach
that --estimate reports against a short scan of the heavy-field form, the
Rindler spectrum against its wall-ratio form and the gravitational
drop-fall-catch chain against the one-way form.  Both levels check the
column engine against the closed forms, and against the full-matrix
reference at n_max 200; the closed-form checks build each trip and its
closed value through sweep's map of phase coordinates, the one every sweep
uses.  The boost identity residuals come from bogoliubov._boost_residuals,
which reads the boost's row blocks straight from its entry kernel, so no
level builds a boost larger than n_max 200.  bench/verify_layers.py times
and traces the levels check by check and writes BENCH_verify.json.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bogoliubov import (
    _boost,
    _boost_alpha2_diag,
    _boost_residuals,
    boost_column,
    compose,
    inverse,
    massive_boost_transform,
    massless_boost_transform,
    phase_rotation,
)
from .closedform import (
    A_10,
    A_11,
    _massive_reach,
    kickstart_deficit,
    massive_limit_deficit,
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
    Scenario,
    _inertial_frequencies,
    _transform_steps,
    effective_transform,
    kickstart_scenario,
    negativity_general,
    one_way_scenario,
    round_trip_scenario,
    scenario_negativity,
)
from .spectrum import acceleration_period, rindler_frequency
from .sweep import _build_scenario, _massless_closed, _tau_bar

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


def _boost_identities(n_max: int, M: float) -> list:
    res = _boost_residuals(n_max, M)
    label = f"boost-identity-M{M:g}-n{n_max}"
    # The diagonal residual floats on rounding noise proportional to the
    # summed magnitudes, which grow like M**4 for heavy fields.
    alpha2 = _boost_alpha2_diag(n_max, None if M == 0 else M)
    scale = max(abs(alpha2[: n_max // 2]).max(), 1.0)
    return [
        # the entry formulas are antisymmetric and symmetric bit for bit
        CheckResult(f"{label}-order1", res.order1_residual, 0.0),
        CheckResult(
            f"{label}-order2",
            res.order2_diag_residual,
            res.tail_estimate + 5e-13 * n_max * scale,
        ),
    ]


def _identity_checks(n_max: int, masses) -> list:
    return [c for M in masses for c in _boost_identities(n_max, M)]


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
        direct = np.cos(np.multiply.outer(us, s)) @ q_coefficients(n, 600)
        series = q_function(n, np.exp(1j * us))
        residual = max(residual, float(abs(direct - series).max()))
    return CheckResult("q-matches-coefficient-series", residual, 1e-11)


def _positivity_check(r_max: int) -> CheckResult:
    worst = 0.0
    for n in range(1, 33):
        coeffs = q_coefficients(n, max(r_max, n))
        worst = max(worst, float(max(0.0, -coeffs.min())))
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


def _two_by_two_check() -> CheckResult:
    """One-way deficit error of the two-coefficient replacement, relative to
    the quarter-period deficit 2 Q(1,1); lands at 0.66% against the 0.7%
    bound, so even small corruption of A_11 trips it."""
    us = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    z = np.exp(1j * us)

    def small(zz):
        return A_10 * np.real(zz) + 0.5 * A_11 * np.real(zz**3)

    q_one = kickstart_deficit(1)
    exact = 2.0 * (q_one - np.asarray(q_function(1, z)))
    approx = 2.0 * (small(1.0 + 0.0j) - small(z))
    scale = 2.0 * q_one
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


# the check label of each named trip, in check order
_PIPELINE_LABELS = {
    "one-way": "one-way",
    "alpha-centauri": "two-way",
    "round-trip": "round-trip",
    "kickstart": "kickstart",
}


def _pipeline_checks(n_max: int, npoints: int, ks) -> list:
    """Column engine against the closed forms for the four named trips, each
    built and evaluated through sweep's map of phase coordinates (u, v, w);
    the kickstart trip runs at u = 0.8 alone."""
    us = np.linspace(0.15, 2.0 * math.pi - 0.15, npoints)
    vs, ws = np.roll(us, max(1, npoints // 3)), np.roll(us, max(2, 2 * npoints // 3))
    grid, kick = np.array([us, vs, ws]), np.array([[0.8], [0.0], [0.0]])
    tol = 1e-8 if n_max >= 2000 else 3e-7 * (500.0 / n_max) ** 3
    checks = []
    for k in ks:
        cfg = CavityConfig(k=k, n_max=n_max)
        for name, label in _PIPELINE_LABELS.items():
            points = kick if name == "kickstart" else grid
            closed, _ = _massless_closed(name, k, *points)
            closed = np.broadcast_to(closed, points.shape[1:])
            worst = max(
                abs(scenario_negativity(_build_scenario(name, cfg, *uvw))[0] - c)
                for uvw, c in zip(points.T.tolist(), closed.tolist())
            )
            checks.append(
                CheckResult(f"pipeline-vs-closed-{label}-k{k}-n{n_max}", worst, tol)
            )
    return checks


def _column_vs_matrix(n_max: int, M: float) -> float:
    """Largest deficit or tail difference between the column engine and the
    full-matrix reference over two kickstart trips, the bare kickstart and
    one that follows a leg and a coast, whose tail phase the bare one cannot
    see, and every prefix of a round trip, read from one walk along it."""
    cfg = CavityConfig(M=M, k=2, n_max=n_max)
    trip = round_trip_scenario(0.8, 0.45, 0.3, cfg)
    kicks = (kickstart_scenario(0.8, cfg), Scenario(trip.segments[:3], cfg, kickstart=True))
    prefixes = (Scenario(trip.segments[:steps], cfg) for steps in itertools.count(1))
    # the kicks go first, so no kick transform is held during the walk
    pairs = itertools.chain(
        ((s, effective_transform(s)) for s in kicks), zip(prefixes, _transform_steps(trip))
    )
    return max(
        abs(c - r)
        for s, t in pairs
        for c, r in zip(scenario_negativity(s), negativity_general(t, cfg.k))
    )


_COLUMN_MASSES = (0.0, 10.0)
_COLUMN_N_MAX = 200


def _column_matches_matrix_check(n_max: int) -> CheckResult:
    """Column engine against the full-matrix reference: deficit and tail for
    the round trip's prefixes and the kickstart trips, massless and
    massive."""
    worst = max(_column_vs_matrix(n_max, M) for M in _COLUMN_MASSES)
    return CheckResult(f"column-matches-matrix-n{n_max}", worst, 1e-14)


# np.random.default_rng(20240817).uniform(0.2, 2.0, 3), written out so the
# check does not import numpy.random
_PERIODICITY_TAUS = (1.1769876627435734, 0.6553755531338907, 0.705677579178132)


def _periodicity_check(n_max: int = 200) -> CheckResult:
    cfg = CavityConfig(n_max=n_max)
    period = acceleration_period(cfg)
    worst = 0.0
    for tau in _PERIODICITY_TAUS:
        a, _ = scenario_negativity(one_way_scenario(tau, cfg))
        b, _ = scenario_negativity(one_way_scenario(tau + period, cfg))
        worst = max(worst, abs(a - b))
    return CheckResult(f"one-way-periodicity-n{n_max}", worst, 1e-11)


def _doubling_check() -> CheckResult:
    """Deficit change under n_max doubling must sit inside the tail bound."""
    (lo, lo_tail), (hi, _) = (
        scenario_negativity(_build_scenario("one-way", CavityConfig(n_max=n), 2.4))
        for n in (1000, 2000)
    )
    return CheckResult("one-way-doubling-convergence", abs(hi - lo), lo_tail + 1e-12)


def _diagonal_extrapolation_check() -> CheckResult:
    """Richardson-extrapolated diagonal identity sum against pi^2 n^2 / 120."""

    def partial(n_max: int, n: int) -> float:
        acol, bcol = boost_column(n_max, n)
        w = np.abs(acol) ** 2 - np.abs(bcol) ** 2
        w[n - 1] = 0.0
        return float(np.sum(w))

    worst = 0.0
    for n in range(1, 9):
        s_hi, s_lo = partial(2000, n), partial(1000, n)
        extrapolated = s_hi + (s_hi - s_lo) / 15.0
        target = math.pi**2 * n**2 / 120.0
        worst = max(worst, abs(extrapolated - target) / target)
    return CheckResult("massless-diagonal-identity-extrapolated", worst, 1e-6)


def _heavy_field_engine_check(M: float, fractions, threshold: float) -> CheckResult:
    """Heavy-field closed form against the pipeline at k = 1, n_max 400, for
    tau_bar at the given fractions of M.

    The closed form keeps the leading M**4 piece only, so agreement is
    relative, at a few parts in 10**4 at M = 1000 and 1.1e-6 at M = 10**4,
    where a 0.1% error in the mode weights, and so in the reach that
    --estimate reports, reads 1e-3.
    """
    k, n_max = 1, 400
    cfg = CavityConfig(M=M, n_max=n_max)
    worst = 0.0
    for tau in (f * M for f in fractions):
        closed = float(massive_limit_deficit(k, M, tau, 1.0, n_max))
        deficit, _ = scenario_negativity(one_way_scenario(tau, cfg))
        worst = max(worst, abs(deficit - closed) / max(closed, 1.0))
    return CheckResult(f"heavy-field-closed-vs-pipeline-M{M:g}", worst, threshold)


def _massive_reach_check() -> CheckResult:
    """The reach that --estimate reports at k = 1, M = 1000, 2 pref sum_n
    amp_n, against the largest heavy-field deficit on a short scan near
    u = 1/2, where every phase lies close to an odd multiple of pi.  The
    relative gap reads 4.7e-10 measured, and a gap of either sign fails, so
    a reach 5e-4 low reads 5e-4."""
    k, M, n_max = 1, 1e3, 200
    tau = _tau_bar(np.linspace(0.499, 0.501, 401), CavityConfig(M=M))
    peak = float(np.max(massive_limit_deficit(k, M, tau, 1.0, n_max)))
    reach = _massive_reach(k, M, n_max)
    return CheckResult(f"heavy-field-reach-vs-scan-M{M:g}", abs(reach - peak) / reach, 1e-9)


def _rindler_wall_ratio_check() -> CheckResult:
    """rindler_frequency and acceleration_period against the wall-ratio
    form n pi h / (delta ln(b/a)), with the walls at chi = 1/h -+ 1/2, so
    ln(b/a) = log1p(2h / (2 - h)); relative error, 3.6e-15 at most
    measured, where a 3-term atanh series reads 1.6e-6 at h = 0.3."""
    worst = 0.0
    for mag, sign, delta in itertools.product(
        (1e-8, 1e-4, 0.3, 1.0, 1.99), (1.0, -1.0), (0.3, 1.0, 10.0)
    ):
        h = sign * mag
        cfg = CavityConfig(h=h, delta=delta)
        log_ratio = math.log1p(2.0 * h / (2.0 - h))
        pairs = [(acceleration_period(cfg), 2.0 * delta * log_ratio / h)]
        for n in (1, 3, 200):
            want = n * math.pi * h / (delta * log_ratio)
            pairs.append((rindler_frequency(n, cfg), want))
        worst = max(worst, *(abs(got - want) / want for got, want in pairs))
    return CheckResult("rindler-spectrum-wall-ratio", worst, 1e-14)


def _dropped_and_caught_check(n_max: int = 200) -> CheckResult:
    """The gravitational counterpart: a cavity held static in gravity, in
    Rindler modes, dropped (the inverse boost), falling for tau (the inertial
    phases) and caught (the boost), against the one-way form at u = pi tau
    for k = 1-3.  Each error is read in units of the engine's truncation
    tail: 0.255-0.259 measured; the boost in place of its inverse reads 2.6e9.
    """
    cfg = CavityConfig(n_max=n_max)
    boost = _boost(n_max, 0.0)
    worst = 0.0
    for tau in (0.3, 0.7, 1.9):
        fall = phase_rotation(tau, _inertial_frequencies(cfg), n_max)
        t = compose(boost, compose(fall, inverse(boost)))
        for k in (1, 2, 3):
            deficit, tail = negativity_general(t, k)
            closed = one_way_deficit(k, np.exp(1j * math.pi * tau))
            worst = max(worst, abs(deficit - closed) / tail)
    return CheckResult(f"dropped-and-caught-vs-one-way-n{n_max}", worst, 0.5)


def run_verification(level: str = "fast") -> VerificationReport:
    """Run the invariant suite at level "fast" or "full"."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    checks: list = []
    if level == "fast":
        checks += _identity_checks(500, _COLUMN_MASSES)
        checks.append(_massless_reduction_check())
        checks.append(_q_series_check())
        checks.append(_positivity_check(2000))
        checks += _form_agreement_checks(16)
        checks.append(_two_by_two_check())
        checks.append(_zero_locus_check())
        checks += _pipeline_checks(500, 4, (1,))
        checks.append(_column_matches_matrix_check(_COLUMN_N_MAX))
        checks.append(_periodicity_check())
    else:
        checks += _identity_checks(2000, (0.0, 10.0, 1e3))
        checks.append(_massless_reduction_check())
        checks.append(_diagonal_extrapolation_check())
        checks.append(_q_series_check())
        checks.append(_positivity_check(10000))
        checks += _form_agreement_checks(64)
        checks.append(_two_by_two_check())
        checks.append(_zero_locus_check())
        checks += _pipeline_checks(2000, 8, (1, 2))
        checks.append(_column_matches_matrix_check(_COLUMN_N_MAX))
        checks.append(_periodicity_check())
        checks.append(_doubling_check())
        checks.append(_heavy_field_engine_check(1e3, (0.3, 0.9), 1e-3))
        checks.append(_heavy_field_engine_check(1e4, (0.3, 0.5, 0.9, 1.7), 1e-5))
        checks.append(_massive_reach_check())
        checks.append(_rindler_wall_ratio_check())
        checks.append(_dropped_and_caught_check())
    return VerificationReport(level=level, checks=tuple(checks))
