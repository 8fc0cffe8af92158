"""Trajectory scenarios and the general second-order negativity.

One cavity of an initially maximally entangled pair travels along a piecewise
trajectory: uniformly accelerated stretches with a sign and inertial coasts,
each with a proper duration measured at the cavity centre.  Every accelerated
stretch is booked as boost into the accelerated basis, free evolution there,
boost back, so the cavity starts and ends each segment in an inertial frame.
A kickstart scenario drops the final boost back, describing a trajectory that
ends while still accelerating.

The second-order negativity of a scenario reads column k of the end-to-end
transform only: for an excitation in mode k,

    negativity = 1/2 - h**2 * sum_{n != k} (|alpha1[n, k]|**2 / 2
                                            + |beta1[n, k]|**2)

where the sum, the scaled deficit, is independent of h because the transform
blocks are stored per unit h.  scenario_negativity carries that column
through the segments in O(n_max) each; effective_transform composes the full
n_max x n_max blocks and, through negativity_general, is the reference the
column path is checked against.  It builds each accelerated leg once per
distinct duration, since a leg of the opposite sign differs only in the sign
of its first-order blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .bogoliubov import (
    PerturbativeTransform,
    _compose,
    boost_column,
    identity_transform,
    massive_boost_transform,
    massless_boost_transform,
    phase_rotation,
)
from .spectrum import CavityConfig, ValidityReport, rindler_frequency

__all__ = [
    "Accelerated",
    "Inertial",
    "TrajectorySegment",
    "Scenario",
    "NegativityResult",
    "effective_transform",
    "negativity_general",
    "scenario_negativity",
    "log_negativity",
    "one_way_scenario",
    "alpha_centauri_scenario",
    "round_trip_scenario",
    "kickstart_scenario",
]


def _check_duration(duration: float) -> None:
    if not math.isfinite(duration):
        raise ValueError(f"duration must be finite, got {duration}")
    if duration < 0:
        raise ValueError(f"duration must be non-negative, got {duration}")


@dataclass(frozen=True)
class Accelerated:
    """Uniformly accelerated stretch: sign +1 or -1, finite proper duration
    >= 0."""

    sign: int
    duration: float

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        _check_duration(self.duration)


@dataclass(frozen=True)
class Inertial:
    """Inertial coast with finite proper duration >= 0."""

    duration: float

    def __post_init__(self) -> None:
        _check_duration(self.duration)


TrajectorySegment = Union[Accelerated, Inertial]


@dataclass(frozen=True)
class Scenario:
    """Ordered trajectory segments plus the cavity configuration.

    kickstart=True omits the boost back to the inertial basis after the final
    segment, which must then be an Accelerated one.
    """

    segments: tuple
    cfg: CavityConfig
    kickstart: bool = False

    def __post_init__(self) -> None:
        segs = tuple(self.segments)
        for seg in segs:
            if not isinstance(seg, (Accelerated, Inertial)):
                raise TypeError(f"unsupported segment {seg!r}")
        if self.kickstart and (not segs or not isinstance(segs[-1], Accelerated)):
            raise ValueError("a kickstart scenario must end with an Accelerated segment")
        object.__setattr__(self, "segments", segs)


@dataclass(frozen=True)
class NegativityResult:
    """Negativity of the mode pair after a scenario.

    negativity equals 1/2 - h_used**2 * deficit_scaled exactly; the scaled
    deficit is non-negative and independent of h.  truncation_tail estimates
    the absolute deficit error from the mode cutoff.
    """

    negativity: float
    deficit_scaled: float
    h_used: float
    k_used: int
    validity: ValidityReport
    truncation_tail: float

    @classmethod
    def from_deficit(
        cls,
        deficit_scaled: float,
        h: float,
        k: int,
        validity: ValidityReport,
        truncation_tail: float = 0.0,
    ) -> "NegativityResult":
        return cls(
            negativity=0.5 - h * h * deficit_scaled,
            deficit_scaled=deficit_scaled,
            h_used=h,
            k_used=k,
            validity=validity,
            truncation_tail=truncation_tail,
        )


def _inertial_frequencies(cfg: CavityConfig) -> np.ndarray:
    n = np.arange(1, cfg.n_max + 1, dtype=float)
    return np.sqrt(cfg.M * cfg.M + (math.pi * n) ** 2) / cfg.delta


def _accelerated_frequencies(cfg: CavityConfig) -> np.ndarray:
    if cfg.M == 0:
        base = rindler_frequency(1, cfg)
        return base * np.arange(1, cfg.n_max + 1, dtype=float)
    # No accelerated spectrum is known at M > 0; the h -> 0 phase rule reuses
    # the inertial frequencies, an O(h) phase error that leaves the
    # second-order deficit structure untouched.
    return _inertial_frequencies(cfg)


def _accelerated_segment(
    boost: PerturbativeTransform,
    squares,
    cfg: CavityConfig,
    sign: int,
    duration: float,
    open_ended: bool,
) -> PerturbativeTransform:
    z = np.exp(1j * _accelerated_frequencies(cfg) * duration)
    if open_ended:
        # boost then accelerated-frame evolution, no boost back
        alpha1 = sign * z[:, None] * boost.alpha1
        beta1 = sign * z[:, None] * boost.beta1
        alpha2 = z * boost.alpha2_diag
    else:
        # boost, evolution, inverse boost collapse to a closed form: the
        # antisymmetry of alpha1 and symmetry of beta1 in the boost blocks
        # turn the chain into phase differences
        alpha_sq, beta_sq = squares
        alpha1 = sign * boost.alpha1 * (z[:, None] - z[None, :])
        beta1 = sign * boost.beta1 * (z[:, None] - np.conj(z)[None, :])
        alpha2 = (
            2.0 * z * boost.alpha2_diag
            + np.einsum("mn,m->n", alpha_sq, z)
            - np.einsum("mn,m->n", beta_sq, np.conj(z))
        )
    return PerturbativeTransform(z, alpha1, beta1, alpha2, 1.0)


def _apply_phase(phases: np.ndarray, t: PerturbativeTransform) -> PerturbativeTransform:
    """Left-compose a pure phase rotation; same as compose() with a diagonal
    second factor but skips the arithmetic on its zero blocks."""
    alpha2 = None if t.alpha2_diag is None else phases * t.alpha2_diag
    return PerturbativeTransform(
        phases * t.order0,
        phases[:, None] * t.alpha1,
        phases[:, None] * t.beta1,
        alpha2,
        t.h_value,
    )


def _transform_steps(s: Scenario, boost: PerturbativeTransform | None = None):
    """Yield the end-to-end transform after each segment of s, in order.

    Each distinct (duration, open_ended) leg is built once, with the sign of
    its first use; a later use of the opposite sign negates its first-order
    blocks inside the composition instead of copying them.  boost is as for
    effective_transform.
    """
    cfg = s.cfg
    if boost is not None and boost.n_max != cfg.n_max:
        raise ValueError(
            f"boost has n_max = {boost.n_max}, the scenario needs {cfg.n_max}"
        )
    total = None
    squares = None
    legs = {}
    last = len(s.segments) - 1
    for i, seg in enumerate(s.segments):
        if isinstance(seg, Inertial):
            phases = np.exp(1j * _inertial_frequencies(cfg) * seg.duration)
            if total is None:
                total = phase_rotation(seg.duration, _inertial_frequencies(cfg), cfg.n_max)
            else:
                total = _apply_phase(phases, total)
            yield total
            continue
        open_ended = s.kickstart and i == last
        key = (seg.duration, open_ended)
        if key not in legs:
            if boost is None:
                boost = (
                    massless_boost_transform(cfg.n_max)
                    if cfg.M == 0
                    else massive_boost_transform(cfg.n_max, cfg.M)
                )
            if squares is None and not open_ended:
                squares = np.real(boost.alpha1) ** 2, np.real(boost.beta1) ** 2
            legs[key] = (
                _accelerated_segment(boost, squares, cfg, seg.sign, seg.duration, open_ended),
                seg.sign,
            )
        leg, leg_sign = legs[key]
        total = leg if total is None else _compose(leg, total, seg.sign * leg_sign)
        yield total


def effective_transform(
    s: Scenario, boost: PerturbativeTransform | None = None
) -> PerturbativeTransform:
    """End-to-end transform of a scenario, per unit h, as full matrices.

    Accelerated segments contribute boost, accelerated-frame phases, inverse
    boost (the inverse omitted only for the kickstart tail); inertial
    segments contribute inertial phases.  Segments compose in trajectory
    order, and each distinct accelerated leg duration is built once.  An
    empty scenario gives the identity.  This is the O(n_max**2) reference
    that scenario_negativity is checked against.

    boost, when given, is massless_boost_transform(n_max) or
    massive_boost_transform(n_max, M) for the scenario's n_max and M, so
    that callers transforming several scenarios of one cavity build it
    once; it is built here when omitted.  A boost of another n_max raises
    ValueError.
    """
    total = None
    for total in _transform_steps(s, boost):
        pass
    if total is None:
        return identity_transform(s.cfg.n_max)
    return total


def _check_column(k: int, n_max: int) -> None:
    if not 1 <= k <= n_max // 2:
        raise ValueError(
            f"k must satisfy 1 <= k <= n_max/2 = {n_max // 2}, got {k}"
        )


def _column_result(
    acol: np.ndarray, bcol: np.ndarray, k: int, h: float, M: float
) -> NegativityResult:
    """Deficit and truncation tail from column k of alpha1 and beta1."""
    n_max = acol.size
    w = 0.5 * np.abs(acol) ** 2 + np.abs(bcol) ** 2
    deficit = float(w.sum() - w[k - 1])
    # Entries fall off like m**-5, so the neglected sum is roughly the local
    # mean times n_max/4; averaging a block of rows irons out interference
    # phases and parity blanks, and the factor 3 absorbs their drift.
    block = w[-min(20, n_max):]
    tail = float(3.0 * np.mean(block) * n_max / 4.0)
    validity = ValidityReport.from_parameters(k, h, M)
    return NegativityResult.from_deficit(deficit, h, k, validity, tail)


def negativity_general(
    t: PerturbativeTransform, k: int, h: float, M: float = 0.0
) -> NegativityResult:
    """Second-order negativity for an excitation in mode k.

    Sums |alpha1[n, k]|**2 / 2 + |beta1[n, k]|**2 over n != k down column k
    of the transform; k must stay at or below n_max / 2 so the truncated sum
    retains headroom.  M only feeds the validity flags.
    """
    _check_column(k, t.n_max)
    return _column_result(t.alpha1[:, k - 1], t.beta1[:, k - 1], k, h, M)


def scenario_negativity(s: Scenario) -> NegativityResult:
    """Second-order negativity of a scenario from column k alone.

    Equals negativity_general(effective_transform(s), k, h, M) but carries
    only column k of alpha1 and beta1 through the segments, in O(n_max) per
    segment.  At first order column k of a composition needs column k of
    each factor and the order-0 phase z_k of the earlier one:

        accelerated:  sign alpha1[:, k] (z - z_k), sign beta1[:, k] (z - conj z_k)
        kickstart tail:  sign z alpha1[:, k], sign z beta1[:, k]
        compose:  a <- z a + a_seg Z_k,  b <- z b + b_seg conj(Z_k)

    with z the segment's phases and Z the running order-0 phases.
    """
    cfg = s.cfg
    k = cfg.k
    _check_column(k, cfg.n_max)
    a = np.zeros(cfg.n_max, dtype=complex)
    b = np.zeros(cfg.n_max, dtype=complex)
    # The running order-0 phases stay a vector although only Z_k is read:
    # numpy's scalar complex product rounds differently from its array
    # loops, and the vector keeps the result bit-identical to the matrices.
    Z = np.ones(cfg.n_max, dtype=complex)
    column = None
    last = len(s.segments) - 1
    for i, seg in enumerate(s.segments):
        if isinstance(seg, Inertial):
            phases = np.exp(1j * _inertial_frequencies(cfg) * seg.duration)
            a = phases * a
            b = phases * b
            Z = phases * Z
            continue
        if column is None:
            column = boost_column(cfg.n_max, k, cfg.M)
        z = np.exp(1j * _accelerated_frequencies(cfg) * seg.duration)
        if s.kickstart and i == last:
            a_seg = seg.sign * z * column[0]
            b_seg = seg.sign * z * column[1]
        else:
            a_seg = seg.sign * column[0] * (z - z[k - 1])
            b_seg = seg.sign * column[1] * (z - np.conj(z[k - 1]))
        a = z * a + a_seg * Z[k - 1]
        b = z * b + b_seg * np.conj(Z[k - 1])
        Z = z * Z
    return _column_result(a, b, k, cfg.h, cfg.M)


def log_negativity(result: NegativityResult) -> float:
    """ln(1 + negativity), an upper bound on distillable entanglement."""
    if result.negativity < 0:
        raise ValueError(
            "negativity fell below zero, the parameters left the perturbative range"
        )
    return math.log1p(result.negativity)


def one_way_scenario(tau_bar: float, cfg: CavityConfig) -> Scenario:
    """Single accelerated stretch of proper duration tau_bar."""
    return Scenario((Accelerated(1, tau_bar),), cfg)


def alpha_centauri_scenario(
    tau_bar: float, tau_prime: float, cfg: CavityConfig
) -> Scenario:
    """Accelerate out, coast for tau_prime, decelerate to rest."""
    return Scenario(
        (Accelerated(1, tau_bar), Inertial(tau_prime), Accelerated(-1, tau_bar)),
        cfg,
    )


def round_trip_scenario(
    tau_bar: float, tau_prime: float, tau_dprime: float, cfg: CavityConfig
) -> Scenario:
    """Out, coast, brake, rest for tau_dprime, and the mirror image home."""
    return Scenario(
        (
            Accelerated(1, tau_bar),
            Inertial(tau_prime),
            Accelerated(-1, tau_bar),
            Inertial(tau_dprime),
            Accelerated(-1, tau_bar),
            Inertial(tau_prime),
            Accelerated(1, tau_bar),
        ),
        cfg,
    )


def kickstart_scenario(tau_bar: float, cfg: CavityConfig) -> Scenario:
    """Accelerated stretch that never turns the engines off."""
    return Scenario((Accelerated(1, tau_bar),), cfg, kickstart=True)
