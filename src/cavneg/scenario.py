"""Trajectory scenarios and the general second-order negativity.

One cavity of an initially maximally entangled pair travels along a piecewise
trajectory: uniformly accelerated stretches with a sign and inertial coasts,
each with a proper duration measured at the cavity centre.  Every accelerated
stretch is booked as boost into the accelerated basis, free evolution there,
boost back, so the cavity starts and ends each segment in an inertial frame.
A kickstart scenario drops the final boost back, describing a trajectory that
ends while still accelerating.  Both engines read every segment's phases off
one spectrum, _frequencies, built once per walk.

The second-order negativity of a scenario reads column k of the end-to-end
transform only: for an excitation in mode k it is 1/2 - h**2 * deficit, with

    deficit = sum_{n != k} (|alpha1[n, k]|**2 / 2 + |beta1[n, k]|**2)

independent of h because the transform blocks are stored per unit h.  The
engine returns the pair (deficit, truncation tail); the closed forms return
the deficit alone, and the sweep takes their tails from the series cutoff.
scenario_negativity carries that column through the segments in O(n_max)
each; effective_transform builds every segment's full n_max x n_max blocks
and composes them, and through negativity_general it is the reference the
column path is checked against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bogoliubov import (
    TAIL_ROWS,
    PerturbativeTransform,
    _boost,
    _truncation_tail,
    boost_column,
    compose,
    identity_transform,
    phase_rotation,
)
from .closedform import _check_phase
from .spectrum import CavityConfig, rindler_frequency

__all__ = [
    "Accelerated",
    "Inertial",
    "Scenario",
    "effective_transform",
    "negativity_general",
    "scenario_negativity",
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


@dataclass(frozen=True)
class Scenario:
    """Ordered trajectory segments plus the cavity configuration.

    kickstart=True omits the boost back to the inertial basis after the final
    segment, which must then be an Accelerated one.  A segment whose
    largest phase, at mode n_max, a float resolves more coarsely than 1e-6
    rad raises ValueError: the engines' phases would have lost their digits.
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
        freqs = _frequencies(self.cfg)
        for seg in segs:
            rate = float(freqs[type(seg)][-1])
            # an overflowing spectrum gives a NaN deficit, refused downstream
            if math.isfinite(rate):
                _check_phase(rate * seg.duration, f"a segment of duration {seg.duration:.6g}")
        object.__setattr__(self, "segments", segs)


def _frequencies(cfg: CavityConfig) -> dict:
    """The frequencies of modes 1 .. n_max for each segment kind, the one
    spectrum both engines read.  At M = 0 an accelerated leg runs at the
    Rindler rates, integer multiples of the lowest.  No accelerated spectrum
    is known at M > 0; the h -> 0 phase rule reuses the inertial frequencies,
    an O(h) phase error that leaves the second-order deficit structure
    untouched."""
    n = np.arange(1, cfg.n_max + 1, dtype=float)
    inertial = np.sqrt(cfg.M * cfg.M + (math.pi * n) ** 2) / cfg.delta
    accelerated = rindler_frequency(1, cfg) * n if cfg.M == 0 else inertial
    return {Inertial: inertial, Accelerated: accelerated}


def _accelerated_segment(
    boost: PerturbativeTransform, z: np.ndarray, sign: int, open_ended: bool
) -> PerturbativeTransform:
    """The leg of the given sign whose accelerated-frame phases are z."""
    if open_ended:
        # boost then accelerated-frame evolution, no boost back
        return PerturbativeTransform(
            z,
            sign * z[:, None] * boost.alpha1,
            sign * z[:, None] * boost.beta1,
            z * boost.alpha2_diag,
        )
    # boost, evolution, inverse boost collapse to a closed form: the
    # antisymmetry of alpha1 and symmetry of beta1 in the boost blocks turn
    # the chain into phase differences
    return PerturbativeTransform(
        z,
        sign * boost.alpha1 * (z[:, None] - z[None, :]),
        sign * boost.beta1 * (z[:, None] - np.conj(z)[None, :]),
        2.0 * z * boost.alpha2_diag
        + np.einsum("mn,m->n", boost.alpha1**2, z)
        - np.einsum("mn,m->n", boost.beta1**2, np.conj(z)),
    )


def _transform_steps(s: Scenario):
    """Yield the end-to-end transform after each segment of s, in order:
    one fresh transform per segment, composed onto the steps before it."""
    cfg, last = s.cfg, len(s.segments) - 1
    freqs = _frequencies(cfg)
    legs = any(isinstance(seg, Accelerated) for seg in s.segments)
    boost = _boost(cfg.n_max, cfg.M) if legs else None
    segments = (
        phase_rotation(seg.duration, freqs[Inertial])
        if isinstance(seg, Inertial)
        else _accelerated_segment(
            boost,
            np.exp(1j * freqs[Accelerated] * seg.duration),
            seg.sign,
            s.kickstart and i == last,
        )
        for i, seg in enumerate(s.segments)
    )
    yield from itertools.accumulate(segments, lambda total, t: compose(t, total))


def effective_transform(s: Scenario) -> PerturbativeTransform:
    """End-to-end transform of a scenario, per unit h, as full matrices.

    Accelerated segments contribute boost, accelerated-frame phases, inverse
    boost (the inverse omitted only for the kickstart tail); inertial
    segments contribute inertial phases.  Segments compose in trajectory
    order; an empty scenario gives the identity.  This is the O(n_max**2)
    reference that scenario_negativity is checked against.
    """
    total = None
    for total in _transform_steps(s):
        pass
    return identity_transform(s.cfg.n_max) if total is None else total


def _check_column(k: int, n_max: int) -> None:
    if not 1 <= k <= n_max // 2:
        raise ValueError(
            f"k must satisfy 1 <= k <= n_max/2 = {n_max // 2}, got {k}"
        )


def _column_result(acol: np.ndarray, bcol: np.ndarray, k: int) -> tuple:
    """(deficit, truncation tail) from column k of alpha1 and beta1."""
    w = 0.5 * np.abs(acol) ** 2 + np.abs(bcol) ** 2
    deficit = float(w.sum() - w[k - 1])
    tail = float(_truncation_tail(w[-TAIL_ROWS:], w.size))
    return deficit, tail


def negativity_general(t: PerturbativeTransform, k: int) -> tuple:
    """Scaled negativity deficit and its truncation tail for an excitation
    in mode k, as the pair (deficit, tail) of floats.

    Sums |alpha1[n, k]|**2 / 2 + |beta1[n, k]|**2 over n != k down column k
    of the transform; k must stay at or below n_max / 2 so the truncated sum
    retains headroom.  The negativity is 1/2 - h**2 * deficit.
    """
    _check_column(k, t.n_max)
    return _column_result(t.alpha1[:, k - 1], t.beta1[:, k - 1], k)


def scenario_negativity(s: Scenario) -> tuple:
    """Scaled negativity deficit and its truncation tail of a scenario, as
    the pair (deficit, tail) of floats, from column k alone.

    Equals negativity_general(effective_transform(s), k) but carries
    only column k of alpha1 and beta1 through the segments, in O(n_max) per
    segment.  At first order column k of a composition needs column k of
    each factor and the order-0 phase z_k of the earlier one:

        accelerated:  sign alpha1[:, k] (z - z_k), sign beta1[:, k] (z - conj z_k)
        kickstart tail:  sign z alpha1[:, k], sign z beta1[:, k]
        compose:  a <- z a + a_seg Z_k,  b <- z b + b_seg conj(Z_k)

    with z the segment's phases and Z the running order-0 phases.  Each
    distinct (segment kind, duration) evaluates its phases once.
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
    freqs = _frequencies(cfg)
    phase_vectors = {}

    def phases_of(seg):
        # keyed on the exact bits, so -0.0 keeps phases of its own
        key = (type(seg), float(seg.duration).hex())
        if key not in phase_vectors:
            phase_vectors[key] = np.exp(1j * freqs[type(seg)] * seg.duration)
        return phase_vectors[key]

    last = len(s.segments) - 1
    for i, seg in enumerate(s.segments):
        if isinstance(seg, Inertial):
            phases = phases_of(seg)
            a = phases * a
            b = phases * b
            Z = phases * Z
            continue
        if column is None:
            column = boost_column(cfg.n_max, k, cfg.M)
        z = phases_of(seg)
        if s.kickstart and i == last:
            a_seg = seg.sign * z * column[0]
            b_seg = seg.sign * z * column[1]
        else:
            a_seg = seg.sign * column[0] * (z - z[k - 1])
            b_seg = seg.sign * column[1] * (z - np.conj(z[k - 1]))
        a = z * a + a_seg * Z[k - 1]
        b = z * b + b_seg * np.conj(Z[k - 1])
        Z = z * Z
    return _column_result(a, b, k)


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
