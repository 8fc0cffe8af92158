"""Trajectory assembly and the general negativity pipeline."""

import math

import numpy as np
import pytest

from cavneg.bogoliubov import (
    PerturbativeTransform,
    check_identities,
    compose,
    identity_transform,
    massive_boost_transform,
    massless_boost_transform,
    phase_rotation,
)
from cavneg.closedform import (
    kickstart_deficit,
    massive_limit_deficit,
    one_way_deficit,
    round_trip_deficit,
    two_way_deficit,
)
from cavneg.scenario import (
    Accelerated,
    Inertial,
    NegativityResult,
    Scenario,
    alpha_centauri_scenario,
    effective_transform,
    kickstart_scenario,
    log_negativity,
    negativity_general,
    one_way_scenario,
    round_trip_scenario,
    _accelerated_frequencies,
    _inertial_frequencies,
    _transform_steps,
    scenario_negativity,
)
from cavneg.spectrum import CavityConfig, acceleration_period, rindler_frequency


@pytest.fixture(scope="module")
def cfg():
    return CavityConfig(h=1.0, n_max=400)


def u_to_tau(u, cfg):
    return u / rindler_frequency(1, cfg)


def test_builders_compose_expected_segments(cfg):
    s = round_trip_scenario(0.5, 0.3, 0.2, cfg)
    kinds = [type(seg).__name__ for seg in s.segments]
    assert kinds == [
        "Accelerated",
        "Inertial",
        "Accelerated",
        "Inertial",
        "Accelerated",
        "Inertial",
        "Accelerated",
    ]
    signs = [seg.sign for seg in s.segments if isinstance(seg, Accelerated)]
    assert signs == [1, -1, -1, 1]
    assert not s.kickstart
    assert kickstart_scenario(0.5, cfg).kickstart


def test_segment_validation(cfg):
    with pytest.raises(ValueError):
        Accelerated(2, 0.5)
    with pytest.raises(ValueError):
        Accelerated(1, -0.5)
    with pytest.raises(ValueError):
        Inertial(-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            Accelerated(1, bad)
        with pytest.raises(ValueError):
            Inertial(bad)
    with pytest.raises(ValueError):
        Scenario((Inertial(1.0),), cfg, kickstart=True)
    with pytest.raises(ValueError):
        Scenario((), cfg, kickstart=True)


def test_zero_duration_trip_is_identity(cfg):
    t = effective_transform(one_way_scenario(0.0, cfg))
    res = negativity_general(t, 1, cfg.h)
    assert res.deficit_scaled == pytest.approx(0.0, abs=1e-15)
    assert res.negativity == 0.5


def test_half_period_matches_closed_maximum(cfg):
    tau = u_to_tau(math.pi, cfg)
    res = scenario_negativity(one_way_scenario(tau, cfg))
    assert res.deficit_scaled == pytest.approx(0.16525145161591603, rel=1e-9)


@pytest.mark.parametrize("u", [0.7, 2.0, 4.4])
def test_one_way_matches_closed_form(cfg, u):
    res = scenario_negativity(one_way_scenario(u_to_tau(u, cfg), cfg))
    closed = float(one_way_deficit(1, np.exp(1j * u)))
    assert abs(res.deficit_scaled - closed) < res.truncation_tail + 1e-12


def test_two_way_matches_closed_form(cfg):
    u, v = 1.1, 0.7
    s = alpha_centauri_scenario(u_to_tau(u, cfg), v / math.pi, cfg)
    res = scenario_negativity(s)
    closed = float(two_way_deficit(1, np.exp(1j * u), np.exp(1j * v)))
    assert abs(res.deficit_scaled - closed) < res.truncation_tail + 1e-12


def test_round_trip_matches_closed_form(cfg):
    u, v, w = 1.1, 0.7, 2.3
    s = round_trip_scenario(u_to_tau(u, cfg), v / math.pi, w / math.pi, cfg)
    res = scenario_negativity(s)
    closed = float(
        round_trip_deficit(1, np.exp(1j * u), np.exp(1j * v), np.exp(1j * w))
    )
    assert abs(res.deficit_scaled - closed) < res.truncation_tail + 1e-12


def test_kickstart_ignores_duration(cfg):
    a = scenario_negativity(kickstart_scenario(0.4, cfg))
    b = scenario_negativity(kickstart_scenario(1.9, cfg))
    assert a.deficit_scaled == pytest.approx(b.deficit_scaled, abs=1e-12)
    assert a.deficit_scaled == pytest.approx(kickstart_deficit(1), abs=1e-10)


def test_effective_transform_stays_bogoliubov(cfg):
    s = round_trip_scenario(0.8, 0.45, 0.3, cfg)
    res = check_identities(effective_transform(s))
    assert res.order0_residual < 1e-14
    assert res.order1_residual < 1e-12
    assert res.order2_diag_residual < res.tail_estimate + 1e-12


def test_one_way_periodicity(cfg):
    period = acceleration_period(cfg)
    a = scenario_negativity(one_way_scenario(0.9, cfg))
    b = scenario_negativity(one_way_scenario(0.9 + period, cfg))
    assert abs(a.deficit_scaled - b.deficit_scaled) < 1e-12


def test_heavy_field_one_way_close_to_limit_form():
    M = 1000.0
    cfg = CavityConfig(M=M, h=1e-5, n_max=300)
    tau = 0.25 * M
    res = scenario_negativity(one_way_scenario(tau, cfg))
    closed = float(massive_limit_deficit(1, M, tau, 1.0, 300))
    # the limit form keeps only the leading M**4 piece
    assert res.deficit_scaled == pytest.approx(closed, rel=2e-4)


def _column_cases(cfg):
    return {
        "one-way": one_way_scenario(0.8, cfg),
        "alpha-centauri": alpha_centauri_scenario(0.8, 0.45, cfg),
        "round-trip": round_trip_scenario(0.8, 0.45, 0.3, cfg),
        "kickstart": kickstart_scenario(0.8, cfg),
        "inertial-first": Scenario(
            (Inertial(0.4), Accelerated(1, 0.7), Inertial(1.2),
             Accelerated(-1, math.pi / 2), Inertial(0.3)),
            cfg,
        ),
        "inertial-only": Scenario((Inertial(0.4), Inertial(1.1)), cfg),
    }


@pytest.mark.parametrize("M", [0.0, 10.0])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "shape",
    ["one-way", "alpha-centauri", "round-trip", "kickstart", "inertial-first",
     "inertial-only"],
)
def test_column_engine_matches_matrix_engine(shape, k, M):
    cfg = CavityConfig(M=M, h=0.01, k=k, n_max=400)
    s = _column_cases(cfg)[shape]
    col = scenario_negativity(s)
    ref = negativity_general(effective_transform(s), k, cfg.h, M)
    assert abs(col.deficit_scaled - ref.deficit_scaled) <= 1e-14
    assert abs(col.truncation_tail - ref.truncation_tail) <= 1e-14
    assert col.negativity == 0.5 - cfg.h**2 * col.deficit_scaled
    if shape == "inertial-only":
        assert col.deficit_scaled == 0.0
    else:
        assert col.deficit_scaled > 0.0


@pytest.mark.parametrize("M", [0.0, 10.0])
@pytest.mark.parametrize(
    "shape",
    ["one-way", "alpha-centauri", "round-trip", "kickstart", "inertial-first",
     "inertial-only"],
)
def test_effective_transform_takes_a_prebuilt_boost(shape, M):
    cfg = CavityConfig(M=M, h=0.01, k=2, n_max=200)
    s = _column_cases(cfg)[shape]
    boost = (
        massless_boost_transform(cfg.n_max)
        if M == 0
        else massive_boost_transform(cfg.n_max, M)
    )
    built = effective_transform(s)
    given = effective_transform(s, boost)
    for block in ("order0", "alpha1", "beta1", "alpha2_diag"):
        assert np.array_equal(getattr(given, block), getattr(built, block)), block


def _reference_transform(s):
    """effective_transform as one leg per accelerated segment, each built
    with its own sign and joined by the public compose."""
    cfg = s.cfg
    boost = (
        massless_boost_transform(cfg.n_max)
        if cfg.M == 0
        else massive_boost_transform(cfg.n_max, cfg.M)
    )
    alpha_sq, beta_sq = np.real(boost.alpha1) ** 2, np.real(boost.beta1) ** 2
    total = None
    for i, seg in enumerate(s.segments):
        if isinstance(seg, Inertial):
            freqs = _inertial_frequencies(cfg)
            if total is None:
                total = phase_rotation(seg.duration, freqs, cfg.n_max)
            else:
                phases = np.exp(1j * freqs * seg.duration)
                total = PerturbativeTransform(
                    phases * total.order0,
                    phases[:, None] * total.alpha1,
                    phases[:, None] * total.beta1,
                    phases * total.alpha2_diag,
                )
            continue
        z = np.exp(1j * _accelerated_frequencies(cfg) * seg.duration)
        if s.kickstart and i == len(s.segments) - 1:
            leg = PerturbativeTransform(
                z,
                seg.sign * z[:, None] * boost.alpha1,
                seg.sign * z[:, None] * boost.beta1,
                z * boost.alpha2_diag,
            )
        else:
            leg = PerturbativeTransform(
                z,
                seg.sign * boost.alpha1 * (z[:, None] - z[None, :]),
                seg.sign * boost.beta1 * (z[:, None] - np.conj(z)[None, :]),
                2.0 * z * boost.alpha2_diag
                + np.einsum("mn,m->n", alpha_sq, z)
                - np.einsum("mn,m->n", beta_sq, np.conj(z)),
            )
        total = leg if total is None else compose(leg, total)
    return identity_transform(cfg.n_max) if total is None else total


def _reference_cases(cfg):
    return {
        **_column_cases(cfg),
        "two-durations": Scenario(
            (Inertial(0.2), Accelerated(-1, 0.7), Accelerated(1, 0.3),
             Inertial(0.5), Accelerated(1, 0.7), Accelerated(-1, 0.3),
             Accelerated(-1, 0.7)),
            cfg,
        ),
        "kickstart-after-inertial": Scenario(
            (Inertial(0.4), Accelerated(-1, 0.7), Inertial(0.2), Accelerated(1, 0.7)),
            cfg,
            kickstart=True,
        ),
    }


@pytest.mark.parametrize("n_max", [50, 200])
@pytest.mark.parametrize("M", [0.0, 10.0, 1000.0])
def test_effective_transform_equals_the_per_leg_reference(M, n_max):
    # one build per leg duration, with the sign moved into the composition,
    # gives the same numbers as one leg per segment
    cfg = CavityConfig(M=M, h=0.01, k=2, n_max=n_max)
    for shape, s in _reference_cases(cfg).items():
        got = effective_transform(s)
        ref = _reference_transform(s)
        for block in ("order0", "alpha1", "beta1", "alpha2_diag"):
            assert np.array_equal(getattr(got, block), getattr(ref, block)), (shape, block)


@pytest.mark.parametrize("M", [0.0, 10.0])
def test_transform_steps_pass_through_the_shorter_trips(M):
    cfg = CavityConfig(M=M, h=0.01, k=2, n_max=200)
    steps = list(_transform_steps(round_trip_scenario(0.8, 0.45, 0.3, cfg)))
    assert len(steps) == 7
    for step, s in (
        (1, one_way_scenario(0.8, cfg)),
        (3, alpha_centauri_scenario(0.8, 0.45, cfg)),
        (7, round_trip_scenario(0.8, 0.45, 0.3, cfg)),
    ):
        ref = effective_transform(s)
        for block in ("order0", "alpha1", "beta1", "alpha2_diag"):
            assert np.array_equal(getattr(steps[step - 1], block), getattr(ref, block))
    assert list(_transform_steps(Scenario((), cfg))) == []


def test_effective_transform_rejects_a_boost_of_another_size():
    cfg = CavityConfig(h=0.01, k=2, n_max=200)
    with pytest.raises(ValueError, match="n_max = 100"):
        effective_transform(one_way_scenario(0.8, cfg), massless_boost_transform(100))


def test_column_engine_bounds_k_like_matrix_engine():
    cfg = CavityConfig(h=0.01, k=201, n_max=400)
    s = round_trip_scenario(0.8, 0.45, 0.3, cfg)
    with pytest.raises(ValueError) as col:
        scenario_negativity(s)
    with pytest.raises(ValueError) as ref:
        negativity_general(effective_transform(s), cfg.k, cfg.h)
    assert str(col.value) == str(ref.value)


def test_negativity_general_bounds_k(cfg):
    t = effective_transform(one_way_scenario(0.5, cfg))
    with pytest.raises(ValueError):
        negativity_general(t, 0, cfg.h)
    with pytest.raises(ValueError):
        negativity_general(t, cfg.n_max // 2 + 1, cfg.h)


def test_result_invariant_and_log(cfg):
    res = scenario_negativity(one_way_scenario(0.6, cfg))
    assert res.negativity == 0.5 - res.h_used**2 * res.deficit_scaled
    assert log_negativity(res) == pytest.approx(math.log1p(res.negativity), rel=1e-15)
    bad = NegativityResult(
        negativity=-0.1,
        deficit_scaled=0.0,
        h_used=1.0,
        k_used=1,
        validity=res.validity,
        truncation_tail=0.0,
    )
    with pytest.raises(ValueError):
        log_negativity(bad)


def test_higher_k_column(cfg):
    u = 2.2
    res = scenario_negativity(
        one_way_scenario(u_to_tau(u, cfg), CavityConfig(h=1.0, k=3, n_max=400))
    )
    closed = float(one_way_deficit(3, np.exp(1j * u)))
    assert abs(res.deficit_scaled - closed) < res.truncation_tail + 1e-11


def test_validity_flags_propagate():
    cfg = CavityConfig(h=1.0, k=1, n_max=64)
    res = scenario_negativity(one_way_scenario(0.3, cfg))
    assert not res.validity.perturbative_ok  # |k h| = 1 is far out of regime
    assert res.validity.h_bound_ok
