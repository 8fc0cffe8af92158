"""Trajectory assembly and the general negativity pipeline."""

import math

import numpy as np
import pytest

from cavneg.bogoliubov import (
    PerturbativeTransform,
    _boost,
    boost_column,
    check_identities,
    compose,
    identity_transform,
    inverse,
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
    Scenario,
    alpha_centauri_scenario,
    effective_transform,
    kickstart_scenario,
    negativity_general,
    one_way_scenario,
    round_trip_scenario,
    _column_result,
    _frequencies,
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
    deficit, _ = negativity_general(t, 1)
    assert deficit == pytest.approx(0.0, abs=1e-15)
    assert 0.5 - cfg.h**2 * deficit == 0.5


def test_half_period_matches_closed_maximum(cfg):
    tau = u_to_tau(math.pi, cfg)
    deficit, _ = scenario_negativity(one_way_scenario(tau, cfg))
    assert deficit == pytest.approx(0.16525145161591603, rel=1e-9)


@pytest.mark.parametrize("u", [0.7, 2.0, 4.4])
def test_one_way_matches_closed_form(cfg, u):
    deficit, tail = scenario_negativity(one_way_scenario(u_to_tau(u, cfg), cfg))
    closed = float(one_way_deficit(1, np.exp(1j * u)))
    assert abs(deficit - closed) < tail + 1e-12


def test_two_way_matches_closed_form(cfg):
    u, v = 1.1, 0.7
    s = alpha_centauri_scenario(u_to_tau(u, cfg), v / math.pi, cfg)
    deficit, tail = scenario_negativity(s)
    closed = float(two_way_deficit(1, np.exp(1j * u), np.exp(1j * v)))
    assert abs(deficit - closed) < tail + 1e-12


def test_round_trip_matches_closed_form(cfg):
    u, v, w = 1.1, 0.7, 2.3
    s = round_trip_scenario(u_to_tau(u, cfg), v / math.pi, w / math.pi, cfg)
    deficit, tail = scenario_negativity(s)
    closed = float(
        round_trip_deficit(1, np.exp(1j * u), np.exp(1j * v), np.exp(1j * w))
    )
    assert abs(deficit - closed) < tail + 1e-12


def test_kickstart_ignores_duration(cfg):
    a, _ = scenario_negativity(kickstart_scenario(0.4, cfg))
    b, _ = scenario_negativity(kickstart_scenario(1.9, cfg))
    assert a == pytest.approx(b, abs=1e-12)
    assert a == pytest.approx(kickstart_deficit(1), abs=1e-10)


def test_effective_transform_stays_bogoliubov(cfg):
    s = round_trip_scenario(0.8, 0.45, 0.3, cfg)
    res = check_identities(effective_transform(s))
    assert res.order0_residual < 1e-14
    assert res.order1_residual < 1e-12
    assert res.order2_diag_residual < res.tail_estimate + 1e-12


def test_one_way_periodicity(cfg):
    period = acceleration_period(cfg)
    a, _ = scenario_negativity(one_way_scenario(0.9, cfg))
    b, _ = scenario_negativity(one_way_scenario(0.9 + period, cfg))
    assert abs(a - b) < 1e-12


def test_heavy_field_one_way_close_to_limit_form():
    M = 1000.0
    cfg = CavityConfig(M=M, h=1e-5, n_max=300)
    tau = 0.25 * M
    deficit, _ = scenario_negativity(one_way_scenario(tau, cfg))
    closed = float(massive_limit_deficit(1, M, tau, 1.0, 300))
    # the limit form keeps only the leading M**4 piece
    assert deficit == pytest.approx(closed, rel=2e-4)


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
    ref = negativity_general(effective_transform(s), k)
    for pair in (col, ref):
        assert type(pair) is tuple and len(pair) == 2
        assert all(type(x) is float for x in pair)
    assert abs(col[0] - ref[0]) <= 1e-14
    assert abs(col[1] - ref[1]) <= 1e-14
    if shape == "inertial-only":
        assert col[0] == 0.0
    else:
        assert col[0] > 0.0


def _per_segment_column(s):
    """scenario_negativity with the phases of every segment evaluated anew."""
    cfg, k = s.cfg, s.cfg.k
    a = np.zeros(cfg.n_max, dtype=complex)
    b = np.zeros(cfg.n_max, dtype=complex)
    Z = np.ones(cfg.n_max, dtype=complex)
    column = boost_column(cfg.n_max, k, cfg.M)
    for i, seg in enumerate(s.segments):
        if isinstance(seg, Inertial):
            phases = np.exp(1j * _frequencies(cfg)[Inertial] * seg.duration)
            a, b, Z = phases * a, phases * b, phases * Z
            continue
        z = np.exp(1j * _frequencies(cfg)[Accelerated] * seg.duration)
        if s.kickstart and i == len(s.segments) - 1:
            a_seg = seg.sign * z * column[0]
            b_seg = seg.sign * z * column[1]
        else:
            a_seg = seg.sign * column[0] * (z - z[k - 1])
            b_seg = seg.sign * column[1] * (z - np.conj(z[k - 1]))
        a = z * a + a_seg * Z[k - 1]
        b = z * b + b_seg * np.conj(Z[k - 1])
        Z = z * Z
    return _column_result(a, b, k)


@pytest.mark.parametrize("M", [0.0, 10.0])
@pytest.mark.parametrize("k", [1, 2])
def test_column_engine_equals_the_per_segment_loop(k, M):
    # one phase vector per distinct (kind, duration) gives the same bits as
    # one per segment; the repeated trip reuses each duration across both
    # kinds and signs, and mixes +0.0 with -0.0
    cfg = CavityConfig(M=M, h=0.01, k=k, n_max=300)
    cases = {
        **_column_cases(cfg),
        "repeated": Scenario(
            (Inertial(0.7), Accelerated(1, 0.7), Inertial(-0.0), Accelerated(-1, 0.0),
             Inertial(0.0), Accelerated(-1, 0.7), Accelerated(1, -0.0), Inertial(0.7),
             Accelerated(1, 1.3), Inertial(1.3), Accelerated(-1, 0.7)),
            cfg,
        ),
    }
    for shape, s in cases.items():
        got = scenario_negativity(s)
        ref = _per_segment_column(s)
        assert [x.hex() for x in got] == [x.hex() for x in ref], shape


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
            freqs = _frequencies(cfg)[Inertial]
            if total is None:
                total = phase_rotation(seg.duration, freqs)
            else:
                phases = np.exp(1j * freqs * seg.duration)
                total = PerturbativeTransform(
                    phases * total.order0,
                    phases[:, None] * total.alpha1,
                    phases[:, None] * total.beta1,
                    phases * total.alpha2_diag,
                )
            continue
        z = np.exp(1j * _frequencies(cfg)[Accelerated] * seg.duration)
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
    # the walk's segment transforms, composed in order, give the bits of
    # the reference's own whole-block legs and phase products
    cfg = CavityConfig(M=M, h=0.01, k=2, n_max=n_max)
    for shape, s in _reference_cases(cfg).items():
        got = effective_transform(s)
        ref = _reference_transform(s)
        for block in ("order0", "alpha1", "beta1", "alpha2_diag"):
            assert np.array_equal(getattr(got, block), getattr(ref, block)), (shape, block)


@pytest.mark.parametrize("M", [0.0, 10.0])
def test_transform_steps_pass_through_the_shorter_trips(M):
    cfg = CavityConfig(M=M, h=0.01, k=2, n_max=200)
    refs = {
        1: one_way_scenario(0.8, cfg),
        3: alpha_centauri_scenario(0.8, 0.45, cfg),
        7: round_trip_scenario(0.8, 0.45, 0.3, cfg),
    }
    drawn = 0
    for drawn, step in enumerate(_transform_steps(round_trip_scenario(0.8, 0.45, 0.3, cfg)), 1):
        if drawn in refs:
            ref = effective_transform(refs[drawn])
            for block in ("order0", "alpha1", "beta1", "alpha2_diag"):
                assert np.array_equal(getattr(step, block), getattr(ref, block))
    assert drawn == 7
    assert list(_transform_steps(Scenario((), cfg))) == []


@pytest.mark.parametrize("M", [0.0, 10.0])
def test_effective_transform_outlives_a_second_walk(M):
    # a result stays put while other scenarios of the cavity are walked
    cfg = CavityConfig(M=M, h=0.01, k=2, n_max=200)
    cases = _column_cases(cfg)
    first = effective_transform(cases["round-trip"])
    kept = {b: np.array(getattr(first, b)) for b in ("order0", "alpha1", "beta1", "alpha2_diag")}
    for s in cases.values():
        effective_transform(s)
    for block, values in kept.items():
        assert np.array_equal(getattr(first, block), values), block
        assert not getattr(first, block).flags.writeable, block


@pytest.mark.parametrize("M", [0.0, 10.0, 1000.0])
@pytest.mark.parametrize("n_max", [2, 3, 21, 200])
def test_truncation_tails_keep_the_block_mean_rule(M, n_max):
    # both tails are 3 n_max / 4 times the mean weight of the last (at most)
    # twenty rows; check_identities takes the largest over the inspected
    # columns
    cfg = CavityConfig(M=M, h=0.01, k=1, n_max=n_max)
    rows = min(20, n_max)
    upto = max(1, n_max // 2)
    transforms = [effective_transform(s) for s in _column_cases(cfg).values()]
    transforms.append(_boost(n_max, M))
    for t in transforms:
        a, b = t.alpha1, t.beta1
        w = 0.5 * np.abs(a[:, 0]) ** 2 + np.abs(b[:, 0]) ** 2
        tail = float(3.0 * np.mean(w[-rows:]) * n_max / 4.0)
        assert negativity_general(t, 1)[1] == tail
        last = np.abs(a[-rows:, :upto]) ** 2 + np.abs(b[-rows:, :upto]) ** 2
        tail = float(3.0 * last.mean(axis=0).max() * n_max / 4.0)
        assert check_identities(t).tail_estimate == tail


@pytest.mark.parametrize("M", [0.0, 10.0])
def test_scenario_refuses_durations_its_phases_cannot_resolve(M):
    # the phase of mode n_max must stay below 2**33, where a float still
    # resolves 1e-6 rad; past it the engines gave deficits of noise
    cfg = CavityConfig(M=M, h=0.01, n_max=40)
    for kind in (Inertial, Accelerated):
        reach = 2.0**33 / _frequencies(cfg)[kind][-1]
        args = (1,) if kind is Accelerated else ()
        s = Scenario((kind(*args, 0.999 * reach),), cfg)
        assert scenario_negativity(s)[0] >= 0.0
        with pytest.raises(ValueError, match="a segment of duration .* above 1e-06 rad"):
            Scenario((Inertial(0.5), kind(*args, 1.001 * reach)), cfg)


def test_column_engine_bounds_k_like_matrix_engine():
    cfg = CavityConfig(h=0.01, k=201, n_max=400)
    s = round_trip_scenario(0.8, 0.45, 0.3, cfg)
    with pytest.raises(ValueError) as col:
        scenario_negativity(s)
    with pytest.raises(ValueError) as ref:
        negativity_general(effective_transform(s), cfg.k)
    assert str(col.value) == str(ref.value)


def test_negativity_general_bounds_k(cfg):
    t = effective_transform(one_way_scenario(0.5, cfg))
    with pytest.raises(ValueError):
        negativity_general(t, 0)
    with pytest.raises(ValueError):
        negativity_general(t, cfg.n_max // 2 + 1)


def test_higher_k_column(cfg):
    u = 2.2
    deficit, tail = scenario_negativity(
        one_way_scenario(u_to_tau(u, cfg), CavityConfig(h=1.0, k=3, n_max=400))
    )
    closed = float(one_way_deficit(3, np.exp(1j * u)))
    assert abs(deficit - closed) < tail + 1e-11


def _dropped_and_caught(tau, cfg):
    # a cavity held static in gravity starts in Rindler modes: the drop is
    # the inverse boost, the fall the inertial phases, the catch the boost
    boost = _boost(cfg.n_max, cfg.M)
    fall = phase_rotation(tau, _frequencies(cfg)[Inertial])
    return compose(boost, compose(fall, inverse(boost)))


@pytest.mark.parametrize("tau", [0.3, 0.7, 1.9])
def test_dropped_and_caught_cavity_is_the_one_way_form(tau):
    # at first order the drop-fall-catch chain has the blocks of a one-way
    # leg with the sign flipped and inertial phases in place of Rindler ones;
    # the deficit is quadratic in them, so it is the one-way form at
    # p = exp(i pi tau / delta).  Measured 7.2e-13 at most, tails 0.80-2.44e-12
    t = _dropped_and_caught(tau, CavityConfig(n_max=500))
    for k in (1, 2, 3):
        deficit, tail = negativity_general(t, k)
        assert abs(deficit - one_way_deficit(k, np.exp(1j * math.pi * tau))) <= tail


@pytest.mark.parametrize("M", [3.0, 10.0])
def test_dropped_and_caught_massive_cavity_is_the_engine_one_way_trip(M):
    # accelerated legs take the inertial frequencies at M > 0, so the chain
    # is the engine's one-way trip of the same duration up to rounding:
    # 1.2e-16 relative at most measured
    for tau in (0.3, 0.7, 1.9):
        cfg = CavityConfig(M=M, n_max=300)
        got, _ = negativity_general(_dropped_and_caught(tau, cfg), 1)
        want, _ = scenario_negativity(one_way_scenario(tau, cfg))
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
