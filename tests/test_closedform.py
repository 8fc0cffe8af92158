"""Polylog evaluation, Q building block, coefficient series and the
closed-form deficits.

Frozen reference numbers come from an independent 40-digit evaluation of the
printed series.
"""

import math

import numpy as np
import pytest

from cavneg import closedform
from cavneg.closedform import (
    A_10,
    A_11,
    PhaseTuple,
    kickstart_deficit,
    massive_limit_deficit,
    negativity_kickstart,
    negativity_massive_limit,
    negativity_one_way,
    negativity_round_trip,
    negativity_two_way,
    one_way_deficit,
    one_way_deficit_sum,
    polylog6,
    q_coefficients,
    q_function,
    q_two_by_two,
    round_trip_deficit,
    two_way_deficit,
    two_way_deficit_sum,
)
from cavneg.spectrum import CavityConfig


def test_polylog6_at_one_is_zeta6():
    assert polylog6(1.0) == pytest.approx(1.0173430619844491, rel=1e-13)


def test_polylog6_at_minus_one():
    # alternating series: -(1 - 2**-5) zeta(6)
    assert polylog6(-1.0) == pytest.approx(-0.9855510912974351, rel=1e-13)


def test_polylog6_at_i():
    val = polylog6(1j)
    assert val.real == pytest.approx(-0.015399235801522424, rel=1e-11)
    assert val.imag == pytest.approx(0.99868522221843814, rel=1e-13)


def test_polylog6_rejects_outside_disk():
    with pytest.raises(ValueError):
        polylog6(1.1)


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, 0.041312862903979008),
        (2, 0.16469416119296436),
        (3, 0.37014389486695609),
        (4, 0.65800003865038823),
    ],
)
def test_q_at_one(n, expected):
    assert q_function(n, 1.0) == pytest.approx(expected, rel=1e-11)


def test_q_mid_circle_values():
    z = np.exp(1j)
    assert q_function(1, z) == pytest.approx(0.021970900053811451, rel=1e-11)
    assert q_function(3, z) == pytest.approx(0.19919877936246586, rel=1e-11)


def test_q_sign_flip_under_negation():
    # only odd powers of z enter, so Q(n, -z) = -Q(n, z)
    for n in (1, 2, 5):
        for u in (0.0, 0.37, 2.1):
            z = np.exp(1j * u)
            assert q_function(n, -z) == pytest.approx(-q_function(n, z), abs=1e-13)


def test_q_real_under_conjugation():
    for u in (0.4, 1.9, 5.5):
        z = np.exp(1j * u)
        assert q_function(2, np.conj(z)) == q_function(2, z)


def test_q_vanishes_at_quarter_turn():
    # Re(i**odd) = 0 for every odd power
    assert abs(q_function(1, 1j)) < 1e-16
    assert abs(q_function(4, 1j)) < 1e-16


def test_leading_coefficients():
    coeffs = q_coefficients(1, 10)
    assert coeffs.a[0] == pytest.approx(0.041063929018737341, rel=1e-15)
    assert coeffs.a[1] == pytest.approx(0.00022531648295603479, rel=1e-15)
    assert A_10 == pytest.approx(4.0 / math.pi**4, rel=1e-16)
    assert A_11 == pytest.approx(16.0 / (729.0 * math.pi**4), rel=1e-16)


def test_coefficients_positive():
    for n in range(1, 33):
        coeffs = q_coefficients(n, 2000)
        assert coeffs.a.min() > 0.0


def test_coefficients_reproduce_q():
    coeffs = q_coefficients(3, 800)
    s = 1.0 + 2.0 * np.arange(801)
    for u in np.linspace(0.0, 2.0 * math.pi, 7):
        direct = float(np.dot(coeffs.a, np.cos(s * u)))
        assert direct == pytest.approx(q_function(3, np.exp(1j * u)), abs=1e-12)


def _polylog6_reference(z, tol=1e-14):
    # term by term, dividing each power by m**6
    arr = np.asarray(z, dtype=complex)
    nterms = max(10, math.ceil((1.0 / (5.0 * tol)) ** 0.2))
    acc = np.zeros(arr.shape, dtype=complex)
    zp = np.ones(arr.shape, dtype=complex)
    for m in range(1, nterms + 1):
        zp = zp * arr
        acc += zp / m**6
    return acc


def _q_reference(n, z, tol=1e-14):
    # one polylog series over z and another over z**2, then the residual
    # window up to the automatic cutoff
    arr = np.asarray(z, dtype=complex)
    lead = (4.0 * n * n / math.pi**4) * np.real(
        _polylog6_reference(arr, tol) - _polylog6_reference(arr * arr, tol) / 64.0
    )
    r0 = n // 2
    acc = np.zeros(arr.shape)
    zp = arr ** (2 * r0 + 1)
    z2 = arr * arr
    for r in range(r0, max(closedform._auto_r_max(n, tol, 1.0), r0) + 1):
        s = float(2 * r + 1)
        acc += np.real(zp) * (1.0 / s**5 - n / s**6)
        zp = zp * z2
    return lead + (6.0 * n / math.pi**4) * acc


def _phase_inputs():
    rng = np.random.default_rng(11)
    scalars = [1.0, -1.0, 0.0, 1j, complex(np.exp(0.7j)), np.exp(2.9j)]
    arrays = [
        np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, shape))
        for shape in [(1,), (16,), (5, 7), (101, 1), (2, 3, 4)]
    ]
    return scalars + arrays + [np.array([1.0, -1.0, 0.0, 1j])]


def test_polylog6_and_q_equal_the_term_by_term_reference():
    for z in _phase_inputs():
        assert np.array_equal(polylog6(z), _polylog6_reference(z))
        for tol in (1e-14, 1e-9):
            assert np.array_equal(polylog6(z, tol), _polylog6_reference(z, tol))
        for n in (1, 2, 3, 4, 7):
            got = q_function(n, z)
            assert np.shape(got) == np.shape(z)
            assert np.array_equal(got, _q_reference(n, z)), (z, n)
            assert np.array_equal(q_function(n, z, tol=1e-9), _q_reference(n, z, 1e-9))


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_explicit_r_max_q_is_the_cosine_series(n):
    us = np.linspace(0.0, 2.0 * math.pi, 33)
    for r_max in (n, n + 1, 17, 60):
        coeffs = q_coefficients(n, r_max).a
        series = np.cos(np.multiply.outer(us, 1.0 + 2.0 * np.arange(r_max + 1))) @ coeffs
        assert np.abs(q_function(n, np.exp(1j * us), r_max) - series).max() <= 1e-14
        assert q_function(n, 1.0, r_max) == pytest.approx(coeffs.sum(), abs=1e-14)


def test_coefficients_require_enough_terms():
    with pytest.raises(ValueError):
        q_coefficients(8, 4)


def test_sum_term_share():
    lead = (4.0 / math.pi**4) * (polylog6(1.0) - polylog6(1.0) / 64.0)
    share = (q_function(1, 1.0) - lead) / q_function(1, 1.0)
    assert share == pytest.approx(0.00458722101186, rel=1e-8)


def test_two_by_two_truncation():
    assert q_two_by_two(1.0 + 0.0j) == pytest.approx(0.041176587260215358, rel=1e-14)
    z = np.exp(0.9j)
    expected = A_10 * math.cos(0.9) + 0.5 * A_11 * math.cos(2.7)
    assert q_two_by_two(z) == pytest.approx(expected, rel=1e-14)


def test_phase_tuple_checks_modulus():
    PhaseTuple(1.0, -1.0, 1j)
    with pytest.raises(ValueError):
        PhaseTuple(1.1, 1.0, 1.0)


def test_phase_tuple_from_angles_and_durations():
    t = PhaseTuple.from_angles(0.5, 1.0, 1.5)
    assert t.p == pytest.approx(np.exp(0.5j))
    cfg = CavityConfig(h=1.0)
    d = PhaseTuple.from_durations(1.0, 0.5, 0.25, cfg)
    # u = boost frequency times duration; v, w = pi tau / delta
    assert d.p == pytest.approx(np.exp(1j * 2.8596008673801273), rel=1e-14)
    assert d.p_prime == pytest.approx(np.exp(1j * math.pi * 0.5), rel=1e-14)
    assert d.p_dprime == pytest.approx(np.exp(1j * math.pi * 0.25), rel=1e-14)


def test_one_way_deficit_values():
    assert float(one_way_deficit(1, 1.0)) == 0.0
    assert float(one_way_deficit(1, -1.0)) == pytest.approx(
        0.16525145161591603, rel=1e-11
    )
    # quarter period: Q(1, i) = 0 leaves 2 Q(1,1)
    assert float(one_way_deficit(1, 1j)) == pytest.approx(
        2 * 0.041312862903979008, rel=1e-11
    )
    assert float(one_way_deficit(1, np.exp(1.234j))) == pytest.approx(
        0.055834988641059739, rel=1e-11
    )


def test_one_way_forms_agree():
    for k in (1, 2, 3, 4):
        u = np.linspace(0.05, 2.0 * math.pi - 0.05, 64)
        p = np.exp(1j * u)
        diff = np.abs(one_way_deficit(k, p) - one_way_deficit_sum(k, p))
        assert float(diff.max()) < 1e-10


def test_one_way_conjugate_phase_agrees():
    p = np.exp(0.77j)
    assert float(one_way_deficit(2, p)) == pytest.approx(
        float(one_way_deficit(2, np.conj(p))), abs=1e-16
    )


def test_two_way_forms_agree():
    u = np.linspace(0.1, 6.1, 16)
    v = np.roll(u, 5)
    diff = np.abs(
        two_way_deficit(1, np.exp(1j * u), np.exp(1j * v))
        - two_way_deficit_sum(1, np.exp(1j * u), np.exp(1j * v))
    )
    assert float(diff.max()) < 1e-10


def test_two_way_half_period_value():
    # p = -1, p' = 1 collapses the five-Q form onto 16 Q(1,1)
    assert float(two_way_deficit(1, -1.0, 1.0)) == pytest.approx(
        0.66100580646366409, rel=1e-11
    )


def test_two_way_zero_loci():
    assert abs(float(two_way_deficit(1, 1.0, np.exp(0.9j)))) < 1e-14
    p = np.exp(1.3j)
    assert abs(float(two_way_deficit(1, p, np.conj(p)))) < 1e-14
    # off the loci the deficit is strictly positive
    assert float(two_way_deficit(1, np.exp(0.5j), np.exp(0.5j))) > 1e-4


def test_round_trip_zero_loci():
    p, pp = np.exp(0.6j), np.exp(0.5j)
    w = -(2 * 0.6 + 0.5)
    assert abs(float(round_trip_deficit(1, p, pp, np.exp(1j * w)))) < 1e-14
    assert abs(float(round_trip_deficit(1, 1.0, pp, np.exp(0.3j)))) < 1e-14
    assert float(round_trip_deficit(1, p, pp, np.exp(0.3j))) > 1e-5


def test_explicit_r_max_keeps_the_zero_at_p_equal_one():
    # Q(k, 1) is taken at the same cutoff as Q(k, p), so a short series still
    # vanishes exactly where the trajectory undoes itself
    assert one_way_deficit(1, 1.0, r_max=1) == 0.0
    assert one_way_deficit(3, 1.0, r_max=3) == 0.0
    assert one_way_deficit(2, 1.0, tol=1e-8) == 0.0
    assert two_way_deficit(1, 1.0, np.exp(0.9j), r_max=2) == 0.0
    p = np.exp(1j * np.array([0.0, 1.0, 2.0 * math.pi]))
    values = one_way_deficit(1, p, r_max=1)
    assert values[0] == 0.0 and values[1] > 0.0
    # and the explicit cutoff moves the value off the automatic one
    assert one_way_deficit(1, -1.0, r_max=1) != one_way_deficit(1, -1.0)


_PHASES = PhaseTuple.from_angles(0.7, 1.1, 2.3)


@pytest.mark.parametrize(
    "call",
    [
        lambda r: q_function(3, np.exp(0.7j), r_max=r),
        lambda r: one_way_deficit(3, -1.0, r_max=r),
        lambda r: one_way_deficit_sum(3, -1.0, r_max=r),
        lambda r: two_way_deficit(3, np.exp(0.7j), np.exp(1.1j), r_max=r),
        lambda r: two_way_deficit_sum(3, np.exp(0.7j), np.exp(1.1j), r_max=r),
        lambda r: round_trip_deficit(
            3, np.exp(0.7j), np.exp(1.1j), np.exp(2.3j), r_max=r
        ),
        lambda r: closedform._cutoff(3, r, 1e-12, 1),
        lambda r: negativity_one_way(3, 0.01, _PHASES, r),
        lambda r: negativity_two_way(3, 0.01, _PHASES, r),
        lambda r: negativity_round_trip(3, 0.01, _PHASES, r),
    ],
    ids=[
        "q_function",
        "one_way_deficit",
        "one_way_deficit_sum",
        "two_way_deficit",
        "two_way_deficit_sum",
        "round_trip_deficit",
        "_cutoff",
        "negativity_one_way",
        "negativity_two_way",
        "negativity_round_trip",
    ],
)
def test_explicit_r_max_below_k_rejected(call):
    # a cutoff below the mode index would drop part of the residual window
    # of Q(3, .)
    for r_max in (2, 1, -5):
        with pytest.raises(ValueError, match="r_max must be at least n = 3"):
            call(r_max)
    call(40)


@pytest.mark.parametrize(
    "negativity, deficit, deficit_sum",
    [
        (
            negativity_one_way,
            lambda r: one_way_deficit(2, _PHASES.p, r),
            lambda r: one_way_deficit_sum(2, _PHASES.p, r),
        ),
        (
            negativity_two_way,
            lambda r: two_way_deficit(2, _PHASES.p, _PHASES.p_prime, r),
            lambda r: two_way_deficit_sum(2, _PHASES.p, _PHASES.p_prime, r),
        ),
    ],
    ids=["one-way", "two-way"],
)
def test_negativity_forms_share_an_explicit_cutoff(negativity, deficit, deficit_sum):
    # both printed forms run at the caller's cutoff, so a modest r_max passes
    # the 1e-10 cross-check and the result is the Q form at that cutoff
    res = negativity(2, 0.01, _PHASES, 40)
    assert res.deficit_scaled == deficit(40)
    assert res.deficit_scaled != deficit(None)
    assert abs(deficit(40) - deficit_sum(40)) <= 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_negativity_forms_agree_at_every_explicit_cutoff(k):
    # both forms are the same series truncated at r_max, so no accepted
    # cutoff trips the wrappers' 1e-10 cross-check; they agree to rounding
    phases = PhaseTuple.from_angles(0.7, 1.1)
    p, pp = phases.p, phases.p_prime
    for r_max in range(k, 61):
        one = negativity_one_way(k, 0.01, phases, r_max)
        two = negativity_two_way(k, 0.01, phases, r_max)
        assert one.deficit_scaled == one_way_deficit(k, p, r_max)
        assert two.deficit_scaled == two_way_deficit(k, p, pp, r_max)
        assert abs(one.deficit_scaled - one_way_deficit_sum(k, p, r_max)) <= 1e-14
        assert abs(two.deficit_scaled - two_way_deficit_sum(k, p, pp, r_max)) <= 1e-14


@pytest.mark.parametrize("nfactors", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [1, 4])
def test_cutoff_matches_the_series_rule(k, nfactors):
    bound = 4.0**nfactors
    r_auto = closedform._auto_r_max(k, 1e-12, bound)
    assert closedform._cutoff(k, None, 1e-12, nfactors) == (
        r_auto,
        closedform._a_tail(k, r_auto) * bound,
    )
    # an explicit cutoff is used as given, tail included; below k it raises
    assert closedform._cutoff(k, k, 1e-12, nfactors) == (
        k,
        closedform._a_tail(k, k) * bound,
    )
    with pytest.raises(ValueError, match="r_max must be at least"):
        closedform._cutoff(k, k - 1, 1e-12, nfactors)
    factors = [np.exp(0.3j)] * max(nfactors, 1)
    if nfactors:
        assert closedform._product_sum(k, factors, None, 1e-12)[1] == (
            closedform._cutoff(k, None, 1e-12, nfactors)[1]
        )


def test_negativity_tails_come_from_the_cutoff_rule():
    phases = PhaseTuple.from_angles(0.7, 1.1, 2.3)
    for fn, nfactors in (
        (negativity_one_way, 1),
        (negativity_two_way, 2),
        (negativity_round_trip, 3),
    ):
        for r_max in (None, 2000):
            res = fn(2, 0.01, phases, r_max)
            _, tail = closedform._cutoff(2, r_max, 1e-12, nfactors)
            assert res.truncation_tail == tail
    assert negativity_kickstart(2, 0.01).truncation_tail == closedform._a_tail(
        2, closedform._auto_r_max(2, 1e-14, 1.0)
    )


def _phase_axes():
    # two phase axes with the exact zeros p = 1 and p p' = 1 on them
    u = np.concatenate([[0.0], np.linspace(0.1, 2.0 * math.pi, 9)])
    v = np.concatenate([[-1.3], np.linspace(-2.0, 3.0, 6)])
    return np.exp(1j * u)[:, None], np.exp(1j * v)[None, :]


@pytest.mark.parametrize("k", [1, 3])
def test_per_axis_phases_are_bit_identical_to_the_full_mesh(k):
    p, pp = _phase_axes()
    ppp = np.full((1, 1), np.exp(2.1j))
    shape = (p.shape[0], pp.shape[1])
    full = [np.array(np.broadcast_to(x, shape)) for x in (p, pp, ppp)]
    cases = (
        (one_way_deficit, 1),
        (one_way_deficit_sum, 1),
        (two_way_deficit, 2),
        (two_way_deficit_sum, 2),
        (round_trip_deficit, 3),
    )
    for fn, nargs in cases:
        sparse = np.broadcast_to(fn(k, *(p, pp, ppp)[:nargs]), shape)
        dense = fn(k, *full[:nargs])
        assert dense.shape == shape
        assert np.array_equal(sparse, dense), fn.__name__


def test_scalar_phase_next_to_arrays_is_bit_identical_to_the_full_mesh():
    # numpy's scalar complex product rounds differently from its array
    # loops, so a 0-d phase must not drop onto the scalar path
    p, ppp = np.exp(0.77j), np.exp(2.1j)
    pp = np.exp(1j * np.linspace(0.1, 6.0, 200))
    for fn, args in (
        (two_way_deficit_sum, (p, pp)),
        (round_trip_deficit, (p, pp, ppp)),
        (round_trip_deficit, (pp, p, ppp)),
    ):
        full = [np.array(np.broadcast_to(x, pp.shape)) for x in args]
        assert np.array_equal(fn(3, *args), fn(3, *full)), fn.__name__


def test_scalar_phases_give_python_floats():
    p, pp, ppp = np.exp(0.4j), complex(np.exp(1.7j)), np.exp(-0.8j)
    values = (
        one_way_deficit(2, p),
        one_way_deficit_sum(2, p),
        two_way_deficit(2, p, pp),
        two_way_deficit_sum(2, p, pp),
        round_trip_deficit(2, p, pp, ppp),
    )
    assert all(type(x) is float for x in values)


def test_kickstart_deficit_is_q_at_one():
    assert kickstart_deficit(1) == pytest.approx(0.041312862903979008, rel=1e-11)
    assert kickstart_deficit(3) == pytest.approx(0.37014389486695609, rel=1e-11)


def test_negativity_wrappers():
    phases = PhaseTuple.from_angles(math.pi, 0.0, 0.0)
    res = negativity_one_way(1, 0.01, phases)
    assert res.negativity == 0.5 - 1e-4 * res.deficit_scaled
    assert res.deficit_scaled == pytest.approx(0.16525145161591603, rel=1e-11)
    assert res.k_used == 1 and res.h_used == 0.01

    res2 = negativity_two_way(1, 0.01, phases)
    assert res2.deficit_scaled == pytest.approx(0.66100580646366409, rel=1e-11)

    res3 = negativity_round_trip(1, 0.01, PhaseTuple.from_angles(0.0, 1.0, 2.0))
    assert res3.deficit_scaled == pytest.approx(0.0, abs=1e-14)

    res4 = negativity_kickstart(2, 0.01)
    assert res4.deficit_scaled == pytest.approx(0.16469416119296436, rel=1e-11)


def test_heavy_field_deficit_values():
    assert float(massive_limit_deficit(1, 1000.0, 0.0)) == 0.0
    assert float(massive_limit_deficit(1, 1000.0, 300.0, 1.0, 200)) == pytest.approx(
        187759976.44397464, rel=1e-11
    )
    assert float(massive_limit_deficit(2, 1000.0, 500.0, 1.0, 200)) == pytest.approx(
        85062731.367545399, rel=1e-11
    )


def test_heavy_field_near_periodicity():
    M = 1000.0
    period = 4.0 * M / math.pi
    tau = np.linspace(50.0, 900.0, 9)
    a = np.asarray(massive_limit_deficit(1, M, tau))
    b = np.asarray(massive_limit_deficit(1, M, tau + period))
    scale = float(np.max(a))
    assert float(np.max(np.abs(a - b))) < 1e-4 * scale


def test_heavy_field_input_validation():
    with pytest.raises(ValueError):
        massive_limit_deficit(1, 0.0, 1.0)
    with pytest.raises(ValueError):
        massive_limit_deficit(1, -3.0, 1.0)


def test_heavy_field_wrapper_warns_when_k_not_small():
    with pytest.warns(UserWarning):
        negativity_massive_limit(30, 1e-5, 100.0, 10.0)
    res = negativity_massive_limit(1, 1e-5, 1000.0, 300.0, n_max=200)
    assert res.deficit_scaled == pytest.approx(187759976.44397464, rel=1e-11)
    assert res.negativity == 0.5 - 1e-10 * res.deficit_scaled
