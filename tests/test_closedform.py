"""Q building block, coefficient series and the closed-form deficits.

Frozen reference numbers come from an independent 40-digit evaluation of the
printed series.
"""

import ast
import inspect
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from cavneg import closedform
from cavneg.closedform import (
    A_10,
    A_11,
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
from cavneg.spectrum import CavityConfig
from cavneg.sweep import _tau_bar, physical_to_dimensionless


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
    assert coeffs[0] == pytest.approx(0.041063929018737341, rel=1e-15)
    assert coeffs[1] == pytest.approx(0.00022531648295603479, rel=1e-15)
    assert A_10 == pytest.approx(4.0 / math.pi**4, rel=1e-16)
    assert A_11 == pytest.approx(16.0 / (729.0 * math.pi**4), rel=1e-16)


def test_coefficients_positive():
    for n in range(1, 33):
        coeffs = q_coefficients(n, 2000)
        assert coeffs.min() > 0.0


def test_coefficients_reproduce_q():
    coeffs = q_coefficients(3, 800)
    s = 1.0 + 2.0 * np.arange(801)
    for u in np.linspace(0.0, 2.0 * math.pi, 7):
        direct = float(np.dot(coeffs, np.cos(s * u)))
        assert direct == pytest.approx(q_function(3, np.exp(1j * u)), abs=1e-12)


def _polylog6_reference(z):
    # term by term, dividing each power by m**6, to a tail below 1e-14
    arr = np.asarray(z, dtype=complex)
    nterms = max(10, math.ceil((1.0 / (5.0 * 1e-14)) ** 0.2))
    acc = np.zeros(arr.shape, dtype=complex)
    zp = np.ones(arr.shape, dtype=complex)
    for m in range(1, nterms + 1):
        zp = zp * arr
        acc += zp / m**6
    return acc


def _q_reference(n, z):
    # one polylog series over z and another over z**2, then the residual
    # window up to the automatic cutoff, both to a tail below 1e-14
    arr = np.asarray(z, dtype=complex)
    lead = (4.0 * n * n / math.pi**4) * np.real(
        _polylog6_reference(arr) - _polylog6_reference(arr * arr) / 64.0
    )
    r0 = n // 2
    acc = np.zeros(arr.shape)
    zp = arr ** (2 * r0 + 1)
    z2 = arr * arr
    for r in range(r0, max(closedform._auto_r_max(n, 1e-14, 1.0), r0) + 1):
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
        for n in (1, 2, 3, 4, 7):
            got = q_function(n, z)
            assert np.shape(got) == np.shape(z)
            assert np.array_equal(got, _q_reference(n, z)), (z, n)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_explicit_r_max_q_is_the_cosine_series(n):
    # q_coefficients cut at any r_max sums to Q up to the tail bound that
    # _a_tail gives for that cutoff, and to Q's own tail at Q's cutoff
    us = np.linspace(0.0, 2.0 * math.pi, 33)
    q = q_function(n, np.exp(1j * us))
    r_own = closedform._cutoff(n, closedform.TOL_Q, 0)[0]
    for r_max in (n, n + 1, 17, 60, r_own):
        coeffs = q_coefficients(n, r_max)
        series = np.cos(np.multiply.outer(us, 1.0 + 2.0 * np.arange(r_max + 1))) @ coeffs
        bound = closedform._a_tail(n, r_max) + 1e-14
        assert np.abs(q - series).max() <= bound, r_max
        assert abs(q_function(n, 1.0) - coeffs.sum()) <= bound


def test_coefficients_require_enough_terms():
    with pytest.raises(ValueError):
        q_coefficients(8, 4)


def test_sum_term_share():
    zeta6 = math.pi**6 / 945.0  # Li6(1)
    lead = (4.0 / math.pi**4) * (zeta6 - zeta6 / 64.0)
    share = (q_function(1, 1.0) - lead) / q_function(1, 1.0)
    assert share == pytest.approx(0.00458722101186, rel=1e-8)


def test_one_way_deficit_values():
    assert float(one_way_deficit(1, 1.0)) == 0.0
    assert one_way_deficit(3, 1.0) == 0.0
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
    # Q(k, 1) and Q(k, p) come from the same series pass, so p = 1 gives 0.0
    assert two_way_deficit(1, 1.0, np.exp(0.9j)) == 0.0
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
    # p = 1 at the angles (0, 1, 2)
    p, pp, ppp = (complex(math.cos(u), math.sin(u)) for u in (0.0, 1.0, 2.0))
    assert round_trip_deficit(1, p, pp, ppp) == pytest.approx(0.0, abs=1e-14)


_P, _PP = np.exp(0.7j), np.exp(1.1j)


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
    ],
    ids=[
        "q_function",
        "one_way_deficit",
        "one_way_deficit_sum",
        "two_way_deficit",
        "two_way_deficit_sum",
        "round_trip_deficit",
        "_cutoff",
    ],
)
def test_explicit_r_max_below_k_rejected(call):
    # the closed forms take no cutoff: each stops at the one rule of
    # _cutoff, so an explicit r_max, below k or not, is refused
    for r_max in (2, 40):
        with pytest.raises(TypeError):
            call(r_max)
    # q_coefficients, the one function still given a cutoff, refuses one
    # that would drop part of the residual window of Q(3, .)
    for r_max in (2, 1, -5):
        with pytest.raises(ValueError, match="r_max must be at least n = 3"):
            q_coefficients(3, r_max)


def _truncated(k, r_max, terms):
    # sum_r a_kr term(s) over s = 1 + 2r, r <= r_max
    s = 1.0 + 2.0 * np.arange(r_max + 1)
    return float(q_coefficients(k, r_max) @ terms(s))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_negativity_forms_agree_at_every_explicit_cutoff(k):
    # the Q combinations and the product sums are the same series, so cut
    # at any r_max >= k they agree to rounding: the identity behind the
    # cross-check of the two forms
    u, v = np.angle(_P), np.angle(_PP)

    def q(theta):
        return lambda s: np.cos(s * theta)

    def one_prod(s):
        return np.abs(_P**s - 1.0) ** 2

    def two_prod(s):
        return one_prod(s) * np.abs((_P * _PP) ** s - 1.0) ** 2

    for r_max in range(k, 61):
        q_at = {t: _truncated(k, r_max, q(t)) for t in (0.0, u, v, u + v, 2 * u + v)}
        one = 2.0 * (q_at[0.0] - q_at[u])
        two = 2.0 * (
            2.0 * q_at[0.0] - 2.0 * q_at[u] + q_at[v] - 2.0 * q_at[u + v]
            + q_at[2 * u + v]
        )
        assert abs(one - _truncated(k, r_max, one_prod)) <= 1e-14
        assert abs(two - _truncated(k, r_max, two_prod)) <= 1e-14


def test_coefficients_are_a_read_only_array():
    coeffs = q_coefficients(2, 12)
    assert isinstance(coeffs, np.ndarray) and coeffs.shape == (13,)
    with pytest.raises(ValueError):
        coeffs[0] = 1.0


@pytest.mark.parametrize("nfactors", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [1, 4])
def test_cutoff_matches_the_series_rule(k, nfactors):
    bound = 4.0**nfactors
    r_auto = closedform._auto_r_max(k, 1e-12, bound)
    assert closedform._cutoff(k, 1e-12, nfactors) == (
        r_auto,
        closedform._a_tail(k, r_auto) * bound,
    )


def _product_sum_reference(k, factors):
    # term by term over whole arrays: c |x1**s - 1|**2 |x2**s - 1|**2 ...
    coeffs = q_coefficients(k, closedform._cutoff(k, 1e-12, len(factors))[0])
    xs = [np.asarray(f, dtype=complex) for f in factors]
    steps = [x * x for x in xs]
    acc = 0.0
    for c in coeffs:
        term = c
        for x in xs:
            term = term * np.abs(x - 1.0) ** 2
        acc = acc + term
        xs = [x * step for x, step in zip(xs, steps)]
    return acc


def _round_trip_factors(p, pp, ppp):
    return [p, p * pp, p * p * pp * ppp]


def test_large_grid_product_sums_equal_the_term_by_term_reference():
    # grids above _BLOCK run one term at a time over the whole grid: a
    # square mesh, and a 1 x 20000 row with one point on its first axis
    r_max, _ = closedform._cutoff(1, closedform.TOL_SUM, 3)
    for rows, cols in ((150, 150), (1, 20000)):
        assert (r_max + 1) * rows * cols > closedform._BLOCK
        p = np.exp(1j * np.linspace(0.1, 6.2, rows))[:, None]
        pp = np.exp(1j * np.linspace(0.3, 5.9, cols))[None, :]
        ppp = np.exp(0.7j)
        got = round_trip_deficit(1, p, pp, ppp)
        ref = _product_sum_reference(1, _round_trip_factors(p, pp, ppp))
        assert got.shape == (rows, cols)
        assert np.array_equal(got, ref), (rows, cols)
    # the chains run on the distinct values of the factors and each term
    # gathers the weights back: factors whose values repeat bit for bit
    fig4 = np.linspace(0.0, 2.0 * math.pi, 101)
    wide = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 200))
    # 1+0j and 1-0j are two values to the gather; both sit on a zero locus
    signed = np.array([1 + 0j, complex(1.0, -0.0), np.exp(0.4j), 1 + 0j, np.exp(2.5j)])
    signed = np.concatenate([signed, np.exp(1j * np.linspace(0.2, 6.0, 145))])
    cases = {
        # equal u and v axes, as in fig4, so p p' repeats across the diagonal
        "fig4": _round_trip_factors(
            np.exp(1j * fig4)[:, None], np.exp(1j * fig4)[None, :], np.exp(2.1j)
        ),
        # the same on a 200 x 200 mesh
        "equal axes, wide": _round_trip_factors(
            wide[:, None], wide[None, :], np.exp(-0.6j)
        ),
        # a factor with one value at every grid point
        "constant factor": [
            wide[:, None],
            np.full((200, 200), np.exp(0.9j)),
            wide[:, None] * wide[None, :],
        ],
        "signed zeros": _round_trip_factors(
            signed[:, None], signed[None, :], complex(1.0, -0.0)
        ),
    }
    for name, factors in cases.items():
        shape = np.broadcast_shapes(*(np.shape(f) for f in factors))
        assert (r_max + 1) * math.prod(shape) > closedform._BLOCK, name
        got = closedform._product_sum(1, factors)
        assert got.shape == shape, name
        assert np.array_equal(got, _product_sum_reference(1, factors)), name


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


@pytest.mark.parametrize("k", [1, 3])
def test_scalar_phases_equal_the_same_values_inside_arrays(k):
    # a scalar call must round like the array kernel, element for element
    rng = np.random.default_rng(29)
    p, pp, ppp = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (3, 300)))
    cases = (
        (one_way_deficit, (p,)),
        (one_way_deficit_sum, (p,)),
        (two_way_deficit, (p, pp)),
        (two_way_deficit_sum, (p, pp)),
        (round_trip_deficit, (p, pp, ppp)),
    )
    for fn, args in cases:
        arrays = fn(k, *args)
        scalars = [fn(k, *(a[i] for a in args)) for i in range(p.size)]
        assert np.array_equal(arrays, scalars), fn.__name__


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


# 1+0j and 1-0j compare equal, and so do -1+0j and -1-0j, but their bits differ
_SIGNED_UNITS = np.array([1 + 0j, complex(1, -0.0), -1 + 0j, complex(-1, -0.0)])


def test_distinct_values_keep_their_bits():
    x = np.concatenate([_SIGNED_UNITS, _SIGNED_UNITS[::-1], np.full(3, np.exp(0.3j))])
    values, inverse = closedform._distinct(x)
    assert values.size == 5
    assert np.array_equal(values[inverse].view(np.int64), x.view(np.int64))
    values, inverse = closedform._distinct(np.array([], dtype=complex))
    assert values.size == 0 and inverse.size == 0


@pytest.mark.parametrize("k", [1, 4])
def test_repeated_phases_equal_their_own_one_element_calls(k):
    # the Q forms run their series on the distinct phases only; each element
    # keeps the bits of a call on its value alone
    rng = np.random.default_rng(31)
    u = rng.choice(np.linspace(0.0, 2.0 * math.pi, 9), size=40)
    p = np.concatenate([np.exp(1j * u), _SIGNED_UNITS, _SIGNED_UNITS[::-1]])
    pp = np.roll(p, 7)
    for fn, args in ((q_function, (p,)), (one_way_deficit, (p,)),
                     (two_way_deficit, (p, pp))):
        values = fn(k, *args)
        alone = [fn(k, *(a[i : i + 1] for a in args))[0] for i in range(p.size)]
        assert np.array_equal(
            values.view(np.int64), np.array(alone).view(np.int64)
        ), fn.__name__


def test_kickstart_deficit_is_q_at_one():
    assert kickstart_deficit(1) == pytest.approx(0.041312862903979008, rel=1e-11)
    assert kickstart_deficit(2) == pytest.approx(0.16469416119296436, rel=1e-11)
    assert kickstart_deficit(3) == pytest.approx(0.37014389486695609, rel=1e-11)


def test_heavy_field_deficit_values():
    assert float(massive_limit_deficit(1, 1000.0, 0.0)) == 0.0
    assert float(massive_limit_deficit(1, 1000.0, 300.0, 200)) == pytest.approx(
        187759976.44397464, rel=1e-11
    )
    assert float(massive_limit_deficit(2, 1000.0, 500.0, 200)) == pytest.approx(
        85062731.367545399, rel=1e-11
    )


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_heavy_field_waveform_holds_one_grid_matrix():
    # fig5b: k = 30 over 2401 points of tau_bar against 100 modes, a 1.92 MB
    # waveform matrix; built in place it peaks at 2.06 MB traced, where
    # temporaries held two such matrices, 3.85 MB
    M = 1e3
    tau = 4.0 * M * np.linspace(0.0, 3.0, 2401) / math.pi
    assert _traced_peak(massive_limit_deficit, 30, M, tau, 200) < 2.2e6
    # one period on 2049 points: 1.77 MB, against 3.28 MB
    period = np.linspace(0.0, 4.0 * M / math.pi, 2049)
    assert _traced_peak(massive_limit_deficit, 1, M, period, 200) < 1.9e6


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
    # the sum must reach past mode 2k, the engine's rule k <= n_max / 2
    with pytest.raises(ValueError, match="at least 2k = 60, got 59"):
        massive_limit_deficit(30, 1000.0, 1.0, 59)
    assert float(massive_limit_deficit(30, 1000.0, 1.0, 60)) > 0.0
    # M**4 overflows a float: the error names M
    with pytest.raises(OverflowError, match=r"M = 1e\+100"):
        massive_limit_deficit(1, 1e100, 1.0)
    # so does an infinite M, whose fourth power is inf, not an error
    with pytest.raises(OverflowError, match="M = inf is too large"):
        massive_limit_deficit(1, math.inf, 0.5)


def test_heavy_field_refuses_durations_its_phases_cannot_resolve():
    # an infinite duration gave NaN after a numpy warning, and durations near
    # 1e304 gave deficits near 1e8 from the cos of arguments near 1e306
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (math.inf, -math.inf, math.nan):
            for tau in (bad, np.array([0.5, bad])):
                with pytest.raises(ValueError, match="tau_bar reaches a phase of (inf|nan)"):
                    massive_limit_deficit(1, 1000.0, tau)
        # the phase of mode 28, the one that decides
        with pytest.raises(ValueError, match="tau_bar reaches a phase of 4.9e"):
            massive_limit_deficit(1, 1000.0, np.array([0.0, 1.27e304]))
    # modes 30 to 200 hold 6.9e-13 of the weight, under its share of 1e-12,
    # and modes 28 to 200 1.3e-12; so the cos argument of mode 28 must stay
    # below 2**33, where a float still resolves 1e-6 rad
    M = 1000.0
    wk, wn = math.hypot(M, math.pi), math.hypot(M, 28 * math.pi)
    reach = 2.0**33 / abs(math.pi**2 * (1 - 28**2) / (wk + wn))
    assert float(massive_limit_deficit(1, M, np.array([1.0, 0.999 * reach]))[1]) > 0.0
    with pytest.raises(ValueError, match="above 1e-06 rad"):
        massive_limit_deficit(1, M, -1.001 * reach)


def test_heavy_field_sum_keeps_modes_whose_far_partners_are_noise():
    # at tau_bar 5e7 mode 200's argument, 9.05e9 rad, has lost its digits,
    # but modes this far from k = 1 weigh 1e-21 of the sum; the dominant
    # mode 2 sits near 7.4e5 rad
    import mpmath

    with mpmath.workdps(40):
        M, tau = mpmath.mpf(1000), mpmath.mpf(5e7)
        wk = mpmath.sqrt(M**2 + mpmath.pi**2)
        want = M**4 * 256 / mpmath.pi**8 * mpmath.fsum(
            n**2 / mpmath.mpf(1 - n**2) ** 6
            * (1 - mpmath.cos((wk - mpmath.sqrt(M**2 + (mpmath.pi * n) ** 2)) * tau))
            for n in range(2, 201, 2)
        )
    got = massive_limit_deficit(1, 1000.0, 5e7)
    assert abs(got - float(want)) <= 2e-10 * float(want)  # 9.2e-11 measured


def test_heavy_field_estimate_grid_at_k_25000_resolves_its_modes():
    # three samples of one period at the M of --estimate --accel 1e-5
    # --delta 1 --mass 1e-33: at the last, mode 49999 of k = 25000 reaches
    # 1.18e10 rad, yet the sum is kept, as the modes k +- 1 that carry it sit
    # near 3.1e5 rad.  The middle sample meets the reach that the k = 25000
    # estimate prints, 1.7646e+26, to six digits
    peaks = []
    for k in (2500, 25000):
        _, M, _ = physical_to_dimensionless(1e-5, 1.0, 1e-33, None, k)
        tau = np.linspace(0.0, _tau_bar(1.0, CavityConfig(M=M)), 2049)
        peaks.append(massive_limit_deficit(k, M, tau[[0, 1024, 2048]], 2 * k)[1])
    assert f"{peaks[1]:.6g}" == "1.7646e+26"
    # the modes near k carry the sum: it falls like k**-2 at a fixed mass
    assert peaks[1] == pytest.approx(peaks[0] / 100, rel=1e-6)


# (k, M) of the reach checks: k/M = 0.01, the smallest mass the estimate's
# heavy-field path takes, at several k, k = 1 at M = 1000, and the k = 250,
# M ~ 28428 of --estimate --accel 1e-5 --delta 1 --mass 1e-38 --k 250
_REACH_CASES = [
    (1, 100.0), (1, 1000.0), (3, 1000.0), (10, 1000.0), (25, 2500.0),
    (2, 200.0), (5, 500.0), (250, 28427.9),
]


@pytest.mark.parametrize("k, M", _REACH_CASES)
def test_heavy_field_reach_is_the_peak_of_a_dense_scan(k, M):
    # near half a period every phase is close to an odd multiple of pi: the
    # largest of 20,001 samples on [0.45, 0.55] of the period sits 3.3e-6 of
    # the reach below it at most, where 2049 samples of the whole period
    # fell up to 1.5e-3 below
    n_max = max(200, 2 * k)
    reach = closedform._massive_reach(k, M, n_max)
    tau = 4.0 * M / math.pi * np.linspace(0.45, 0.55, 20001)
    peak = max(
        float(np.max(massive_limit_deficit(k, M, part, n_max)))
        for part in np.array_split(tau, 10)
    )
    assert 0.0 <= reach - peak <= 1e-5 * reach


@pytest.mark.parametrize("k, M", _REACH_CASES)
def test_heavy_field_waveform_never_exceeds_its_reach(k, M):
    # each 1 - cos is at most 2: two periods on 4097 points, and durations
    # drawn across a hundred periods
    n_max = max(200, 2 * k)
    period = 4.0 * M / math.pi
    drawn = np.random.default_rng(7).uniform(0.0, 100.0 * period, 1000)
    tau = np.concatenate((np.linspace(0.0, 2.0 * period, 4097), drawn))
    wave = massive_limit_deficit(k, M, tau, n_max)
    assert float(np.max(wave)) <= closedform._massive_reach(k, M, n_max)


def test_heavy_field_reach_keeps_the_waveform_refusals():
    # one setup serves both: the same refusals, in the same order
    for args, error, match in (
        ((1, 0.0, 200), ValueError, "needs M > 0"),
        ((0, 1000.0, 200), ValueError, "mode index must be >= 1, got 0"),
        ((30, 100.0, 200), ValueError, "k/M = 0.3"),
        ((30, 1000.0, 59), ValueError, "at least 2k = 60, got 59"),
        ((1, 1e100, 200), OverflowError, r"M = 1e\+100"),
        ((1, math.inf, 200), OverflowError, "M = inf is too large"),
    ):
        with pytest.raises(error, match=match):
            closedform._massive_reach(*args)
        with pytest.raises(error, match=match):
            massive_limit_deficit(args[0], args[1], 0.5, args[2])


def test_heavy_field_rejects_a_nan_mass():
    with pytest.raises(ValueError, match="needs M > 0"):
        massive_limit_deficit(1, math.nan, 1.0)


_NAN_PHASE_CALLS = {
    "q_function": lambda z: q_function(1, z),
    "one_way_deficit": lambda z: one_way_deficit(1, z),
    "one_way_deficit_sum": lambda z: one_way_deficit_sum(1, z),
    "two_way_deficit-p": lambda z: two_way_deficit(1, z, 1j),
    "two_way_deficit-p_prime": lambda z: two_way_deficit(1, 1j, z),
    "two_way_deficit_sum": lambda z: two_way_deficit_sum(1, 1j, z),
    "round_trip_deficit-p": lambda z: round_trip_deficit(1, z, 1j, -1.0),
    "round_trip_deficit-p_prime": lambda z: round_trip_deficit(1, 1j, z, -1.0),
    "round_trip_deficit-p_dprime": lambda z: round_trip_deficit(1, 1j, -1.0, z),
}


@pytest.mark.parametrize(
    "phase",
    [math.nan, complex(0.5, math.nan), np.array([0.5, math.nan])],
    ids=["nan", "nan-imaginary", "array"],
)
@pytest.mark.parametrize("call", sorted(_NAN_PHASE_CALLS))
def test_nan_phases_are_rejected(call, phase):
    # NaN fails every comparison, so the check asks |z| <= 1 to hold
    with pytest.raises(ValueError, match="on or inside the unit circle"):
        _NAN_PHASE_CALLS[call](phase)


@pytest.mark.parametrize("call", sorted(_NAN_PHASE_CALLS))
def test_phases_outside_the_disk_are_rejected(call):
    for phase in (1.1, 1.1j, np.array([0.5, -1.1])):
        with pytest.raises(ValueError, match="on or inside the unit circle"):
            _NAN_PHASE_CALLS[call](phase)


@pytest.mark.parametrize("name", sorted({call.split("-")[0] for call in _NAN_PHASE_CALLS}))
def test_phases_within_the_rounding_allowance_are_accepted(name):
    # each phase argument may sit 1e-12 outside the unit circle and is
    # checked once; the products of the arguments are not checked again, so
    # every argument at 1 + 0.9e-12 gives the deficit on the circle
    func = getattr(closedform, name)
    nargs = len(inspect.signature(func).parameters) - 1
    on_circle = func(1, *[np.exp(0.7j)] * nargs)
    got = func(1, *[(1.0 + 0.9e-12) * np.exp(0.7j)] * nargs)
    assert math.isfinite(got)
    assert got == pytest.approx(on_circle, rel=1e-10)


def test_heavy_field_rejects_k_over_m_above_the_sweep_limit():
    # 0.05 is accepted, as sweeps accept it; 0.3 is far outside the limit
    assert float(massive_limit_deficit(5, 100.0, 10.0)) > 0.0
    with pytest.raises(ValueError, match="k/M = 0.3"):
        massive_limit_deficit(30, 100.0, 10.0)


def test_closedform_imports_only_the_standard_library_and_numpy():
    # the module returns deficits, as the engine does; the sweep builds rows
    tree = ast.parse(Path(closedform.__file__).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    assert {m for m in modules if m.split(".")[0] not in allowed} == set()
