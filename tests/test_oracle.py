"""Closed forms and the column engine against a 40-digit reference.

The reference for Q comes from polylogarithms instead of a series:

    Q(n, z) = (4 n**2 / pi**4) Re L6(z)
            + (6 n / pi**4) Re[L5(z) - n L6(z) - head],

with L_s(z) = Li_s(z) - Li_s(z**2) / 2**s, the odd powers of the
polylogarithm, and head the odd powers below 2 floor(n/2) + 1 of the
residual window.  Every deficit is a sum of Q over products of the phases:
with |y**s - 1|**2 = 2 - y**s - conj(y)**s, a product sum over phases y_j
expands into sum_e c_e Q(k, prod_j y_j**e_j), e_j in {-1, 0, 1}.

The bounds hold the errors measured at these points with headroom; each
series is truncated, so every error is a tail, not rounding:

- Q forms (tail TOL_Q = 1e-14): up to 2.2e-14 for the one-way form, and
  4.4e-14 for the five-Q form, which adds five tails;
- product sums (tail TOL_SUM = 1e-12): up to 5.5e-13;
- the engine at n_max = 2000: up to 5.6e-15 on a single leg and 1.4e-14 on
  the seven-leg round trip, each inside the tail the engine reports.
"""

import functools
import itertools
import math

import mpmath
import numpy as np
import pytest

from cavneg.closedform import (
    kickstart_deficit,
    one_way_deficit,
    one_way_deficit_sum,
    q_function,
    round_trip_deficit,
    two_way_deficit,
    two_way_deficit_sum,
)
from cavneg.scenario import (
    alpha_centauri_scenario,
    kickstart_scenario,
    one_way_scenario,
    round_trip_scenario,
    scenario_negativity,
)
from cavneg.spectrum import CavityConfig, rindler_frequency

Q_FORM_BOUND = 3e-14  # q_function, kickstart and one-way forms
FIVE_Q_BOUND = 6e-14  # two_way_deficit
PRODUCT_SUM_BOUND = 1e-12
ENGINE_BOUND = 2e-14
N_MAX = 2000

# (k, u, v, w): the one-way worst case u = pi at k = 1, and k = 3
POINTS = [(1, math.pi, 1.1, 2.4), (3, 0.7, 2.4, 1.9)]


@functools.lru_cache(maxsize=None)
def _q_reference(n, re, im):
    with mpmath.workdps(40):
        z = mpmath.mpc(re, im)

        def odd(s):
            return mpmath.polylog(s, z) - mpmath.polylog(s, z * z) / 2**s

        head = mpmath.fsum(
            z**m * (mpmath.mpf(1) / m**5 - mpmath.mpf(n) / m**6)
            for m in range(1, 2 * (n // 2) + 1, 2)
        )
        l6 = odd(6)
        value = 4 * n * n * mpmath.re(l6) + 6 * n * mpmath.re(odd(5) - n * l6 - head)
        return value / mpmath.pi**4


def q_reference(n, z):
    # Q(n, conj z) = Q(n, z): the cache holds one of each pair
    return _q_reference(n, mpmath.re(z), abs(mpmath.im(z)))


def product_reference(k, factors):
    """sum_r a_kr prod_j |y_j**(1+2r) - 1|**2 at 40 digits, where y_j is the
    product of the complex phases in factors[j]."""
    with mpmath.workdps(40):
        ys = [mpmath.fprod(mpmath.mpc(x.real, x.imag) for x in f) for f in factors]
        total = mpmath.mpf(0)
        for signs in itertools.product((-1, 0, 1), repeat=len(ys)):
            weight, y = 1, mpmath.mpc(1)
            for e, yj in zip(signs, ys):
                weight *= 2 if e == 0 else -1
                y *= 1 if e == 0 else (yj if e > 0 else mpmath.conj(yj))
            total += weight * q_reference(k, y)
        return total


def _references(k, u, v, w):
    """The phases of (u, v, w) as doubles, and the reference deficits of the
    one-way, out-and-stop and round trips on them."""
    p, pp, ppp = (complex(np.exp(1j * x)) for x in (u, v, w))
    one = product_reference(k, [(p,)])
    two = product_reference(k, [(p,), (p, pp)])
    trip = product_reference(k, [(p,), (p, pp), (p, p, pp, ppp)])
    return (p, pp, ppp), (one, two, trip)


@pytest.mark.parametrize("k,u,v,w", POINTS)
def test_closed_forms_against_the_reference(k, u, v, w):
    (p, pp, ppp), (one, two, trip) = _references(k, u, v, w)
    with mpmath.workdps(40):
        q_p = q_reference(k, mpmath.mpc(p.real, p.imag))
    cases = (
        ("kickstart_deficit", q_reference(k, 1), kickstart_deficit(k), Q_FORM_BOUND),
        ("q_function", q_p, q_function(k, p), Q_FORM_BOUND),
        ("one_way_deficit", one, one_way_deficit(k, p), Q_FORM_BOUND),
        ("two_way_deficit", two, two_way_deficit(k, p, pp), FIVE_Q_BOUND),
        ("one_way_deficit_sum", one, one_way_deficit_sum(k, p), PRODUCT_SUM_BOUND),
        ("two_way_deficit_sum", two, two_way_deficit_sum(k, p, pp),
         PRODUCT_SUM_BOUND),
        ("round_trip_deficit", trip, round_trip_deficit(k, p, pp, ppp),
         PRODUCT_SUM_BOUND),
    )
    for name, reference, value, bound in cases:
        error = abs(float(reference - value))
        assert error < bound, (name, error)


@pytest.mark.parametrize("k,u,v,w", POINTS)
def test_engine_against_the_reference(k, u, v, w):
    cfg = CavityConfig(h=1.0, k=k, n_max=N_MAX)
    tau = u / rindler_frequency(1, cfg)
    tp, td = v / math.pi, w / math.pi
    _, (one, two, trip) = _references(k, u, v, w)
    cases = (
        (kickstart_scenario(tau, cfg), q_reference(k, 1)),
        (one_way_scenario(tau, cfg), one),
        (alpha_centauri_scenario(tau, tp, cfg), two),
        (round_trip_scenario(tau, tp, td, cfg), trip),
    )
    for scenario, reference in cases:
        deficit, tail = scenario_negativity(scenario)
        error = abs(float(reference - deficit))
        assert error < ENGINE_BOUND, (len(scenario.segments), error)
        assert error <= tail, (len(scenario.segments), error, tail)
