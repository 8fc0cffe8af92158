"""Analytic second-order negativity deficits for the standard trajectories.

Everything here is expressed per unit h**2: a deficit d means the negativity
is 1/2 - d h**2.  The building block is

    Q(n, z) = (4 n**2 / pi**4) Re(polylog6(z) - polylog6(z**2) / 64)
            + (6 n / pi**4) sum_{r >= floor(n/2)} Re(z**(1+2r))
                  (1 / (1+2r)**5 - n / (1+2r)**6)

which collapses to a single cosine series Q(n, z) = sum_r a_nr Re(z**(1+2r))
with strictly positive coefficients a_nr; the first term of Q keeps only odd
powers because polylog6(z) - polylog6(z**2)/64 = sum_{m odd} z**m / m**6.
Phase variables: p tracks the accelerated stretches, p' the outbound coast,
p'' the stay at the destination.

The deficits implemented here:

    kickstart            Q(k, 1)
    one accelerated leg  2 [Q(k, 1) - Q(k, p)]
                         = sum_r a_kr |p**s - 1|**2,          s = 1 + 2r
    out and stop         sum_r a_kr |p**s - 1|**2 |(p p')**s - 1|**2
    full round trip      sum_r a_kr |p**s - 1|**2 |(p p')**s - 1|**2
                                   |(p**2 p' p'')**s - 1|**2

plus the five-Q rearrangement of the second line and the large-mass limit of
the single-leg case.  A two-by-two truncation of Q(1, z) is provided for
quick estimates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .scenario import NegativityResult
from .spectrum import CavityConfig, ValidityReport, rindler_frequency

__all__ = [
    "QCoefficients",
    "PhaseTuple",
    "polylog6",
    "q_function",
    "q_coefficients",
    "q_two_by_two",
    "kickstart_deficit",
    "one_way_deficit",
    "one_way_deficit_sum",
    "two_way_deficit",
    "two_way_deficit_sum",
    "round_trip_deficit",
    "massive_limit_deficit",
    "negativity_one_way",
    "negativity_two_way",
    "negativity_round_trip",
    "negativity_kickstart",
    "negativity_massive_limit",
]

_PI4 = math.pi**4

# lowest two coefficients of Q(1, .): a_10 = 4/pi**4 and
# a_11 = 4/(729 pi**4) + (6/pi**4)(1/243 - 1/729) = 16/(729 pi**4)
A_10 = 4.0 / _PI4
A_11 = 16.0 / (729.0 * _PI4)


def _as_phase_array(z):
    arr = np.asarray(z, dtype=complex)
    if np.any(np.abs(arr) > 1.0 + 1e-12):
        raise ValueError("phase arguments must lie on or inside the unit circle")
    return arr


def _maybe_scalar(value, template):
    if np.isscalar(template) or np.asarray(template).ndim == 0:
        return float(np.real(value)) if np.isrealobj(value) else complex(value)
    return value


def polylog6(z, tol: float = 1e-14):
    """Order-six polylogarithm sum_{m >= 1} z**m / m**6 on the closed disc.

    Direct summation: the tail after N terms is below 1/(5 N**5), so the
    default tolerance costs about 460 terms.  Accepts complex scalars or
    arrays; moduli beyond 1 (past rounding slack) are rejected.
    """
    arr = _as_phase_array(z)
    nterms = max(10, math.ceil((1.0 / (5.0 * tol)) ** 0.2))
    acc = np.zeros(arr.shape, dtype=complex)
    zp = np.ones(arr.shape, dtype=complex)
    for m in range(1, nterms + 1):
        zp = zp * arr
        # numpy divides a complex number by a real one as a product with the
        # reciprocal, so this has the bits of zp / m**6 at a product's cost
        acc += zp * (1.0 / m**6)
    if np.asarray(z).ndim == 0:
        return complex(acc)
    return acc


def _auto_r_max(n: int, tol: float, product_bound: float = 4.0) -> int:
    # tail of sum_r a_nr past R, bounded through integral comparison:
    #   (4 n^2/pi^4) (1+2R)^-5 / 10 + (6 n/pi^4) (1+2R)^-4 / 8
    r = max(n, 8)
    while product_bound * _a_tail(n, r) > tol and r < 100000:
        r = int(r * 1.5) + 1
    return min(r, 100000)


def _a_tail(n: int, r_max: int) -> float:
    s = 1.0 + 2.0 * r_max
    return (4.0 * n * n / _PI4) / (10.0 * s**5) + (6.0 * n / _PI4) / (8.0 * s**4)


def _check_r_max(n: int, r_max: int) -> None:
    # the residual window of Q(n, .) starts at floor(n/2); a cutoff below n
    # would silently drop part of it
    if r_max < n:
        raise ValueError(f"r_max must be at least n = {n}, got {r_max}")


def _cutoff(n: int, r_max: int | None, tol: float, nfactors: int) -> tuple:
    """Cutoff of sum_r a_nr prod_j |x_j**s - 1|**2 over nfactors factors, each
    at most 4, and the tail it leaves: (r_used, tail bound).  An explicit
    r_max below n raises ValueError."""
    bound = 4.0**nfactors
    if r_max is None:
        r_max = max(_auto_r_max(n, tol, bound), n)
    else:
        _check_r_max(n, r_max)
    return r_max, _a_tail(n, r_max) * bound


@dataclass(frozen=True, eq=False)
class QCoefficients:
    """Cosine-series coefficients of Q(n, .): a[r] for r = 0 .. r_max."""

    n: int
    a: np.ndarray
    r_max: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.a, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "a", arr)


def q_coefficients(n: int, r_max: int) -> QCoefficients:
    """Coefficients a_nr with

        a_nr = (4 n**2 / pi**4) / (1+2r)**6
             + [r >= floor(n/2)] (6 n / pi**4) (1/(1+2r)**5 - n/(1+2r)**6),

    all strictly positive; r_max must reach at least n so the residual window
    is represented.
    """
    if n < 1:
        raise ValueError(f"mode index must be >= 1, got {n}")
    _check_r_max(n, r_max)
    r = np.arange(r_max + 1)
    s = (2 * r + 1).astype(float)
    a = (4.0 * n * n / _PI4) / s**6
    window = r >= n // 2
    a = a + window * (6.0 * n / _PI4) * (1.0 / s**5 - n / s**6)
    return QCoefficients(n, a, r_max)


def q_function(n: int, z, r_max: int | None = None, tol: float = 1e-14):
    """Q(n, z) for unit-modulus z, scalar or array.

    With r_max omitted, the polylogarithm pair carries most of the value and
    the residual sum runs from floor(n/2) to a cutoff chosen from tol, with
    an inverse-fourth-power tail.  An explicit r_max, at least n, truncates
    both at the odd power 2 r_max + 1, so that Q is the cosine series
    sum_{r <= r_max} a_nr Re(z**(1+2r)) of q_coefficients(n, r_max).
    """
    if n < 1:
        raise ValueError(f"mode index must be >= 1, got {n}")
    arr = _as_phase_array(z)
    z2 = arr * arr
    if r_max is not None:
        # the polylog pair up to z**(1 + 2 r_max) keeps the odd powers only,
        # so lead and residual window add up to the coefficients a_nr
        value = np.zeros(arr.shape)
        zp = arr
        for a in q_coefficients(n, r_max).a:
            value += a * np.real(zp)
            zp = zp * z2
        return _maybe_scalar(value, z)
    # one polylog pass over z and z**2 stacked
    pair = polylog6(np.stack((arr, z2)), tol)
    lead = (4.0 * n * n / _PI4) * np.real(pair[0] - pair[1] / 64.0)
    r0 = n // 2
    r_max = max(_auto_r_max(n, tol, 1.0), r0)
    coef = 6.0 * n / _PI4
    acc = np.zeros(arr.shape)
    zp = arr ** (2 * r0 + 1)
    for r in range(r0, r_max + 1):
        s = float(2 * r + 1)
        acc += np.real(zp) * (1.0 / s**5 - n / s**6)
        zp = zp * z2
    value = lead + coef * acc
    return _maybe_scalar(value, z)


@lru_cache(maxsize=None)
def _q_at_one(n: int) -> float:
    return q_function(n, 1.0 + 0.0j)


def _q_one_like(n: int, r_max: int | None, tol: float) -> float:
    # Q(n, 1) at the cutoff of the Q(n, p) it is subtracted from, so that the
    # difference vanishes exactly at p = 1
    if r_max is None and tol == 1e-14:
        return _q_at_one(n)
    return q_function(n, 1.0 + 0.0j, r_max, tol)


def q_two_by_two(z):
    """Two lowest modes only: Q(1, z) collapses to a_10 Re(z) + a_11 Re(z**3)/2."""
    arr = _as_phase_array(z)
    value = A_10 * np.real(arr) + 0.5 * A_11 * np.real(arr**3)
    return _maybe_scalar(value, z)


@dataclass(frozen=True)
class PhaseTuple:
    """Unit-modulus phase triple (p, p', p'') of a trajectory.

    p = exp(i u) with u the boost frequency times the accelerated duration,
    p' = exp(i pi tau' / delta) for the outbound coast, p'' likewise for the
    stay at the destination.
    """

    p: complex = 1.0 + 0.0j
    p_prime: complex = 1.0 + 0.0j
    p_dprime: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        for name in ("p", "p_prime", "p_dprime"):
            val = complex(getattr(self, name))
            if abs(abs(val) - 1.0) > 1e-9:
                raise ValueError(f"{name} must have unit modulus, got {val!r}")
            object.__setattr__(self, name, val)

    @classmethod
    def from_angles(cls, u: float = 0.0, v: float = 0.0, w: float = 0.0) -> "PhaseTuple":
        return cls(
            complex(math.cos(u), math.sin(u)),
            complex(math.cos(v), math.sin(v)),
            complex(math.cos(w), math.sin(w)),
        )

    @classmethod
    def from_durations(
        cls,
        tau_bar: float,
        tau_prime: float,
        tau_dprime: float,
        cfg: CavityConfig,
    ) -> "PhaseTuple":
        u = rindler_frequency(1, cfg) * tau_bar
        v = math.pi * tau_prime / cfg.delta
        w = math.pi * tau_dprime / cfg.delta
        return cls.from_angles(u, v, w)


def kickstart_deficit(k: int) -> float:
    """Deficit when the trajectory ends still accelerating: Q(k, 1),
    independent of how long the engines have been burning."""
    return _q_at_one(k)


def one_way_deficit(k: int, p, r_max: int | None = None, tol: float = 1e-14):
    """Single accelerated leg: 2 [Q(k, 1) - Q(k, p)], vectorized over p."""
    value = 2.0 * (
        _q_one_like(k, r_max, tol)
        - np.asarray(q_function(k, p, r_max, tol), dtype=float)
    )
    return _maybe_scalar(value, p)


def _product_sum(k: int, factors, r_max: int | None, tol: float):
    # sum_r a_kr prod_j |x_j**(1+2r) - 1|**2 over the given unit phases; each
    # factor's powers stay at that factor's own shape, only the product
    # broadcasts
    r_max, tail = _cutoff(k, r_max, tol, len(factors))
    coeffs = q_coefficients(k, r_max).a
    arrs = [_as_phase_array(x) for x in factors]
    shape = np.broadcast_shapes(*(a.shape for a in arrs))
    # a 0-d factor next to arrays gets one length-one axis per grid axis:
    # its powers would otherwise become numpy scalars, whose complex product
    # rounds differently from the array loops
    arrs = [a.reshape((1,) * len(shape)) if a.ndim == 0 else a for a in arrs]
    acc = np.zeros(shape)
    powers = [a.copy() for a in arrs]
    squares = [a * a for a in arrs]
    for r in range(r_max + 1):
        term = coeffs[r]
        for xp in powers:
            term = term * np.abs(xp - 1.0) ** 2
        acc += term
        for j, sq in enumerate(squares):
            powers[j] = powers[j] * sq
    return acc, tail


def one_way_deficit_sum(k: int, p, r_max: int | None = None, tol: float = 1e-12):
    """Cosine-series form of the single-leg deficit, for cross-checking."""
    acc, _ = _product_sum(k, [p], r_max, tol)
    return _maybe_scalar(acc, p)


def two_way_deficit(k: int, p, p_prime, r_max: int | None = None, tol: float = 1e-14):
    """Out-and-stop trajectory, five-Q form:

        2 [2 Q(k,1) - 2 Q(k,p) + Q(k,p') - 2 Q(k,p p') + Q(k,p**2 p')].

    Vanishes exactly when p = 1 or p p' = 1.
    """
    parr = _as_phase_array(p)
    pparr = _as_phase_array(p_prime)
    value = 2.0 * (
        2.0 * _q_one_like(k, r_max, tol)
        - 2.0 * np.asarray(q_function(k, parr, r_max, tol), dtype=float)
        + np.asarray(q_function(k, pparr, r_max, tol), dtype=float)
        - 2.0 * np.asarray(q_function(k, parr * pparr, r_max, tol), dtype=float)
        + np.asarray(q_function(k, parr * parr * pparr, r_max, tol), dtype=float)
    )
    if np.asarray(p).ndim == 0 and np.asarray(p_prime).ndim == 0:
        return float(value)
    return value


def two_way_deficit_sum(
    k: int, p, p_prime, r_max: int | None = None, tol: float = 1e-12
):
    """Cosine-series form of the out-and-stop deficit, for cross-checking."""
    parr = _as_phase_array(p)
    pparr = _as_phase_array(p_prime)
    acc, _ = _product_sum(k, [parr, parr * pparr], r_max, tol)
    if np.asarray(p).ndim == 0 and np.asarray(p_prime).ndim == 0:
        return float(acc)
    return acc


def round_trip_deficit(
    k: int, p, p_prime, p_dprime, r_max: int | None = None, tol: float = 1e-12
):
    """Full round trip; only the cosine-series product form is compact:

        sum_r a_kr |p**s - 1|**2 |(p p')**s - 1|**2 |(p**2 p' p'')**s - 1|**2.

    Vanishes exactly when p = 1, p p' = 1, or p**2 p' p'' = 1.
    """
    parr = _as_phase_array(p)
    pparr = _as_phase_array(p_prime)
    ppparr = _as_phase_array(p_dprime)
    acc, _ = _product_sum(
        k, [parr, parr * pparr, parr * parr * pparr * ppparr], r_max, tol
    )
    scalars = all(np.asarray(x).ndim == 0 for x in (p, p_prime, p_dprime))
    return float(acc) if scalars else acc


def massive_limit_deficit(
    k: int, M: float, tau_bar, delta: float = 1.0, n_max: int = 200
):
    """Single-leg deficit in the heavy-field limit, vectorized over tau_bar:

        M**4 (256 k**2 / pi**8) sum_n n**2 / (k**2 - n**2)**6
            * (1 - cos((sqrt(M**2 + pi**2 k**2) - sqrt(M**2 + pi**2 n**2))
                       tau_bar / delta))

    over positive n of parity opposite to k.  The frequency difference is
    evaluated as pi**2 (k**2 - n**2) / (sum of the square roots) to dodge the
    cancellation that dominates at large M.  Approximately periodic in
    tau_bar with period 4 M delta / pi.
    """
    if M <= 0:
        raise ValueError("the heavy-field limit needs M > 0; use the massless forms")
    if k < 1:
        raise ValueError(f"mode index must be >= 1, got {k}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    start = 1 if k % 2 == 0 else 2
    n = np.arange(start, n_max + 1, 2, dtype=float)
    if n.size == 0:
        raise ValueError(f"n_max = {n_max} leaves no modes of parity opposite to {k}")
    wk = math.sqrt(M * M + (math.pi * k) ** 2)
    wn = np.sqrt(M * M + (np.pi * n) ** 2)
    dw = (math.pi**2) * (k * k - n * n) / (wk + wn)
    amp = n * n / (k * k - n * n) ** 6
    pref = (256.0 * k * k / math.pi**8) * M**4
    t = np.asarray(tau_bar, dtype=float)
    osc = 1.0 - np.cos(np.multiply.outer(t, dw) / delta)
    value = pref * (osc @ amp)
    if t.ndim == 0:
        return float(value)
    return value


def _massive_tail(k: int, M: float, n_max: int) -> float:
    # two bounds the oscillating bracket; the n**2/(n**2-k**2)**6 tail is
    # controlled by an integral of n**-10
    edge = float(n_max)
    return (256.0 * k * k / math.pi**8) * M**4 * 2.0 * edge**2 / (
        7.0 * (edge * edge - k * k) ** 5 * edge
    )


def _clamped(deficit: float) -> float:
    # the five-Q differences land within rounding of zero on the vanishing
    # loci and may come out at -1e-17; anything more negative is a bug
    if deficit < 0:
        if deficit < -1e-10:
            raise ArithmeticError(f"deficit came out negative: {deficit}")
        return 0.0
    return deficit


def _cross_check(label: str, first: float, second: float, tol: float = 1e-10) -> None:
    if abs(first - second) > tol:
        raise ArithmeticError(
            f"{label}: the two printed forms disagree, {first!r} vs {second!r}"
        )


def negativity_one_way(
    k: int, h: float, phases: PhaseTuple, r_max: int | None = None
) -> NegativityResult:
    """Negativity after one accelerated leg, from the closed form.

    Both equivalent forms are evaluated at the same cutoff and must agree to
    1e-10; the result carries the Q-difference value.
    """
    p = complex(phases.p)
    d_q = float(one_way_deficit(k, p, r_max))
    d_sum = float(one_way_deficit_sum(k, p, r_max))
    _cross_check("one-way deficit", d_q, d_sum)
    _, tail = _cutoff(k, r_max, 1e-12, 1)
    validity = ValidityReport.from_parameters(k, h, 0.0)
    return NegativityResult.from_deficit(_clamped(d_q), h, k, validity, tail)


def negativity_two_way(
    k: int, h: float, phases: PhaseTuple, r_max: int | None = None
) -> NegativityResult:
    """Negativity after out-and-stop, from the closed form (both forms
    evaluated at the same cutoff and cross-checked)."""
    p = complex(phases.p)
    pp = complex(phases.p_prime)
    d_q = float(two_way_deficit(k, p, pp, r_max))
    d_sum = float(two_way_deficit_sum(k, p, pp, r_max))
    _cross_check("two-way deficit", d_q, d_sum)
    _, tail = _cutoff(k, r_max, 1e-12, 2)
    validity = ValidityReport.from_parameters(k, h, 0.0)
    return NegativityResult.from_deficit(_clamped(d_q), h, k, validity, tail)


def negativity_round_trip(
    k: int, h: float, phases: PhaseTuple, r_max: int | None = None
) -> NegativityResult:
    """Negativity after the full round trip, cosine-series product form."""
    p = complex(phases.p)
    pp = complex(phases.p_prime)
    ppp = complex(phases.p_dprime)
    d = float(round_trip_deficit(k, p, pp, ppp, r_max))
    _, tail = _cutoff(k, r_max, 1e-12, 3)
    validity = ValidityReport.from_parameters(k, h, 0.0)
    return NegativityResult.from_deficit(_clamped(d), h, k, validity, tail)


def negativity_kickstart(k: int, h: float) -> NegativityResult:
    """Negativity when the trajectory ends under acceleration: deficit Q(k, 1)."""
    validity = ValidityReport.from_parameters(k, h, 0.0)
    _, tail = _cutoff(k, None, 1e-14, 0)
    return NegativityResult.from_deficit(kickstart_deficit(k), h, k, validity, tail)


def negativity_massive_limit(
    k: int,
    h: float,
    M: float,
    tau_bar: float,
    delta: float = 1.0,
    n_max: int = 200,
) -> NegativityResult:
    """Negativity after one accelerated leg of a heavy field.

    Valid deep in the regime k much smaller than M with h M**2 within the
    usual bound; a ratio k/M above 0.01 draws a warning.
    """
    if M > 0 and k / M > 0.01:
        warnings.warn(
            f"k/M = {k / M:.3g} strains the heavy-field expansion",
            stacklevel=2,
        )
    deficit = float(massive_limit_deficit(k, M, tau_bar, delta, n_max))
    validity = ValidityReport.from_parameters(k, h, M)
    return NegativityResult.from_deficit(
        deficit, h, k, validity, _massive_tail(k, M, n_max)
    )
