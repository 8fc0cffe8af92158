"""Analytic second-order negativity deficits for the standard trajectories.

Everything here is expressed per unit h**2: a deficit d means the negativity
is 1/2 - d h**2.  The building block is

    Q(n, z) = (4 n**2 / pi**4) Re(Li6(z) - Li6(z**2) / 64)
            + (6 n / pi**4) sum_{r >= floor(n/2)} Re(z**(1+2r))
                  (1 / (1+2r)**5 - n / (1+2r)**6)

with Li6(z) = sum_{m >= 1} z**m / m**6, which collapses to a single cosine
series Q(n, z) = sum_r a_nr Re(z**(1+2r)) with strictly positive
coefficients a_nr; the first term of Q keeps only odd powers because
Li6(z) - Li6(z**2)/64 = sum_{m odd} z**m / m**6.
Phase variables: p tracks the accelerated stretches, p' the outbound coast,
p'' the stay at the destination.  Each public function checks each phase
argument once (|z| <= 1 + 1e-12, NaN refused), not the products it forms.

The deficits implemented here:

    kickstart            Q(k, 1)
    one accelerated leg  2 [Q(k, 1) - Q(k, p)]
                         = sum_r a_kr |p**s - 1|**2,          s = 1 + 2r
    out and stop         sum_r a_kr |p**s - 1|**2 |(p p')**s - 1|**2
    full round trip      sum_r a_kr |p**s - 1|**2 |(p p')**s - 1|**2
                                   |(p**2 p' p'')**s - 1|**2

plus the five-Q rearrangement of the second line and the large-mass limit of
the single-leg case.

Every series stops at the one cutoff rule of _cutoff: a tail below TOL_Q for
the Q forms and below TOL_SUM for the product sums.  Each call runs one
series pass: the Q forms over the bitwise-distinct values of all their phase
arguments (Q(k, 1) together with every Q of a deficit, the z and z**2 Li6
chains together with the residual window), scattered back to every
position; a product sum over all its factors, and on a large grid over
their bitwise-distinct values, whose weights each term gathers back to
every position of the whole grid at once.  A pass forms each power as the product of
the one before and its step and adds the terms in order, elementwise, so
its values have the bits of a term-by-term loop on each value alone; a 0-d
argument runs as a one-element array, so a scalar and the same value inside
an array give the same bits.  The heavy-field waveform is one matrix over
the whole grid, built in place.  Nothing is cached between calls.  The
functions return deficits only: the sweep turns them into CSV rows, and the
Q and product forms police each other in verify.py and the tests.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "q_function",
    "q_coefficients",
    "kickstart_deficit",
    "one_way_deficit",
    "one_way_deficit_sum",
    "two_way_deficit",
    "two_way_deficit_sum",
    "round_trip_deficit",
    "massive_limit_deficit",
]

_PI4 = math.pi**4

TOL_Q = 1e-14  # tail of the Li6 pass and the Q forms
TOL_SUM = 1e-12  # tail of the product sums and of the tails the sweep reports

# the Li6 pass: N terms, for a tail below 1/(5 N**5) <= TOL_Q (about 460),
# and their weights; numpy divides a complex number by a real one as a product
# with the reciprocal, so weighing by 1/m**6 has the bits of z**m / m**6
_LI6_TERMS = max(10, math.ceil((1.0 / (5.0 * TOL_Q)) ** 0.2))
_LI6_WEIGHTS = np.array([1.0 / m**6 for m in range(1, _LI6_TERMS + 1)])

_BLOCK = 1 << 17  # terms x sums up to which a pass stores every power
_TILE = 16384  # chains per in-place tile of a larger series pass

# largest k/M the heavy-field closed form accepts: against the engine (n_max
# 400, u in {0.3, 1.0, 1.7}) its worst relative error is 6e-3 at k/M = 0.01,
# 2.2e-2 at 0.03 (fig5b), 0.11 at 0.05, 0.36 at 0.1 and 0.93 at 1/3
_MAX_K_OVER_M = 0.05
# largest k/M of the heavy-field --estimate, where that error is 6e-3
_ESTIMATE_K_OVER_M = 0.01

# lowest two coefficients of Q(1, .): a_10 = 4/pi**4 and
# a_11 = 4/(729 pi**4) + (6/pi**4)(1/243 - 1/729) = 16/(729 pi**4)
A_10 = 4.0 / _PI4
A_11 = 16.0 / (729.0 * _PI4)


def _as_phase_array(z):
    arr = np.asarray(z, dtype=complex)
    # written so that a NaN, which compares false, is rejected too
    if not np.all(np.abs(arr) <= 1.0 + 1e-12):
        raise ValueError("phase arguments must lie on or inside the unit circle")
    return arr


def _maybe_scalar(value, *templates):
    # a Python float when every input was a scalar
    if all(np.ndim(t) == 0 for t in templates):
        return float(value)
    return value


def _flat(*args):
    """The arguments as one flat complex array, with the shape of each: a 0-d
    argument becomes one element, so no value reaches numpy's scalar complex
    product, which rounds differently from its array loops; nothing checked."""
    arrs = [np.asarray(a, dtype=complex) for a in args]
    return np.concatenate([a.ravel() for a in arrs]), [a.shape for a in arrs]


def _split(flat, shapes):
    """The inverse of _flat along the last axis: one view per shape."""
    lead, out, lo = flat.shape[:-1], [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(flat[..., lo : lo + size].reshape(lead + shape))
        lo += size
    return out


def _power_rows(start, step, nterms):
    """Rows start * step**j, j < nterms: each row is the product of the row
    before and step, as a loop forms the powers (numpy's multiply.accumulate
    rounds differently)."""
    rows = np.empty((nterms, start.size), dtype=complex)
    rows[0] = start
    multiply = np.multiply  # out passed positionally: less call overhead per row
    for prev, row in itertools.pairwise(rows):
        multiply(prev, step, row)
    return rows


def _term_sums(out):
    """Sum of out[1:] over the first axis in term order from +0.0, as a loop
    of acc += term adds it (add.reduce may sum a single column pairwise);
    out[0] is overwritten."""
    out[0] = 0.0
    return np.add.accumulate(out, axis=0, out=out)[-1]


def _series(groups):
    """Weighted real-part sums over power chains, one pass for all groups.

    Each group is (start, step, weights) with flat complex start and step of
    one length; its result is sum_j weights[j] Re x_j over x_0 = start,
    x_(j+1) = x_j step, elementwise and in term order.  Small inputs store
    every power and weigh them in one product; large ones run per-term loops
    on cache-sized tiles.
    """
    sizes = [g[0].size for g in groups]
    nterms = max(len(g[2]) for g in groups)
    if nterms * sum(sizes) > _BLOCK:
        return [_tiled_series(*g) for g in groups]
    rows = _power_rows(
        np.concatenate([g[0] for g in groups]),
        np.concatenate([g[1] for g in groups]),
        nterms,
    )
    sums = []
    for block, (_, _, weights) in zip(_split(rows, [(n,) for n in sizes]), groups):
        block = block[: len(weights)]
        out = np.empty((len(weights) + 1, block.shape[1]))
        np.multiply(block.real, weights[:, None], out=out[1:])
        sums.append(_term_sums(out))
    return sums


def _tiled_series(start, step, weights):
    # one group of _series, term by term on tiles that stay in cache
    acc = np.zeros(start.size)
    for lo in range(0, start.size, _TILE):
        x = start[lo : lo + _TILE].copy()
        s = step[lo : lo + _TILE]
        a = acc[lo : lo + _TILE]
        term = np.empty_like(a)
        xr = x.real  # a view: it follows the in-place steps of x
        for w in weights:
            np.multiply(xr, w, out=term)
            a += term
            np.multiply(x, s, out=x)
    return acc


def _auto_r_max(n: int, tol: float, product_bound: float) -> int:
    # tail of sum_r a_nr past R, bounded through integral comparison:
    #   (4 n^2/pi^4) (1+2R)^-5 / 10 + (6 n/pi^4) (1+2R)^-4 / 8
    r = max(n, 8)
    while product_bound * _a_tail(n, r) > tol and r < 100000:
        r = int(r * 1.5) + 1
    return min(r, 100000)


def _a_tail(n: int, r_max: int) -> float:
    s = 1.0 + 2.0 * r_max
    return (4.0 * n * n / _PI4) / (10.0 * s**5) + (6.0 * n / _PI4) / (8.0 * s**4)


def _cutoff(n: int, tol: float, nfactors: int) -> tuple:
    """The one cutoff rule of the series: the last r of sum_r a_nr
    prod_j |x_j**s - 1|**2 over nfactors factors, each at most 4, whose tail
    bound stays below tol, and that bound: (r_max, tail).  r_max is at least
    n, so the residual window of Q(n, .), which starts at floor(n/2), is
    always inside; nfactors = 0 gives the cutoff of Q itself."""
    bound = 4.0**nfactors
    r_max = max(_auto_r_max(n, tol, bound), n)
    return r_max, _a_tail(n, r_max) * bound


def q_coefficients(n: int, r_max: int) -> np.ndarray:
    """Read-only array of the coefficients a_nr, r = 0 .. r_max, with

        a_nr = (4 n**2 / pi**4) / (1+2r)**6
             + [r >= floor(n/2)] (6 n / pi**4) (1/(1+2r)**5 - n/(1+2r)**6),

    all strictly positive; r_max must reach at least n so the residual window
    is represented.
    """
    if n < 1:
        raise ValueError(f"mode index must be >= 1, got {n}")
    if r_max < n:
        raise ValueError(f"r_max must be at least n = {n}, got {r_max}")
    r = np.arange(r_max + 1)
    s = (2 * r + 1).astype(float)
    a = (4.0 * n * n / _PI4) / s**6
    window = r >= n // 2
    a = a + window * (6.0 * n / _PI4) * (1.0 / s**5 - n / s**6)
    a.setflags(write=False)
    return a


def _distinct(x):
    """The bitwise-distinct values of the flat float or complex array x and
    the index that rebuilds x from them.  The key is the exact bytes of each
    value, so 0.0 and -0.0, or 1+0j and 1-0j, stay apart (np.unique merges
    them).  The stable sort of lexsort serves every caller, as a second sort
    kernel would map more code into memory."""
    key = x.view(np.int64).reshape(x.size, x.itemsize // 8)
    order = np.lexsort(key.T)
    ranked = key[order]
    first = np.empty(x.size, dtype=bool)
    first[:1] = True
    np.logical_or.reduce(ranked[1:] != ranked[:-1], axis=1, out=first[1:])
    del ranked  # dropped before the index arrays below add to the peak
    rank = np.cumsum(first, dtype=np.intp)
    rank -= 1
    inverse = np.empty(x.size, dtype=np.intp)
    inverse[order] = rank
    return x[order[first]], inverse


def _q_flat(n: int, x):
    """Q(n, .) over the flat phase array x: one series pass over the
    distinct values of x, scattered back to its positions."""
    if n < 1:
        raise ValueError(f"mode index must be >= 1, got {n}")
    x, inverse = _distinct(x)
    x2 = x * x
    r0 = n // 2
    r_max, _ = _cutoff(n, TOL_Q, 0)
    odd = [float(2 * r + 1) for r in range(r0, r_max + 1)]
    window = np.array([1.0 / s**5 - n / s**6 for s in odd])
    pair = np.concatenate((x, x2))
    lead, acc = _series(
        [(pair, pair, _LI6_WEIGHTS), (x ** (2 * r0 + 1), x2, window)]
    )
    lead = (4.0 * n * n / _PI4) * (lead[: x.size] - lead[x.size :] / 64.0)
    return (lead + (6.0 * n / _PI4) * acc)[inverse]


def q_function(n: int, z):
    """Q(n, z) for unit-modulus z, scalar or array.

    The Li6 pair carries most of the value and the residual sum runs from
    floor(n/2) to the cutoff of _cutoff(n, TOL_Q, 0), whose
    inverse-fourth-power tail stays below TOL_Q; both come from one series
    pass over z and z**2.
    """
    x, (shape,) = _flat(_as_phase_array(z))
    return _maybe_scalar(_q_flat(n, x).reshape(shape), z)


def kickstart_deficit(k: int) -> float:
    """Deficit when the trajectory ends still accelerating: Q(k, 1),
    independent of how long the engines have been burning."""
    return q_function(k, 1.0)


def one_way_deficit(k: int, p):
    """Single accelerated leg: 2 [Q(k, 1) - Q(k, p)], vectorized over p."""
    x, shapes = _flat(1.0, _as_phase_array(p))
    q_one, q_p = _split(_q_flat(k, x), shapes)
    return _maybe_scalar(2.0 * (q_one - q_p), p)


def _product_sum(k: int, factors):
    # sum_r a_kr prod_j |x_j**(1+2r) - 1|**2 over the given unit phases, with
    # the powers of every factor in one pass; each factor's powers stay at
    # that factor's own shape, only the product broadcasts
    r_max, tail = _cutoff(k, TOL_SUM, len(factors))
    coeffs = q_coefficients(k, r_max)
    x, shapes = _flat(*factors)
    shape = np.broadcast_shapes(*shapes)
    shapes = [(1,) * (len(shape) - len(s)) + s for s in shapes]
    if len(coeffs) * math.prod(shape) <= _BLOCK:
        powers = _power_rows(x, x * x, len(coeffs))
        factor_rows = _split(np.abs(powers - 1.0) ** 2, shapes)
        term = coeffs.reshape((-1,) + (1,) * len(shape))
        for f in factor_rows[:-1]:
            term = term * f
        out = np.empty((len(coeffs) + 1,) + shape)
        np.multiply(term, factor_rows[-1], out=out[1:])
        return _term_sums(out), tail
    return _product_tile(coeffs, x, shapes, shape), tail


def _product_tile(coeffs, x, shapes, shape):
    # the large-grid loop of _product_sum, one term at a time over the whole
    # grid: x holds its factors flat, of the given shapes, which broadcast to
    # shape; the power chains run on the bitwise-distinct values of x alone,
    # and each term gathers their weights back to every position of every
    # factor
    x, inverse = _distinct(x)
    step = x * x
    diff = np.empty_like(x)
    chain = np.empty(x.size)
    weight = np.empty(inverse.size)
    first, *rest = _split(weight, shapes)
    lead = np.empty(first.shape)
    acc = np.zeros(shape)
    term = np.empty(shape)
    for c in coeffs:
        np.subtract(x, 1.0, out=diff)
        np.abs(diff, out=chain)
        np.square(chain, out=chain)
        # clip: inverse is always in range, and mode "raise" would fill a
        # copy of weight and copy it back
        np.take(chain, inverse, out=weight, mode="clip")
        product = np.multiply(c, first, out=lead)
        for f in rest:
            product = np.multiply(product, f, out=term)
        acc += product
        np.multiply(x, step, out=x)
    return acc


def one_way_deficit_sum(k: int, p):
    """Cosine-series form of the single-leg deficit, for cross-checking."""
    acc, _ = _product_sum(k, [_as_phase_array(p)])
    return _maybe_scalar(acc, p)


def two_way_deficit(k: int, p, p_prime):
    """Out-and-stop trajectory, five-Q form:

        2 [2 Q(k,1) - 2 Q(k,p) + Q(k,p') - 2 Q(k,p p') + Q(k,p**2 p')].

    Vanishes exactly when p = 1 or p p' = 1.
    """
    p, pp = map(_as_phase_array, (p, p_prime))
    x, shapes = _flat(1.0, p, pp, p * pp, p * p * pp)
    q1, qp, qpp, qppp, qp2pp = _split(_q_flat(k, x), shapes)
    value = 2.0 * (2.0 * q1 - 2.0 * qp + qpp - 2.0 * qppp + qp2pp)
    return _maybe_scalar(value, p, pp)


def two_way_deficit_sum(k: int, p, p_prime):
    """Cosine-series form of the out-and-stop deficit, for cross-checking."""
    p, pp = map(_as_phase_array, (p, p_prime))
    acc, _ = _product_sum(k, [p, p * pp])
    return _maybe_scalar(acc, p, pp)


def round_trip_deficit(k: int, p, p_prime, p_dprime):
    """Full round trip; only the cosine-series product form is compact:

        sum_r a_kr |p**s - 1|**2 |(p p')**s - 1|**2 |(p**2 p' p'')**s - 1|**2.

    Vanishes exactly when p = 1, p p' = 1, or p**2 p' p'' = 1.
    """
    p, pp, ppp = map(_as_phase_array, (p, p_prime, p_dprime))
    acc, _ = _product_sum(k, [p, p * pp, p * p * pp * ppp])
    return _maybe_scalar(acc, p, pp, ppp)


# The coarsest float spacing a phase argument may have, in radians, so the
# phase stays below 2**33.  Just under it a massless one-way engine deficit
# at n_max = 40 errs by 9.3e-9 against the closed form (5.2e-9 from
# truncation alone).
_PHASE_SPACING = 1e-6

# The share of the heavy-field sum's reach, 2 pref sum_n amp_n, that modes
# whose phases a float cannot resolve may move it by.  Against a 40-digit sum
# at M = 1000, k = 1, the float sum errs by 3e-11 to 2e-9 of its reach for
# tau_bar from 5e7 to 2.5e9, so such modes add less than its own rounding.
_NOISE_SHARE = 1e-12


def _check_phase(largest: float, what: str) -> None:
    """Refuse a largest phase argument, in radians, that is not finite or
    whose float spacing exceeds _PHASE_SPACING: its cos and exp are noise."""
    if not math.ulp(abs(largest)) <= _PHASE_SPACING:
        raise ValueError(
            f"{what} reaches a phase of {largest:.3g} rad, where a float resolves "
            f"{math.ulp(abs(largest)):.3g} rad, above {_PHASE_SPACING:g} rad"
        )


def _massive_modes(k: int, M: float, delta: float, n_max: int):
    """The refusals of the heavy-field sum, and its dw, amp and pref."""
    if not M > 0:
        raise ValueError("the heavy-field limit needs M > 0; use the massless forms")
    if k < 1:
        raise ValueError(f"mode index must be >= 1, got {k}")
    if k / M > _MAX_K_OVER_M:
        raise ValueError(
            f"k/M = {k / M:.3g} is above {_MAX_K_OVER_M}, where the heavy-field "
            "limit is no longer accurate"
        )
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if n_max < 2 * k:
        raise ValueError(f"n_max must be at least 2k = {2 * k}, got {n_max}")
    try:
        m4 = M**4
    except OverflowError:
        m4 = math.inf
    if not m4 < math.inf:
        raise OverflowError(f"M = {M!r} is too large: M**4 overflows a float")
    start = 1 if k % 2 == 0 else 2
    n = np.arange(start, n_max + 1, 2, dtype=float)
    wk = math.sqrt(M * M + (math.pi * k) ** 2)
    wn = np.sqrt(M * M + (np.pi * n) ** 2)
    dw = (math.pi**2) * (k * k - n * n) / (wk + wn)
    amp = n * n / (k * k - n * n) ** 6
    pref = (256.0 * k * k / math.pi**8) * m4
    return dw, amp, pref


def _massive_reach(k: int, M: float, n_max: int) -> float:
    # the bound no duration exceeds, as each 1 - cos is at most 2
    _, amp, pref = _massive_modes(k, M, 1.0, n_max)
    return 2.0 * pref * float(np.sum(amp))


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
    tau_bar with period 4 M delta / pi.  A ratio k/M above 0.05, where the
    limit is no longer accurate, raises ValueError, and so does n_max below
    2k, the engine's rule k <= n_max / 2, as the sum would stop short of the
    modes around k that dominate it.  So does a tau_bar at which a mode that
    can move the sum by more than 1e-12 of its reach, 2 pref sum_n amp_n,
    has a cos argument that is not finite or that a float resolves more
    coarsely than 1e-6 rad.  The modes far from k, whose arguments are the
    largest, may be noise: each moves the sum by at most 2 pref amp_n.
    That reach, which no tau_bar exceeds, is the peak --estimate reports.
    An M whose fourth power overflows a float, an infinite M included,
    raises OverflowError.
    """
    dw, amp, pref = _massive_modes(k, M, delta, n_max)
    t = np.asarray(tau_bar, dtype=float)
    # the modes of largest |dw| whose weights add up to at most _NOISE_SHARE
    # of all may hold noise; the largest cos argument of the rest must
    # resolve, and inf and NaN fail too
    order = np.argsort(np.abs(dw))
    weight = np.cumsum(amp[order][::-1])[::-1]  # of a mode and all of larger |dw|
    need = abs(dw[order][np.count_nonzero(weight > _NOISE_SHARE * weight[0]) - 1])
    _check_phase(float(np.max(np.abs(t), initial=0.0) * need) / delta, "tau_bar")
    # the waveform matrix is built in place, so the pass holds one; the
    # product runs over the whole grid at once, as row blocks of it would
    # round differently
    osc = np.multiply.outer(t, dw)
    np.divide(osc, delta, out=osc)
    np.cos(osc, out=osc)
    np.subtract(1.0, osc, out=osc)
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
