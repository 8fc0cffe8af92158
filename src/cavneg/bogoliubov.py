"""Perturbative Bogoliubov transforms between inertial and boosted cavity bases.

A sudden change between the inertial mode basis and the uniformly accelerated
one mixes cavity modes.  For small dimensionless acceleration h the mixing
matrices have the expansion

    alpha = diag(z_1, z_2, ...) + h alpha1 + O(h**2)
    beta  =                       h beta1  + O(h**2)

with the second-order correction known on the diagonal of alpha only.  This
module builds those coefficient blocks for the massless and massive boost,
represents free evolution as pure phases, composes and inverts transforms
order by order, and measures how well the canonical-commutation identities
survive truncation, by two readers that share no line: check_identities,
plain whole-matrix expressions on a built transform, and _boost_residuals,
which reads the boost's row blocks straight from the entry kernel without
building it and is checked bit for bit against the first.

Storage convention: a transform acting as

    out_m = sum_n (alpha[m, n] * in_n + beta[m, n] * conj(in_n))

keeps row = outgoing mode m, column = ingoing mode n.  All matrices are dense
double precision: the boost builders and the zero blocks of the identity and
of free evolution are real, every other block, composition's included, is
complex.  Every transform is stored per unit h: the first-order blocks
carry one power of h and the second-order diagonal two, so a caller scales
by its own h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PerturbativeTransform",
    "IdentityResidual",
    "identity_transform",
    "massless_boost_transform",
    "massive_boost_transform",
    "boost_column",
    "phase_rotation",
    "compose",
    "inverse",
    "check_identities",
]


def _as_block(block) -> np.ndarray:
    # real boost blocks take half the memory of complex ones, and numpy casts
    # them to complex inside every mixed operation, so the results keep their
    # bits
    arr = np.asarray(block)
    return arr if arr.dtype == np.float64 else np.asarray(arr, dtype=complex)


@dataclass(frozen=True, eq=False)
class PerturbativeTransform:
    """One Bogoliubov pair held order by order in h.

    order0: unit-modulus phases z_n, length n_max.
    alpha1: first-order block of alpha per unit h, n_max x n_max; a float64
        block stays real, anything else is cast to complex.
    beta1: first-order block of beta per unit h, same shape and rule.
    alpha2_diag: second-order diagonal of alpha per unit h**2, length n_max.
        Real for the boost builders; composition makes it complex.

    Arrays are frozen in place on construction; pass copies if you need to
    keep writing to them.
    """

    order0: np.ndarray
    alpha1: np.ndarray
    beta1: np.ndarray
    alpha2_diag: np.ndarray

    def __post_init__(self) -> None:
        z = np.asarray(self.order0, dtype=complex)
        a1 = _as_block(self.alpha1)
        b1 = _as_block(self.beta1)
        if z.ndim != 1:
            raise ValueError("order0 must be a one dimensional phase vector")
        n = z.size
        if a1.shape != (n, n) or b1.shape != (n, n):
            raise ValueError(
                f"alpha1 and beta1 must be {n} x {n} to match order0, "
                f"got {a1.shape} and {b1.shape}"
            )
        a2 = np.asarray(self.alpha2_diag)
        if a2.shape != (n,):
            raise ValueError(f"alpha2_diag must have length {n}, got {a2.shape}")
        for arr in (z, a1, b1, a2):
            arr.setflags(write=False)
        object.__setattr__(self, "order0", z)
        object.__setattr__(self, "alpha1", a1)
        object.__setattr__(self, "beta1", b1)
        object.__setattr__(self, "alpha2_diag", a2)

    @property
    def n_max(self) -> int:
        return self.order0.size


@dataclass(frozen=True)
class IdentityResidual:
    """Max-norm deviations from the two Bogoliubov identities, per order in h.

    order0_residual: deviation of |z_n|**2 from one.
    order1_residual: first-order deviation of alpha alpha+ - beta beta+ = 1
        and alpha beta^T - beta alpha^T = 0, combined.
    order2_diag_residual: second-order deviation on the diagonal of the first
        identity.
    tail_estimate: estimated contribution of modes beyond n_max, from the
        cubic decay of the first-order entries.
    """

    order0_residual: float
    order1_residual: float
    order2_diag_residual: float
    tail_estimate: float


def identity_transform(n_max: int) -> PerturbativeTransform:
    """The do-nothing transform: unit phases, no mixing."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    zero = np.zeros((n_max, n_max))
    return PerturbativeTransform(
        np.ones(n_max, dtype=complex), zero, zero, np.zeros(n_max)
    )


def _cube(x, out=None):
    """x**3 for a float array of exact integers.  While x * x stays exact,
    below 2**53, the cube is rounded once: correctly rounded and odd in x,
    where numpy's ** 3 misrounds a few percent of such entries.  out, when
    given, receives x * x and then the cube."""
    out = np.multiply(x, x, out=out)
    return np.multiply(out, x, out=out)


def _massive_quartic(modes, M: float) -> np.ndarray:
    """(M**2 + pi**2 n**2)**(1/4) for the float mode numbers modes."""
    return (M * M + math.pi**2 * modes**2) ** 0.25


def _odd_lattice(n_max: int, M: float | None, size: int):
    """The first-order boost entries per unit h on the odd lattice, the
    mode pairs m, n whose difference is odd, which holds every nonzero
    entry: massless for M None, for the mass M otherwise.

    Returns fill(r, c, alpha1, beta1, transpose=False).  It writes into the
    writable views alpha1 and beta1, of one shape and at most size entries,
    the entries alpha1[m, n] and beta1[m, n] of the outgoing modes m = r,
    r + 2, ... down their rows and the ingoing modes n = c, c + 2, ...
    across their columns, r - c odd.  With transpose m and n swap places,
    so the views receive entries of alpha1.T and beta1.T.  The scratch of
    fill is allocated here, once.

    Every entry has the bits of the formulas of massless_boost_transform
    and massive_boost_transform evaluated on it alone, operation by
    operation in the same order, only with every operand a whole block.
    The massless denominators pi**2 d**3 depend on d = m - n alone, or on
    d = -(m + n) for beta1, where both signs flip exactly; so one table
    over the odd d holds them, and a view of it with unit strides is the
    Toeplitz or Hankel matrix of a block's denominators.
    """
    modes = np.arange(1.0, n_max + 1.0)
    pi2 = math.pi**2
    if M is None:
        # pi**2 d**3 for the odd d from 1 - 2 n_max to 2 n_max - 1, which
        # cover every m - n and -(m + n); d sits at (d + 2 n_max - 1) / 2
        table = pi2 * _cube(np.arange(1.0 - 2 * n_max, 2.0 * n_max, 2.0))
        table.setflags(write=False)
        item = table.itemsize
        root = np.empty(size)

        def denominators(d, steps, shape):
            # [i, j] holds pi**2 (d + 2 steps[0] i + 2 steps[1] j)**3;
            # ndarray refuses a view that leaves the table
            offset = (d + 2 * n_max - 1) // 2 * item
            return np.ndarray(shape, float, table, offset, (steps[0] * item, steps[1] * item))

        def fill(r, c, alpha1, beta1, transpose=False):
            rows, cols = alpha1.shape
            num = root[: rows * cols].reshape(rows, cols)
            np.multiply(modes[r - 1 :: 2][:rows, None], modes[c - 1 :: 2][None, :cols], out=num)
            np.sqrt(num, out=num)
            np.multiply(-2.0, num, out=num)
            sign = -1 if transpose else 1
            np.divide(num, denominators(sign * (r - c), (sign, -sign), num.shape), out=alpha1)
            np.divide(num, denominators(-(r + c), (-1, -1), num.shape), out=beta1)

        return fill

    quart = _massive_quartic(modes, M)
    squares = modes * modes
    triples = 3.0 * squares
    pi4 = math.pi**4
    four_m2 = 4.0 * M * M
    scratch = np.empty((3, size))

    def fill(r, c, alpha1, beta1, transpose=False):
        rows, cols = alpha1.shape
        m = np.s_[r - 1 : r - 1 + 2 * rows : 2, None]
        n = np.s_[None, c - 1 : c - 1 + 2 * cols : 2]
        if transpose:
            m, n = n, m
        common, ssum, sdiff = (s[: rows * cols].reshape(rows, cols) for s in scratch)
        # common = -4 m n / (pi**4 (m**2 - n**2)**3), the cube in float, as
        # the integer cube overflows 64 bits near n_max ~ 2000; x * x is
        # exact for n_max below 9700, and the exact cube keeps alpha1
        # antisymmetric and beta1 symmetric bit for bit
        _cube(np.subtract(squares[m], squares[n], out=common), out=ssum)
        np.multiply(pi4, ssum, out=ssum)
        np.multiply(modes[m], modes[n], out=common)
        np.multiply(-4.0, common, out=common)
        np.divide(common, ssum, out=common)
        # ssum = common (pi**2 (n**2 + 3 m**2) + 4 M**2) q_n / q_m and
        # sdiff the same with m and n swapped
        for out, a, b in ((ssum, n, m), (sdiff, m, n)):
            np.add(squares[a], triples[b], out=out)
            np.multiply(pi2, out, out=out)
            np.add(out, four_m2, out=out)
            np.multiply(common, out, out=out)
            np.multiply(out, quart[a], out=out)
            np.divide(out, quart[b], out=out)
        np.multiply(0.5, np.add(ssum, sdiff, out=alpha1), out=alpha1)
        np.multiply(0.5, np.subtract(ssum, sdiff, out=beta1), out=beta1)

    return fill


def _check_boost_args(n_max: int, M: float) -> None:
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if not M >= 0:
        raise ValueError(f"M must be non-negative, got {M}")


_ROW_BLOCK = 64  # rows per block of the boost entries and of _boost_residuals


def _boost_blocks(n_max: int, M: float | None, transpose: bool = False):
    """Yield (rows, alpha1[rows], beta1[rows]) of the first-order boost
    blocks per unit h, _ROW_BLOCK rows at a time, as real arrays: massless
    for M None, for the mass M otherwise.  With transpose the blocks are
    rows of alpha1.T and beta1.T instead.

    The blocks are one pair of buffers, rewritten in place for every row
    block: a yielded block holds its values only until the next block is
    drawn, so copy it to keep it longer.  _odd_lattice writes the odd
    lattice alone, each row parity meeting the columns of the other; the
    buffers start at zero, and since every row block starts on an even
    row, the zeros of the even lattice stay where they are.  Each entry has
    the bits of the entry formulas evaluated on the whole matrix, while the
    scratch stays the size of half a block.
    """
    _check_boost_args(n_max, 0.0 if M is None else M)
    height = min(_ROW_BLOCK, n_max)
    fill = _odd_lattice(n_max, M, (height + 1) // 2 * ((n_max + 1) // 2))
    alpha1 = np.zeros((height, n_max))
    beta1 = np.zeros_like(alpha1)
    for start in range(0, n_max, _ROW_BLOCK):
        rows = slice(start, min(start + _ROW_BLOCK, n_max))
        a, b = alpha1[: rows.stop - start], beta1[: rows.stop - start]
        for first in (0, 1):
            r = start + first + 1  # the mode of the first row of this parity
            c = 1 + r % 2  # the first mode of the other parity
            fill(r, c, a[first::2, c - 1 :: 2], b[first::2, c - 1 :: 2], transpose)
        yield rows, a, b


def _boost_alpha2_diag(n_max: int, M: float | None) -> np.ndarray:
    """Second-order diagonal of alpha per unit h**2, length n_max: massless
    for M None, for the mass M otherwise."""
    nf = np.arange(1, n_max + 1, dtype=float)
    pi2 = math.pi**2
    if M is None:
        return -(pi2 / 240.0) * nf**2
    pi4 = math.pi**4
    M2 = M * M
    # The closing M**4 term is forced by the first identity at second order:
    # the primed column sums of alpha1**2 - beta1**2 cancel the diagonal only
    # with it included.
    return -(
        pi2 * nf**2 / 240.0
        + M2 / 120.0
        + M2 * (M2 - 5.0) / (240.0 * pi2 * nf**2)
        + M2 * (M2 - 24.0) / (96.0 * pi4 * nf**4)
        - 7.0 * M2 * M2 / (16.0 * math.pi**6 * nf**6)
    )


def _boost_transform(n_max: int, M: float | None) -> PerturbativeTransform:
    """The boost of _boost_blocks(n_max, M), each row block copied into
    place."""
    _check_boost_args(n_max, 0.0 if M is None else M)  # before allocating
    alpha1 = np.empty((n_max, n_max))
    beta1 = np.empty((n_max, n_max))
    for rows, a, b in _boost_blocks(n_max, M):
        alpha1[rows] = a
        beta1[rows] = b
    return PerturbativeTransform(
        np.ones(n_max, dtype=complex), alpha1, beta1, _boost_alpha2_diag(n_max, M)
    )


def massless_boost_transform(n_max: int) -> PerturbativeTransform:
    """Inertial-to-accelerated mode change for the massless field, per unit h.

    First-order entries (m != n, vanishing when m - n is even):

        alpha1[m, n] = sqrt(m n) (-1 + (-1)**(m-n)) / (pi**2 (m - n)**3)
        beta1[m, n]  = sqrt(m n) ( 1 - (-1)**(m-n)) / (pi**2 (m + n)**3)

    so alpha1 is real antisymmetric and beta1 real symmetric.  The known
    second-order diagonal is alpha2_diag[n] = -pi**2 n**2 / 240.
    """
    return _boost_transform(n_max, None)


def massive_boost_transform(n_max: int, M: float) -> PerturbativeTransform:
    """Inertial-to-accelerated mode change for field mass M, per unit h.

    The first-order blocks come from the sum and difference combinations
    (m != n, vanishing when m - n is even):

        (alpha1 + beta1)[m, n] = 2 m n (-1 + (-1)**(m-n))
            * (pi**2 (n**2 + 3 m**2) + 4 M**2)
            * (M**2 + pi**2 n**2)**(1/4)
            / (pi**4 (m**2 - n**2)**3 (M**2 + pi**2 m**2)**(1/4))

    and the same with the bracket indices swapped and the quartic roots
    inverted for the difference, which keeps alpha1 antisymmetric and beta1
    symmetric.  The diagonal of beta is second order and not tracked.
    """
    return _boost_transform(n_max, M)


def _boost(n_max: int, M: float) -> PerturbativeTransform:
    """The boost for field mass M: massless_boost_transform at M = 0."""
    if M == 0:
        return massless_boost_transform(n_max)
    return massive_boost_transform(n_max, M)


def boost_column(n_max: int, k: int, M: float = 0.0):
    """Column k of the first-order boost blocks, per unit h.

    Returns the real vectors (alpha1[:, k-1], beta1[:, k-1]) of
    massless_boost_transform (M = 0) or massive_boost_transform (M > 0),
    evaluated from the same entry formulas in O(n_max) without the
    n_max x n_max blocks.
    """
    _check_boost_args(n_max, M)
    if not 1 <= k <= n_max:
        raise ValueError(f"k must satisfy 1 <= k <= n_max = {n_max}, got {k}")
    alpha1 = np.zeros(n_max)
    beta1 = np.zeros(n_max)
    r = 1 + k % 2  # the first mode of the other parity
    fill = _odd_lattice(n_max, None if M == 0 else M, (n_max + 1) // 2)
    fill(r, k, alpha1[r - 1 :: 2, None], beta1[r - 1 :: 2, None])
    return alpha1, beta1


def phase_rotation(duration: float, frequencies) -> PerturbativeTransform:
    """Free evolution for a proper duration over the given mode spectrum,
    one frequency per retained mode.

    Pure phases z_n = exp(i frequencies[n] duration), no particle creation:
    the first-order blocks are zero and the second-order diagonal vanishes
    identically.
    """
    z = np.exp(1j * np.asarray(frequencies, dtype=float) * duration)
    zero = np.zeros((z.size, z.size))
    return PerturbativeTransform(z, zero, zero, np.zeros(z.size))


def compose(
    second: PerturbativeTransform, first: PerturbativeTransform
) -> PerturbativeTransform:
    """Apply ``first`` then ``second``, truncated at the retained orders.

    The chain rule for transforms acting as out = A in + B conj(in) is
    A = A2 A1 + B2 conj(B1), B = A2 B1 + B2 conj(A1); expanded order by
    order this keeps the off-diagonal blocks first order and the alpha
    diagonal through second order.  The blocks of the result are complex.
    """
    if second.n_max != first.n_max:
        raise ValueError(
            f"size mismatch: {second.n_max} vs {first.n_max} modes"
        )
    z2, a2, b2, d2 = second.order0, second.alpha1, second.beta1, second.alpha2_diag
    z1, a1, b1, d1 = first.order0, first.alpha1, first.beta1, first.alpha2_diag
    return PerturbativeTransform(
        z2 * z1,
        z2[:, None] * a1 + a2 * z1[None, :],
        z2[:, None] * b1 + b2 * np.conj(z1)[None, :],
        z2 * d1 + d2 * z1
        + np.einsum("nm,mn->n", a2, a1)
        + np.einsum("nm,mn->n", b2, np.conj(b1)),
    )


def inverse(t: PerturbativeTransform) -> PerturbativeTransform:
    """Two-sided inverse at the retained orders: (alpha+, -beta^T)."""
    return PerturbativeTransform(
        np.conj(t.order0),
        np.conj(t.alpha1).T,
        -t.beta1.T,
        np.conj(t.alpha2_diag),
    )


TAIL_ROWS = 20


def _truncation_tail(last, n_max: int):
    """Weight of the modes beyond n_max, per column, from the weights of the
    last TAIL_ROWS retained modes, or of all when fewer (the rows of last).
    Entries fall off like m**-5, so a neglected column sum is roughly their
    mean times n_max/4; the block mean irons out parity blanks and
    interference phases, and the factor 3 absorbs their drift."""
    return 3.0 * last.mean(axis=0) * n_max / 4.0


def check_identities(t: PerturbativeTransform) -> IdentityResidual:
    """Residuals of the Bogoliubov identities, collected per order in h.

    Order zero checks |z_n| = 1.  Order one checks the off-diagonal blocks:

        z_m conj(alpha1[n, m]) + alpha1[m, n] conj(z_n) = 0
        z_m beta1[n, m] - beta1[m, n] z_n = 0

    At second order only the diagonal of the number-conserving identity is
    known, requiring for each n

        sum_m (|alpha1[m, n]|**2 - |beta1[m, n]|**2)
            + 2 Re(conj(z_n) alpha2_diag[n]) = 0,

    evaluated for n up to n_max / 2 so the truncated column sums retain
    headroom.  The sum runs over all m: the h**2 term of |alpha[n, n]|**2
    holds |alpha1[n, n]|**2 too, which vanishes for every transform built
    here.  Plain whole-matrix expressions, kept as the reference that
    polices _boost_residuals.  The order-one residuals take complex
    n_max x n_max temporaries: 128 MB traced at n_max 2000.
    """
    z, a1, b1, n_max = t.order0, t.alpha1, t.beta1, t.n_max
    upto = max(1, n_max // 2)
    r1 = np.abs(z[:, None] * np.conj(a1.T) + a1 * np.conj(z)[None, :]).max()
    r2 = np.abs(z[:, None] * b1.T - b1 * z[None, :]).max()
    power = np.abs(a1[:, :upto]) ** 2 - np.abs(b1[:, :upto]) ** 2
    resid = power.sum(axis=0) + 2.0 * np.real(np.conj(z[:upto]) * t.alpha2_diag[:upto])
    last = np.abs(a1[-TAIL_ROWS:, :upto]) ** 2 + np.abs(b1[-TAIL_ROWS:, :upto]) ** 2
    return IdentityResidual(
        float(np.max(np.abs(np.abs(z) ** 2 - 1.0))),
        float(np.maximum(r1, r2)),
        float(np.max(np.abs(resid))),
        float(_truncation_tail(last, n_max).max()) if n_max >= 2 else 0.0,
    )


def _boost_residuals(n_max: int, M: float) -> IdentityResidual:
    """check_identities(_boost(n_max, M)), read off the entry formulas a row
    block at a time, without the n_max x n_max blocks, into one float
    scratch block allocated once.  A boost's phases are ones and its blocks
    real, so the order-one residuals are at + a and bt - b and the
    second-order diagonal enters as it is, with the bits of the products
    with ones.  The order-one maxima are exact whatever the blocking; order
    two adds each column row by row, as numpy's axis-0 sum over a C-ordered
    matrix does, so it keeps those bits too."""
    mass = None if M == 0 else M  # the formulas _boost takes
    upto = max(1, n_max // 2)
    # the moduli of a residual block, and side by side |alpha1|**2 and
    # |beta1|**2 of its first upto columns
    moduli = np.empty((min(_ROW_BLOCK, n_max), max(n_max, 2 * upto)))
    worst = []
    col = np.zeros(upto)
    last = []
    blocks = zip(_boost_blocks(n_max, mass), _boost_blocks(n_max, mass, transpose=True))
    for (rows, a, b), (_, at, bt) in blocks:
        h = len(a)
        mod = moduli[:h, :n_max]
        worst.append(np.abs(np.add(at, a, out=mod), out=mod).max())
        worst.append(np.abs(np.subtract(bt, b, out=mod), out=mod).max())
        power, beta_sq = moduli[:h, :upto], moduli[:h, upto : 2 * upto]
        np.square(np.abs(a[:, :upto], out=power), out=power)
        np.square(np.abs(b[:, :upto], out=beta_sq), out=beta_sq)
        # Only columns the diagonal residual inspects matter; near-diagonal
        # columns further right hold order-one entries.
        skip = max(0, n_max - TAIL_ROWS - rows.start)
        if skip < h:
            last.append(power[skip:] + beta_sq[skip:])
        for row in np.subtract(power, beta_sq, out=power):
            col += row
    resid = col + 2.0 * _boost_alpha2_diag(n_max, mass)[:upto]
    tail = float(_truncation_tail(np.concatenate(last), n_max).max())
    return IdentityResidual(0.0, float(np.max(worst)), float(np.max(np.abs(resid))), tail)
