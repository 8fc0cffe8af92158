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
survive truncation.

Storage convention: a transform acting as

    out_m = sum_n (alpha[m, n] * in_n + beta[m, n] * conj(in_n))

keeps row = outgoing mode m, column = ingoing mode n.  All matrices are dense
double precision: the boost builders and the zero blocks of the identity and
of free evolution are real, every other block, composition's included, is
complex.  First-order blocks are stored per unit h; the
``h_value`` field is bookkeeping metadata for callers that evaluate at a
specific h, and composition requires it to match.
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
    alpha2_diag: second-order diagonal of alpha, or None when unknown.
        Real for the boost builders; composition makes it complex.
    h_value: expansion parameter the transform is evaluated at; 1.0 denotes
        per-unit-h scaled storage.

    Arrays are frozen in place on construction; pass copies if you need to
    keep writing to them.
    """

    order0: np.ndarray
    alpha1: np.ndarray
    beta1: np.ndarray
    alpha2_diag: np.ndarray | None = None
    h_value: float = 1.0

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
        a2 = self.alpha2_diag
        if a2 is not None:
            a2 = np.asarray(a2)
            if a2.shape != (n,):
                raise ValueError(f"alpha2_diag must have length {n}, got {a2.shape}")
        for arr in (z, a1, b1, a2):
            if arr is not None:
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
        identity, or None when the transform carries no alpha2_diag.
    truncation: the n_max used.
    tail_estimate: estimated contribution of modes beyond n_max, from the
        cubic decay of the first-order entries.
    """

    order0_residual: float
    order1_residual: float
    order2_diag_residual: float | None
    truncation: int
    tail_estimate: float


def identity_transform(n_max: int, h_value: float = 1.0) -> PerturbativeTransform:
    """The do-nothing transform: unit phases, no mixing."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    zero = np.zeros((n_max, n_max))
    return PerturbativeTransform(
        np.ones(n_max, dtype=complex), zero, zero, np.zeros(n_max), h_value
    )


def _massless_entries(mm, nn):
    """First-order massless boost entries for broadcastable mode indices."""
    diff = mm - nn
    odd = diff % 2 != 0
    root = np.sqrt((mm * nn).astype(float))
    pi2 = math.pi**2
    safe_diff = np.where(odd, diff, 1).astype(float)
    total = (mm + nn).astype(float)
    # Cubes of integers by multiplication: the square is exact, so each cube
    # is rounded once, and for n_max up to 2e4 it equals ** 3 bit for bit at
    # a tenth of the cost.
    alpha1 = np.where(odd, -2.0 * root / (pi2 * (safe_diff * safe_diff * safe_diff)), 0.0)
    beta1 = np.where(odd, 2.0 * root / (pi2 * (total * total * total)), 0.0)
    return alpha1, beta1


def _massive_quartic(idx, M: float) -> np.ndarray:
    """(M**2 + pi**2 n**2)**(1/4) for the mode indices idx."""
    return (M * M + math.pi**2 * idx.astype(float) ** 2) ** 0.25


def _massive_entries(mm, nn, qm, qn, M: float):
    """First-order massive boost entries for broadcastable mode indices mm,
    nn and their quartic roots qm, qn."""
    odd = (mm - nn) % 2 != 0
    pi2 = math.pi**2
    pi4 = math.pi**4
    m2 = (mm * mm).astype(float)
    n2 = (nn * nn).astype(float)
    # cube in float: the integer cube overflows 64 bits near n_max ~ 2000
    cube = np.where(odd, m2 - n2, 1.0) ** 3
    common = np.where(odd, -4.0 * (mm * nn).astype(float) / (pi4 * cube), 0.0)
    ssum = common * (pi2 * (n2 + 3.0 * m2) + 4.0 * M * M) * qn / qm
    sdiff = common * (pi2 * (m2 + 3.0 * n2) + 4.0 * M * M) * qm / qn
    return 0.5 * (ssum + sdiff), 0.5 * (ssum - sdiff)


def _check_boost_args(n_max: int, M: float) -> None:
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if M < 0:
        raise ValueError(f"M must be non-negative, got {M}")


def massless_boost_transform(n_max: int) -> PerturbativeTransform:
    """Inertial-to-accelerated mode change for the massless field, per unit h.

    First-order entries (m != n, vanishing when m - n is even):

        alpha1[m, n] = sqrt(m n) (-1 + (-1)**(m-n)) / (pi**2 (m - n)**3)
        beta1[m, n]  = sqrt(m n) ( 1 - (-1)**(m-n)) / (pi**2 (m + n)**3)

    so alpha1 is real antisymmetric and beta1 real symmetric.  The known
    second-order diagonal is alpha2_diag[n] = -pi**2 n**2 / 240.
    """
    _check_boost_args(n_max, 0.0)
    idx = np.arange(1, n_max + 1)
    alpha1, beta1 = _massless_entries(idx[:, None], idx[None, :])
    nf = idx.astype(float)
    alpha2_diag = -(math.pi**2 / 240.0) * nf**2
    return PerturbativeTransform(
        np.ones(n_max, dtype=complex), alpha1, beta1, alpha2_diag, 1.0
    )


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
    _check_boost_args(n_max, M)
    idx = np.arange(1, n_max + 1)
    quart = _massive_quartic(idx, M)
    alpha1, beta1 = _massive_entries(
        idx[:, None], idx[None, :], quart[:, None], quart[None, :], M
    )
    pi2 = math.pi**2
    pi4 = math.pi**4
    nf = idx.astype(float)
    M2 = M * M
    # The closing M**4 term is forced by the first identity at second order:
    # the primed column sums of alpha1**2 - beta1**2 cancel the diagonal only
    # with it included.
    alpha2_diag = -(
        pi2 * nf**2 / 240.0
        + M2 / 120.0
        + M2 * (M2 - 5.0) / (240.0 * pi2 * nf**2)
        + M2 * (M2 - 24.0) / (96.0 * pi4 * nf**4)
        - 7.0 * M2 * M2 / (16.0 * math.pi**6 * nf**6)
    )
    return PerturbativeTransform(
        np.ones(n_max, dtype=complex), alpha1, beta1, alpha2_diag, 1.0
    )


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
    idx = np.arange(1, n_max + 1)
    if M == 0:
        return _massless_entries(idx, idx[k - 1])
    quart = _massive_quartic(idx, M)
    return _massive_entries(idx, idx[k - 1], quart, quart[k - 1], M)


def phase_rotation(
    duration: float, frequencies, n_max: int, h_value: float = 1.0
) -> PerturbativeTransform:
    """Free evolution for a proper duration over the given mode spectrum.

    Pure phases z_n = exp(i frequencies[n] duration), no particle creation:
    the first-order blocks are zero and the second-order diagonal vanishes
    identically.
    """
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.size < n_max:
        raise ValueError(
            f"need a frequency for every retained mode, got {freqs.size} < {n_max}"
        )
    z = np.exp(1j * freqs[:n_max] * duration)
    zero = np.zeros((n_max, n_max))
    return PerturbativeTransform(z, zero, zero, np.zeros(n_max), h_value)


def compose(
    second: PerturbativeTransform, first: PerturbativeTransform
) -> PerturbativeTransform:
    """Apply ``first`` then ``second``, truncated at the retained orders.

    The chain rule for transforms acting as out = A in + B conj(in) is
    A = A2 A1 + B2 conj(B1), B = A2 B1 + B2 conj(A1); expanded order by
    order this keeps the off-diagonal blocks first order and the alpha
    diagonal through second order.  The second-order diagonal is propagated
    when both operands carry one and dropped otherwise.  The blocks of the
    result are complex.
    """
    return _compose(second, first, 1)


def _compose(
    second: PerturbativeTransform, first: PerturbativeTransform, sign: int
) -> PerturbativeTransform:
    """compose() with the first-order blocks of ``second`` taken times sign,
    +1 or -1, without forming them.  Negation is exact, so sign -1 gives the
    values of composing the negated transform; the second-order diagonal of
    ``second`` enters unchanged, as it does for a boost leg of either sign.
    """
    if second.n_max != first.n_max:
        raise ValueError(
            f"size mismatch: {second.n_max} vs {first.n_max} modes"
        )
    if second.h_value != first.h_value:
        raise ValueError(
            f"h_value mismatch: {second.h_value} vs {first.h_value}"
        )
    z2 = second.order0
    z1 = first.order0
    order0 = z2 * z1
    # the sign rides on the phase vectors, whose negation is exact and cheap
    z1s = z1 if sign == 1 else -z1
    alpha1 = z2[:, None] * first.alpha1 + second.alpha1 * z1s[None, :]
    beta1 = z2[:, None] * first.beta1 + second.beta1 * np.conj(z1s)[None, :]
    alpha2 = None
    if second.alpha2_diag is not None and first.alpha2_diag is not None:
        cross_a = np.einsum("nm,mn->n", second.alpha1, first.alpha1)
        cross_b = np.einsum("nm,mn->n", second.beta1, np.conj(first.beta1))
        if sign != 1:
            cross_a, cross_b = -cross_a, -cross_b
        alpha2 = z2 * first.alpha2_diag + second.alpha2_diag * z1 + cross_a + cross_b
    return PerturbativeTransform(order0, alpha1, beta1, alpha2, first.h_value)


def inverse(t: PerturbativeTransform) -> PerturbativeTransform:
    """Two-sided inverse at the retained orders: (alpha+, -beta^T)."""
    alpha2 = None if t.alpha2_diag is None else np.conj(t.alpha2_diag)
    return PerturbativeTransform(
        np.conj(t.order0),
        np.conj(t.alpha1).T,
        -t.beta1.T,
        alpha2,
        t.h_value,
    )


def check_identities(t: PerturbativeTransform) -> IdentityResidual:
    """Residuals of the Bogoliubov identities, collected per order in h.

    Order zero checks |z_n| = 1.  Order one checks the off-diagonal blocks:

        z_m conj(alpha1[n, m]) + alpha1[m, n] conj(z_n) = 0
        z_m beta1[n, m] - beta1[m, n] z_n = 0

    At second order only the diagonal of the number-conserving identity is
    known, requiring for each n

        sum_{m != n} (|alpha1[m, n]|**2 - |beta1[m, n]|**2)
            + 2 Re(conj(z_n) alpha2_diag[n]) = 0,

    evaluated for n up to n_max / 2 so the truncated column sums retain
    headroom; transforms without alpha2_diag report None there.
    """
    z = t.order0
    a1 = t.alpha1
    b1 = t.beta1
    n_max = t.n_max
    order0 = float(np.max(np.abs(np.abs(z) ** 2 - 1.0)))
    r1 = z[:, None] * np.conj(a1.T) + a1 * np.conj(z)[None, :]
    r2 = z[:, None] * b1.T - b1 * z[None, :]
    order1 = float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))
    del r1, r2
    upto = max(1, n_max // 2)
    if t.alpha2_diag is None:
        order2 = None
    else:
        power = np.abs(a1) ** 2 - np.abs(b1) ** 2
        col = power.sum(axis=0) - np.diagonal(power)
        resid = col + 2.0 * np.real(np.conj(z) * t.alpha2_diag)
        order2 = float(np.max(np.abs(resid[:upto])))
    # Entry magnitudes fall off like m**-5, so each neglected column sum is
    # roughly the local row mean times n_max/4; the block average irons out
    # parity blanks and interference phases, factor 3 for their drift.  Only
    # columns the diagonal residual actually inspects matter; near-diagonal
    # columns further right hold order-one entries.
    rows = min(20, n_max)
    last = np.abs(a1[-rows:, :upto]) ** 2 + np.abs(b1[-rows:, :upto]) ** 2
    tail = float(3.0 * last.mean(axis=0).max() * n_max / 4.0) if n_max >= 2 else 0.0
    return IdentityResidual(order0, order1, order2, n_max, tail)

