"""Mode-mixing coefficients, composition algebra and the order-by-order
identities.

Reference entries were computed independently from the printed coefficient
formulas at 40 decimal digits and frozen here.
"""

import math

import numpy as np
import pytest

from cavneg.bogoliubov import (
    PerturbativeTransform,
    _boost_blocks,
    _cube,
    boost_column,
    check_identities,
    compose,
    identity_transform,
    inverse,
    massive_boost_transform,
    massless_boost_transform,
    phase_rotation,
)


def test_massless_entries():
    t = massless_boost_transform(8)
    # alpha1[2,1] = -2 sqrt(2)/pi^2, beta1[2,1] = 2 sqrt(2)/(27 pi^2)
    assert t.alpha1[1, 0].real == pytest.approx(-0.28657958412537813, rel=1e-14)
    assert t.beta1[1, 0].real == pytest.approx(0.010614058671310301, rel=1e-14)
    assert np.all(t.order0 == 1.0)


def test_massless_parity_blanks_even_gaps():
    t = massless_boost_transform(12)
    m, n = np.indices((12, 12)) + 1
    even_gap = (m - n) % 2 == 0
    assert np.all(t.alpha1[even_gap] == 0)
    assert np.all(t.beta1[even_gap] == 0)


def test_massless_symmetry():
    t = massless_boost_transform(30)
    np.testing.assert_array_equal(t.alpha1, -t.alpha1.T)
    np.testing.assert_array_equal(t.beta1, t.beta1.T)
    assert np.all(t.alpha1.imag == 0) and np.all(t.beta1.imag == 0)


def test_massless_diagonal_correction():
    t = massless_boost_transform(5)
    # -pi^2 n^2 / 240
    expected = -(math.pi**2) / 240.0 * np.arange(1, 6) ** 2
    np.testing.assert_allclose(t.alpha2_diag.real, expected, rtol=1e-15)


@pytest.mark.parametrize("M", [0.0, 5.0, 1e3])
def test_boost_column_is_matrix_column(M):
    n_max = 300
    t = massless_boost_transform(n_max) if M == 0 else massive_boost_transform(n_max, M)
    for k in (1, 2, 7, n_max):
        a, b = boost_column(n_max, k, M)
        np.testing.assert_array_equal(a, t.alpha1[:, k - 1].real)
        np.testing.assert_array_equal(b, t.beta1[:, k - 1].real)
    with pytest.raises(ValueError):
        boost_column(n_max, n_max + 1, M)
    with pytest.raises(ValueError):
        boost_column(1, 1, M)


# The entry formulas as the builders once ran them: masked whole-array
# expressions over broadcastable mode indices, zeros where m - n is even.
# They stay here as the bitwise reference of the odd-lattice kernel.


def _massless_entries(mm, nn):
    diff = mm - nn
    odd = diff % 2 != 0
    root = np.sqrt((mm * nn).astype(float))
    pi2 = math.pi**2
    safe_diff = np.where(odd, diff, 1).astype(float)
    total = (mm + nn).astype(float)
    alpha1 = np.where(odd, -2.0 * root / (pi2 * _cube(safe_diff)), 0.0)
    beta1 = np.where(odd, 2.0 * root / (pi2 * _cube(total)), 0.0)
    return alpha1, beta1


def _massive_quartic(idx, M):
    return (M * M + math.pi**2 * idx.astype(float) ** 2) ** 0.25


def _massive_entries(mm, nn, qm, qn, M):
    odd = (mm - nn) % 2 != 0
    pi2 = math.pi**2
    pi4 = math.pi**4
    m2 = (mm * mm).astype(float)
    n2 = (nn * nn).astype(float)
    cube = _cube(np.where(odd, m2 - n2, 1.0))
    common = np.where(odd, -4.0 * (mm * nn).astype(float) / (pi4 * cube), 0.0)
    ssum = common * (pi2 * (n2 + 3.0 * m2) + 4.0 * M * M) * qn / qm
    sdiff = common * (pi2 * (m2 + 3.0 * n2) + 4.0 * M * M) * qm / qn
    return 0.5 * (ssum + sdiff), 0.5 * (ssum - sdiff)


def _reference_entries(n_max, M, rows=slice(None), cols=slice(None)):
    # alpha1[rows, cols] and beta1[rows, cols] from the masked formulas;
    # every operation is elementwise, so a slice has the bits of the whole
    idx = np.arange(1, n_max + 1)
    m, n = np.s_[rows, None], np.s_[None, cols]
    if M is None:
        return _massless_entries(idx[m], idx[n])
    quart = _massive_quartic(idx, M)
    return _massive_entries(idx[m], idx[n], quart[m], quart[n], M)


@pytest.mark.parametrize("M", [None, 0.0, 10.0, 1000.0])
@pytest.mark.parametrize("n_max", [2, 3, 63, 64, 65, 130, 500, 2000])
def test_boost_builders_equal_the_whole_matrix_formulas(n_max, M):
    # one kernel on the odd lattice fills the built boost, every row block
    # of _boost_blocks in both orientations and boost_column, reading its
    # massless denominators from one table through Toeplitz and Hankel
    # views; entry by entry each keeps the bits of the masked formulas on
    # the whole matrix, zeros of the even lattice included.  None is the
    # massless formulas, 0.0 the massive ones at zero mass
    t = massless_boost_transform(n_max) if M is None else massive_boost_transform(n_max, M)
    assert t.alpha1.dtype == t.beta1.dtype == np.float64
    for lo in range(0, n_max, 500):  # row chunks keep the reference small
        rows = slice(lo, lo + 500)
        alpha1, beta1 = _reference_entries(n_max, M, rows)
        assert _same_bits(t.alpha1[rows], alpha1) and _same_bits(t.beta1[rows], beta1)
    # the row blocks and the columns against the built boost, now pinned
    for transpose in (False, True):
        covered = 0
        for rows, a, b in _boost_blocks(n_max, M, transpose):
            alpha1, beta1 = t.alpha1[rows], t.beta1[rows]
            if transpose:
                alpha1, beta1 = t.alpha1[:, rows].T, t.beta1[:, rows].T
            assert _same_bits(a, alpha1) and _same_bits(b, beta1), (rows, transpose)
            assert rows.start == covered
            covered = rows.stop
        assert covered == n_max
    if M == 0.0:
        return  # boost_column takes the massless formulas at M = 0
    half = n_max // 2
    for k in range(1, n_max + 1) if n_max <= 130 else (1, 2, 3, half - 1, half):
        a, b = boost_column(n_max, k, 0.0 if M is None else M)
        assert _same_bits(a, t.alpha1[:, k - 1]) and _same_bits(b, t.beta1[:, k - 1]), k


def test_massive_entries():
    t = massive_boost_transform(8, 5.0)
    assert t.alpha1[1, 0].real == pytest.approx(-0.59764383338141867, rel=1e-14)
    assert t.beta1[1, 0].real == pytest.approx(0.0021187676574255946, rel=1e-13)
    assert t.alpha2_diag[0].real == pytest.approx(-0.17879676428389878, rel=1e-14)


def test_massive_keeps_symmetry():
    t = massive_boost_transform(30, 7.0)
    np.testing.assert_allclose(t.alpha1, -t.alpha1.T, atol=1e-18)
    np.testing.assert_allclose(t.beta1, t.beta1.T, atol=1e-18)


@pytest.mark.parametrize("n_max", [500, 2000])
@pytest.mark.parametrize("M", [10.0, 1000.0])
def test_massive_symmetry_is_exact(M, n_max):
    # a correctly rounded cube of m**2 - n**2 is odd in it, so the blocks
    # are antisymmetric and symmetric bit for bit
    t = massive_boost_transform(n_max, M)
    assert np.array_equal(t.alpha1, -t.alpha1.T)
    assert np.array_equal(t.beta1, t.beta1.T)


def test_cube_is_correctly_rounded():
    # x = m**2 - n**2 over a spread of mode pairs up to 2000, where ** 3
    # misrounds a few percent
    m, n = np.meshgrid(np.arange(1, 2001, 13), np.arange(2, 2001, 11))
    x = (m * m - n * n).ravel()
    exact = np.array([float(int(v) ** 3) for v in x])
    assert np.array_equal(_cube(x.astype(float)), exact)


def test_massive_reduces_to_massless():
    a = massless_boost_transform(200)
    b = massive_boost_transform(200, 0.0)
    assert float(abs(a.alpha1 - b.alpha1).max()) < 1e-12
    assert float(abs(a.beta1 - b.beta1).max()) < 1e-12
    assert float(abs(a.alpha2_diag - b.alpha2_diag).max()) < 1e-12


@pytest.mark.parametrize("M", [0.0, 10.0])
def test_identities_hold_within_tail(M):
    t = massive_boost_transform(300, M) if M else massless_boost_transform(300)
    res = check_identities(t)
    assert res.order0_residual == 0.0
    assert res.order1_residual < 1e-14
    assert res.order2_diag_residual < res.tail_estimate


def test_identity_transform_is_neutral():
    ident = identity_transform(40)
    t = massless_boost_transform(40)
    for composed in (compose(ident, t), compose(t, ident)):
        np.testing.assert_array_equal(composed.alpha1, t.alpha1)
        np.testing.assert_array_equal(composed.beta1, t.beta1)
        np.testing.assert_array_equal(composed.order0, t.order0)


def test_inverse_cancels_boost():
    t = massless_boost_transform(200)
    round_trip = compose(inverse(t), t)
    assert float(abs(round_trip.alpha1).max()) == 0.0
    assert float(abs(round_trip.beta1).max()) == 0.0
    np.testing.assert_array_equal(round_trip.order0, np.ones(200))
    # what survives on the second-order diagonal is the truncation error of
    # the constituent boost's column sums, bounded by that boost's own tail
    boost_tail = check_identities(t).tail_estimate
    assert float(abs(round_trip.alpha2_diag[:100]).max()) < boost_tail


def test_compose_is_associative():
    cfg_freqs = math.pi * np.arange(1, 61)
    a = massless_boost_transform(60)
    b = phase_rotation(0.8, cfg_freqs)
    c = inverse(massless_boost_transform(60))
    left = compose(c, compose(b, a))
    right = compose(compose(c, b), a)
    assert float(abs(left.alpha1 - right.alpha1).max()) < 1e-15
    assert float(abs(left.beta1 - right.beta1).max()) < 1e-15
    assert float(abs(left.order0 - right.order0).max()) < 1e-15
    assert float(abs(left.alpha2_diag - right.alpha2_diag).max()) < 1e-15


def test_composed_chain_keeps_identities():
    freqs = math.pi * np.arange(1, 201)
    chain = compose(
        inverse(massless_boost_transform(200)),
        compose(phase_rotation(1.3, freqs), massless_boost_transform(200)),
    )
    res = check_identities(chain)
    assert res.order0_residual < 1e-14
    assert res.order1_residual < 1e-13
    assert res.order2_diag_residual < res.tail_estimate + 1e-13


def test_phase_rotation_adds_durations():
    freqs = np.sqrt(25.0 + math.pi**2 * np.arange(1, 31) ** 2)
    one = phase_rotation(0.4, freqs)
    two = phase_rotation(1.1, freqs)
    both = compose(two, one)
    direct = phase_rotation(1.5, freqs)
    assert float(abs(both.order0 - direct.order0).max()) < 1e-13


def test_compose_rejects_mismatch():
    with pytest.raises(ValueError):
        compose(massless_boost_transform(10), massless_boost_transform(12))


def _random_transform(rng, n, real_blocks=False):
    def block():
        real = rng.standard_normal((n, n))
        return real if real_blocks else real + 1j * rng.standard_normal((n, n))

    z = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    diag = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PerturbativeTransform(z, block(), block(), diag)


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and (
        got.tobytes() == want.tobytes()
    )


@pytest.mark.parametrize("real_second", [False, True])
@pytest.mark.parametrize("n_max", [1, 63, 64, 65, 130])
def test_compose_equals_the_whole_matrix_chain_rule(n_max, real_second):
    # the chain rule written out on whole matrices, A = A2 A1 + B2 conj(B1)
    # and B = A2 B1 + B2 conj(A1) kept to the retained orders, gives the
    # bits of all four blocks of compose
    rng = np.random.default_rng(n_max)
    first = _random_transform(rng, n_max)
    second = _random_transform(rng, n_max, real_second)
    z1, a1, b1, d1 = first.order0, first.alpha1, first.beta1, first.alpha2_diag
    z2, a2, b2, d2 = second.order0, second.alpha1, second.beta1, second.alpha2_diag
    want = {
        "order0": z2 * z1,
        "alpha1": z2[:, None] * a1 + a2 * z1[None, :],
        "beta1": z2[:, None] * b1 + b2 * np.conj(z1)[None, :],
        "alpha2_diag": z2 * d1 + d2 * z1
        + np.einsum("nm,mn->n", a2, a1)
        + np.einsum("nm,mn->n", b2, np.conj(b1)),
    }
    got = compose(second, first)
    for block, values in want.items():
        assert _same_bits(getattr(got, block), values), block


def test_boost_builder_rejects_a_nan_mass():
    with pytest.raises(ValueError, match="M must be non-negative, got nan"):
        massive_boost_transform(10, math.nan)


def test_boost_column_rejects_a_nan_mass():
    with pytest.raises(ValueError, match="M must be non-negative, got nan"):
        boost_column(10, 1, math.nan)


def test_transform_shape_validation():
    z = np.ones(4, dtype=complex)
    good = np.zeros((4, 4), dtype=complex)
    with pytest.raises(ValueError):
        PerturbativeTransform(z, np.zeros((3, 4), dtype=complex), good, np.zeros(4))
    with pytest.raises(ValueError):
        PerturbativeTransform(z, good, good, alpha2_diag=np.zeros(3, dtype=complex))


def test_transform_arrays_read_only():
    t = massless_boost_transform(6)
    with pytest.raises(ValueError):
        t.alpha1[0, 0] = 1.0


def test_real_blocks_stay_real_and_composition_is_complex():
    blocks = ("alpha1", "beta1")
    freqs = np.arange(1.0, 9.0)
    for t in (
        massless_boost_transform(8),
        massive_boost_transform(8, 10.0),
        identity_transform(8),
        phase_rotation(0.3, freqs),
    ):
        assert all(getattr(t, b).dtype == np.float64 for b in blocks)
        assert t.order0.dtype == np.complex128
    boost = massless_boost_transform(8)
    for t in (compose(boost, boost), compose(identity_transform(8), boost)):
        assert all(getattr(t, b).dtype == np.complex128 for b in blocks)
    # anything but float64 is cast to complex
    for dtype in (np.float32, np.int64, np.complex64):
        t = PerturbativeTransform(
            np.ones(2),
            np.zeros((2, 2), dtype=dtype),
            np.zeros((2, 2), dtype=dtype),
            np.zeros(2),
        )
        assert all(getattr(t, b).dtype == np.complex128 for b in blocks)
