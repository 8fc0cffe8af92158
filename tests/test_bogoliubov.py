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


def test_massive_entries():
    t = massive_boost_transform(8, 5.0)
    assert t.alpha1[1, 0].real == pytest.approx(-0.59764383338141867, rel=1e-14)
    assert t.beta1[1, 0].real == pytest.approx(0.0021187676574255946, rel=1e-13)
    assert t.alpha2_diag[0].real == pytest.approx(-0.17879676428389878, rel=1e-14)


def test_massive_keeps_symmetry():
    t = massive_boost_transform(30, 7.0)
    np.testing.assert_allclose(t.alpha1, -t.alpha1.T, atol=1e-18)
    np.testing.assert_allclose(t.beta1, t.beta1.T, atol=1e-18)


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
    b = phase_rotation(0.8, cfg_freqs, 60)
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
        compose(phase_rotation(1.3, freqs, 200), massless_boost_transform(200)),
    )
    res = check_identities(chain)
    assert res.order0_residual < 1e-14
    assert res.order1_residual < 1e-13
    assert res.order2_diag_residual < res.tail_estimate + 1e-13


def test_phase_rotation_adds_durations():
    freqs = np.sqrt(25.0 + math.pi**2 * np.arange(1, 31) ** 2)
    one = phase_rotation(0.4, freqs, 30)
    two = phase_rotation(1.1, freqs, 30)
    both = compose(two, one)
    direct = phase_rotation(1.5, freqs, 30)
    assert float(abs(both.order0 - direct.order0).max()) < 1e-13


def test_compose_rejects_mismatch():
    with pytest.raises(ValueError):
        compose(massless_boost_transform(10), massless_boost_transform(12))
    marked = identity_transform(10, h_value=0.5)
    with pytest.raises(ValueError):
        compose(marked, identity_transform(10, h_value=0.25))


def test_transform_shape_validation():
    z = np.ones(4, dtype=complex)
    good = np.zeros((4, 4), dtype=complex)
    with pytest.raises(ValueError):
        PerturbativeTransform(z, np.zeros((3, 4), dtype=complex), good)
    with pytest.raises(ValueError):
        PerturbativeTransform(z, good, good, alpha2_diag=np.zeros(3, dtype=complex))


def test_transform_arrays_read_only():
    t = massless_boost_transform(6)
    with pytest.raises(ValueError):
        t.alpha1[0, 0] = 1.0


def test_identities_without_second_order_diagonal():
    t = PerturbativeTransform(
        np.ones(2, dtype=complex),
        np.zeros((2, 2), dtype=complex),
        np.zeros((2, 2), dtype=complex),
    )
    assert check_identities(t).order2_diag_residual is None


def test_real_blocks_stay_real_and_composition_is_complex():
    blocks = ("alpha1", "beta1")
    freqs = np.arange(1.0, 9.0)
    for t in (
        massless_boost_transform(8),
        massive_boost_transform(8, 10.0),
        identity_transform(8),
        phase_rotation(0.3, freqs, 8),
    ):
        assert all(getattr(t, b).dtype == np.float64 for b in blocks)
        assert t.order0.dtype == np.complex128
    boost = massless_boost_transform(8)
    for t in (compose(boost, boost), compose(identity_transform(8), boost)):
        assert all(getattr(t, b).dtype == np.complex128 for b in blocks)
    # anything but float64 is cast to complex
    for dtype in (np.float32, np.int64, np.complex64):
        t = PerturbativeTransform(
            np.ones(2), np.zeros((2, 2), dtype=dtype), np.zeros((2, 2), dtype=dtype)
        )
        assert all(getattr(t, b).dtype == np.complex128 for b in blocks)
