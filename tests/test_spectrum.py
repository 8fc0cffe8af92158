"""Frequencies, configuration validation and unit conversion."""

import math

import pytest

from cavneg.spectrum import (
    C_LIGHT,
    HBAR,
    CavityConfig,
    ValidityReport,
    acceleration_period,
    physical_to_dimensionless,
    rindler_frequency,
    validity_report,
)


def test_rindler_frequency_value():
    # pi * (h/2) / (delta * atanh(h/2)) at h = 1: atanh(1/2) = 0.54930614433405485
    cfg = CavityConfig(h=1.0)
    assert rindler_frequency(1, cfg) == pytest.approx(2.8596008673801273, rel=1e-14)
    assert rindler_frequency(4, cfg) == pytest.approx(4 * 2.8596008673801273, rel=1e-14)


def test_rindler_frequency_inertial_limit():
    cfg = CavityConfig(h=0.0)
    assert rindler_frequency(2, cfg) == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_rindler_frequency_even_in_h():
    plus = rindler_frequency(1, CavityConfig(h=0.7))
    minus = rindler_frequency(1, CavityConfig(h=-0.7))
    assert plus == minus


def test_rindler_frequency_massive_unsupported():
    with pytest.raises(NotImplementedError):
        rindler_frequency(1, CavityConfig(M=3.0, h=0.5))


def test_acceleration_period():
    cfg = CavityConfig(h=1.0)
    assert acceleration_period(cfg) == pytest.approx(2.1972245773362194, rel=1e-14)
    # one full turn of the fundamental phase
    assert acceleration_period(cfg) * rindler_frequency(1, cfg) == pytest.approx(
        2.0 * math.pi, rel=1e-14
    )
    assert acceleration_period(CavityConfig(h=0.0, delta=3.0)) == 6.0


@pytest.mark.parametrize("delta", [0.3, 1.0, 10.0])
@pytest.mark.parametrize("h", [s * m for m in (1e-8, 1e-6, 1e-4, 1e-2, 0.3, 1.0, 1.5, 1.99)
                               for s in (1.0, -1.0)])
def test_rindler_spectrum_is_the_wall_ratio_form(h, delta):
    # a second form of the spectrum: with the walls at chi = 1/h -+ 1/2 the
    # Rindler frequencies are n pi / ln(b/a) per unit of Rindler time, and
    # ln(b/a) = log1p(2h / (2 - h)); 3.6e-15 relative at most measured,
    # where a 3-term atanh series errs by 1.6e-6 at h = 0.3
    cfg = CavityConfig(h=h, delta=delta)
    log_ratio = math.log1p(2.0 * h / (2.0 - h))
    for n in (1, 3, 200):
        want = n * math.pi * h / (delta * log_ratio)
        assert rindler_frequency(n, cfg) == pytest.approx(want, rel=1e-14, abs=0.0)
    want = 2.0 * delta * log_ratio / h
    assert acceleration_period(cfg) == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(delta=0.0),
        dict(delta=-1.0),
        dict(M=-0.5),
        dict(h=2.0),
        dict(h=-2.5),
        dict(k=0),
        dict(k=5, n_max=5),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        CavityConfig(**kwargs)


def test_config_rejects_a_nan_mass():
    # NaN fails every comparison, so the check asks M >= 0 to hold
    with pytest.raises(ValueError, match="M must be non-negative, got nan"):
        CavityConfig(M=math.nan)


def test_validity_flags():
    ok = ValidityReport.from_parameters(k=1, h=0.05)
    assert ok.perturbative_ok and ok.h_bound_ok and ok.massive_ok
    assert not ValidityReport.from_parameters(k=3, h=0.05).perturbative_ok
    assert ValidityReport.from_parameters(k=1, h=1e-3, M=100.0).massive_ok
    assert not ValidityReport.from_parameters(k=1, h=1e-3, M=1000.0).massive_ok
    assert not ValidityReport.from_parameters(k=1, h=2.5).h_bound_ok


def test_validity_report_from_config():
    rep = validity_report(CavityConfig(h=0.05, k=1))
    assert rep == ValidityReport.from_parameters(k=1, h=0.05, M=0.0)


def test_physical_constants():
    assert C_LIGHT == 299792458.0
    assert HBAR == 1.054571817e-34


def test_optical_transverse_case():
    # 10 m cavity at 10 m/s^2 with a 500 nm transverse wavelength
    h, M, rep = physical_to_dimensionless(
        10.0, 10.0, transverse_wavelength=500e-9
    )
    assert h == pytest.approx(1.1126500560536184e-15, rel=1e-14)
    assert M == pytest.approx(125663706.14359173, rel=1e-14)
    assert rep.perturbative_ok and rep.h_bound_ok


def test_massive_particle_case():
    # kaon-scale mass in a 10 cm cavity at 1e-10 m/s^2
    h, M, rep = physical_to_dimensionless(1e-10, 0.1, mass=1e-27)
    assert h == pytest.approx(1.1126500560536184e-28, rel=1e-14)
    assert M == pytest.approx(284278844899190.02, rel=1e-14)
    assert h * M * M == pytest.approx(8.991821529284631, rel=1e-12)
    assert rep.massive_ok


def test_zero_acceleration_gives_zero_h():
    h, M, rep = physical_to_dimensionless(0.0, 1.0)
    assert h == 0.0 and M == 0.0
    assert rep.perturbative_ok and rep.h_bound_ok


def test_mass_and_wavelength_conflict():
    with pytest.raises(ValueError):
        physical_to_dimensionless(1.0, 1.0, mass=1e-27, transverse_wavelength=1e-6)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        (dict(accel=math.nan, delta=1.0), "acceleration must be non-negative"),
        (dict(accel=9.8, delta=math.nan), "delta must be positive"),
        (dict(accel=9.8, delta=1.0, mass=math.nan), "mass must be non-negative"),
        (
            dict(accel=9.8, delta=1.0, transverse_wavelength=math.nan),
            "wavelength must be positive",
        ),
    ],
    ids=["accel", "delta", "mass", "wavelength"],
)
def test_physical_inputs_reject_nan(kwargs, message):
    # a NaN mass or wavelength gave M = nan with the perturbative flag set
    with pytest.raises(ValueError, match=message):
        physical_to_dimensionless(**kwargs)
