"""The verification suite and its negative control."""

import math
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import cavneg
from cavneg import bogoliubov, closedform, spectrum, verify
from cavneg.bogoliubov import _boost, _boost_residuals, check_identities
from cavneg.verify import (
    _PERIODICITY_TAUS,
    _boost_identity_checks,
    _column_matches_matrix_check,
    run_verification,
)

# Names and thresholds of the fast level, in report order; the two order-2
# thresholds are computed from the boost blocks.
FAST_CHECKS = [
    ('boost-identity-M0-n500-order1', 0.0),
    ('boost-identity-M0-n500-order2', 6.475449645429067e-07),
    ('boost-identity-M10-n500-order1', 0.0),
    ('boost-identity-M10-n500-order2', 6.47754041606629e-07),
    ('massive-reduces-to-massless-n200', 1e-12),
    ('q-matches-coefficient-series', 1e-11),
    ('coefficients-positive-r2000', 0.0),
    ('one-way-forms-agree', 1e-10),
    ('two-way-forms-agree', 1e-10),
    ('two-by-two-replacement-bound', 0.007),
    ('deficit-vanishes-on-loci', 1e-12),
    ('pipeline-vs-closed-one-way-k1-n500', 3e-07),
    ('pipeline-vs-closed-two-way-k1-n500', 3e-07),
    ('pipeline-vs-closed-round-trip-k1-n500', 3e-07),
    ('pipeline-vs-closed-kickstart-k1-n500', 3e-07),
    ('column-matches-matrix-n200', 1e-14),
    ('one-way-periodicity-n200', 1e-11),
]


@pytest.fixture(scope="module")
def fast_report():
    return run_verification("fast")


def test_fast_suite_passes(fast_report):
    report = fast_report
    assert report.passed
    assert report.level == "fast"
    rendered = report.render()
    assert "FAIL" not in rendered
    assert rendered.count("PASS") == len(report.checks)


def test_fast_suite_keeps_its_checks_and_thresholds(fast_report):
    assert [c.name for c in fast_report.checks] == [name for name, _ in FAST_CHECKS]
    for check, (name, threshold) in zip(fast_report.checks, FAST_CHECKS):
        assert check.threshold == pytest.approx(threshold, rel=1e-12, abs=0.0), name


def test_corrupted_coefficient_is_caught(monkeypatch):
    monkeypatch.setattr(verify, "A_11", 0.0)
    report = run_verification("fast")
    assert not report.passed
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == ["two-by-two-replacement-bound"]
    assert "FAIL two-by-two-replacement-bound" in report.render()


def test_a_small_boost_symmetry_break_is_caught(monkeypatch):
    # beta1 rows 64-127 scaled by 1 + 1e-9 on one side of the symmetry
    # only; the break reads 1.2e-14 at M = 0 and 10 and 3.9e-17 at
    # M = 1000, all three below the absolute 1e-13 the checks once had
    blocks = bogoliubov._boost_blocks

    def broken(n_max, M, transpose=False):
        for rows, a, b in blocks(n_max, M, transpose):
            if not transpose and rows.start == 64:
                b = b * (1.0 + 1e-9)
            yield rows, a, b

    monkeypatch.setattr(bogoliubov, "_boost_blocks", broken)
    checks = [c for M in (0.0, 10.0, 1e3) for c in _boost_identity_checks(200, M)]
    order1 = [c for c in checks if c.name.endswith("-order1")]
    assert len(order1) == 3
    assert not any(c.passed for c in order1)


def test_pipeline_checks_police_the_sweep_coordinate_map(monkeypatch):
    # verify builds its trips through sweep's map of (u, v, w), so a map
    # that is 1% off in every accelerated duration fails there too
    from cavneg import sweep

    tau_bar = sweep._tau_bar
    monkeypatch.setattr(sweep, "_tau_bar", lambda u, cfg: 1.01 * tau_bar(u, cfg))
    report = run_verification("fast")
    failed = [c.name for c in report.checks if not c.passed]
    assert failed and all(name.startswith("pipeline-vs-closed-") for name in failed)


def test_heavy_field_check_at_M10000_catches_a_weight_error(monkeypatch):
    # the mode weights, and so the estimate's reach, 0.1% off read 1.0e-3
    # at M = 10**4 against 1.1e-6 unbroken; at M = 1000 they read 9.5e-4,
    # under that check's 1e-3
    modes = closedform._massive_modes

    def broken(*args):
        dw, amp, pref = modes(*args)
        return dw, amp * 1.001, pref

    check = verify._heavy_field_engine_check(1e4, (0.3, 0.5, 0.9, 1.7), 1e-5)
    assert check.name == "heavy-field-closed-vs-pipeline-M10000" and check.passed
    monkeypatch.setattr(closedform, "_massive_modes", broken)
    assert not verify._heavy_field_engine_check(1e4, (0.3, 0.5, 0.9, 1.7), 1e-5).passed


@pytest.mark.parametrize("scale", [0.9995, 1.0005])
def test_reach_check_catches_a_scale_error(monkeypatch, scale):
    # the reach off by 5e-4 either way reads 5e-4 against 4.7e-10 unbroken
    check = verify._massive_reach_check()
    assert check.name == "heavy-field-reach-vs-scan-M1000" and check.passed
    reach = verify._massive_reach
    monkeypatch.setattr(verify, "_massive_reach", lambda *args: reach(*args) * scale)
    assert not verify._massive_reach_check().passed


def test_rindler_check_catches_a_truncated_atanh(monkeypatch):
    # atanh by its 3-term series errs by 1.6e-6 at h = 0.3 and 2.5e-3 at
    # h = 1, where the pinned-value tests were the only ones to see it
    assert verify._rindler_wall_ratio_check().passed
    series = SimpleNamespace(pi=math.pi, atanh=lambda x: x + x**3 / 3 + x**5 / 5)
    monkeypatch.setattr(spectrum, "math", series)
    assert not verify._rindler_wall_ratio_check().passed


def test_dropped_and_caught_check_catches_the_boost_for_its_inverse(monkeypatch):
    # dropping by the boost instead of its inverse reads 2.6e9 tails
    assert verify._dropped_and_caught_check().passed
    monkeypatch.setattr(verify, "inverse", lambda t: t)
    assert verify._dropped_and_caught_check().residual > 1e9


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        run_verification("paranoid")


def test_periodicity_taus_are_the_seeded_draw():
    drawn = np.random.default_rng(20240817).uniform(0.2, 2.0, 3)
    assert _PERIODICITY_TAUS == tuple(float(tau) for tau in drawn)


def test_fast_suite_leaves_numpy_random_unimported():
    # importing numpy.random would add to every cold pass; only a fresh
    # interpreter shows whether anything pulls it in
    src = os.path.dirname(os.path.dirname(cavneg.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = (
        "import sys\n"
        "from cavneg.verify import run_verification\n"
        "assert run_verification('fast').passed\n"
        "print('numpy.random' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("M", [0.0, 10.0, 1000.0])
@pytest.mark.parametrize("n_max", [64, 65, 500])
def test_boost_residuals_equal_check_identities_on_the_built_boost(n_max, M):
    # one pass over the entry formulas gives every residual of the built
    # boost bit for bit: order one and the tail are maxima of the same
    # numbers, and order two sums each column row by row, as a whole-matrix
    # column sum does
    assert _boost_residuals(n_max, M) == check_identities(_boost(n_max, M))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_boost_residuals_need_no_boost_matrix():
    # a row block and its transposed twin at a time: 11.6 MB traced at
    # n_max 2000, where building the boost alone peaked at 196 MB
    assert _traced_peak(_boost_residuals, 2000, 10.0) < 14e6


@pytest.mark.parametrize("M, bound", [(0.0, 6.25e6), (10.0, 7.3e6), (1000.0, 7.3e6)])
def test_boost_residuals_keep_no_per_block_temporaries(M, bound):
    # the live set at n_max 2000 is allocated once: two row-block pairs,
    # one per orientation (4 x 1.02 MB), the reader's moduli block (1.02
    # MB) and each orientation's kernel scratch for half a block, the
    # denominator table and one block massless (0.32 MB), three blocks
    # massive (0.77 MB).  That traces 6.11 MB massless and 7.17 MB
    # massive.  A fresh block pair per row block crosses the bound, and so
    # does a single temporary of |alpha1|**2 in the reader (0.51 MB, which
    # lifts the peak by 0.22 MB)
    assert _traced_peak(_boost_residuals, 2000, M) < bound


def test_column_matches_matrix_check_peaks_at_the_walk_live_set():
    # at n_max 200 a complex block takes 0.64 MB; the walk holds the boost,
    # the running total, one segment and the composition's temporaries, and
    # traces 6.6 MB, where holding every step of the round trip adds 9 MB
    assert _traced_peak(_column_matches_matrix_check) < 7.5e6
