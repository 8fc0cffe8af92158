"""Sweep grids, CSV determinism, presets, config parsing and CLI exit codes."""

import csv
import hashlib
import io
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cavneg import cli, closedform, sweep
from cavneg.cli import main, parse_segments, read_config
from cavneg.scenario import Accelerated, Inertial
from cavneg.sweep import (
    Axis,
    ConfigError,
    NumericValidityError,
    SweepSpec,
    default_output_path,
    estimate_physical,
    parse_axis,
    parse_number,
    preset_spec,
    run_sweep,
    write_sweep,
)


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------- parsing


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1.5", 1.5),
        ("-2e-3", -2e-3),
        ("pi", math.pi),
        ("2pi", 2 * math.pi),
        ("2*pi", 2 * math.pi),
        ("pi/3", math.pi / 3),
        ("-2pi/3", -2 * math.pi / 3),
        ("0.5pi", 0.5 * math.pi),
        ("+pi", math.pi),
    ],
)
def test_parse_number(text, expected):
    assert parse_number(text) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize(
    "text", ["", "pie", "2pi/", "one", "pi3", "nan", "inf", "-inf", "pi/0"]
)
def test_parse_number_rejects_garbage(text):
    with pytest.raises(ConfigError):
        parse_number(text)


def test_parse_axis():
    axis = parse_axis("u=0:2pi:101")
    assert axis.name == "u"
    assert axis.start == 0.0
    assert axis.stop == pytest.approx(2 * math.pi, rel=1e-15)
    assert axis.count == 101
    values = axis.values()
    assert len(values) == 101 and values[50] == pytest.approx(math.pi, rel=1e-15)


@pytest.mark.parametrize(
    "text", ["u=0:1", "q=0:1:5", "u=0:1:1", "u=0:1:x", "nonsense"]
)
def test_parse_axis_rejects_bad_input(text):
    with pytest.raises(ConfigError):
        parse_axis(text)


def test_axis_count_follows_the_whole_number_rule():
    # counts went through int(): 3.0 was refused by parse_axis, and a
    # library Axis took 2.5 and failed later inside np.linspace
    assert parse_axis("u=0:1:3.0") == Axis("u", 0.0, 1.0, 3)
    assert Axis("u", 0.0, 1.0, 3.0).count == 3
    assert isinstance(Axis("u", 0.0, 1.0, 3.0).count, int)
    for build in (lambda: Axis("u", 0, 1, 2.5), lambda: parse_axis("u=0:1:2.5")):
        with pytest.raises(ConfigError, match="axis u: count must be an integer"):
            build()


def test_parse_segments():
    segs = parse_segments("acc:+1:0.7,in:1.2,acc:-1:pi/2")
    assert segs == (
        Accelerated(1, 0.7),
        Inertial(1.2),
        Accelerated(-1, math.pi / 2),
    )
    with pytest.raises(ConfigError):
        parse_segments("acc:0.7")
    with pytest.raises(ConfigError):
        parse_segments("walk:1.0")
    for sign in ("1.9", "0", "-0.5", "2"):
        with pytest.raises(ConfigError):
            parse_segments(f"acc:{sign}:0.7")


# ---------------------------------------------------------------- sweeps


def one_way_spec(**kw):
    base = dict(
        scenario="one-way",
        axes=(Axis("u", 0.0, 2 * math.pi, 21),),
        fixed={"k": 1, "h": 0.01},
    )
    base.update(kw)
    return SweepSpec(**base)


def test_sweep_is_deterministic():
    spec = one_way_spec()
    assert run_sweep(spec) == run_sweep(spec)


def test_row_schema_and_negativity_identity():
    text = run_sweep(one_way_spec())
    rows = rows_of(text)
    assert len(rows) == 21
    header = text.splitlines()[0].split(",")
    assert header == [
        "scenario",
        "k",
        "h",
        "M",
        "u",
        "v",
        "w",
        "deficit_scaled",
        "negativity",
        "log_negativity",
        "method",
        "truncation_tail",
    ]
    for row in rows:
        h = float(row["h"])
        assert float(row["negativity"]) == 0.5 - h * h * float(row["deficit_scaled"])
        assert row["scenario"] == "one-way"
        assert row["method"] == "closed-form"


def test_round_trip_repr_of_floats():
    text = run_sweep(one_way_spec())
    row = rows_of(text)[3]
    # shortest repr must round-trip bit-exactly
    assert repr(float(row["deficit_scaled"])) == row["deficit_scaled"]


def test_both_mode_bounds_disagreement():
    spec = one_way_spec(
        mode="both", fixed={"k": 1, "h": 0.01, "n_max": 150}
    )
    rows = rows_of(run_sweep(spec))
    assert all("deficit_general" in r and "abs_difference" in r for r in rows)
    for row in rows:
        assert float(row["abs_difference"]) <= float(row["truncation_tail"])


def test_both_mode_requires_explicit_cutoff():
    with pytest.raises(ConfigError):
        run_sweep(one_way_spec(mode="both"))


def test_two_axis_order_is_lexicographic():
    spec = SweepSpec(
        scenario="alpha-centauri",
        axes=(Axis("u", 0.0, 1.0, 3), Axis("v", 0.0, 1.0, 2)),
        fixed={"k": 1, "h": 0.01},
    )
    rows = rows_of(run_sweep(spec))
    coords = [(float(r["u"]), float(r["v"])) for r in rows]
    assert coords == sorted(coords)


def test_fixed_phase_passes_through():
    spec = SweepSpec(
        scenario="round-trip",
        axes=(Axis("u", 0.0, 2.0, 3),),
        fixed={"k": 1, "h": 0.01, "v": 0.4, "w": 2 * math.pi / 3},
    )
    rows = rows_of(run_sweep(spec))
    assert all(float(r["v"]) == 0.4 for r in rows)
    assert all(float(r["w"]) == pytest.approx(2 * math.pi / 3) for r in rows)


def test_custom_scenario_single_row():
    spec = SweepSpec(
        scenario="custom",
        mode="general",
        segments=(Accelerated(1, 0.7), Inertial(1.2), Accelerated(-1, 0.7)),
        fixed={"k": 1, "h": 0.5, "n_max": 100},
    )
    rows = rows_of(run_sweep(spec))
    assert len(rows) == 1
    assert float(rows[0]["deficit_scaled"]) > 0


def test_custom_scenario_restrictions():
    segs = (Accelerated(1, 0.7),)
    with pytest.raises(ConfigError):
        run_sweep(SweepSpec(scenario="custom", mode="general", segments=segs,
                            axes=(Axis("u", 0, 1, 2),)))
    with pytest.raises(ConfigError):
        run_sweep(SweepSpec(scenario="custom", mode="general"))
    with pytest.raises(ConfigError):
        run_sweep(SweepSpec(scenario="custom", mode="closed-form", segments=segs))


def test_heavy_field_closed_form_only_one_way():
    spec = SweepSpec(
        scenario="alpha-centauri",
        axes=(Axis("u", 0.0, 1.0, 3),),
        fixed={"k": 1, "h": 1e-5, "M": 1e3},
    )
    with pytest.raises(ConfigError):
        run_sweep(spec)


def test_numeric_validity_guards():
    with pytest.raises(NumericValidityError):
        run_sweep(one_way_spec(fixed={"k": 1, "h": 3.0}))
    # h = 1.8 pushes the peak deficit over the 1/2 budget
    with pytest.raises(NumericValidityError):
        run_sweep(one_way_spec(fixed={"k": 1, "h": 1.8}))


def test_negative_closed_form_deficit_is_refused(monkeypatch, tmp_path, capsys):
    spec = SweepSpec(
        scenario="alpha-centauri",
        axes=(Axis("u", 0.0, 1.0, 3),),
        fixed={"k": 1, "h": 0.01},
    )
    # rounding on the vanishing loci is kept as written
    monkeypatch.setattr(sweep, "two_way_deficit", lambda *args: -1e-17)
    assert {r["deficit_scaled"] for r in rows_of(run_sweep(spec))} == {"-1e-17"}
    monkeypatch.setattr(sweep, "two_way_deficit", lambda *args: -1e-9)
    with pytest.raises(ArithmeticError, match="negative"):
        run_sweep(spec)
    out = tmp_path / "x.csv"
    argv = ["--scenario", "alpha-centauri", "--axis", "u=0:1:3", "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    assert "deficit came out negative" in capsys.readouterr().err


def test_nan_closed_form_deficit_is_refused(monkeypatch, tmp_path, capsys):
    spec = SweepSpec(
        scenario="alpha-centauri",
        axes=(Axis("u", 0.0, 1.0, 3),),
        fixed={"k": 1, "h": 0.01},
    )
    monkeypatch.setattr(sweep, "two_way_deficit", lambda *args: math.nan)
    with pytest.raises(ArithmeticError, match="NaN"):
        run_sweep(spec)
    out = tmp_path / "x.csv"
    argv = ["--scenario", "alpha-centauri", "--axis", "u=0:1:3", "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    assert "deficit came out negative or NaN" in capsys.readouterr().err


def test_cli_refuses_a_nan_engine_deficit(tmp_path, capsys):
    # the engine's boost entries overflow at M = 1e200
    out = tmp_path / "x.csv"
    argv = ["--scenario", "one-way", "--mode", "general", "--M", "1e200",
            "--h", "1e-300", "--n-max", "40", "--axis", "u=0:1:2", "--out", str(out)]
    with np.errstate(invalid="ignore"):
        assert main(argv) == 2
    assert not out.exists()
    assert "engine deficit came out NaN at k = 1" in capsys.readouterr().err


def test_both_mode_refuses_a_nan_engine_deficit(monkeypatch, tmp_path, capsys):
    # the closed form stays finite, so only the general column would hold NaN
    monkeypatch.setattr(sweep, "scenario_negativity", lambda scenario: (math.nan, 0.0))
    out = tmp_path / "x.csv"
    argv = ["--scenario", "one-way", "--mode", "both", "--n-max", "40",
            "--axis", "u=0:1:2", "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    assert "engine deficit came out NaN" in capsys.readouterr().err


def test_cli_heavy_field_mass_whose_fourth_power_overflows(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["--scenario", "one-way", "--M", "1e100", "--axis", "u=0:1:3",
            "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    assert "M = 1e+100 is too large" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [[], ["--mode", "general", "--n-max", "40"]])
def test_cli_refuses_durations_whose_phases_lose_their_digits(mode, tmp_path, capsys):
    # these durations near 1e304 once wrote deficits near 1e8 and exited 0
    out = tmp_path / "x.csv"
    argv = ["--scenario", "one-way", "--M", "1000", "--k", "1", "--h", "1e-6",
            "--axis", "u=1e300:1e301:2", *mode, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    assert not out.exists()
    assert "rad, above 1e-06 rad" in capsys.readouterr().err


def test_closed_form_tails_come_from_the_cutoff_rule():
    for k in (1, 2):
        for scenario, nfactors in (
            ("one-way", 1),
            ("alpha-centauri", 2),
            ("round-trip", 3),
        ):
            spec = SweepSpec(
                scenario=scenario, axes=(Axis("u", 0.1, 2.0, 2),),
                fixed={"k": k, "h": 0.01},
            )
            _, tail = closedform._cutoff(k, closedform.TOL_SUM, nfactors)
            for row in rows_of(run_sweep(spec)):
                assert float(row["truncation_tail"]) == tail, scenario
        spec = SweepSpec(scenario="kickstart", axes=(Axis("u", 0.1, 2.0, 2),),
                         fixed={"k": k, "h": 0.01})
        _, tail = closedform._cutoff(k, closedform.TOL_Q, 0)
        for row in rows_of(run_sweep(spec)):
            assert float(row["truncation_tail"]) == tail


def test_nan_mass_rejected():
    # without the check a NaN mass ran the massless closed forms in rows
    # labelled M=nan
    spec = SweepSpec("one-way", axes=(Axis("u", 0.5, 1.0, 2),), fixed={"M": math.nan})
    with pytest.raises(ConfigError, match="M must be non-negative, got nan"):
        run_sweep(spec)


def test_unknown_fixed_key_rejected():
    with pytest.raises(ConfigError):
        run_sweep(one_way_spec(fixed={"k": 1, "hh": 0.1}))
    # durations are in cavity units, so the cavity length is no sweep setting
    with pytest.raises(ConfigError, match=r"unknown fixed parameters \['delta'\]"):
        run_sweep(one_way_spec(fixed={"delta": 2.0}))


@pytest.mark.parametrize(
    "key,bad,whole,same",
    [
        ("k", 2.7, 2.0, 2),
        ("k", (1, 1.9), (1, 2.0), [1, 2]),
        ("n_max", 200.5, 200.0, 200),
    ],
    ids=["k", "k_sequence", "n_max"],
)
def test_non_integral_indices_rejected(key, bad, whole, same):
    # 2.7 was truncated to k = 2 and written as such; 2 and 2.0 stay valid
    def spec(value):
        return one_way_spec(fixed={"h": 0.01, key: value})

    with pytest.raises(ConfigError, match=f"{key} must be an integer"):
        run_sweep(spec(bad))
    assert run_sweep(spec(whole)) == run_sweep(spec(same))


@pytest.mark.parametrize("k", [0, (), (1, 0), (2, -1)])
def test_k_below_one_or_empty_rejected(k):
    with pytest.raises(ConfigError, match="k must hold indices >= 1"):
        run_sweep(one_way_spec(fixed={"k": k}))


def test_r_max_below_k_rejected(tmp_path, capsys):
    # the closed forms have one cutoff rule, so a cutoff is refused at any
    # value: as a fixed key, a CLI flag or a config key
    with pytest.raises(ConfigError, match=r"unknown fixed parameters \['r_max'\]"):
        run_sweep(one_way_spec(fixed={"k": 1, "h": 0.01, "r_max": 40}))
    out = tmp_path / "x.csv"
    argv = ["--scenario", "one-way", "--axis", "u=0:pi:3", "--out", str(out)]
    assert main(argv + ["--r-max", "40"]) == 1
    assert "--r-max" in capsys.readouterr().err
    cfg = tmp_path / "c.cfg"
    cfg.write_text("r_max = 40\n", encoding="utf-8")
    assert main(argv + ["--config", str(cfg)]) == 1
    assert "unknown key 'r_max'" in capsys.readouterr().err
    assert not out.exists()


def test_k_sequence_emits_one_block_per_k():
    spec = one_way_spec(fixed={"k": (2, 1)})
    rows = rows_of(run_sweep(spec))
    assert [int(r["k"]) for r in rows] == [2] * 21 + [1] * 21
    assert run_sweep(one_way_spec(fixed={"k": (1,)})) == run_sweep(one_way_spec())


def test_output_file_written(tmp_path):
    # run_sweep returns the text and leaves spec.output alone; write_sweep
    # is the one writer
    out = tmp_path / "sweep.csv"
    text = run_sweep(one_way_spec(output=str(out)))
    assert not out.exists()
    assert write_sweep(one_way_spec(output=str(out))) == 21
    assert out.read_text(encoding="utf-8") == text


def test_unwritable_output_raises_with_path():
    with pytest.raises(OSError, match="no/such/dir"):
        write_sweep(one_way_spec(output="/no/such/dir/out.csv"))
    with pytest.raises(ConfigError, match="output path"):
        write_sweep(one_way_spec())


@pytest.mark.parametrize("chunk", [1, 5, 21, 22, 1024])
def test_streamed_file_equals_the_returned_text(monkeypatch, tmp_path, chunk):
    # two k blocks of 21 rows behind the header, cut at every chunk size
    monkeypatch.setattr(sweep, "_CHUNK_ROWS", chunk)
    spec = one_way_spec(fixed={"k": (1, 2)}, output=str(tmp_path / "s.csv"))
    assert write_sweep(spec) == 42
    text = run_sweep(spec)
    assert (tmp_path / "s.csv").read_bytes() == text.encode("utf-8")


def test_a_sweep_holds_the_row_lists_of_one_k_block_at_a_time(tmp_path):
    # every block's values are computed first, but its value lists and
    # negativity cells are built when the writer reaches it: on 4000 points
    # three indices trace 1.09 times what one does, and 2.25 times when
    # every block's lists are built up front
    def traced(ks):
        axes = (Axis("u", 0.0, 1.0, 4000),)
        spec = SweepSpec("one-way", axes, {"k": ks}, output=str(tmp_path / "k.csv"))
        tracemalloc.start()
        try:
            assert write_sweep(spec) == 4000 * len(ks)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced((1,))  # first-call set-up belongs to no block
    assert traced((1, 2, 3)) < 1.25 * traced((1,))


def test_default_output_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("CAVNEG_OUT_DIR", str(tmp_path))
    assert default_output_path("fig2", None) == str(tmp_path / "fig2.csv")
    assert default_output_path("fig2", "name.csv") == str(tmp_path / "name.csv")
    # explicit directories win over the variable
    assert default_output_path("fig2", "sub/name.csv") == "sub/name.csv"
    monkeypatch.delenv("CAVNEG_OUT_DIR")
    assert default_output_path("fig2", None) == "fig2.csv"


# ---------------------------------------------------------------- presets


def test_fig2_preset_shape():
    rows = rows_of(run_sweep(preset_spec("fig2")))
    assert len(rows) == 201
    deficits = np.array([float(r["deficit_scaled"]) for r in rows])
    u = np.array([float(r["u"]) for r in rows])
    assert deficits[0] == 0.0 and deficits[-1] == 0.0
    assert u[np.argmax(deficits)] == pytest.approx(math.pi, rel=1e-15)
    assert deficits.max() == pytest.approx(0.16525145161591603, rel=1e-10)


def test_fig3_preset_zero_lines():
    rows = rows_of(run_sweep(preset_spec("fig3")))
    assert len(rows) == 101 * 101
    for r in rows:
        u, v = float(r["u"]), float(r["v"])
        d = float(r["deficit_scaled"])
        on_locus = (
            min(u % (2 * math.pi), 2 * math.pi - u % (2 * math.pi)) < 1e-9
            or min((u + v) % (2 * math.pi), 2 * math.pi - (u + v) % (2 * math.pi))
            < 1e-9
        )
        assert (d < 1e-12) == on_locus


def test_fig4_presets_fix_w():
    for name, w in (("fig4a", 0.0), ("fig4b", 2 * math.pi / 3), ("fig4c", 4 * math.pi / 3)):
        spec = preset_spec(name)
        assert spec.scenario == "round-trip"
        assert spec.fixed["w"] == pytest.approx(w, rel=1e-15)


def test_fig5_presets():
    spec_a = preset_spec("fig5a")
    assert spec_a.fixed["k"] == (1, 2, 3, 4)
    assert spec_a.fixed["M"] == 1e3 and spec_a.fixed["h"] == 1e-5
    rows = rows_of(run_sweep(preset_spec("fig5b")))
    assert len(rows) == 2401 and all(int(r["k"]) == 30 for r in rows)


# SHA-256 of each preset CSV as recorded from the first release of the
# package; the figure data must stay byte-identical.
PRESET_DIGESTS = {
    "fig2": "8d9c6e197fea4c8cb71cbae6cc7eb5f49ffb16d203bc00eb0ca832f0c0741cce",
    "fig3": "c7cf55df652c6b4a35a64440f0dba2762434a38c20b084a4c481adaa3b1e5e28",
    "fig4a": "2f79b000b0242d6b4dfc586890d5e681f4aec251a7e8c28c8370cdc01fc4be82",
    "fig4b": "bd075cc3d9344d76ae26c8538b32f9797252a43e3f1c09e658c99c1f150d527a",
    "fig4c": "484f4bef84474cdac5c3fd7d011eee8851be253db74cdea5d9abbfb5f3baa746",
    "fig5a": "35dc1746bae038f06dd8ce19f118015e9156aa3b29c37a61932cc190f598e172",
    "fig5b": "dcf6a54b375e131a16b446a2b4019580ce48407f80f75f25e7f68199874d19d2",
}


@pytest.mark.parametrize("name", sorted(PRESET_DIGESTS))
def test_preset_csv_digest(name, tmp_path):
    text = run_sweep(preset_spec(name))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PRESET_DIGESTS[name]
    # the streamed file of the command line holds the same bytes
    out = tmp_path / f"{name}.csv"
    assert write_sweep(preset_spec(name, output=str(out))) == text.count("\n") - 1
    assert out.read_bytes() == text.encode("utf-8")


# SHA-256 of the --mode both CSVs of perfbench's engine jobs (n_max 2000, k 1,
# phases drawn by perfbench/workloads.make_jobs) for seeds 1 and 2, and of the
# stdout of each --verify level, recorded at commit 6cd956a.  Like the preset
# digests they must stay byte-identical.  A change that moves them on purpose
# records the new digests here in the same commit, next to the preset table
# and perfbench's copy of it, and logs in CHANGES.md why the bytes moved and
# the largest change of each value.
ENGINE_DIGESTS = {
    1: {
        "one-way": "911f510385807e598ecd7c4583246ade0e73369cef8e6989aafd3ce1b4929d68",
        "alpha-centauri": "8d78b9b08986c011679c39da05461b0235ff2700d155ebb05e4237c1abc579d4",
        "round-trip": "794eec8ca31e829a9cc75fd6996e784f92a29b9b7c9e12f83999ee93a28d14b2",
        "kickstart": "9b4509c6587a5e3f6f7ca7b247fb13adfb403b8a8286a8c774f898fccd8b0d89",
    },
    2: {
        "one-way": "409422a8fbfa06e0d446ab7068c4f5d37ffe155d384e2b181cbd9f30fa2859c0",
        "alpha-centauri": "440d3efa66a78f1cd129cff4a1c2d9f49c5a987c2c7f0741688b025407a7d03b",
        "round-trip": "e42988ff6431c4a69b4990e32ae9061bdb6023df9a8c0e5d831c66e31416af64",
        "kickstart": "b8c2cf95f3d37a6639e6b3059b11c9e9eccaa61714de8b0ae031e5220287f53d",
    },
}
VERIFY_DIGESTS = {
    "fast": "c4616a72ba646e90af71819b40c1df93485f8d95a6d85dcf40f9046c1687269d",
    "full": "1ea4e5c69b503b5734a0269c3ed485ee4db11053f0d088581328b37daef506da",
}


@pytest.mark.parametrize("seed", sorted(ENGINE_DIGESTS))
def test_engine_both_csv_digest(seed, tmp_path, monkeypatch):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    from workloads import make_jobs

    digests = {}
    for job in make_jobs("engine", seed):
        config, out = tmp_path / "phases.cfg", tmp_path / job["out"]
        config.write_text(job["config"], encoding="utf-8")
        assert main([*job["argv"], "--config", str(config), "--out", str(out)]) == 0
        digests[job["name"]] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == ENGINE_DIGESTS[seed]


@pytest.mark.parametrize("level", sorted(VERIFY_DIGESTS))
def test_verify_stdout_digest(level, capsys):
    assert main(["--verify", level]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_DIGESTS[level]


def _format_value(value) -> str:
    # the per-cell formatter the row writer replaced, kept as its reference
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def reference_csv(spec):
    """The sweep CSV with every cell of every row formatted on its own."""
    params = sweep._validated(spec)
    shape, coords = sweep._coordinate_grids(spec, params)
    full = {name: np.broadcast_to(c, shape) for name, c in coords.items()}
    h = params["h"]
    fields = sweep.BOTH_FIELDS if spec.mode == "both" else sweep.BASE_FIELDS
    lines = [",".join(fields)]
    for k in params["k"]:
        if spec.mode != "general":
            closed, closed_tail = sweep._closed_grid(spec, params, coords, shape, k)
        if spec.mode != "closed-form":
            general, general_tail = sweep._general_grid(spec, params, coords, shape, k)
        if spec.mode == "closed-form":
            deficit, tail, method = closed, closed_tail, "closed-form"
        elif spec.mode == "general":
            deficit, tail, method = general, general_tail, "general"
        else:
            deficit, tail, method = closed, closed_tail + general_tail, "both"
        for idx in np.ndindex(shape) if shape else [()]:
            d = float(np.asarray(deficit)[idx])
            neg = 0.5 - h * h * d
            row = [
                spec.scenario, k, h, params["M"],
                float(full["u"][idx]), float(full["v"][idx]), float(full["w"][idx]),
                d, neg, math.log1p(neg), method, tail,
            ]
            if spec.mode == "both":
                g = float(np.asarray(general)[idx])
                row.extend([g, abs(d - g)])
            lines.append(",".join(_format_value(v) for v in row))
    return "\n".join(lines) + "\n"


# sweeps whose cells need exponent notation: h = 1e-05, tiny and huge phases
TINY_PHASES = SweepSpec(
    scenario="one-way", axes=(Axis("u", 0.0, 1e-6, 5),), fixed={"h": 1e-5}
)
HUGE_PHASES = SweepSpec(
    scenario="one-way",
    axes=(Axis("u", 1e16, 3e17, 3),),
    fixed={"h": 1e-5, "w": -2.5e-7},
)
# a full period on both axes repeats negativities on the zero loci and
# across the mirror symmetry, so the row writer formats far fewer of them
# than it writes rows
REPEATED_NEGATIVITIES = SweepSpec(
    scenario="alpha-centauri",
    axes=(Axis("u", 0.0, 2 * math.pi, 13), Axis("v", 0.0, 2 * math.pi, 13)),
    fixed={"h": 0.01, "n_max": 60},
)


@pytest.mark.parametrize(
    "spec",
    [
        # three axes in a non-alphabetical order
        SweepSpec(
            scenario="round-trip",
            axes=(Axis("w", 0.0, 2 * math.pi, 3), Axis("u", 0.1, 3.0, 4),
                  Axis("v", -1.0, 1.0, 2)),
            fixed={"k": 2, "h": 0.01},
        ),
        # several k, one axis, a fixed phase
        SweepSpec(
            scenario="alpha-centauri",
            axes=(Axis("v", 0.0, 2 * math.pi, 7),),
            fixed={"k": (1, 2, 3), "h": 0.02, "u": 1.25},
        ),
        # no axes at all
        SweepSpec(scenario="round-trip", fixed={"u": 0.3, "v": 0.4, "w": 1.7}),
        SweepSpec(scenario="kickstart", fixed={"k": (1, 4)}),
        TINY_PHASES,
        HUGE_PHASES,
        REPEATED_NEGATIVITIES,
        replace(REPEATED_NEGATIVITIES, mode="both"),
        # heavy field, M = 1000.0, two axes
        SweepSpec(
            scenario="one-way",
            axes=(Axis("u", 0.0, 3.0, 4), Axis("v", 0.0, 1.0, 2)),
            fixed={"k": (1, 2), "h": 1e-5, "M": 1e3, "n_max": 60},
        ),
        # mode both and mode general, with a fixed phase and several k
        SweepSpec(
            scenario="round-trip",
            axes=(Axis("u", 0.2, 2.0, 3), Axis("w", 0.0, 1.0, 2)),
            fixed={"k": (1, 2), "h": 0.01, "v": 0.5, "n_max": 60},
            mode="both",
        ),
        SweepSpec(
            scenario="alpha-centauri",
            axes=(Axis("v", 0.0, 1.0, 2), Axis("u", 0.2, 2.0, 3)),
            fixed={"h": 0.01, "n_max": 60},
            mode="general",
        ),
        SweepSpec(
            scenario="custom",
            mode="general",
            segments=(Accelerated(1, 0.7), Inertial(1.2), Accelerated(-1, 0.7)),
            fixed={"h": 0.5, "n_max": 60},
        ),
    ],
)
def test_row_writer_matches_per_cell_formatting(spec):
    assert run_sweep(spec) == reference_csv(spec)


def test_full_period_grid_repeats_negativities():
    rows = rows_of(run_sweep(REPEATED_NEGATIVITIES))
    negativities = [row["negativity"] for row in rows]
    assert len(set(negativities)) < len(negativities) / 2


def test_signed_zero_deficits_are_written_as_their_own_repr(monkeypatch):
    spec = SweepSpec(scenario="one-way", axes=(Axis("u", 0.0, 1.0, 6),))
    monkeypatch.setattr(
        sweep, "one_way_deficit", lambda k, p: np.array([0.0, -0.0] * 3)
    )
    text = run_sweep(spec)
    rows = rows_of(text)
    assert [row["deficit_scaled"] for row in rows] == ["0.0", "-0.0"] * 3
    assert {row["negativity"] for row in rows} == {"0.5"}
    assert text == reference_csv(spec)


def test_row_writer_keeps_signed_zero_negativities_apart():
    spec = SweepSpec(scenario="one-way", axes=(Axis("u", 0.0, 1.0, 4),))
    params = sweep._validated(spec)
    negativity = np.array([0.0, -0.0, -0.0, 0.0])
    rows = sweep._block_rows(
        spec, params, 1, "closed-form", 0.0, np.zeros(4), negativity, None
    )
    cells = [row.split(",")[8:10] for row in rows]
    assert cells == [["0.0", "0.0"], ["-0.0", "-0.0"], ["-0.0", "-0.0"], ["0.0", "0.0"]]


def test_row_writer_cases_reach_exponent_notation():
    cells = set()
    for spec in (TINY_PHASES, HUGE_PHASES):
        cells.update(run_sweep(spec).replace("\n", ",").split(","))
    assert {"1e-05", "1e+16", "3e+17", "-2.5e-07", "2.5e-07"} <= cells


def test_unknown_preset():
    with pytest.raises(ConfigError):
        preset_spec("fig9")


# ---------------------------------------------------------------- estimates


def test_estimate_massless_path():
    est = estimate_physical(10.0, 10.0)
    assert est.path == "massless"
    assert est.peak_deficit_scaled == pytest.approx(0.16525145161591603, rel=1e-10)
    assert est.peak_degradation == pytest.approx(
        est.h * est.h * est.peak_deficit_scaled
    )


def test_estimate_heavy_field_path():
    est = estimate_physical(10.0, 10.0, transverse_wavelength=500e-9)
    assert est.path == "heavy-field"
    assert est.M == pytest.approx(125663706.14359173, rel=1e-14)
    assert est.validity.massive_ok and est.validity.perturbative_ok
    assert 0.0 < est.peak_degradation < 0.5


def test_estimate_mode_index_is_a_whole_number():
    # k = 2.0 raised TypeError inside the heavy-field waveform
    for kw in ({}, {"transverse_wavelength": 500e-9}):
        assert estimate_physical(10.0, 10.0, k=2.0, **kw) == estimate_physical(
            10.0, 10.0, k=2, **kw
        )
        with pytest.raises(ConfigError, match="k must be an integer, got 2.5"):
            estimate_physical(10.0, 10.0, k=2.5, **kw)


def test_estimate_at_k_25000_holds_no_waveform_grid():
    # the heavy-field peak is the reach of the form, one sum over the modes:
    # 1.2 MB traced, where 2049 samples of a period against 25,000 modes
    # built a 410 MB matrix and took 3.4-3.6 s
    tracemalloc.start()
    try:
        est = estimate_physical(1e-5, 1.0, mass=1e-33, k=25000)
        traced = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traced < 3e6
    assert est.path == "heavy-field"
    assert est.peak_deficit_scaled == closedform._massive_reach(25000, est.M, 50000)
    assert f"{est.peak_deficit_scaled:.6g}" == "1.7646e+26"


def test_estimate_intermediate_mass_refused():
    with pytest.raises(ConfigError):
        estimate_physical(1.0, 1.0, transverse_wavelength=1.0, k=30)


# a child under a 1 GiB address-space limit: a k, n_max or grid that reaches
# the arrays there fails with MemoryError instead of growing until the machine
# kills it
_BOUNDED_MAIN = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "from cavneg.cli import main\n"
    "print(main(sys.argv[1:]))\n"
)


def _bounded_main(cwd, argv):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", _BOUNDED_MAIN, *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["--scenario", "one-way", "--k", "1e20"],
        ["--scenario", "round-trip", "--mode", "both", "--n-max", "400", "--k", "1,100001"],
        ["--estimate", "--accel", "10", "--delta", "10", "--k", "1e20"],
        ["--estimate", "--accel", "1e-5", "--delta", "1", "--mass", "1e-10", "--k", "1e20"],
    ],
    ids=["one-way", "both", "estimate-massless", "estimate-heavy-field"],
)
def test_k_above_the_closed_form_bound_is_refused(tmp_path, argv):
    done = _bounded_main(tmp_path, argv)
    assert done.stdout.strip() == "1", done.stderr
    assert f"is above {sweep._MAX_K}, the largest the closed forms take" in done.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("M", ["1e150", "1e200"])
def test_an_overflowing_engine_writes_one_error_line(tmp_path, M):
    # the boost entries overflow; numpy's warnings about it would come
    # before the NaN refusal, which is all stderr holds
    argv = ["--scenario", "one-way", "--mode", "general", "--M", M, "--n-max", "10",
            "--out", str(tmp_path / "x.csv")]
    done = _bounded_main(tmp_path, argv)
    assert done.stdout.strip() == "2", done.stderr
    assert done.stderr.splitlines() == [
        "numeric validity error: the engine deficit came out NaN at k = 1 for "
        f"M = {float(M)!r}, h = 0.01, n_max = 10"
    ]
    assert not list(tmp_path.iterdir())


def test_k_at_the_closed_form_bound_is_accepted():
    k = sweep._MAX_K
    rows = rows_of(run_sweep(SweepSpec("one-way", fixed={"k": k, "h": 1e-9})))
    assert [int(r["k"]) for r in rows] == [k]
    assert estimate_physical(10.0, 10.0, k=k).k == k
    with pytest.raises(ConfigError, match=f"above {k}"):
        estimate_physical(10.0, 10.0, k=k + 1)
    # the engine takes its bound from n_max
    with pytest.raises(ValueError, match="n_max must be at least"):
        run_sweep(SweepSpec("one-way", fixed={"k": k + 1}, mode="general"))


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--mode", "general", "--n-max", "1e9"], f"is above {sweep._MAX_N_MAX}, the largest"),
        (["--mode", "both", "--n-max", "1e8"], f"is above {sweep._MAX_N_MAX}, the largest"),
        (["--M", "1e9", "--n-max", "1e9", "--axis", "u=0:1:3"],
         f"is above {sweep._MAX_N_MAX}, the largest"),
        (["--M", "1e3", "--n-max", "2e5", "--axis", "u=0:1:101"],
         f"holds more than {sweep._MAX_WAVEFORM} values"),
    ],
    ids=["general", "both", "heavy-field", "heavy-field-waveform"],
)
def test_n_max_above_the_array_bounds_is_refused(tmp_path, argv, message):
    done = _bounded_main(tmp_path, ["--scenario", "one-way", "--k", "1", *argv])
    assert done.stdout.strip() == "1", done.stderr
    assert message in done.stderr
    assert not list(tmp_path.iterdir())


def test_n_max_at_the_array_bounds_is_accepted():
    n_max = sweep._MAX_N_MAX
    for mode in ("general", "both"):
        spec = SweepSpec("one-way", fixed={"n_max": n_max}, mode=mode)
        assert sweep._validated(spec)["n_max"] == n_max
    rows = rows_of(run_sweep(SweepSpec(
        "one-way", fixed={"M": 1e3, "h": 1e-9, "n_max": n_max}
    )))
    assert len(rows) == 1 and float(rows[0]["deficit_scaled"]) >= 0
    # 100,000 modes at as many points as the waveform bound allows, then one more
    count = sweep._MAX_WAVEFORM // 100_000
    spec = SweepSpec(
        "one-way", axes=(Axis("u", 0.0, 1.0, count),), fixed={"M": 1e3, "n_max": 200_000}
    )
    assert sweep._validated(spec)["n_max"] == 200_000
    with pytest.raises(ConfigError, match=f"more than {sweep._MAX_WAVEFORM} values"):
        sweep._validated(replace(spec, axes=(Axis("u", 0.0, 1.0, count + 1),)))
    # a massless closed form reads no n_max
    assert sweep._validated(SweepSpec("one-way", fixed={"n_max": 10**9}))["n_max"] == 10**9


@pytest.mark.parametrize(
    "argv,points",
    [
        (["--scenario", "one-way", "--axis", "u=0:1:1e9"], 10**9),
        (["--scenario", "alpha-centauri", "--axis", "u=0:1:1e5", "--axis", "v=0:1:1e5"],
         10**10),
        (["--scenario", "one-way", "--mode", "general", "--axis", "u=0:1:1e8"], 10**8),
    ],
    ids=["one-way", "alpha-centauri", "general"],
)
def test_a_grid_above_the_point_bound_is_refused(tmp_path, argv, points):
    done = _bounded_main(tmp_path, argv)
    assert done.stdout.strip() == "1", done.stderr
    assert f"the grid of {points} points is above {sweep._MAX_POINTS}" in done.stderr
    assert not list(tmp_path.iterdir())


def test_a_grid_at_the_point_bound_is_accepted():
    side = math.isqrt(sweep._MAX_POINTS)
    assert side * side == sweep._MAX_POINTS
    line = (Axis("u", 0.0, 1.0, sweep._MAX_POINTS),)
    square = (Axis("u", 0.0, 1.0, side), Axis("v", 0.0, 1.0, side))
    for axes in (line, square):
        assert sweep._validated(SweepSpec("alpha-centauri", axes=axes))
    wider = (Axis("u", 0.0, 1.0, side), Axis("v", 0.0, 1.0, side + 1))
    with pytest.raises(ConfigError, match=f"is above {sweep._MAX_POINTS}, the largest"):
        sweep._validated(SweepSpec("alpha-centauri", axes=wider))


# ---------------------------------------------------------------- CLI


def test_cli_preset_run(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    assert main(["--preset", "fig2", "--out", str(out)]) == 0
    assert "201 rows" in capsys.readouterr().out
    assert out.exists()


@pytest.mark.parametrize(
    "flags,config",
    [
        (["--scenario", "round-trip"], ""),
        (["--segments", "acc:1:0.5"], ""),
        ([], "scenario = round-trip\n"),
        ([], "segments = acc:1:0.5\n"),
    ],
    ids=["scenario-flag", "segments-flag", "scenario-key", "segments-key"],
)
def test_cli_preset_refuses_a_scenario_or_segments(tmp_path, capsys, flags, config):
    # the preset fixes its own scenario: the extra setting was dropped and
    # one-way rows written
    out = tmp_path / "a.csv"
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config, encoding="utf-8")
    argv = ["--preset", "fig2", "--config", str(cfg), "--out", str(out)]
    assert main(argv + flags) == 1
    assert "preset 'fig2'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_flag_overrides(tmp_path):
    out = tmp_path / "o.csv"
    code = main(
        [
            "--scenario",
            "one-way",
            "--axis",
            "u=0:pi:5",
            "--k",
            "2",
            "--h",
            "0.02",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = rows_of(out.read_text(encoding="utf-8"))
    assert len(rows) == 5
    assert all(r["k"] == "2" and r["h"] == "0.02" for r in rows)


def test_cli_k_flag_overrides_a_preset_k_sequence(tmp_path, capsys):
    # the preset's k = 1..4 won over the flag and four blocks were written
    out = tmp_path / "f.csv"
    assert main(["--preset", "fig5a", "--k", "3", "--out", str(out)]) == 0
    rows = rows_of(out.read_text(encoding="utf-8"))
    assert len(rows) == 601 and {r["k"] for r in rows} == {"3"}
    capsys.readouterr()


def test_cli_k_flag_overrides_a_config_k_sequence(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("scenario = one-way\nu = 0:pi:3\nk = 1, 2\n", encoding="utf-8")
    out = tmp_path / "c.csv"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    assert [r["k"] for r in rows_of(out.read_text(encoding="utf-8"))] == (
        ["1"] * 3 + ["2"] * 3
    )
    assert main(["--config", str(cfg), "--k", "5", "--out", str(out)]) == 0
    assert [r["k"] for r in rows_of(out.read_text(encoding="utf-8"))] == ["5"] * 3
    assert main(["--config", str(cfg), "--k", "3,1", "--out", str(out)]) == 0
    assert [r["k"] for r in rows_of(out.read_text(encoding="utf-8"))] == (
        ["3"] * 3 + ["1"] * 3
    )
    capsys.readouterr()


def test_cli_whole_numbers_written_as_floats_give_the_same_bytes(tmp_path, capsys):
    # --k 2.0 was a usage error and the config line k = 2.0 an int() error
    base = ["--scenario", "one-way", "--mode", "both", "--axis", "u=0.5:1:2"]

    def run(name, extra, config=""):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(config, encoding="utf-8")
        out = tmp_path / f"{name}.csv"
        assert main(base + extra + ["--config", str(cfg), "--out", str(out)]) == 0
        return out.read_bytes()

    whole = run("whole", ["--k", "2", "--n-max", "200"])
    assert run("flags", ["--k", "2.0", "--n-max", "200.0"]) == whole
    assert run("config", [], "k = 2.0\nn_max = 200.0\n") == whole
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags,config,message",
    [
        (["--k", "2.7"], "", "k must be an integer, got 2.7"),
        (["--n-max", "200.5"], "", "n_max must be an integer, got 200.5"),
        ([], "k = 1, 2.7\n", "k must be an integer, got 2.7"),
        ([], "k_list = 1, 2\n", "c.cfg:1: unknown key 'k_list'"),
        ([], "h = 0.01\nk = x\n", "c.cfg:2: cannot parse number 'x'"),
    ],
    ids=["k-flag", "n-max-flag", "k-key", "k-list-key", "k-garbage"],
)
def test_cli_refuses_bad_indices(tmp_path, capsys, flags, config, message):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config, encoding="utf-8")
    out = tmp_path / "x.csv"
    argv = ["--scenario", "one-way", "--axis", "u=0:pi:3", "--config", str(cfg),
            "--out", str(out)]
    assert main(argv + flags) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_axis_count_written_as_a_float(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["--scenario", "one-way", "--out", str(out)]
    assert main(argv + ["--axis", "u=0:1:3.0"]) == 0
    assert len(rows_of(out.read_text(encoding="utf-8"))) == 3
    out.unlink()
    assert main(argv + ["--axis", "u=0:1:2.5"]) == 1
    assert "axis u: count must be an integer, got 2.5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--h", "nan"], "argument --h: number must be finite, got 'nan'"),
        (["--k", ","], "argument --k: empty number"),
        (["--n-max", "2x"], "argument --n-max: cannot parse number '2x'"),
    ],
    ids=["h-nan", "k-empty", "n-max-garbage"],
)
def test_cli_number_flags_keep_the_config_error_text(tmp_path, capsys, flags, message):
    # argparse replaced the text with "invalid parse_number value: 'nan'"
    out = tmp_path / "x.csv"
    argv = ["--scenario", "one-way", "--axis", "u=0:pi:3", "--out", str(out)]
    assert main(argv + flags) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,config",
    [(["--segments", "acc:1:0.5"], ""), ([], "segments = acc:1:0.5\n")],
    ids=["segments-flag", "segments-key"],
)
def test_cli_named_scenario_refuses_segments(tmp_path, capsys, flags, config):
    # the segments were dropped and one-way rows written
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config, encoding="utf-8")
    out = tmp_path / "x.csv"
    argv = ["--scenario", "one-way", "--axis", "u=0:pi:3", "--config", str(cfg),
            "--out", str(out)]
    assert main(argv + flags) == 1
    assert "segments need scenario=custom" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_file_matches_flags(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "# one-way sweep\n"
        "scenario = one-way\n"
        "u = 0:2pi:11\n"
        "k = 1\n"
        "h = 0.01\n",
        encoding="utf-8",
    )
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["--config", str(config), "--out", str(out_a)]) == 0
    assert (
        main(
            ["--scenario", "one-way", "--axis", "u=0:2pi:11", "--k", "1",
             "--h", "0.01", "--out", str(out_b)]
        )
        == 0
    )
    assert out_a.read_text(encoding="utf-8") == out_b.read_text(encoding="utf-8")


def test_cli_config_fixed_phase(tmp_path):
    config = tmp_path / "rt.cfg"
    config.write_text(
        "scenario = round-trip\nu = 0:2pi:5\nv = 0:2pi:5\nw = 2pi/3\n",
        encoding="utf-8",
    )
    out = tmp_path / "rt.csv"
    assert main(["--config", str(config), "--out", str(out)]) == 0
    rows = rows_of(out.read_text(encoding="utf-8"))
    assert len(rows) == 25
    assert all(
        float(r["w"]) == pytest.approx(2 * math.pi / 3, rel=1e-15) for r in rows
    )


def test_read_config_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("wibble = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        read_config(str(bad))


def test_cli_exit_codes(tmp_path, capsys):
    # unknown flag -> usage error
    assert main(["--frobnicate"]) == 1
    # missing scenario and preset
    assert main([]) == 1
    # numeric validity: |h| >= 2
    assert (
        main(["--scenario", "one-way", "--axis", "u=0:1:3", "--h", "2.5",
              "--out", str(tmp_path / "x.csv")])
        == 2
    )
    # unwritable output
    assert (
        main(["--scenario", "one-way", "--axis", "u=0:1:3",
              "--out", "/no/such/dir/x.csv"])
        == 1
    )
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["--scenario", "custom", "--segments", "acc:1.9:0.7"],
        ["--scenario", "custom", "--segments", "acc:1:nan"],
        ["--scenario", "custom", "--segments", "acc:1:inf"],
        ["--scenario", "one-way", "--axis", "u=0:nan:3"],
        ["--scenario", "one-way", "--M", "inf", "--mode", "general"],
        ["--scenario", "one-way", "--k", "2.7", "--axis", "u=0:pi:3"],
    ],
)
def test_cli_rejects_bad_numbers(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 1
    assert not out.exists()
    capsys.readouterr()


@pytest.mark.parametrize("mode,code", [("closed-form", 1), ("both", 1), ("general", 0)])
def test_cli_refuses_the_heavy_field_closed_form_at_small_mass(
    tmp_path, capsys, mode, code
):
    # at k/M = 2 the closed form wrote 4.2e-6 where the engine gives 0.039
    argv = ["--scenario", "one-way", "--k", "1", "--axis", "u=0.5:1.5:2",
            "--mode", mode, "--n-max", "400"]
    out = tmp_path / "x.csv"
    assert main(argv + ["--M", "0.5", "--out", str(out)]) == code
    assert out.exists() == (code == 0)
    if code:
        assert "use mode=general" in capsys.readouterr().err
    # k/M = 0.05 is the largest ratio the closed form accepts
    assert main(argv + ["--M", "20", "--out", str(out)]) == 0
    assert len(rows_of(out.read_text(encoding="utf-8"))) == 2
    capsys.readouterr()


def test_cli_estimate(capsys):
    assert main(["--estimate", "--accel", "10", "--delta", "10",
                 "--wavelength", "500e-9"]) == 0
    out = capsys.readouterr().out
    assert "1.25664e+08" in out
    assert "massive_ok = True" in out
    assert main(["--estimate", "--accel", "10"]) == 1
    # one k only: a list has no single peak to report
    argv = ["--estimate", "--accel", "10", "--delta", "10"]
    assert main(argv + ["--k", "1,2"]) == 1
    assert "--estimate takes one --k, got 2" in capsys.readouterr().err
    assert main(argv + ["--k", "2.0"]) == 0
    assert "k = 2\n" in capsys.readouterr().out
    # an M that overflows to inf is refused through M**4, and a reach whose
    # degradation overflows through the 1/2 bound: no NaN peak, no warning
    for tail, message in (
        (["--delta", "1e300", "--mass", "1e-27"], "M = inf is too large: M**4"),
        (["--delta", "1", "--wavelength", "1e-320"], "M = inf is too large: M**4"),
        (["--delta", "1e250", "--mass", "3e-223"], "peak degradation inf exceeds"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--estimate", "--accel", "10", *tail]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_cli_estimate_mode_index(capsys):
    # k = 0 is refused, not run as k = 1
    assert main(["--estimate", "--accel", "9.81", "--delta", "1", "--k", "0"]) == 1
    assert "mode index must be >= 1, got 0" in capsys.readouterr().err
    # at M ~ 28428 the heavy-field sum for k = 250 runs past mode 2k = 500;
    # its reach, where 2049 samples of a period gave 1.7632e+10
    assert main(["--estimate", "--accel", "1e-5", "--delta", "1",
                 "--mass", "1e-38", "--k", "250"]) == 0
    assert "peak deficit_scaled = 1.76461e+10" in capsys.readouterr().out


def test_cli_estimate_refuses_the_sweep_settings_it_ignores(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["--estimate", "--accel", "10", "--delta", "10",
            "--scenario", "round-trip", "--out", "z.csv"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--estimate does not read --scenario, --out" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_cli_verify_refuses_the_sweep_settings_it_ignores(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["--verify", "fast", "--preset", "fig2", "--out", "y.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--verify does not read --preset, --out" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_cli_sweep_refuses_the_estimate_settings(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["--scenario", "one-way", "--axis", "u=0:1:2", "--out", str(out),
            "--accel", "10", "--mass", "1e-30"]
    assert main(argv) == 1
    assert "a sweep does not read --accel, --mass" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_refuses_the_cavity_length(tmp_path, capsys):
    # --delta is read by --estimate alone: a sweep's durations are in cavity
    # units, as a flag and as a config key
    out = tmp_path / "x.csv"
    argv = ["--scenario", "one-way", "--axis", "u=0:1:2", "--out", str(out)]
    assert main(argv + ["--delta", "2"]) == 1
    assert "a sweep does not read --delta" in capsys.readouterr().err
    cfg = tmp_path / "c.cfg"
    cfg.write_text("delta = 2\n", encoding="utf-8")
    assert main(argv + ["--config", str(cfg)]) == 1
    assert "unknown key 'delta'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_heavy_field_sweep_refuses_n_max_below_2k(tmp_path, capsys):
    out = tmp_path / "h.csv"
    argv = ["--scenario", "one-way", "--M", "1000", "--k", "30", "--h", "1e-5",
            "--axis", "u=0:1:3", "--out", str(out)]
    assert main(argv + ["--n-max", "20"]) == 1
    assert "n_max must be at least 2k = 60, got 20" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + ["--n-max", "60"]) == 0
    capsys.readouterr()


def test_cli_estimate_exit_code_for_an_impossible_degradation(capsys):
    heavy = ["--estimate", "--accel", "1e-5", "--mass", "8.8e-28"]
    assert main(heavy + ["--delta", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "peak degradation 1.43596e+14 exceeds 1/2" in captured.err
    assert main(heavy + ["--delta", "1e-3"]) == 0
    out = capsys.readouterr().out
    assert "peak degradation (1/2 - negativity) = 0.000143596" in out
    assert "massive_ok = True" in out


def test_cli_custom_segments(tmp_path):
    out = tmp_path / "c.csv"
    code = main(
        [
            "--scenario", "custom",
            "--segments", "acc:+1:0.7,in:1.2,acc:-1:0.7",
            "--h", "0.5",
            "--n-max", "100",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert len(rows_of(out.read_text(encoding="utf-8"))) == 1


def test_cli_custom_trip_in_cavity_units(tmp_path, capsys):
    # a cavity twice as long is the same trip at half the durations: the
    # value the sweep's former --delta 2 gave for acc:+1:0.7,in:1.2,acc:-1:0.7
    out = tmp_path / "c.csv"
    argv = ["--scenario", "custom", "--segments", "acc:+1:0.35,in:0.6,acc:-1:0.35",
            "--n-max", "400", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    (row,) = rows_of(out.read_text(encoding="utf-8"))
    assert row["deficit_scaled"] == "0.18171449262116202"


def test_cli_env_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CAVNEG_OUT_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    assert main(["--scenario", "one-way", "--axis", "u=0:1:3"]) == 0
    capsys.readouterr()
    assert (tmp_path / "one-way.csv").exists()


# ---------------------------------------------------------------- shared parser


def test_main_shares_one_parser_and_build_parser_makes_new_ones():
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    assert cli.build_parser() is not cli._parser()


def test_back_to_back_main_calls_equal_calls_with_fresh_parsers(tmp_path, capsys):
    # the append action of --axis, a --k that the next call leaves unset, and
    # presets with and without axis overrides
    runs = [
        ["--scenario", "alpha-centauri", "--axis", "u=0:pi:3", "--axis", "v=0:2pi:4",
         "--k", "2"],
        ["--scenario", "one-way", "--axis", "u=0:1:3"],
        ["--preset", "fig2"],
        ["--preset", "fig4a", "--axis", "u=0:1:2", "--axis", "v=0:1:3"],
        ["--scenario", "round-trip", "--axis", "w=0:pi:2", "--h", "0.02"],
        ["--scenario", "one-way", "--mode", "both", "--n-max", "60", "--k", "3",
         "--axis", "u=0.5:1:2"],
        ["--preset", "fig2", "--k", "2"],
    ]

    def run(argv, out):
        assert main(argv + ["--out", str(out)]) == 0
        return out.read_bytes()

    shared = [run(argv, tmp_path / f"shared{i}.csv") for i, argv in enumerate(runs)]
    fresh = []
    for i, argv in enumerate(runs):
        cli._parser.cache_clear()
        fresh.append(run(argv, tmp_path / f"fresh{i}.csv"))
    assert shared == fresh
    assert [len(rows_of(b.decode())) for b in shared] == [12, 3, 201, 6, 2, 2, 201]
    capsys.readouterr()


def test_usage_error_leaves_the_shared_parser_usable(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["--scenario", "one-way", "--axis", "u=0:1:3", "--frobnicate"]) == 1
    assert main(["--scenario", "nowhere", "--k", "2"]) == 1
    assert main(["--scenario", "one-way", "--axis", "u=0:1:3", "--out", str(out)]) == 0
    rows = rows_of(out.read_text(encoding="utf-8"))
    assert [r["k"] for r in rows] == ["1"] * 3
    assert "wrote 3 rows" in capsys.readouterr().out


def test_cli_verify_fast_passes(capsys):
    assert main(["--verify", "fast"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
