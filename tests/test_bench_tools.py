"""The bench/ layer scripts' tooling, without taking any measurement."""

from __future__ import annotations

import importlib
import json
import math
import os
import subprocess
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("harness")


@pytest.mark.parametrize("script", sorted(p.stem for p in BENCH.glob("*.py")))
def test_every_bench_script_imports(harness, script):
    module = importlib.import_module(script)
    if script != "harness":
        assert callable(module.measure) and callable(module.show)


def test_wrap_replaces_and_returns_the_original(harness):
    owner = types.ModuleType("owner")
    owner.f = len
    assert harness.wrap(owner, "f", lambda fn: (lambda x: fn(x) + 1)) is len
    assert owner.f("ab") == 3


def test_wrap_names_a_missing_attribute_and_its_tree(harness):
    from cavneg import cli

    with pytest.raises(AttributeError, match=r"cavneg\.cli\._no_such_name is missing "
                       r"from the tree at .*cli\.py"):
        harness.wrap(cli, "_no_such_name", lambda fn: fn)


def test_trees_are_equal_length_siblings(harness):
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=harness.ROOT, capture_output=True)
    if git.returncode != 0:
        pytest.skip("the baseline tree comes from git archive, and this is no git checkout")
    with harness.trees("HEAD") as trees:
        assert list(trees) == ["before", "after"]
        before, after = trees.values()
        assert len(before) == len(after)
        assert Path(before).parent.parent == Path(after).parent.parent
        for src in (before, after):
            assert os.path.isfile(os.path.join(src, "cavneg", "__init__.py"))
    assert not os.path.exists(before)


@pytest.fixture(scope="module")
def untimed():
    # one untimed cli_layers pass against src/: each preset counted and
    # traced, then each verify level traced
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        harness = importlib.import_module("harness")
        cli_layers = importlib.import_module("cli_layers")
        return cli_layers, harness.child(cli_layers.__file__, str(ROOT / "src"), "untimed")


def test_the_untimed_presets_pass_reads_every_wrapped_name(untimed, monkeypatch):
    # a renamed _q_flat, _product_tile or _closed_grid stops the child
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import PRESET_DIGESTS

    cli_layers, report = untimed
    presets = report["presets"]
    assert {name: row["sha256"] for name, row in presets.items()} == PRESET_DIGESTS
    for row in presets.values():
        assert set(row) == set(cli_layers.UNTIMED)
        assert row["closed_traced_peak_mb"] > 0
    # fig3 runs the Q series pass, fig4a the product sums' large-grid pass
    assert presets["fig3"]["q_phases"] > 0
    assert presets["fig4a"]["product_phases"] > 0


def test_the_untimed_verify_pass_returns_every_check_from_a_check_function(untimed):
    # the child stops unless the _*_check(s) functions of verify return
    # every check that main renders, in order, so a check appended inline in
    # run_verification fails here
    cli_layers, report = untimed
    for level, count in (("fast", 17), ("full", 30)):
        calls = report[f"verify-{level}"]
        assert sum(len(call["checks"]) for call in calls) == count
        assert all(call["traced_peak_mb"] > 0 for call in calls)
    rendered = "PASS a: residual 0\nPASS b: residual 0\n2/2 checks passed at level fast\n"
    cli_layers._guard(rendered, [{"checks": ["a"]}, {"checks": ["b"]}])
    with pytest.raises(RuntimeError, match=r"\['b'\] come from no"):
        cli_layers._guard(rendered, [{"checks": ["a"]}])


def test_every_bench_script_has_one_record():
    # a folded or deleted script leaves no orphan record behind
    records = {}
    for path in ROOT.glob("BENCH_*.json"):
        name = json.loads(path.read_text(encoding="utf-8"))["benchmark"]
        records.setdefault(name, []).append(path.name)
    scripts = {path.stem for path in BENCH.glob("*.py")} - {"harness"}
    assert {name: len(paths) for name, paths in records.items()} == dict.fromkeys(scripts, 1)


def test_the_cheap_kernel_cases_run_against_src(harness):
    # the case list binds every kernel function, so a renamed one fails here;
    # the n_max 2e5 and full-matrix cases are listed but not run
    kernel_layers = importlib.import_module("kernel_layers")
    groups = kernel_layers._cases()
    names = [name for _, group in groups for name, _ in group]
    assert len(set(names)) == len(names) == 14 + 3 * 4 + 4

    def cheap(name):
        size = name.split("/")[-1]
        return size in ("scalar", "16") or name.startswith("scenario_negativity/") and size == "2000"

    report = kernel_layers.run(
        [(1, [(name, call) for name, call in group if cheap(name)]) for _, group in groups]
    )
    assert len(report) == 9 + 4
    for name, row in report.items():
        assert row["first_s"] > 0 and row["call_s"] > 0
        assert len(row["sha256"]) == 64
        if name.startswith("scenario_negativity/"):
            assert math.isfinite(row["value"]) and row["value"] > 0
