"""The bench/ layer scripts' tooling, without taking any measurement."""

from __future__ import annotations

import importlib
import os
import subprocess
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


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


def test_the_untimed_presets_pass_reads_every_wrapped_name(harness, monkeypatch):
    # a renamed _q_flat, _product_tile or _closed_grid stops the child
    monkeypatch.syspath_prepend(os.path.join(harness.ROOT, "perfbench"))
    from workloads import PRESET_DIGESTS

    cli_layers = importlib.import_module("cli_layers")
    report = harness.child(cli_layers.__file__, os.path.join(harness.ROOT, "src"), "untimed")
    assert {name: row["sha256"] for name, row in report.items()} == PRESET_DIGESTS
    for row in report.values():
        assert set(row) == set(cli_layers.UNTIMED)
        assert row["closed_traced_peak_mb"] > 0
    # fig3 runs the Q series pass, fig4a the product sums' large-grid pass
    assert report["fig3"]["q_phases"] > 0
    assert report["fig4a"]["product_phases"] > 0
