"""What the bench/ layer scripts share: the trees they time, the fresh
interpreters they time them in, the rounds, the reports.

A layer script times one layer of cavneg and writes a ``BENCH_*.json``
report that ends with the environment record: nproc, machine, Python and
numpy versions, the git SHA and whether src/ differs from it.  The script
keeps its probes, which run in a child (``script --child ARGS``, a fresh
interpreter that imports cavneg from one tree and prints JSON), and its
summaries and print lines; this module does the rest.

With ``--baseline REV`` the src/ tree of that git revision is extracted
with ``git archive`` and timed the same way, so the report holds before
and after numbers.  The working tree's src/ is copied, and the two trees
sit side by side in one temporary directory, at paths of equal length
(``base/src`` and ``work/src``), since where a tree lies can move a
child's resident peak.  Each child runs in an empty temporary directory of
its own.  A round runs the script's children once for each tree in turn,
so that a slow spell of the host hits both; the scripts report medians
over the rounds.

Every function a probe wraps goes through ``wrap``, which raises, naming
the attribute and the tree, when a tree lacks it: a renamed function fails
the run instead of going unmeasured.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def environment(baseline: str | None = None) -> dict:
    """The machine, the library versions and the code a report timed."""
    # imported here, not at the top, so that a child loads numpy through
    # cavneg, as users do, and platform no earlier than cavneg would
    import platform

    import numpy as np

    env = {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git("rev-parse", "HEAD"),
        # true when src/ differs from that commit, so the SHA alone does
        # not name the code that was timed as "after"
        "src_modified": bool(_git("status", "--porcelain", "--", "src")),
    }
    if baseline is not None:
        env["baseline_sha"] = _git("rev-parse", baseline)
    return env


@contextlib.contextmanager
def trees(baseline: str | None):
    """Yield {label: src path}: "before", the src/ of git revision baseline,
    when one is given, then "after", a copy of the working tree's src/."""
    with tempfile.TemporaryDirectory() as tmp:
        found = {}
        if baseline is not None:
            tar = os.path.join(tmp, "base.tar")
            subprocess.run(
                ["git", "archive", "--format=tar", f"--output={tar}", baseline, "src"],
                cwd=ROOT,
                check=True,
            )
            shutil.unpack_archive(tar, os.path.join(tmp, "base"), filter="data")
            found["before"] = os.path.join(tmp, "base", "src")
        found["after"] = shutil.copytree(
            os.path.join(ROOT, "src"),
            os.path.join(tmp, "work", "src"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        yield found


def load(src: str):
    """Import cavneg from the tree src; raise ImportError if it comes from
    elsewhere."""
    sys.path.insert(0, src)
    import cavneg

    if not os.path.abspath(cavneg.__file__).startswith(src + os.sep):
        raise ImportError(f"cavneg was imported from {cavneg.__file__}, not from {src}")
    return cavneg


def wrap(owner, name: str, make_wrapper):
    """Replace owner.name, an attribute of a module or class of cavneg, with
    make_wrapper(the original) and return the original.  Raise
    AttributeError, naming the attribute and the tree, if it is missing."""
    if not hasattr(owner, name):
        import inspect

        raise AttributeError(
            f"{owner.__name__}.{name} is missing from the tree at {inspect.getfile(owner)}"
        )
    original = getattr(owner, name)
    setattr(owner, name, make_wrapper(original))
    return original


def child(script: str, *args: str) -> dict:
    """Run ``script --child ARGS`` in a fresh interpreter, in an empty
    temporary directory, and return the JSON it prints.  Its stderr passes
    through, so a failing child shows why."""
    with tempfile.TemporaryDirectory() as workdir:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(script), "--child", *args],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
            cwd=workdir,
        )
    return json.loads(proc.stdout)


def rounds(found: dict, repeats: int, run) -> dict:
    """{label: [run(src, r) for r in range(repeats)]} over the trees found;
    the trees take turns within every round."""
    out = {label: [] for label in found}
    for r in range(repeats):
        for label, src in found.items():
            out[label].append(run(src, r))
    return out


def main(doc: str, out: str, measure, show, probe, options=None) -> int:
    """A layer script's command line.  ``--child ARGS`` prints
    probe(*ARGS) as JSON; otherwise the script parses ``--out`` (default
    out, in the repository root), ``--baseline`` and what options(parser)
    adds, writes measure(args) to --out as JSON and prints show(report)'s
    lines."""
    argv = sys.argv[1:]
    if argv[:1] == ["--child"]:
        # parsed by hand, so that argparse loads in a child no earlier than
        # cavneg.cli loads it
        json.dump(probe(*argv[1:]), sys.stdout)
        return 0
    import argparse

    p = argparse.ArgumentParser(description=doc.splitlines()[0])
    p.add_argument("--out", default=os.path.join(ROOT, out))
    p.add_argument("--baseline", help="git revision to time as 'before'")
    if options is not None:
        options(p)
    args = p.parse_args(argv)
    report = measure(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for line in show(report):
        print(line)
    print(f"wrote {args.out}")
    return 0
