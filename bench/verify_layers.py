"""Time the verification levels check by check.

Writes a JSON report with:

- ``fast``: for each check function ``run_verification("fast")`` calls, in
  call order, the names of the checks it returned and its median time; a
  function that measures a number for a later check is charged for that
  work (the fast level's ``_boost_checks`` measures the column-vs-matrix
  difference that ``_column_matches_matrix_check`` only reports);
- ``fast_total_s``: the median time of the whole fast level;
- ``full_s``: the time of one ``run_verification("full")`` call, with the
  time of each of its check functions;
- whether every check passed, and the environment: nproc, Python and numpy
  versions, git SHA and whether src/ differs from it.

Run from the repository root:

    python3 bench/verify_layers.py [--out BENCH_verify.json] [--baseline REV]

With ``--baseline REV`` the src/ tree of that git revision is extracted with
``git archive`` into a temporary directory and timed the same way, so the
report holds before and after numbers. A round runs the fast level once in a
fresh interpreter; the two trees alternate round by round, so that a slow
spell of the host hits both. Fast-level times are medians in seconds over
seven rounds. The full level runs once per tree, after the rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from presets_layers import ROOT, environment, extract_src

REPEATS = 7


def _names(out) -> list:
    # check names in what a check function returned: one result, a list of
    # them, or a tuple that also holds plain numbers
    if isinstance(out, (list, tuple)):
        return [name for item in out for name in _names(item)]
    return [out.name] if hasattr(out, "name") else []


def _timed_checks(verify) -> list:
    """Wrap every check function of the verify module; return the list the
    wrappers append (function, check names, seconds) to, in call order."""
    calls = []

    def wrap(name, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            calls.append({"function": name, "checks": _names(out), "s": elapsed})
            return out

        return timed

    for name, fn in list(vars(verify).items()):
        if name.startswith("_") and name.endswith(("_check", "_checks")) and callable(fn):
            setattr(verify, name, wrap(name, fn))
    return calls


def _child(src: str, level: str) -> None:
    # one level once, in a fresh interpreter importing src
    sys.path.insert(0, src)
    import cavneg
    from cavneg import verify

    if not os.path.abspath(cavneg.__file__).startswith(src + os.sep):
        raise ImportError(f"cavneg was imported from {cavneg.__file__}, not from {src}")
    calls = _timed_checks(verify)
    t0 = time.perf_counter()
    report = verify.run_verification(level)
    total = time.perf_counter() - t0
    json.dump(
        {
            "total_s": total,
            "calls": calls,
            "checks": len(report.checks),
            "passed": report.passed,
        },
        sys.stdout,
    )


def _run(src: str, level: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", src, "--level", level],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
    )
    return json.loads(proc.stdout)


def _summary(rounds: list, full: dict) -> dict:
    checks = []
    for i, call in enumerate(rounds[0]["calls"]):
        if any(r["calls"][i]["checks"] != call["checks"] for r in rounds):
            raise RuntimeError(f"rounds disagree on the checks of {call['function']}")
        checks.append(
            {
                "function": call["function"],
                "checks": call["checks"],
                "s": statistics.median(r["calls"][i]["s"] for r in rounds),
            }
        )
    return {
        "fast": checks,
        "fast_total_s": statistics.median(r["total_s"] for r in rounds),
        "fast_checks": rounds[0]["checks"],
        "full_s": full["total_s"],
        "full": [
            {"function": c["function"], "checks": c["checks"], "s": c["s"]}
            for c in full["calls"]
        ],
        "full_checks": full["checks"],
        "passed": all(r["passed"] for r in rounds) and full["passed"],
    }


def measure(baseline: str | None) -> dict:
    trees = {"after": os.path.join(ROOT, "src")}
    with tempfile.TemporaryDirectory() as tmp:
        if baseline is not None:
            trees = {"before": extract_src(baseline, tmp), **trees}
        rounds = {label: [] for label in trees}
        for _ in range(REPEATS):
            for label, src in trees.items():
                rounds[label].append(_run(src, "fast"))
        full = {label: _run(src, "full") for label, src in trees.items()}
    return {
        "benchmark": "verify_layers",
        "repeats": REPEATS,
        "unit": "s",
        **{label: _summary(rounds[label], full[label]) for label in trees},
        "environment": environment(baseline),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=os.path.join(ROOT, "BENCH_verify.json"))
    p.add_argument("--baseline", help="git revision to time as 'before'")
    p.add_argument("--child", help=argparse.SUPPRESS)
    p.add_argument("--level", default="fast", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        _child(args.child, args.level)
        return 0
    report = measure(args.baseline)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for label in ("before", "after"):
        if label not in report:
            continue
        side = report[label]
        for call in side["fast"]:
            print(f"{label} {call['function']}: {call['s'] * 1e3:.1f} ms ({', '.join(call['checks'])})")
        print(
            f"{label} fast: {side['fast_total_s']:.3f} s, {side['fast_checks']} checks; "
            f"full: {side['full_s']:.3f} s, {side['full_checks']} checks; "
            f"all passed: {side['passed']}"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
