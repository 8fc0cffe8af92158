"""Time the verification levels check by check, and trace their memory.

Writes a JSON report with:

- ``fast``: for each check function ``run_verification("fast")`` calls, in
  call order, the names of the checks it returned, its median time and its
  traced peak; a function that measures a number for a later check is
  charged for that work (in trees whose fast level shares one boost build
  between the identity and column-vs-matrix checks, one function measures
  the difference that ``_column_matches_matrix_check`` only reports);
- ``fast_total_s``: the median time of the whole fast level;
- ``fast_maxrss_mb``: the median peak resident memory of those interpreters
  (``ru_maxrss``, imports included);
- ``full_s``: the median time of ``run_verification("full")`` over the
  same rounds, with the median time and the traced peak of each of its
  check functions;
- ``full_maxrss_mb``: the median peak resident memory of the full level,
  with ``full_maxrss_mb_min`` and ``full_maxrss_mb_max`` over the rounds,
  since that peak moves by a few MB between interpreters of one tree;
- whether every check passed, and the environment: nproc, Python and numpy
  versions, git SHA and whether src/ differs from it.

A check function is any ``_*_check`` or ``_*_checks`` function of the
verify module; none of them calls another.  Its ``traced_peak_mb`` is the
largest memory, in 10**6 bytes, that ``tracemalloc`` saw allocated during
the call, including what was held when it began.  The peaks come from one
more run of each level with tracing on; times and resident memory come from
runs without it, since tracing slows every allocation.

Run from the repository root:

    python3 bench/verify_layers.py [--out BENCH_verify.json] [--baseline REV]

With ``--baseline REV`` the src/ tree of that git revision is extracted with
``git archive`` into a temporary directory and timed the same way, so the
report holds before and after numbers. A round runs the fast level once and
then the full level once, each in a fresh interpreter, for each tree in
turn; the two trees alternate within every round, so that a slow spell of
the host hits both. Times are medians in seconds over seven rounds, and the
traced runs come last.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

from presets_layers import ROOT, environment, extract_src

REPEATS = 7


def _names(out) -> list:
    # check names in what a check function returned: one result, a list of
    # them, or a tuple that also holds plain numbers
    if isinstance(out, (list, tuple)):
        return [name for item in out for name in _names(item)]
    return [out.name] if hasattr(out, "name") else []


def _timed_checks(verify, traced: bool) -> list:
    """Wrap every check function of the verify module; return the list the
    wrappers append (function, check names, seconds and, when traced, the
    traced peak) to, in call order."""
    calls = []

    def wrap(name, fn):
        def timed(*args, **kwargs):
            if traced:
                tracemalloc.reset_peak()
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            call = {"function": name, "checks": _names(out), "s": elapsed}
            if traced:
                call["traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
            calls.append(call)
            return out

        return timed

    for name, fn in list(vars(verify).items()):
        if name.startswith("_") and name.endswith(("_check", "_checks")) and callable(fn):
            setattr(verify, name, wrap(name, fn))
    return calls


def _child(src: str, level: str, traced: bool) -> None:
    # one level once, in a fresh interpreter importing src
    sys.path.insert(0, src)
    import cavneg
    from cavneg import verify

    if not os.path.abspath(cavneg.__file__).startswith(src + os.sep):
        raise ImportError(f"cavneg was imported from {cavneg.__file__}, not from {src}")
    calls = _timed_checks(verify, traced)
    if traced:
        tracemalloc.start()
    t0 = time.perf_counter()
    report = verify.run_verification(level)
    total = time.perf_counter() - t0
    json.dump(
        {
            "total_s": total,
            # kilobytes on Linux
            "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "calls": calls,
            "checks": len(report.checks),
            "passed": report.passed,
        },
        sys.stdout,
    )


def _run(src: str, level: str, traced: bool = False) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "--child", src, "--level", level]
    if traced:
        argv.append("--traced")
    proc = subprocess.run(argv, capture_output=True, text=True, check=True, cwd=ROOT)
    return json.loads(proc.stdout)


def _calls(runs: list, traced: dict) -> list:
    """Per check function: its names, median time over runs and its peak in
    the traced run, which must have called the same functions."""
    calls = []
    for i, call in enumerate(runs[0]["calls"]):
        for r in (*runs, traced):
            got = r["calls"][i]
            if (got["function"], got["checks"]) != (call["function"], call["checks"]):
                raise RuntimeError(f"runs disagree on the checks of {call['function']}")
        calls.append(
            {
                "function": call["function"],
                "checks": call["checks"],
                "s": statistics.median(r["calls"][i]["s"] for r in runs),
                "traced_peak_mb": traced["calls"][i]["traced_peak_mb"],
            }
        )
    return calls


def _summary(rounds: list, full: list, traced: dict) -> dict:
    return {
        "fast": _calls(rounds, traced["fast"]),
        "fast_total_s": statistics.median(r["total_s"] for r in rounds),
        "fast_checks": rounds[0]["checks"],
        "fast_maxrss_mb": statistics.median(r["maxrss_mb"] for r in rounds),
        "full_s": statistics.median(r["total_s"] for r in full),
        "full_maxrss_mb": statistics.median(r["maxrss_mb"] for r in full),
        "full_maxrss_mb_min": min(r["maxrss_mb"] for r in full),
        "full_maxrss_mb_max": max(r["maxrss_mb"] for r in full),
        "full": _calls(full, traced["full"]),
        "full_checks": full[0]["checks"],
        "passed": all(r["passed"] for r in (*rounds, *full))
        and all(t["passed"] for t in traced.values()),
    }


def measure(baseline: str | None) -> dict:
    trees = {"after": os.path.join(ROOT, "src")}
    with tempfile.TemporaryDirectory() as tmp:
        if baseline is not None:
            trees = {"before": extract_src(baseline, tmp), **trees}
        rounds = {label: [] for label in trees}
        full = {label: [] for label in trees}
        for _ in range(REPEATS):
            for label, src in trees.items():
                rounds[label].append(_run(src, "fast"))
                full[label].append(_run(src, "full"))
        traced = {
            label: {level: _run(src, level, traced=True) for level in ("fast", "full")}
            for label, src in trees.items()
        }
    return {
        "benchmark": "verify_layers",
        "repeats": REPEATS,
        "unit": "s",
        **{
            label: _summary(rounds[label], full[label], traced[label])
            for label in trees
        },
        "environment": environment(baseline),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=os.path.join(ROOT, "BENCH_verify.json"))
    p.add_argument("--baseline", help="git revision to time as 'before'")
    p.add_argument("--child", help=argparse.SUPPRESS)
    p.add_argument("--level", default="fast", help=argparse.SUPPRESS)
    p.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        _child(args.child, args.level, args.traced)
        return 0
    report = measure(args.baseline)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for label in ("before", "after"):
        if label not in report:
            continue
        side = report[label]
        for level in ("fast", "full"):
            for call in side[level]:
                print(
                    f"{label} {level} {call['function']}: {call['s'] * 1e3:.1f} ms, "
                    f"{call['traced_peak_mb']:.1f} MB traced ({', '.join(call['checks'])})"
                )
        print(
            f"{label} fast: {side['fast_total_s']:.3f} s, "
            f"{side['fast_maxrss_mb']:.1f} MB, {side['fast_checks']} checks; "
            f"full: {side['full_s']:.3f} s, {side['full_maxrss_mb']:.1f} MB "
            f"({side['full_maxrss_mb_min']:.1f}-{side['full_maxrss_mb_max']:.1f}), "
            f"{side['full_checks']} checks; all passed: {side['passed']}"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
