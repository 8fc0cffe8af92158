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
- whether every check passed, and the environment record (see harness.py).

A check function is any ``_*_check`` or ``_*_checks`` function of the
verify module; none of them calls another, and the run fails unless the
names they return are the report's checks, in order, so a check that no
such function returns stops the run instead of dropping out of it.  Its
``traced_peak_mb`` is the largest memory, in 10**6 bytes, that
``tracemalloc`` saw allocated during the call, including what was held when
it began.  The peaks come from one more run of each level with tracing on;
times and resident memory come from runs without it, since tracing slows
every allocation.

Run from the repository root:

    python3 bench/verify_layers.py [--out BENCH_verify.json] [--baseline REV]

A round runs the fast level once and then the full level once, each in a
fresh interpreter, for each tree in turn (see harness.py for the trees and
rounds).  Times are medians in seconds over seven rounds, and the traced
runs come last.
"""

from __future__ import annotations

import functools
import resource
import statistics
import sys
import time
import tracemalloc

import harness

REPEATS = 7
LEVELS = ("fast", "full")


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

    def timing(name, fn):
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
            harness.wrap(verify, name, functools.partial(timing, name))
    return calls


def _probe(src: str, level: str, traced: str = "") -> dict:
    # one level once; "traced" traces its memory
    harness.load(src)
    from cavneg import verify

    calls = _timed_checks(verify, bool(traced))
    if traced:
        tracemalloc.start()
    t0 = time.perf_counter()
    report = verify.run_verification(level)
    total = time.perf_counter() - t0
    returned = [name for call in calls for name in call["checks"]]
    expected = [check.name for check in report.checks]
    if returned != expected:
        missing = [name for name in expected if name not in returned]
        raise RuntimeError(
            f"the {level} level's checks {missing} come from no _*_check(s) function"
            if missing
            else f"the {level} level's check functions return its checks out of order"
        )
    return {
        "total_s": total,
        # kilobytes on Linux
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls,
        "checks": len(report.checks),
        "passed": report.passed,
    }


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


def _summary(rounds: list, traced: dict) -> dict:
    fast = [r["fast"] for r in rounds]
    full = [r["full"] for r in rounds]
    return {
        "fast": _calls(fast, traced["fast"]),
        "fast_total_s": statistics.median(r["total_s"] for r in fast),
        "fast_checks": fast[0]["checks"],
        "fast_maxrss_mb": statistics.median(r["maxrss_mb"] for r in fast),
        "full_s": statistics.median(r["total_s"] for r in full),
        "full_maxrss_mb": statistics.median(r["maxrss_mb"] for r in full),
        "full_maxrss_mb_min": min(r["maxrss_mb"] for r in full),
        "full_maxrss_mb_max": max(r["maxrss_mb"] for r in full),
        "full": _calls(full, traced["full"]),
        "full_checks": full[0]["checks"],
        "passed": all(r["passed"] for r in (*fast, *full))
        and all(t["passed"] for t in traced.values()),
    }


def measure(args) -> dict:
    def levels(src, *flags):
        return {level: harness.child(__file__, src, level, *flags) for level in LEVELS}

    with harness.trees(args.baseline) as trees:
        rounds = harness.rounds(trees, REPEATS, lambda src, r: levels(src))
        traced = {label: levels(src, "traced") for label, src in trees.items()}
    return {
        "benchmark": "verify_layers",
        "repeats": REPEATS,
        "unit": "s",
        **{label: _summary(rounds[label], traced[label]) for label in trees},
        "environment": harness.environment(args.baseline),
    }


def show(report: dict):
    for label in ("before", "after"):
        if label not in report:
            continue
        side = report[label]
        for level in LEVELS:
            for call in side[level]:
                yield (
                    f"{label} {level} {call['function']}: {call['s'] * 1e3:.1f} ms, "
                    f"{call['traced_peak_mb']:.1f} MB traced ({', '.join(call['checks'])})"
                )
        yield (
            f"{label} fast: {side['fast_total_s']:.3f} s, "
            f"{side['fast_maxrss_mb']:.1f} MB, {side['fast_checks']} checks; "
            f"full: {side['full_s']:.3f} s, {side['full_maxrss_mb']:.1f} MB "
            f"({side['full_maxrss_mb_min']:.1f}-{side['full_maxrss_mb_max']:.1f}), "
            f"{side['full_checks']} checks; all passed: {side['passed']}"
        )


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, "BENCH_verify.json", measure, show, _probe))
