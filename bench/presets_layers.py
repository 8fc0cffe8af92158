"""Time the figure presets layer by layer: closed-form series and row output.

Writes a JSON report with, for each preset fig2-fig5b:

- ``closed_s``: the median time spent in ``sweep._closed_grid`` during one
  ``run_sweep`` call, summed over the k blocks;
- ``rows_s``: the median of the rest of that call, which is validation, the
  coordinate grids, the validity check, the row formatting and the join;
- ``total_s``: the median time of the whole ``run_sweep`` call;
- the row count, the CSV size in bytes and the CSV's SHA-256;
- ``q_phases`` and ``q_phases_distinct``: how many phase arguments the Q
  series pass (``closedform._q_flat``) received over the run, and how many
  of them were bitwise distinct within their call, from an untimed second
  run;
- ``product_phases`` and ``product_phases_distinct``: the same for the
  factor values of the product sums' tiles (``closedform._product_tile``),
  whose power chains run on the distinct ones, from that run;
- ``traced_peak_mb`` and ``closed_traced_peak_mb``: the largest memory, in
  10**6 bytes, that ``tracemalloc`` saw allocated during the ``run_sweep``
  call and during any one of its ``sweep._closed_grid`` calls, including
  what was held when each began, from one more run with tracing on (times
  come from runs without it, since tracing slows every allocation);
- ``negativities_distinct``: how many distinct negativity cells the CSV
  holds, counted per k block;
- the environment: nproc, Python and numpy versions, git SHA and whether
  src/ differs from it.

Run from the repository root:

    python3 bench/presets_layers.py [--out BENCH_presets.json] [--baseline REV]

With ``--baseline REV`` the src/ tree of that git revision is extracted with
``git archive`` into a temporary directory and timed the same way, so the
report holds before and after numbers. A round runs every preset once in a
fresh interpreter; the two trees alternate round by round, so that a slow
spell of the host hits both. Times are medians in seconds over seven rounds;
the traced runs come last, one per tree.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRESETS = ("fig2", "fig3", "fig4a", "fig4b", "fig4c", "fig5a", "fig5b")
REPEATS = 7
COUNTS = (
    "q_phases",
    "q_phases_distinct",
    "product_phases",
    "product_phases_distinct",
    "negativities_distinct",
)
PEAKS = ("traced_peak_mb", "closed_traced_peak_mb")


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _time_once(name: str) -> dict:
    """One run_sweep of a preset, with the time inside _closed_grid split out."""
    from cavneg import sweep

    inner = sweep._closed_grid
    spent = [0.0]

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - t0

    sweep._closed_grid = timed
    try:
        t0 = time.perf_counter()
        text = sweep.run_sweep(sweep.preset_spec(name))
        total = time.perf_counter() - t0
    finally:
        sweep._closed_grid = inner
    return {"total_s": total, "closed_s": spent[0], "text": text}


def _counts(name: str, text: str) -> dict:
    """Phase arguments of the Q series pass and factor values of the
    product-sum tiles over an untimed run, and the distinct negativities of
    the CSV text of the timed one."""
    import numpy as np

    from cavneg import closedform, sweep

    counts = dict.fromkeys(COUNTS[:4], 0)

    def counting(fn, key):
        def counted(*args):
            # the phases are the second argument in every tree
            x = args[1]
            counts[key] += x.size
            counts[key + "_distinct"] += len(
                np.unique(x.view(np.int64).reshape(-1, 2), axis=0)
            )
            return fn(*args)

        return counted

    wrapped = {"_q_flat": "q_phases", "_product_tile": "product_phases"}
    inner = {fn: getattr(closedform, fn) for fn in wrapped}
    for fn, key in wrapped.items():
        setattr(closedform, fn, counting(inner[fn], key))
    try:
        sweep.run_sweep(sweep.preset_spec(name))
    finally:
        for fn, original in inner.items():
            setattr(closedform, fn, original)
    header, *rows = text.splitlines()
    column = header.split(",").index("negativity")
    cells = {(row.split(",")[1], row.split(",")[column]) for row in rows}
    return {**counts, "negativities_distinct": len(cells)}


def _traced_peaks(name: str) -> dict:
    """Traced peaks of one run_sweep of a preset and of the largest of its
    _closed_grid calls, each counted from where tracing stood at its start."""
    from cavneg import sweep

    inner = sweep._closed_grid
    peaks = {"run": 0, "closed": 0}

    def traced(*args, **kwargs):
        # keep the run's peak so far, then read the call's own
        peaks["run"] = max(peaks["run"], tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        try:
            return inner(*args, **kwargs)
        finally:
            peaks["closed"] = max(peaks["closed"], tracemalloc.get_traced_memory()[1])

    sweep._closed_grid = traced
    tracemalloc.start()
    try:
        sweep.run_sweep(sweep.preset_spec(name))
        peaks["run"] = max(peaks["run"], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        sweep._closed_grid = inner
    return {
        "traced_peak_mb": max(peaks.values()) / 1e6,
        "closed_traced_peak_mb": peaks["closed"] / 1e6,
    }


def _child(src: str, traced: bool) -> None:
    # one round: every preset once, in a fresh interpreter importing src
    sys.path.insert(0, src)
    import cavneg

    if not os.path.abspath(cavneg.__file__).startswith(src + os.sep):
        raise ImportError(f"cavneg was imported from {cavneg.__file__}, not from {src}")
    if traced:
        json.dump({name: _traced_peaks(name) for name in PRESETS}, sys.stdout)
        return
    out = {}
    for name in PRESETS:
        run = _time_once(name)
        text = run.pop("text")
        data = text.encode("utf-8")
        run.update(
            **_counts(name, text),
            rows=data.count(b"\n") - 1,
            csv_bytes=len(data),
            sha256=hashlib.sha256(data).hexdigest(),
        )
        out[name] = run
    json.dump(out, sys.stdout)


def _round(src: str, traced: bool = False) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "--child", src]
    if traced:
        argv.append("--traced")
    proc = subprocess.run(
        argv,
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
    )
    return json.loads(proc.stdout)


def _summary(rounds: list, traced: dict) -> dict:
    presets = {}
    for name in PRESETS:
        runs = [r[name] for r in rounds]
        total = statistics.median(r["total_s"] for r in runs)
        closed = statistics.median(r["closed_s"] for r in runs)
        rows = statistics.median(r["total_s"] - r["closed_s"] for r in runs)
        presets[name] = {
            "total_s": total,
            "closed_s": closed,
            "rows_s": rows,
            "rows": runs[0]["rows"],
            "csv_bytes": runs[0]["csv_bytes"],
            "sha256": runs[0]["sha256"],
            **{key: runs[0][key] for key in COUNTS},
            **traced[name],
        }
    presets["all"] = {
        key: sum(presets[name][key] for name in PRESETS)
        for key in ("total_s", "closed_s", "rows_s", "rows", "csv_bytes") + COUNTS
    }
    presets["all"].update({key: max(presets[name][key] for name in PRESETS) for key in PEAKS})
    return presets


def extract_src(rev: str, dest: str) -> str:
    blob = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src"],
        cwd=ROOT,
        capture_output=True,
        check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return os.path.join(dest, "src")


def measure(baseline: str | None) -> dict:
    trees = {"after": os.path.join(ROOT, "src")}
    with tempfile.TemporaryDirectory() as tmp:
        if baseline is not None:
            trees = {"before": extract_src(baseline, tmp), **trees}
        rounds = {label: [] for label in trees}
        for _ in range(REPEATS):
            for label, src in trees.items():
                rounds[label].append(_round(src))
        traced = {label: _round(src, traced=True) for label, src in trees.items()}
    return {
        "benchmark": "presets_layers",
        "repeats": REPEATS,
        "unit": "s",
        **{label: _summary(r, traced[label]) for label, r in rounds.items()},
        "environment": environment(baseline),
    }


def environment(baseline: str | None) -> dict:
    """The machine, the library versions and the code a report timed."""
    # numpy is imported here, not at the top, so that a child process loads
    # it through cavneg, as users do
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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=os.path.join(ROOT, "BENCH_presets.json"))
    p.add_argument("--baseline", help="git revision to time as 'before'")
    p.add_argument("--child", help=argparse.SUPPRESS)
    p.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        _child(args.child, args.traced)
        return 0
    report = measure(args.baseline)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for label in ("before", "after"):
        if label not in report:
            continue
        for name in PRESETS + ("all",):
            row = report[label][name]
            print(
                f"{label} {name}: total {row['total_s'] * 1e3:.1f} ms, "
                f"closed {row['closed_s'] * 1e3:.1f} ms, "
                f"rows {row['rows_s'] * 1e3:.1f} ms ({row['rows']} rows, "
                f"{row['negativities_distinct']} distinct negativities, "
                f"{row['q_phases_distinct']} of {row['q_phases']} Q phases and "
                f"{row['product_phases_distinct']} of {row['product_phases']} "
                f"product phases distinct; {row['traced_peak_mb']:.2f} MB traced, "
                f"{row['closed_traced_peak_mb']:.2f} MB in _closed_grid)"
            )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
