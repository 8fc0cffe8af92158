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
  factor values of the product sums' large-grid passes
  (``closedform._product_tile``, one per call over the whole grid), whose
  power chains run on the distinct ones, from that run;
- ``traced_peak_mb`` and ``closed_traced_peak_mb``: the largest memory, in
  10**6 bytes, that ``tracemalloc`` saw allocated during the ``run_sweep``
  call and during any one of its ``sweep._closed_grid`` calls, including
  what was held when each began, from one more run with tracing on (times
  come from runs without it, since tracing slows every allocation);
- ``negativities_distinct``: how many distinct negativity cells the CSV
  holds, counted per k block;
- the environment record (see harness.py).

Run from the repository root:

    python3 bench/presets_layers.py [--out BENCH_presets.json] [--baseline REV]

A round runs every preset once in a fresh interpreter (see harness.py for
the trees and rounds).  Times are medians in seconds over seven rounds; the
traced runs come last, one per tree.
"""

from __future__ import annotations

import functools
import hashlib
import statistics
import sys
import time
import tracemalloc

import harness

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


def _time_once(name: str) -> dict:
    """One run_sweep of a preset, with the time inside _closed_grid split out."""
    from cavneg import sweep

    spent = [0.0]

    def timing(inner):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                spent[0] += time.perf_counter() - t0

        return timed

    inner = harness.wrap(sweep, "_closed_grid", timing)
    try:
        t0 = time.perf_counter()
        text = sweep.run_sweep(sweep.preset_spec(name))
        total = time.perf_counter() - t0
    finally:
        sweep._closed_grid = inner
    return {"total_s": total, "closed_s": spent[0], "text": text}


def _counts(name: str, text: str) -> dict:
    """Phase arguments of the Q series pass and factor values of the
    large-grid product sums over an untimed run, and the distinct
    negativities of the CSV text of the timed one."""
    import numpy as np

    from cavneg import closedform, sweep

    counts = dict.fromkeys(COUNTS[:4], 0)

    def counting(key, fn):
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
    inner = {
        fn: harness.wrap(closedform, fn, functools.partial(counting, key))
        for fn, key in wrapped.items()
    }
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

    peaks = {"run": 0, "closed": 0}

    def tracing(inner):
        def traced(*args, **kwargs):
            # keep the run's peak so far, then read the call's own
            peaks["run"] = max(peaks["run"], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            try:
                return inner(*args, **kwargs)
            finally:
                peaks["closed"] = max(peaks["closed"], tracemalloc.get_traced_memory()[1])

        return traced

    inner = harness.wrap(sweep, "_closed_grid", tracing)
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


def _probe(src: str, traced: str = "") -> dict:
    # one round: every preset once; "traced" asks for the traced peaks
    harness.load(src)
    if traced:
        return {name: _traced_peaks(name) for name in PRESETS}
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
    return out


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


def measure(args) -> dict:
    with harness.trees(args.baseline) as trees:
        rounds = harness.rounds(trees, REPEATS, lambda src, r: harness.child(__file__, src))
        traced = {label: harness.child(__file__, src, "traced") for label, src in trees.items()}
    return {
        "benchmark": "presets_layers",
        "repeats": REPEATS,
        "unit": "s",
        **{label: _summary(r, traced[label]) for label, r in rounds.items()},
        "environment": harness.environment(args.baseline),
    }


def show(report: dict):
    for label in ("before", "after"):
        if label not in report:
            continue
        for name in PRESETS + ("all",):
            row = report[label][name]
            yield (
                f"{label} {name}: total {row['total_s'] * 1e3:.1f} ms, "
                f"closed {row['closed_s'] * 1e3:.1f} ms, "
                f"rows {row['rows_s'] * 1e3:.1f} ms ({row['rows']} rows, "
                f"{row['negativities_distinct']} distinct negativities, "
                f"{row['q_phases_distinct']} of {row['q_phases']} Q phases and "
                f"{row['product_phases_distinct']} of {row['product_phases']} "
                f"product phases distinct; {row['traced_peak_mb']:.2f} MB traced, "
                f"{row['closed_traced_peak_mb']:.2f} MB in _closed_grid)"
            )


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, "BENCH_presets.json", measure, show, _probe))
