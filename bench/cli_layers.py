"""Time each stage of ``cavneg.cli.main`` over the benchmark's engine jobs,
the figure presets and both verification levels.

A pass runs the jobs of one workload through ``main``, one after the other,
in a fresh interpreter that has imported cavneg and built one parser first,
as a ``perfbench`` pass does. The jobs come from ``perfbench/workloads.py``:
``engine`` is four one-point ``--mode both`` runs at n_max 2000 (its phases
are drawn from the round's seed), ``presets`` the seven figure presets and
``verify-fast`` one ``--verify fast``.  ``verify-full``, one ``--verify
full``, is this script's own. The stages of a ``main`` call are:

- ``parser``: getting the parser that ``main`` parses with,
  ``cli._parser``;
- ``parse``: ``parse_args``;
- ``config``: ``cli.read_config`` and ``cli._build_spec``;
- ``closed_grid`` and ``general_grid``: ``sweep._closed_grid`` and
  ``sweep._general_grid``;
- ``write``: opening, writing and closing the output file inside the sweep;
- ``rows``: the rest of the sweep call (``write_sweep``):
  validation, coordinate grids, the validity check and the row formatting;
- ``checks``: the check functions, every ``_*_check(s)`` function of
  ``verify``;
- ``other``: the rest of ``main``, such as the report line or the rendered
  verification report;
- ``total_s``: the whole ``main`` call.

The report holds, per tree and workload, the median over rounds of each stage
summed over the jobs of a pass, the median of each job's stages, and the
cyclic garbage collector's work during a pass (``gc_s``, and the collections
of each generation), which the stages include wherever it fell. The wrappers
that time the stages add about a microsecond per call. It also holds, per
pass:

- ``setup``: the pass's set-up split into ``numpy_import`` (the import that
  first loads numpy, wherever cavneg makes it), ``cavneg_import`` (the rest of
  importing ``cavneg`` and ``cavneg.cli``) and ``parser_build`` (one
  ``build_parser()``);
- ``threads``: the native threads of the process after set-up, read from
  ``/proc/self/task`` (null where that is missing);
- ``cpu_minus_wall_s``: process CPU time minus wall time over the jobs, which
  is above zero when a second thread burns CPU beside the program;
- ``maxrss_mb``: the pass's peak resident memory (``ru_maxrss``, imports
  included), with ``maxrss_mb_min`` and ``maxrss_mb_max`` over the rounds.

The verify workloads also hold ``per_check``: each check function call, in
call order, with the checks it returned and its median time.  A pass stops
unless the wrapped functions return every check that ``main`` renders, in
order, so a check that bypasses them stops the run instead of going
unmeasured.

A pass process imports neither numpy nor argparse before cavneg, as a
``perfbench`` pass does, so the set-up split and the threads are those a user
sees. The report's environment records whether Python writes bytecode: where
it does not (``PYTHONDONTWRITEBYTECODE``), every pass compiles cavneg from
source, and ``cavneg_import`` includes that compile.

The presets workload also holds ``untimed``, per preset, from one pass per
tree after the rounds that runs each preset once counted, then once traced:
``rows``, ``csv_bytes`` and ``sha256`` of the CSV written; ``q_phases`` and
``product_phases``, the phase arguments that the Q series pass
(``closedform._q_flat``) and the product sums' large-grid pass
(``closedform._product_tile``) received, with how many were bitwise distinct
within their call (``_distinct``); ``negativities_distinct``, the distinct
negativity cells per k block; and ``traced_peak_mb`` and
``closed_traced_peak_mb``, the largest memory (10**6 bytes) that
``tracemalloc`` saw allocated during the ``main`` call and during any one of
its ``sweep._closed_grid`` calls, counting what was held when each began.
The same pass then runs each verify job once traced, which adds each check
function call's ``traced_peak_mb`` to ``per_check``.

Run from the repository root:

    python3 bench/cli_layers.py [--out BENCH_cli.json] [--baseline REV] [--seed N]

Round r draws the engine phases from seed N + r (see harness.py for the
trees and rounds).  Times are medians in seconds over the rounds.
``--child SRC untimed`` prints the untimed pass of the tree SRC alone.
"""

from __future__ import annotations

import builtins
import contextlib
import functools
import gc
import hashlib
import io
import os
import resource
import statistics
import sys
import time
import tracemalloc

import harness

sys.path.insert(0, os.path.join(harness.ROOT, "perfbench"))
from workloads import make_jobs  # noqa: E402

ROUNDS = 11
VERIFY = ("verify-fast", "verify-full")
WORKLOADS = ("engine", "presets", *VERIFY)
STAGES = (
    "parser",
    "parse",
    "config",
    "closed_grid",
    "general_grid",
    "rows",
    "write",
    "checks",
    "other",
    "total_s",
)
SETUP_PARTS = ("numpy_import", "cavneg_import", "parser_build", "total_s")
COUNTS = ("q_phases", "q_phases_distinct", "product_phases", "product_phases_distinct")
UNTIMED = (
    "rows",
    "csv_bytes",
    "sha256",
    *COUNTS,
    "negativities_distinct",
    "traced_peak_mb",
    "closed_traced_peak_mb",
)


class _Clock:
    """Seconds per stage of the current job, its check function calls, and
    the garbage collector's seconds."""

    def __init__(self):
        self.spent: dict = {}
        self.calls: list = []
        self.gc_s = 0.0
        self.gc_counts = [0, 0, 0]
        self._gc_t0 = 0.0

    def timed(self, stage: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spent[stage] = self.spent.get(stage, 0.0) + time.perf_counter() - t0

        return wrapper

    def checked(self, function: str, fn):
        """fn, a check function of verify, timed as the checks stage; each
        call is logged with the checks it returned and, while tracemalloc
        traces, its traced peak."""

        def wrapper(*args, **kwargs):
            traced = tracemalloc.is_tracing()
            if traced:
                tracemalloc.reset_peak()
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            self.spent["checks"] = self.spent.get("checks", 0.0) + elapsed
            results = out if isinstance(out, list) else [out]
            call = {"function": function, "checks": [c.name for c in results], "s": elapsed}
            if traced:
                call["traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
            self.calls.append(call)
            return out

        return wrapper

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_t0
            self.gc_counts[info["generation"]] += 1


class _TimedFile:
    """A text file whose open, writes and close count as the write stage.

    ``writelines`` pulls each chunk outside the clock, so that rows a
    generator formats on demand count as rows, not as writing.
    """

    def __init__(self, clock: _Clock, fh):
        self._fh = fh
        self._write = clock.timed("write", fh.write)
        self._exit = clock.timed("write", fh.__exit__)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._exit(*exc)

    def write(self, text):
        return self._write(text)

    def writelines(self, chunks):
        for chunk in chunks:
            self._write(chunk)


def _instrument_checks(clock: _Clock) -> None:
    from cavneg import verify

    for name, fn in list(vars(verify).items()):
        if name.startswith("_") and name.endswith(("_check", "_checks")) and callable(fn):
            harness.wrap(verify, name, functools.partial(clock.checked, name))


def _instrument(clock: _Clock) -> None:
    from cavneg import cli, sweep

    _instrument_checks(clock)
    for owner, name, stage in (
        (cli, "_parser", "parser"),
        (cli._Parser, "parse_args", "parse"),
        (cli, "read_config", "config"),
        (cli, "_build_spec", "config"),
        (cli, "write_sweep", "sweep"),
        (sweep, "_closed_grid", "closed_grid"),
        (sweep, "_general_grid", "general_grid"),
    ):
        harness.wrap(owner, name, functools.partial(clock.timed, stage))
    timed_open = clock.timed("write", open)
    sweep.open = lambda *args, **kwargs: _TimedFile(clock, timed_open(*args, **kwargs))


def _stages(spent: dict, total: float) -> dict:
    grids = spent.get("closed_grid", 0.0) + spent.get("general_grid", 0.0)
    sweep_s = spent.get("sweep", 0.0)
    out = {key: spent.get(key, 0.0) for key in STAGES}
    out["rows"] = sweep_s - grids - out["write"]
    outside = sum(out[key] for key in ("parser", "parse", "config", "checks"))
    out["other"] = total - sweep_s - outside
    out["total_s"] = total
    return out


def _setup(src: str):
    """Import cavneg from src and build one parser, as the benchmark's set-up
    does; return the cli module and the seconds of each part."""
    numpy_s = 0.0
    real_import = builtins.__import__

    def timed_import(name, *args, **kwargs):
        # times the one import statement that loads numpy, nested imports included
        nonlocal numpy_s
        if name.partition(".")[0] != "numpy" or "numpy" in sys.modules:
            return real_import(name, *args, **kwargs)
        t0 = time.perf_counter()
        try:
            return real_import(name, *args, **kwargs)
        finally:
            numpy_s += time.perf_counter() - t0

    builtins.__import__ = timed_import
    t0 = time.perf_counter()
    try:
        harness.load(src)
        from cavneg import cli
    finally:
        builtins.__import__ = real_import
    t1 = time.perf_counter()
    cli.build_parser()
    t2 = time.perf_counter()
    return cli, {
        "numpy_import": numpy_s,
        "cavneg_import": t1 - t0 - numpy_s,
        "parser_build": t2 - t1,
        "total_s": t2 - t0,
    }


def _jobs(workload: str, seed: int) -> list:
    if workload == "verify-full":
        return [{"name": workload, "argv": ["--verify", "full"], "out": None, "config": None}]
    return make_jobs(workload, seed)


def _argvs(workload: str, seed: int) -> list:
    """(name, argv) of each job, with its config file written into the
    working directory; argv ends with the output file of a job that writes
    one."""
    argvs = []
    for job in _jobs(workload, seed):
        argv = list(job["argv"])
        if job["config"] is not None:
            path = job["name"] + ".cfg"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(job["config"])
            argv += ["--config", path]
        if job["out"] is not None:
            argv += ["--out", job["out"]]
        argvs.append((job["name"], argv))
    return argvs


@contextlib.contextmanager
def _wrapped(owner, name: str, make_wrapper):
    original = harness.wrap(owner, name, make_wrapper)
    try:
        yield
    finally:
        setattr(owner, name, original)


def _run(cli, argv: list) -> str:
    """One main call; return what it printed, or raise unless it exits 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{argv}: exit code {code}")
    return buf.getvalue()


def _guard(stdout: str, calls: list) -> None:
    """Raise unless the checks that a main call rendered are the checks its
    check function calls returned, in order."""
    rendered = [
        line[5:].partition(":")[0] for line in stdout.splitlines()
        if line.startswith(("PASS ", "FAIL "))
    ]
    returned = [name for call in calls for name in call["checks"]]
    if rendered != returned:
        missing = [name for name in rendered if name not in returned]
        raise RuntimeError(
            f"the checks {missing} come from no _*_check(s) function of verify"
            if missing
            else "the check functions of verify return their checks out of order"
        )


def _counted(cli, argv: list) -> dict:
    """The phases that the Q series and product sums' passes get in one main call."""
    import numpy as np

    from cavneg import closedform

    counts = dict.fromkeys(COUNTS, 0)

    def counting(key, fn):
        def counted(*args):
            x = args[1]  # the phases: the second argument in every tree
            counts[key] += x.size
            counts[key + "_distinct"] += len(np.unique(x.view(np.int64).reshape(-1, 2), axis=0))
            return fn(*args)

        return counted

    with _wrapped(closedform, "_q_flat", functools.partial(counting, "q_phases")), \
            _wrapped(closedform, "_product_tile", functools.partial(counting, "product_phases")):
        _run(cli, argv)
    return counts


def _traced(cli, argv: list) -> dict:
    """Traced peaks of one main call and of the largest of its _closed_grid
    calls, each counted from where tracing stood at its start."""
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

    with _wrapped(sweep, "_closed_grid", tracing):
        tracemalloc.start()
        try:
            _run(cli, argv)
            peaks["run"] = max(peaks["run"], tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return {
        "traced_peak_mb": max(peaks.values()) / 1e6,
        "closed_traced_peak_mb": peaks["closed"] / 1e6,
    }


def _untimed(src: str) -> dict:
    # each preset once counted, then once traced: the counted run warms the
    # process, so the traced one holds no first-call set-up; then each
    # verify job once traced, with its check function calls
    cli, _ = _setup(src)
    presets = {}
    for name, argv in _argvs("presets", 0):
        counts = _counted(cli, argv)
        with open(argv[-1], "rb") as fh:
            data = fh.read()
        header, *rows = data.decode("utf-8").splitlines()
        column = header.split(",").index("negativity")
        cells = {(row.split(",")[1], row.split(",")[column]) for row in rows}
        presets[name] = {
            "rows": len(rows),
            "csv_bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
            **counts,
            "negativities_distinct": len(cells),
            **_traced(cli, argv),
        }
    clock = _Clock()
    _instrument_checks(clock)
    out = {"presets": presets}
    for workload in VERIFY:
        ((_, argv),) = _argvs(workload, 0)
        clock.calls = []
        tracemalloc.start()
        try:
            _guard(_run(cli, argv), clock.calls)
        finally:
            tracemalloc.stop()
        out[workload] = clock.calls
    return out


def _probe(src: str, workload: str, seed: str = "0") -> dict:
    # one pass: every job of the workload once, writing into the working
    # directory; workload "untimed" is the untimed pass
    if workload == "untimed":
        return _untimed(src)
    cli, setup = _setup(src)
    tasks = "/proc/self/task"
    threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
    clock = _Clock()
    _instrument(clock)
    argvs = _argvs(workload, int(seed))
    jobs = {}
    calls = []
    gc.callbacks.append(clock.on_gc)
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        for name, argv in argvs:
            clock.spent, clock.calls = {}, []
            t0 = time.perf_counter()
            stdout = _run(cli, argv)
            total = time.perf_counter() - t0
            _guard(stdout, clock.calls)
            jobs[name] = _stages(clock.spent, total)
            calls += clock.calls
    finally:
        cpu_minus_wall = (time.process_time() - cpu0) - (time.perf_counter() - wall0)
        gc.callbacks.remove(clock.on_gc)
    return {
        "jobs": jobs,
        "gc_s": clock.gc_s,
        "gc_collections": clock.gc_counts,
        "setup": setup,
        "threads": threads,
        "cpu_minus_wall_s": cpu_minus_wall,
        # kilobytes on Linux
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls,
    }


def _summary(passes: list) -> dict:
    names = list(passes[0]["jobs"])
    per_job = {
        name: {
            stage: statistics.median(p["jobs"][name][stage] for p in passes)
            for stage in STAGES
        }
        for name in names
    }
    stages = {
        stage: statistics.median(sum(p["jobs"][n][stage] for n in names) for p in passes)
        for stage in STAGES
    }
    threads = [p["threads"] for p in passes]
    maxrss = [p["maxrss_mb"] for p in passes]
    summary = {
        "jobs": len(names),
        **stages,
        "gc_s": statistics.median(p["gc_s"] for p in passes),
        "gc_collections": [
            statistics.median(p["gc_collections"][g] for p in passes) for g in range(3)
        ],
        "setup": {
            part: statistics.median(p["setup"][part] for p in passes)
            for part in SETUP_PARTS
        },
        "threads": None if None in threads else statistics.median(threads),
        "cpu_minus_wall_s": statistics.median(p["cpu_minus_wall_s"] for p in passes),
        "maxrss_mb": statistics.median(maxrss),
        "maxrss_mb_min": min(maxrss),
        "maxrss_mb_max": max(maxrss),
        "per_job": per_job,
    }
    if passes[0]["calls"]:
        summary["per_check"] = [
            {**call, "s": statistics.median(p["calls"][i]["s"] for p in passes)}
            for i, call in enumerate(passes[0]["calls"])
        ]
    return summary


def measure(args) -> dict:
    def workloads(src, r):
        return {w: harness.child(__file__, src, w, str(args.seed + r)) for w in WORKLOADS}

    with harness.trees(args.baseline) as trees:
        passes = harness.rounds(trees, ROUNDS, workloads)
        untimed = {label: harness.child(__file__, src, "untimed") for label, src in trees.items()}
    report = {
        label: {w: _summary([p[w] for p in by_round]) for w in WORKLOADS}
        for label, by_round in passes.items()
    }
    for label, out in untimed.items():
        report[label]["presets"]["untimed"] = out["presets"]
        for workload in VERIFY:
            # the guard pins both call lists to the rendered checks
            for call, traced in zip(report[label][workload]["per_check"], out[workload]):
                call["traced_peak_mb"] = traced["traced_peak_mb"]
    return {
        "benchmark": "cli_layers",
        "rounds": ROUNDS,
        "seed": args.seed,
        "unit": "s",
        **report,
        "environment": {
            **harness.environment(args.baseline),
            # false here means no __pycache__: each pass compiles cavneg anew
            "writes_bytecode": not sys.flags.dont_write_bytecode,
        },
    }


def show(report: dict):
    for label in ("before", "after"):
        if label not in report:
            continue
        for workload in WORKLOADS:
            row = report[label][workload]
            cells = ", ".join(f"{s} {row[s] * 1e3:.2f}" for s in STAGES)
            setup = ", ".join(f"{s} {row['setup'][s] * 1e3:.2f}" for s in SETUP_PARTS)
            yield (
                f"{label} {workload} ({row['jobs']} jobs, ms): {cells}, "
                f"gc {row['gc_s'] * 1e3:.2f} ({row['gc_collections']}), "
                f"cpu - wall {row['cpu_minus_wall_s'] * 1e3:.2f}; "
                f"setup: {setup}; threads {row['threads']}; "
                f"maxrss {row['maxrss_mb']:.1f} MB "
                f"({row['maxrss_mb_min']:.1f}-{row['maxrss_mb_max']:.1f})"
            )
            for call in row.get("per_check", ()):
                yield (
                    f"{label} {workload} {call['function']}: {call['s'] * 1e3:.1f} ms, "
                    f"{call['traced_peak_mb']:.1f} MB traced ({', '.join(call['checks'])})"
                )
        for name, row in report[label]["presets"]["untimed"].items():
            yield f"{label} {name}: " + ", ".join(f"{key} {row[key]}" for key in UNTIMED)


def _options(p) -> None:
    p.add_argument("--seed", type=int, default=51, help="engine seed of the first round")


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, "BENCH_cli.json", measure, show, _probe, _options))
