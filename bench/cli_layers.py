"""Time each stage of ``cavneg.cli.main`` over the benchmark's engine jobs and
the figure presets.

A pass runs the jobs of one workload through ``main``, one after the other,
in a fresh interpreter that has imported cavneg and built one parser first,
as a ``perfbench`` pass does. The jobs come from ``perfbench/workloads.py``:
``engine`` is four one-point ``--mode both`` runs at n_max 2000 (its phases
are drawn from the round's seed), ``presets`` the seven figure presets. The
stages of a ``main`` call are:

- ``parser``: getting the parser that ``main`` parses with, which is
  ``cli.build_parser`` in a tree that builds one per call and ``cli._parser``
  in a tree that shares one;
- ``parse``: ``parse_args``;
- ``config``: ``cli.read_config`` and ``cli._build_spec``;
- ``closed_grid`` and ``general_grid``: ``sweep._closed_grid`` and
  ``sweep._general_grid``;
- ``write``: opening, writing and closing the output file inside the sweep;
- ``rows``: the rest of the sweep call (``run_sweep`` or ``write_sweep``):
  validation, coordinate grids, the validity check and the row formatting;
- ``other``: the rest of ``main``, such as the report line;
- ``total_s``: the whole ``main`` call.

The report holds, per tree and workload, the median over rounds of each stage
summed over the jobs of a pass, the median of each job's stages, and the
cyclic garbage collector's work during a pass (``gc_s``, and the collections
of each generation), which the stages include wherever it fell. The wrappers
that time the stages add about a microsecond per call.

Run from the repository root:

    python3 bench/cli_layers.py [--out BENCH_cli.json] [--baseline REV] [--seed N]

With ``--baseline REV`` the src/ tree of that git revision is extracted with
``git archive`` into a temporary directory and timed the same way, so the
report holds before and after numbers. The two trees alternate round by
round, so that a slow spell of the host hits both. Round r draws the engine
phases from seed N + r. Times are medians in seconds over the rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from presets_layers import ROOT, environment, extract_src

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import make_jobs  # noqa: E402

ROUNDS = 11
WORKLOADS = ("engine", "presets")
STAGES = (
    "parser",
    "parse",
    "config",
    "closed_grid",
    "general_grid",
    "rows",
    "write",
    "other",
    "total_s",
)


class _Clock:
    """Seconds per stage of the current job, and the garbage collector's."""

    def __init__(self):
        self.spent: dict = {}
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


def _instrument(clock: _Clock) -> None:
    from cavneg import cli, sweep

    if hasattr(cli, "_parser"):
        cli._parser = clock.timed("parser", cli._parser)
    else:
        cli.build_parser = clock.timed("parser", cli.build_parser)
    cli._Parser.parse_args = clock.timed("parse", cli._Parser.parse_args)
    cli.read_config = clock.timed("config", cli.read_config)
    cli._build_spec = clock.timed("config", cli._build_spec)
    name = "write_sweep" if hasattr(cli, "write_sweep") else "run_sweep"
    setattr(cli, name, clock.timed("sweep", getattr(cli, name)))
    sweep._closed_grid = clock.timed("closed_grid", sweep._closed_grid)
    sweep._general_grid = clock.timed("general_grid", sweep._general_grid)
    timed_open = clock.timed("write", open)
    sweep.open = lambda *args, **kwargs: _TimedFile(clock, timed_open(*args, **kwargs))


def _stages(spent: dict, total: float) -> dict:
    grids = spent.get("closed_grid", 0.0) + spent.get("general_grid", 0.0)
    sweep_s = spent.get("sweep", 0.0)
    out = {
        key: spent.get(key, 0.0)
        for key in ("parser", "parse", "config", "closed_grid", "general_grid", "write")
    }
    out["rows"] = sweep_s - grids - out["write"]
    out["other"] = total - sweep_s - out["parser"] - out["parse"] - out["config"]
    out["total_s"] = total
    return out


def _child(src: str, workload: str, seed: int, workdir: str) -> None:
    # one pass: every job of the workload once, in a fresh interpreter
    sys.path.insert(0, src)
    import cavneg
    from cavneg import cli

    if not os.path.abspath(cavneg.__file__).startswith(src + os.sep):
        raise ImportError(f"cavneg was imported from {cavneg.__file__}, not from {src}")
    cli.build_parser()  # the benchmark's set-up builds one parser, untimed
    clock = _Clock()
    _instrument(clock)
    argvs = []
    for job in make_jobs(workload, seed):
        argv = list(job["argv"])
        if job["config"] is not None:
            path = os.path.join(workdir, job["name"] + ".cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(job["config"])
            argv += ["--config", path]
        argvs.append((job["name"], argv + ["--out", os.path.join(workdir, job["out"])]))
    jobs = {}
    gc.callbacks.append(clock.on_gc)
    try:
        for name, argv in argvs:
            clock.spent = {}
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            total = time.perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"{name}: exit code {code}")
            jobs[name] = _stages(clock.spent, total)
    finally:
        gc.callbacks.remove(clock.on_gc)
    json.dump({"jobs": jobs, "gc_s": clock.gc_s, "gc_collections": clock.gc_counts}, sys.stdout)


def _pass(src: str, workload: str, seed: int) -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", src,
             "--workload", workload, "--seed", str(seed), "--workdir", workdir],
            capture_output=True,
            text=True,
            check=True,
            cwd=ROOT,
        )
    return json.loads(proc.stdout)


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
    return {
        "jobs": len(names),
        **stages,
        "gc_s": statistics.median(p["gc_s"] for p in passes),
        "gc_collections": [
            statistics.median(p["gc_collections"][g] for p in passes) for g in range(3)
        ],
        "per_job": per_job,
    }


def measure(baseline: str | None, seed: int) -> dict:
    trees = {"after": os.path.join(ROOT, "src")}
    with tempfile.TemporaryDirectory() as tmp:
        if baseline is not None:
            trees = {"before": extract_src(baseline, tmp), **trees}
        passes = {label: {w: [] for w in WORKLOADS} for label in trees}
        for r in range(ROUNDS):
            for workload in WORKLOADS:
                for label, src in trees.items():
                    passes[label][workload].append(_pass(src, workload, seed + r))
    return {
        "benchmark": "cli_layers",
        "rounds": ROUNDS,
        "seed": seed,
        "unit": "s",
        **{
            label: {w: _summary(p) for w, p in by_workload.items()}
            for label, by_workload in passes.items()
        },
        "environment": environment(baseline),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=os.path.join(ROOT, "BENCH_cli.json"))
    p.add_argument("--baseline", help="git revision to time as 'before'")
    p.add_argument("--seed", type=int, default=51, help="engine seed of the first round")
    p.add_argument("--child", help=argparse.SUPPRESS)
    p.add_argument("--workload", choices=WORKLOADS, help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        _child(args.child, args.workload, args.seed, args.workdir)
        return 0
    report = measure(args.baseline, args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for label in ("before", "after"):
        if label not in report:
            continue
        for workload in WORKLOADS:
            row = report[label][workload]
            cells = ", ".join(f"{s} {row[s] * 1e3:.2f}" for s in STAGES)
            print(
                f"{label} {workload} ({row['jobs']} jobs, ms): {cells}, "
                f"gc {row['gc_s'] * 1e3:.2f} ({row['gc_collections']})"
            )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
