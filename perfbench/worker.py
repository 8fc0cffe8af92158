"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py pass JOBS.json PASSDIR TRACE(0|1)
    python3 perfbench/worker.py setup

Times ``import cavneg`` plus ``build_parser()``, then runs every job through
``cavneg.cli.main`` in one closed loop, then checks each job's output. The
last line of standard output is a JSON object with the pass's numbers.
Nothing before ``import cavneg`` may import a module that cavneg imports
(numpy, argparse), or set-up time would leave part of the import out.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_program():
    """Import cavneg from this checkout only and build the CLI parser."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import cavneg
    from cavneg.cli import build_parser

    build_parser()
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(cavneg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"cavneg was imported from {cavneg.__file__}, not from {SRC}")
    return setup_s


def _check(job: dict, code, stdout: str, out_path) -> str | None:
    """Return why the job's output is wrong, or None when it is right.

    ``code`` is the exit code, or the traceback of an exception the job raised.
    """
    if code != 0:
        return code if isinstance(code, str) else f"exit code {code}"
    kind = job["check"]["kind"]
    if kind == "sha256":
        with open(out_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if digest != job["check"]["digest"]:
            return f"CSV digest {digest} differs from the seed's"
        return None
    if kind == "both":
        with open(out_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != job["check"]["rows"]:
            return f"{len(rows)} rows, expected {job['check']['rows']}"
        tol = job["check"]["tol"]
        for row in rows:
            diff = float(row["abs_difference"])
            if row["method"] != "both" or not math.isfinite(float(row["deficit_scaled"])):
                return f"bad row {row}"
            if not diff <= tol:
                return f"abs_difference {diff!r} exceeds {tol!r}"
        return None
    if kind == "verify":
        lines = stdout.strip().splitlines()
        checks = [ln for ln in lines if ln.startswith(("PASS ", "FAIL "))]
        if not checks or any(ln.startswith("FAIL ") for ln in checks):
            return "a verification check did not pass:\n" + stdout
        if lines[-1] != f"{len(checks)}/{len(checks)} checks passed at level fast":
            return f"unexpected tally line {lines[-1]!r}"
        return None
    raise ValueError(f"unknown check {kind!r}")


def run_pass(jobs: list, passdir: str, trace: bool) -> dict:
    setup_s = _import_program()
    import numpy

    import cavneg.cli

    tracer = None
    if trace:
        import tracing

        tracer = tracing.install()
    main = cavneg.cli.main  # looked up after install, so traced runs get the wrapper
    argvs = []
    for job in jobs:
        argv = list(job["argv"])
        if job["config"] is not None:
            path = os.path.join(passdir, job["name"] + ".cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(job["config"])
            argv += ["--config", path]
        if job["out"] is not None:
            argv += ["--out", os.path.join(passdir, job["out"])]
        argvs.append(argv)

    results = []
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    for argv in argvs:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = main(argv)
        except Exception:  # a crash counts as a failed job
            code = "raised:\n" + traceback.format_exc()
        results.append((code, buf.getvalue()))
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0

    failures = []
    rows = 0
    for job, (code, stdout) in zip(jobs, results):
        out_path = os.path.join(passdir, job["out"]) if job["out"] else None
        try:
            why = _check(job, code, stdout, out_path)
        except (OSError, ValueError, KeyError, csv.Error) as exc:
            why = f"output unreadable: {exc!r}"
        if why is not None:
            failures.append(f"{job['name']}: {why}")
        elif out_path is not None:
            with open(out_path, "rb") as fh:
                rows += fh.read().count(b"\n") - 1
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": len(jobs),
        "failed": len(failures),
        "failures": failures,
        "rows": rows,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(wall_s)
    return result


def main(argv: list) -> int:
    if argv == ["setup"]:
        result = {"setup_s": _import_program()}
    elif len(argv) == 4 and argv[0] == "pass" and argv[3] in ("0", "1"):
        with open(argv[1], encoding="utf-8") as fh:
            jobs = json.load(fh)
        result = run_pass(jobs, argv[2], argv[3] == "1")
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
