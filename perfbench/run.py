"""Benchmark of the cavneg command line, end to end and per module.

    python3 perfbench/run.py --workload presets|engine|verify-fast \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each pass is one fresh interpreter
(``perfbench/worker.py``) that runs every job of the workload through
``cavneg.cli.main`` and checks its output, so no in-process cache carries
over between passes. Passes repeat one at a time until ``--seconds`` is
spent. With ``--trace 0`` every pass is untraced and the end-to-end metrics
are reported; with ``--trace 1`` untraced and traced passes alternate and the
per-module metrics are reported. The last line of standard output is the
JSON result; the lines before it give the run environment and a readable
summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS, make_jobs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

# A run must end within 180 s; the first pass that would cross this stops it.
TIME_LIMIT_S = 170.0
MIN_PASSES = 3  # of each kind the run needs
MIN_SETUP_SAMPLES = 15

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_per_row"):
        return "us"
    if name.endswith("_mb_computed"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_share"):
        return "fraction"
    return "count"


class WorkerError(RuntimeError):
    pass


def run_worker(args: list, deadline: float) -> dict:
    """Run the worker in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    env.pop("CAVNEG_OUT_DIR", None)
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args[0]} ran past the run's time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_sha(root: str):
    """HEAD of the checkout's own .git, or None where there is none."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest(src: str) -> str:
    """SHA-256 over the package's Python sources, to name the code measured."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    jobs = make_jobs(workload, seed)
    jobs_path = os.path.join(workdir, "jobs.json")
    with open(jobs_path, "w", encoding="utf-8") as fh:
        json.dump(jobs, fh)
    deadline = time.monotonic() + TIME_LIMIT_S
    # Untimed: compiles bytecode in a fresh checkout and warms the file cache.
    run_worker(["setup"], deadline)

    kinds = (False, True) if trace else (False,)
    passes = {kind: [] for kind in kinds}
    setup = []
    durations = []
    attempted = failed = 0
    failures = []
    versions = {}
    start = time.monotonic()
    i = 0
    while True:
        traced = kinds[i % len(kinds)]
        enough = all(len(p) >= MIN_PASSES for p in passes.values())
        if durations:
            now = time.monotonic()
            typical = statistics.median(durations)
            if (enough and now - start + typical > seconds) or now + typical > deadline:
                break
        passdir = os.path.join(workdir, f"pass-{i}")
        os.mkdir(passdir)
        t0 = time.monotonic()
        try:
            res = run_worker(["pass", jobs_path, passdir, "1" if traced else "0"], deadline)
        except WorkerError as exc:
            attempted += len(jobs)
            failed += len(jobs)
            failures.append(str(exc))
            break
        finally:
            shutil.rmtree(passdir, ignore_errors=True)
        durations.append(time.monotonic() - t0)
        attempted += res["jobs"]
        failed += res["failed"]
        failures.extend(res["failures"])
        setup.append(res["setup_s"])
        versions = {"python": res["python"], "numpy": res["numpy"]}
        passes[traced].append(res)
        i += 1
    while len(setup) < MIN_SETUP_SAMPLES and time.monotonic() < deadline - 5.0:
        setup.append(run_worker(["setup"], deadline)["setup_s"])
    return {
        "jobs": jobs,
        "passes": passes,
        "setup": setup,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "versions": versions,
    }


def median_of(results: list, key: str) -> float:
    return statistics.median(r[key] for r in results)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cavneg", "__init__.py")):
        print(f"error: no cavneg sources under {src}", file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    plain = run["passes"][False]
    if not plain:
        print("error: no pass completed; " + "; ".join(run["failures"]), file=sys.stderr)
        return 1
    wall_s = median_of(plain, "wall_s")
    rows = plain[0]["rows"]
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": run["versions"]["python"],
        "numpy": run["versions"]["numpy"],
        "git_sha": git_sha(ROOT),
        "src_sha256": source_digest(src),
        "jobs": [
            {"argv": j["argv"], "config": j["config"]} for j in run["jobs"]
        ],
    }
    summary = {
        "passes": len(plain),
        "setup_samples": len(run["setup"]),
        "rows_per_pass": rows,
        "rows_per_s": rows / wall_s,
        "failed_frac": run["failed"] / run["attempted"],
        "wall_s_min": min(r["wall_s"] for r in plain),
        "wall_s_max": max(r["wall_s"] for r in plain),
    }
    if args.trace:
        traced = run["passes"][True]
        if not traced:
            print("error: no traced pass completed", file=sys.stderr)
            return 1
        layers = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        layers["trace.overhead_s"] = median_of(traced, "wall_s") - wall_s
        summary["traced_passes"] = len(traced)
        metrics = {
            name: {"value": value, "unit": per_layer_unit(name)}
            for name, value in sorted(layers.items())
        }
    else:
        values = {
            "wall_s": wall_s,
            "cpu_s": median_of(plain, "cpu_s"),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
            "setup_s": statistics.median(run["setup"]),
        }
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()
        }

    print("environment: " + json.dumps(environment))
    for name, value in summary.items():
        print(f"summary: {name} = {value}")
    for failure in run["failures"]:
        print(f"failure: {failure}")
    for name, metric in metrics.items():
        print(f"metric: {name} = {metric['value']} {metric['unit']}")
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
