"""Time the general engine against the mode cutoff n_max.

Writes a JSON report with, for each trip shape at k = 1:

- the column engine (``scenario_negativity``) at n_max = 2e3, 2e4 and 2e5,
  with the growth exponent d log(time) / d log(n_max) between cutoffs;
- the full-matrix reference (``negativity_general(effective_transform(s))``)
  at n_max = 2e3, with the deficit difference between the two paths;
- the environment: nproc, Python and numpy versions, git SHA and whether
  src/ differs from it.

Run from the repository root:

    python3 bench/engine_scaling.py [--out BENCH_engine.json]

Times are medians in seconds over seven calls of the column path and three
of the matrix path, each call from scratch. The matrix round trip peaks near
640 MB of resident memory at n_max = 2e3.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# cavneg before numpy, so that numpy loads as it does for users
from cavneg.scenario import (  # noqa: E402
    alpha_centauri_scenario,
    effective_transform,
    kickstart_scenario,
    negativity_general,
    one_way_scenario,
    round_trip_scenario,
    scenario_negativity,
)
from cavneg.spectrum import CavityConfig, rindler_frequency  # noqa: E402

import numpy as np  # noqa: E402

COLUMN_N_MAX = (2_000, 20_000, 200_000)
MATRIX_N_MAX = 2_000
COLUMN_REPEATS = 7
MATRIX_REPEATS = 3
# Phases u, v, w of the trip; away from the zero loci of the deficit.
PHASES = (2.2, 1.3, 0.9)


def _scenario(shape: str, cfg: CavityConfig):
    u, v, w = PHASES
    tau = u / rindler_frequency(1, cfg)
    if shape == "one-way":
        return one_way_scenario(tau, cfg)
    if shape == "alpha-centauri":
        return alpha_centauri_scenario(tau, v / math.pi, cfg)
    if shape == "round-trip":
        return round_trip_scenario(tau, v / math.pi, w / math.pi, cfg)
    return kickstart_scenario(tau, cfg)


def _median_time(fn, repeats: int):
    times = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def measure() -> dict:
    shapes = {}
    for shape in ("one-way", "alpha-centauri", "round-trip", "kickstart"):
        column = {}
        for n_max in COLUMN_N_MAX:
            s = _scenario(shape, CavityConfig(h=0.01, n_max=n_max))
            seconds, (deficit, _) = _median_time(
                lambda: scenario_negativity(s), COLUMN_REPEATS
            )
            column[str(n_max)] = {"seconds": seconds, "deficit_scaled": deficit}
        exponents = {
            f"{lo}-{hi}": math.log(column[str(hi)]["seconds"] / column[str(lo)]["seconds"])
            / math.log(hi / lo)
            for lo, hi in zip(COLUMN_N_MAX, COLUMN_N_MAX[1:])
        }
        s = _scenario(shape, CavityConfig(h=0.01, n_max=MATRIX_N_MAX))
        seconds, (ref, _) = _median_time(
            lambda: negativity_general(effective_transform(s), 1), MATRIX_REPEATS
        )
        shapes[shape] = {
            "column": column,
            "column_growth_exponent": exponents,
            "matrix": {
                str(MATRIX_N_MAX): {"seconds": seconds, "deficit_scaled": ref}
            },
            "column_minus_matrix_deficit": abs(
                column[str(MATRIX_N_MAX)]["deficit_scaled"] - ref
            ),
            "matrix_over_column_time": seconds / column[str(MATRIX_N_MAX)]["seconds"],
        }
    return {
        "benchmark": "engine_scaling",
        "k": 1,
        "phases_uvw": list(PHASES),
        "repeats": {"column": COLUMN_REPEATS, "matrix": MATRIX_REPEATS},
        "unit": "s",
        "shapes": shapes,
        "environment": {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_sha": _git("rev-parse", "HEAD"),
            # true when src/ differs from that commit, so the SHA alone does
            # not name the code that was timed
            "src_modified": bool(_git("status", "--porcelain", "--", "src")),
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=os.path.join(ROOT, "BENCH_engine.json"))
    args = p.parse_args(argv)
    report = measure()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for shape, row in report["shapes"].items():
        col = ", ".join(
            f"n={n}: {v['seconds'] * 1e3:.2f} ms" for n, v in row["column"].items()
        )
        mat = row["matrix"][str(MATRIX_N_MAX)]["seconds"]
        print(f"{shape}: column {col}; matrix n={MATRIX_N_MAX}: {mat:.3f} s")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
