"""Time the general engine against the mode cutoff n_max.

Writes a JSON report with, for each trip shape at k = 1:

- the column engine (``scenario_negativity``) at n_max = 2e3, 2e4 and 2e5,
  with the growth exponent d log(time) / d log(n_max) between cutoffs;
- the full-matrix reference (``negativity_general(effective_transform(s))``)
  at n_max = 2e3, with the deficit difference between the two paths;
- the environment record (see harness.py).

Run from the repository root:

    python3 bench/engine_scaling.py [--out BENCH_engine.json]

Times are medians in seconds over seven calls of the column path and three
of the matrix path, each call from scratch. The matrix round trip peaks near
550 MB of resident memory at n_max = 2e3.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time

import harness

# cavneg before numpy, so that numpy loads as it does for users
harness.load(os.path.join(harness.ROOT, "src"))
from cavneg.scenario import (  # noqa: E402
    effective_transform,
    negativity_general,
    scenario_negativity,
)
from cavneg.spectrum import CavityConfig  # noqa: E402
from cavneg.sweep import _build_scenario  # noqa: E402

COLUMN_N_MAX = (2_000, 20_000, 200_000)
MATRIX_N_MAX = 2_000
COLUMN_REPEATS = 7
MATRIX_REPEATS = 3
# Phases u, v, w of the trip; away from the zero loci of the deficit.
PHASES = (2.2, 1.3, 0.9)


def _median_time(fn, repeats: int):
    times = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def measure(args) -> dict:
    shapes = {}
    for shape in ("one-way", "alpha-centauri", "round-trip", "kickstart"):
        column = {}
        for n_max in COLUMN_N_MAX:
            s = _build_scenario(shape, CavityConfig(h=0.01, n_max=n_max), *PHASES)
            seconds, (deficit, _) = _median_time(
                lambda: scenario_negativity(s), COLUMN_REPEATS
            )
            column[str(n_max)] = {"seconds": seconds, "deficit_scaled": deficit}
        exponents = {
            f"{lo}-{hi}": math.log(column[str(hi)]["seconds"] / column[str(lo)]["seconds"])
            / math.log(hi / lo)
            for lo, hi in zip(COLUMN_N_MAX, COLUMN_N_MAX[1:])
        }
        s = _build_scenario(shape, CavityConfig(h=0.01, n_max=MATRIX_N_MAX), *PHASES)
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
        "environment": harness.environment(),
    }


def show(report: dict):
    for shape, row in report["shapes"].items():
        col = ", ".join(
            f"n={n}: {v['seconds'] * 1e3:.2f} ms" for n, v in row["column"].items()
        )
        mat = row["matrix"][str(MATRIX_N_MAX)]["seconds"]
        yield f"{shape}: column {col}; matrix n={MATRIX_N_MAX}: {mat:.3f} s"


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, "BENCH_engine.json", measure, show))
