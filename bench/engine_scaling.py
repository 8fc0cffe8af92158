"""Time the general engine against the mode cutoff n_max.

Writes a JSON report with, for each trip shape at k = 1:

- the column engine (``scenario_negativity``) at n_max = 2e3, 2e4 and 2e5,
  with the growth exponent d log(time) / d log(n_max) between cutoffs, of
  the medians and as the range the quartiles allow;
- the full-matrix reference (``negativity_general(effective_transform(s))``)
  at n_max = 2e3, with the deficit difference between the two paths;
- the environment record (see harness.py).

Run from the repository root:

    python3 bench/engine_scaling.py [--out BENCH_engine.json]

Times are medians in seconds, with their quartiles, over fifteen calls of
the column path and three of the matrix path, each call from scratch. The
column path's repeats visit the three cutoffs in turn, so that a slow spell
of the host hits each cutoff alike. The matrix round trip peaks near 550 MB
of resident memory at n_max = 2e3.
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
COLUMN_REPEATS = 15
MATRIX_REPEATS = 3
# Phases u, v, w of the trip; away from the zero loci of the deficit.
PHASES = (2.2, 1.3, 0.9)


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _spread(times, deficit) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"seconds": median, "quartiles": [q1, q3], "deficit_scaled": deficit}


def _exponents(column: dict) -> dict:
    """Growth exponents between neighbouring cutoffs: of the medians, and
    the range from the lower quartile of one to the upper of the other."""
    out = {}
    for lo, hi in zip(COLUMN_N_MAX, COLUMN_N_MAX[1:]):
        a, b, scale = column[str(lo)], column[str(hi)], math.log(hi / lo)
        out[f"{lo}-{hi}"] = {
            "median": math.log(b["seconds"] / a["seconds"]) / scale,
            "range": [
                math.log(b["quartiles"][0] / a["quartiles"][1]) / scale,
                math.log(b["quartiles"][1] / a["quartiles"][0]) / scale,
            ],
        }
    return out


def measure(args) -> dict:
    shapes = {}
    for shape in ("one-way", "alpha-centauri", "round-trip", "kickstart"):
        trips = {
            n_max: _build_scenario(shape, CavityConfig(h=0.01, n_max=n_max), *PHASES)
            for n_max in COLUMN_N_MAX
        }
        times = {n_max: [] for n_max in COLUMN_N_MAX}
        deficits = {}
        for _ in range(COLUMN_REPEATS):
            for n_max, s in trips.items():
                seconds, (deficits[n_max], _) = _timed(lambda: scenario_negativity(s))
                times[n_max].append(seconds)
        column = {str(n): _spread(times[n], deficits[n]) for n in COLUMN_N_MAX}
        s = _build_scenario(shape, CavityConfig(h=0.01, n_max=MATRIX_N_MAX), *PHASES)
        matrix_times = []
        for _ in range(MATRIX_REPEATS):
            seconds, (ref, _) = _timed(lambda: negativity_general(effective_transform(s), 1))
            matrix_times.append(seconds)
        matrix = _spread(matrix_times, ref)
        same = column[str(MATRIX_N_MAX)]
        shapes[shape] = {
            "column": column,
            "column_growth_exponent": _exponents(column),
            "matrix": {str(MATRIX_N_MAX): matrix},
            "column_minus_matrix_deficit": abs(same["deficit_scaled"] - ref),
            "matrix_over_column_time": matrix["seconds"] / same["seconds"],
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
            f"n={n}: {v['seconds'] * 1e3:.2f} ms "
            f"({v['quartiles'][0] * 1e3:.2f}-{v['quartiles'][1] * 1e3:.2f})"
            for n, v in row["column"].items()
        )
        mat = row["matrix"][str(MATRIX_N_MAX)]["seconds"]
        growth = ", ".join(
            f"{span}: {g['median']:.2f} ({g['range'][0]:.2f} to {g['range'][1]:.2f})"
            for span, g in row["column_growth_exponent"].items()
        )
        yield f"{shape}: column {col}; growth {growth}; matrix n={MATRIX_N_MAX}: {mat:.3f} s"


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, "BENCH_engine.json", measure, show))
