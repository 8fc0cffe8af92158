"""Time the library kernels call by call: the closed forms, the column
engine and the full-matrix reference.

Writes a JSON report with the same record for every case: the time of the
first call in a fresh interpreter (``first_s``, which pays for anything a
call caches), the median of the calls after it (``call_s``) with the
quartiles of that median over the rounds, and the SHA-256 of the result's
float64 bytes, so that a report with a baseline shows whether the values
stayed bit for bit; a one-number result is also kept as ``value``.  Cases:

- ``q_function``, ``one_way_deficit``, ``two_way_deficit`` and
  ``round_trip_deficit`` at k = 1 on 0-d phases (``scalar``; with
  ``kickstart_deficit``, which takes no phase), 16-point arrays (``16``)
  and the fig3/fig4 101 x 101 sparse mesh (``grid``: p on the first axis,
  p' on the second, fig4b's p'' = exp(2 pi i / 3), and the products p p'
  for the one-phase functions); ``round_trip_deficit`` also on that mesh at
  400 x 400 (``grid400``);
- ``scenario_negativity`` on the four trip shapes at n_max = 2e3, 2e4 and
  2e5, with (u, v, w) = (2.2, 1.3, 0.9), h = 0.01 and k = 1; the calls
  visit the three cutoffs in turn, so a slow spell of the host hits each
  alike;
- the full-matrix reference ``negativity_general(effective_transform(s),
  1)`` on the same trips at n_max = 2e3, called once after its first call
  (a round trip takes about 2 s and peaks near 550 MB resident).

The engine cases keep the deficit, not its tail.  Per shape the report adds
the column engine's growth exponents d log(time) / d log(n_max) between
cutoffs, of the medians and as the range the quartiles allow, the column
minus matrix deficit and the ratio of their times.  A round runs every case
in a fresh interpreter for each tree, and times are medians in seconds over
seven rounds (see harness.py, also for the environment record).  Run from
the repository root:

    python3 bench/kernel_layers.py [--out BENCH_kernels.json] [--baseline REV]
"""

from __future__ import annotations

import hashlib
import math
import statistics
import sys
import time
from functools import partial

import harness

REPEATS = 7
# calls after the first, per case and round
CALLS = {"scalar": 15, "16": 15, "grid": 3, "grid400": 1, "column": 15, "matrix": 1}
SHAPES = ("one-way", "alpha-centauri", "round-trip", "kickstart")
COLUMN_N_MAX = (2_000, 20_000, 200_000)
MATRIX_N_MAX = 2_000
# Phases u, v, w of the trips; away from the zero loci of the deficit.
PHASES = (2.2, 1.3, 0.9)


def _inputs() -> dict:
    """Phase arguments (p, p', p'') of each closed-form input size."""
    # numpy is imported in the child, after cavneg, so that it loads as it
    # does for users
    import numpy as np

    def grid(points):
        u = np.linspace(0.0, 2.0 * math.pi, points)
        return np.exp(1j * u)[:, None], np.exp(1j * u)[None, :], np.exp(2j * math.pi / 3)

    us = np.linspace(0.15, 2.0 * math.pi - 0.15, 16)
    return {
        "scalar": (np.exp(0.7j), np.exp(1.9j), np.exp(2.9j)),
        "16": tuple(np.exp(1j * np.roll(us, shift)) for shift in (0, 5, 10)),
        "grid": grid(101),
        "grid400": grid(400),
    }


def _cases() -> list:
    """(calls, [(case name, call), ...]) groups in timing order; the cases
    of a group take turns on every call.  Every cavneg function is bound
    here, so a renamed one fails the list, not only a timed run."""
    from cavneg import closedform
    from cavneg.scenario import effective_transform, negativity_general, scenario_negativity
    from cavneg.spectrum import CavityConfig
    from cavneg.sweep import _build_scenario

    kickstart = partial(closedform.kickstart_deficit, 1)
    groups = [(CALLS["scalar"], [("kickstart_deficit/scalar", kickstart)])]
    for size, (p, pp, ppp) in _inputs().items():
        args = {} if size == "grid400" else {
            "q_function": (p * pp,), "one_way_deficit": (p * pp,), "two_way_deficit": (p, pp)
        }
        args["round_trip_deficit"] = (p, pp, ppp)
        groups += [
            (CALLS[size], [(f"{name}/{size}", partial(getattr(closedform, name), 1, *a))])
            for name, a in args.items()
        ]

    def trip(shape, n_max):
        return _build_scenario(shape, CavityConfig(h=0.01, n_max=n_max), *PHASES)

    for shape in SHAPES:
        trips = {n: trip(shape, n) for n in COLUMN_N_MAX}
        groups.append((CALLS["column"], [
            (f"scenario_negativity/{shape}/{n}", lambda s=s: scenario_negativity(s)[0])
            for n, s in trips.items()
        ]))
    for shape in SHAPES:
        s = trip(shape, MATRIX_N_MAX)
        groups.append((CALLS["matrix"], [(
            f"negativity_general/{shape}/{MATRIX_N_MAX}",
            lambda s=s: negativity_general(effective_transform(s), 1)[0],
        )]))
    return groups


def run(groups) -> dict:
    """One round of the groups: per case, the first call, the median of the
    calls after it, and the first result's SHA-256 (and value, if one
    number)."""
    import numpy as np

    out = {}
    for calls, group in groups:
        times, values = {name: [] for name, _ in group}, {}
        for _ in range(1 + calls):
            for name, call in group:
                t0 = time.perf_counter()
                value = call()
                times[name].append(time.perf_counter() - t0)
                values.setdefault(name, value)
        for name, value in values.items():
            data = np.ascontiguousarray(value, dtype=float)
            out[name] = {
                "first_s": times[name][0],
                "call_s": statistics.median(times[name][1:]),
                "sha256": hashlib.sha256(data.tobytes()).hexdigest(),
            }
            if data.size == 1:
                out[name]["value"] = data.item()
    return out


def _probe(src: str) -> dict:
    harness.load(src)
    return run(_cases())


def _exponents(cases: dict, shape: str) -> dict:
    """Growth exponents of the column engine between neighbouring cutoffs:
    of the medians, and the range from the lower quartile of one to the
    upper of the other."""
    out = {}
    for lo, hi in zip(COLUMN_N_MAX, COLUMN_N_MAX[1:]):
        a = cases[f"scenario_negativity/{shape}/{lo}"]
        b = cases[f"scenario_negativity/{shape}/{hi}"]
        scale = math.log(hi / lo)
        out[f"{lo}-{hi}"] = {
            "median": math.log(b["call_s"] / a["call_s"]) / scale,
            "range": [
                math.log(b["quartiles"][0] / a["quartiles"][1]) / scale,
                math.log(b["quartiles"][1] / a["quartiles"][0]) / scale,
            ],
        }
    return out


def _summary(rounds: list) -> dict:
    cases = {}
    for case in rounds[0]:
        runs = [r[case] for r in rounds]
        q1, _, q3 = statistics.quantiles([r["call_s"] for r in runs], n=4)
        cases[case] = {
            "first_s": statistics.median(r["first_s"] for r in runs),
            "call_s": statistics.median(r["call_s"] for r in runs),
            "quartiles": [q1, q3],
            **{key: runs[0][key] for key in ("sha256", "value") if key in runs[0]},
        }
    shapes = {}
    for shape in SHAPES:
        column = cases[f"scenario_negativity/{shape}/{MATRIX_N_MAX}"]
        matrix = cases[f"negativity_general/{shape}/{MATRIX_N_MAX}"]
        shapes[shape] = {
            "column_growth_exponent": _exponents(cases, shape),
            "column_minus_matrix_deficit": abs(column["value"] - matrix["value"]),
            "matrix_over_column_time": matrix["call_s"] / column["call_s"],
        }
    return {"cases": cases, "shapes": shapes}


def measure(args) -> dict:
    with harness.trees(args.baseline) as trees:
        rounds = harness.rounds(trees, REPEATS, lambda src, r: harness.child(__file__, src))
    return {
        "benchmark": "kernel_layers",
        "repeats": REPEATS,
        "calls": CALLS,
        "k": 1,
        "h": 0.01,
        "phases_uvw": list(PHASES),
        "unit": "s",
        **{label: _summary(r) for label, r in rounds.items()},
        "environment": harness.environment(args.baseline),
    }


def show(report: dict):
    before = report.get("before")
    for case, row in report["after"]["cases"].items():
        line = f"{case}: {row['call_s'] * 1e3:.3f} ms (first {row['first_s'] * 1e3:.3f})"
        if before is not None:
            old = before["cases"][case]
            same = "same bits" if old["sha256"] == row["sha256"] else "bits differ"
            line += (
                f", before {old['call_s'] * 1e3:.3f} ms "
                f"(first {old['first_s'] * 1e3:.3f}), {same}"
            )
        yield line
    for label in [label for label in ("before", "after") if label in report]:
        for shape, row in report[label]["shapes"].items():
            growth = ", ".join(
                f"{span}: {g['median']:.2f} ({g['range'][0]:.2f} to {g['range'][1]:.2f})"
                for span, g in row["column_growth_exponent"].items()
            )
            yield (
                f"{label} {shape}: growth {growth}; column - matrix "
                f"{row['column_minus_matrix_deficit']:.3g}"
            )


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, "BENCH_kernels.json", measure, show, _probe))
