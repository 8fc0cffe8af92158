"""Time the closed-form functions call by call, at three input sizes.

Writes a JSON report with, for ``q_function``, ``one_way_deficit``,
``two_way_deficit``, ``round_trip_deficit`` and ``kickstart_deficit`` at
k = 1, the time of the first call in a fresh interpreter (``first_s``, which
pays for anything a call caches) and the median time of a call after it
(``call_s``), on each input size:

- ``scalar``: 0-d phases (the shape a ``--mode both`` sweep without axes
  passes; ``kickstart_deficit`` takes no phase and is timed here only);
- ``16``: 16-point phase arrays;
- ``grid``: the 101 x 101 sparse mesh of the fig3/fig4 presets, p on the
  first axis and p' on the second; ``two_way_deficit`` gets (p, p') as in
  fig3, ``round_trip_deficit`` adds fig4b's p'' = exp(2 pi i / 3), and the
  one-phase functions get the 10,201 products p p';
- ``grid400``: the same mesh at 400 x 400, for ``round_trip_deficit`` only,
  which there runs its product sum one term at a time over the whole mesh.

Each case also records the SHA-256 of its result's bytes, so that a report
with a baseline shows whether the values stayed bit for bit.  The report
ends with the environment record (see harness.py).

Run from the repository root:

    python3 bench/closedform_layers.py [--out BENCH_closedform.json] [--baseline REV]

A round times every case once in a fresh interpreter, as the median of
several calls (see harness.py for the trees and rounds).  Times are medians
in seconds over seven rounds.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import sys
import time

import harness

REPEATS = 7
CALLS = {"scalar": 15, "16": 15, "grid": 3, "grid400": 1}  # calls per case and round


def _inputs() -> dict:
    """Phase arguments (p, p', p'') of each input size."""
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


def _cases(cf) -> list:
    """(function name, size, call) triples, in timing order."""
    cases = [("kickstart_deficit", "scalar", lambda: cf.kickstart_deficit(1))]
    for size, (p, pp, ppp) in _inputs().items():
        z = p * pp
        if size != "grid400":
            cases += [
                ("q_function", size, lambda z=z: cf.q_function(1, z)),
                ("one_way_deficit", size, lambda z=z: cf.one_way_deficit(1, z)),
                ("two_way_deficit", size, lambda p=p, pp=pp: cf.two_way_deficit(1, p, pp)),
            ]
        cases.append(
            (
                "round_trip_deficit",
                size,
                lambda p=p, pp=pp, ppp=ppp: cf.round_trip_deficit(1, p, pp, ppp),
            )
        )
    return cases


def _probe(src: str) -> dict:
    # one round: every case once
    harness.load(src)
    from cavneg import closedform
    import numpy as np

    out = {}
    for name, size, call in _cases(closedform):
        t0 = time.perf_counter()
        value = call()
        first = time.perf_counter() - t0
        times = []
        for _ in range(CALLS[size]):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        data = np.ascontiguousarray(value, dtype=float).tobytes()
        out[f"{name}/{size}"] = {
            "first_s": first,
            "call_s": statistics.median(times),
            "sha256": hashlib.sha256(data).hexdigest(),
        }
    return out


def _summary(rounds: list) -> dict:
    out = {}
    for case in rounds[0]:
        runs = [r[case] for r in rounds]
        out[case] = {
            "first_s": statistics.median(r["first_s"] for r in runs),
            "call_s": statistics.median(r["call_s"] for r in runs),
            "sha256": runs[0]["sha256"],
        }
    return out


def measure(args) -> dict:
    with harness.trees(args.baseline) as trees:
        rounds = harness.rounds(trees, REPEATS, lambda src, r: harness.child(__file__, src))
    return {
        "benchmark": "closedform_layers",
        "repeats": REPEATS,
        "unit": "s",
        **{label: _summary(r) for label, r in rounds.items()},
        "environment": harness.environment(args.baseline),
    }


def show(report: dict):
    for case, row in report["after"].items():
        line = f"{case}: {row['call_s'] * 1e3:.3f} ms (first {row['first_s'] * 1e3:.3f})"
        if "before" in report:
            before = report["before"][case]
            same = "same bits" if before["sha256"] == row["sha256"] else "bits differ"
            line += (
                f", before {before['call_s'] * 1e3:.3f} ms "
                f"(first {before['first_s'] * 1e3:.3f}), {same}"
            )
        yield line


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, "BENCH_closedform.json", measure, show, _probe))
