"""Job lists for the three workloads and the checks that judge each job.

A job is one ``cavneg.cli.main(argv)`` call. This module uses the standard
library only, so that importing it adds nothing to the set-up time that the
worker measures.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("presets", "engine", "verify-fast")

# SHA-256 of each preset CSV, recorded from the seed commit. The ROADMAP
# requires preset CSVs to stay byte-identical.
PRESET_DIGESTS = {
    "fig2": "8d9c6e197fea4c8cb71cbae6cc7eb5f49ffb16d203bc00eb0ca832f0c0741cce",
    "fig3": "c7cf55df652c6b4a35a64440f0dba2762434a38c20b084a4c481adaa3b1e5e28",
    "fig4a": "2f79b000b0242d6b4dfc586890d5e681f4aec251a7e8c28c8370cdc01fc4be82",
    "fig4b": "bd075cc3d9344d76ae26c8538b32f9797252a43e3f1c09e658c99c1f150d527a",
    "fig4c": "484f4bef84474cdac5c3fd7d011eee8851be253db74cdea5d9abbfb5f3baa746",
    "fig5a": "35dc1746bae038f06dd8ce19f118015e9156aa3b29c37a61932cc190f598e172",
    "fig5b": "dcf6a54b375e131a16b446a2b4019580ce48407f80f75f25e7f68199874d19d2",
}

ENGINE_SCENARIOS = ("one-way", "alpha-centauri", "round-trip", "kickstart")
ENGINE_N_MAX = 2000
# The bound verify._pipeline_checks applies at n_max = 2000.
ENGINE_TOL = 1e-8
# Phases stay inside the window the pipeline checks use, away from the
# exact zeros at 0 and 2 pi.
PHASE_LO = 0.15
PHASE_HI = 2.0 * math.pi - 0.15


def make_jobs(workload: str, seed: int) -> list:
    """Return the jobs of one pass as JSON-ready dicts.

    The seed draws the engine's phases. The presets and the fast self-check
    are fixed inputs, so for them the seed changes nothing.

    Each job has ``name``, ``argv`` (without ``--out``), ``out`` (the CSV file
    name, or None), ``config`` (text of a ``--config`` file to write, or None)
    and ``check`` (what makes the job correct).
    """
    # Job order is fixed: it moves peak memory, and for the engine it
    # decides which job pays for the boost build.
    if workload == "presets":
        names = sorted(PRESET_DIGESTS)
        return [
            {
                "name": name,
                "argv": ["--preset", name],
                "out": f"{name}.csv",
                "config": None,
                "check": {"kind": "sha256", "digest": PRESET_DIGESTS[name]},
            }
            for name in names
        ]
    if workload == "engine":
        rng = random.Random(seed)
        jobs = []
        for scenario in ENGINE_SCENARIOS:
            u, v, w = (rng.uniform(PHASE_LO, PHASE_HI) for _ in range(3))
            jobs.append(
                {
                    "name": scenario,
                    "argv": [
                        "--scenario", scenario,
                        "--mode", "both",
                        "--n-max", str(ENGINE_N_MAX),
                        "--k", "1",
                    ],
                    "out": f"{scenario}.csv",
                    # The CLI has no flags for fixed phases, only config keys.
                    "config": f"u={u!r}\nv={v!r}\nw={w!r}\n",
                    "check": {"kind": "both", "rows": 1, "tol": ENGINE_TOL},
                }
            )
        return jobs
    if workload == "verify-fast":
        return [
            {
                "name": "verify-fast",
                "argv": ["--verify", "fast"],
                "out": None,
                "config": None,
                "check": {"kind": "verify"},
            }
        ]
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
