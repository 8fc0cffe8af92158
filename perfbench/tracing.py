"""Per-module spans and counts, recorded from outside the program.

``install()`` wraps the public functions of the cavneg modules and rebinds
every module's reference to them, because ``sweep``, ``scenario``, ``verify``
and ``cli`` import with ``from ... import``. A name that a module no longer
defines is simply not wrapped, and its metrics read 0. A function's self time
is its span's duration minus the time of the wrapped calls nested inside it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

import numpy as np

TIMED_MODULES = ("cli", "sweep", "closedform", "scenario", "bogoliubov", "verify")
# spectrum's scalar helpers cost well under 1 ms, so they are only counted.
COUNTED_MODULES = ("spectrum",)

PER_LAYER_SELF = (
    "sweep.run_sweep",
    "closedform.polylog6",
    "closedform.q_function",
    "closedform.round_trip_deficit",
    "closedform.massive_limit_deficit",
    "bogoliubov.compose",
    "bogoliubov.check_identities",
    "scenario.effective_transform",
    "scenario.negativity_general",
    "verify.run_verification",
    "cli.main",
)
PER_LAYER_CALLS = (
    "closedform.polylog6",
    "closedform.q_function",
    "bogoliubov.compose",
    "scenario.effective_transform",
)
BOOST_BUILDS = ("bogoliubov.massless_boost_transform", "bogoliubov.massive_boost_transform")


class Tracer:
    """Spans and counts of one pass, kept in memory."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls: dict = {}
        self.self_s: dict = {}
        self.top_level_s = 0.0
        self.counts = {
            "sweep.rows": 0,
            "sweep.csv_bytes": 0,
            "closedform.phase_points": 0,
            "bogoliubov.matrix_mb_computed": 0.0,
            "verify.checks": 0,
            "verify.checks_failed": 0,
            "spectrum.calls": 0,
        }

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, key: str, fn):
        observe = _observer_for(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                with self._lock:
                    self.calls[key] = self.calls.get(key, 0) + 1
                    self.self_s[key] = self.self_s.get(key, 0.0) + dur - children[0]
                    if not stack:
                        self.top_level_s += dur
                if stack:
                    stack[-1][0] += dur
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts["spectrum.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _add(self, name: str, value) -> None:
        with self._lock:
            self.counts[name] += value

    def metrics(self, wall_s: float) -> dict:
        """Per-layer values of this pass; ``wall_s`` is the traced job time."""
        out = {}
        for key in PER_LAYER_SELF:
            out[f"{key}.self_s"] = self.self_s.get(key, 0.0)
        for key in PER_LAYER_CALLS:
            out[f"{key}.calls"] = self.calls.get(key, 0)
        out["bogoliubov.boost_build.self_s"] = sum(self.self_s.get(k, 0.0) for k in BOOST_BUILDS)
        out["bogoliubov.boost_build.calls"] = sum(self.calls.get(k, 0) for k in BOOST_BUILDS)
        for module in TIMED_MODULES:
            prefix = module + "."
            out[f"{module}.self_s"] = sum(
                (v for k, v in self.self_s.items() if k.startswith(prefix)), 0.0
            )
        out.update(self.counts)
        rows = self.counts["sweep.rows"]
        out["sweep.self_us_per_row"] = (
            1e6 * out["sweep.run_sweep.self_s"] / rows if rows else 0.0
        )
        out["trace.wall_s"] = wall_s
        out["trace.top_level_s"] = self.top_level_s
        out["trace.top_level_share"] = self.top_level_s / wall_s if wall_s > 0 else 0.0
        return out


def _observe_sweep(tracer, args, text):
    tracer._add("sweep.rows", text.count("\n") - 1)
    tracer._add("sweep.csv_bytes", len(text.encode("utf-8")))


def _observe_phase_points(tracer, args, result):
    # every argument after the mode index is a phase, duration or a scalar
    # that broadcasts against them
    tracer._add("closedform.phase_points", max((np.size(a) for a in args[1:]), default=1))


def _observe_matrices(tracer, args, result):
    # nominal size of the two first-order blocks, n_max**2 complex entries each
    if hasattr(result, "alpha1") and hasattr(result, "beta1"):
        n = result.alpha1.shape[0]
        tracer._add("bogoliubov.matrix_mb_computed", 2 * n * n * 16 / 1e6)


def _observe_verify(tracer, args, report):
    tracer._add("verify.checks", len(report.checks))
    tracer._add("verify.checks_failed", sum(1 for c in report.checks if not c.passed))


def _observer_for(key: str):
    if key == "sweep.run_sweep":
        return _observe_sweep
    if key == "verify.run_verification":
        return _observe_verify
    module, name = key.split(".", 1)
    if module == "closedform" and name.endswith(("_deficit", "_deficit_sum")):
        return _observe_phase_points
    if module == "bogoliubov":
        return _observe_matrices
    return None


def _public_functions(module) -> dict:
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def install() -> Tracer:
    """Wrap the public functions of the cavneg modules; return the tracer."""
    tracer = Tracer()
    replacements = {}
    for short in TIMED_MODULES + COUNTED_MODULES:
        module = sys.modules.get(f"cavneg.{short}")
        if module is None:
            continue
        for name, fn in _public_functions(module).items():
            key = f"{short}.{name}"
            if short in COUNTED_MODULES:
                replacements[id(fn)] = (fn, tracer.counted(fn))
            else:
                replacements[id(fn)] = (fn, tracer.timed(key, fn))
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "cavneg" or mod_name.startswith("cavneg.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return tracer
