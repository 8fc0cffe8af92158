"""Parameter sweeps over trajectory phases with deterministic CSV output.

A sweep walks a grid over up to three phase coordinates

    u: boost frequency times accelerated duration
    v: pi times outbound coast duration over delta
    w: pi times destination stay duration over delta

holding the remaining parameters fixed, and records one row per grid point.
For a heavy field (M > 0) the u coordinate is read as pi tau_bar / (4 M
delta), one unit per approximate period of the heavy-field waveform, and the
deficit column keeps its usual per-h**2 scaling (divide by M**4 to land on
the conventional heavy-field normalization).  This module alone turns (u, v,
w) into a trip (_tau_bar, _build_scenario) and into a named massless trip's
closed form and series tail (_massless_closed); verify's pipeline checks and
estimate_physical read the same map.

Re-running a sweep with the same spec yields a byte-identical file: values
are written in shortest round-trip decimal form (repr of a Python float),
comma separated, newline terminated, UTF-8, rows in lexicographic axis order.

Coordinates stay broadcastable (a swept phase varies along its own axis
only), so the closed forms evaluate each per-axis phase at its own size and
only products of phases fill the grid.  Rows are written column-wise and
streamed: scenario, k, h, M, method and tail are formatted once per k block,
each swept coordinate once per axis value and an unswept one once.  Per row
the deficit is formatted, and in both mode the general value and the
difference too; the negativity and its log1p are formatted once per
distinct negativity bit pattern.  run_sweep joins the rows into one string;
write_sweep sends them to the output file a chunk of rows at a time.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import closedform
from .closedform import (
    _ESTIMATE_K_OVER_M,
    _MAX_K_OVER_M,
    kickstart_deficit,
    massive_limit_deficit,
    one_way_deficit,
    round_trip_deficit,
    two_way_deficit,
)
from .scenario import (
    Scenario,
    alpha_centauri_scenario,
    kickstart_scenario,
    one_way_scenario,
    round_trip_scenario,
    scenario_negativity,
)
from .spectrum import (
    CavityConfig,
    ValidityReport,
    physical_to_dimensionless,
    rindler_frequency,
)


class ConfigError(ValueError, argparse.ArgumentTypeError):
    """Raised for contradictory or unparseable sweep configuration.  It is an
    argparse type error too, so a numeric flag that does not parse reports
    this text, the one a config file gives for the same value."""


class NumericValidityError(ArithmeticError):
    """Raised when requested parameters leave the perturbative regime so far
    that results would be meaningless (for example a negative negativity)."""


__all__ = [
    "Axis",
    "SweepSpec",
    "ConfigError",
    "NumericValidityError",
    "PRESETS",
    "preset_spec",
    "run_sweep",
    "write_sweep",
    "parse_number",
    "parse_axis",
    "estimate_physical",
    "PhysicalEstimate",
    "format_estimate",
    "default_output_path",
]

OUTPUT_DIR_ENV = "CAVNEG_OUT_DIR"

SCENARIOS = ("one-way", "alpha-centauri", "round-trip", "kickstart", "custom")

BASE_FIELDS = (
    "scenario",
    "k",
    "h",
    "M",
    "u",
    "v",
    "w",
    "deficit_scaled",
    "negativity",
    "log_negativity",
    "method",
    "truncation_tail",
)
BOTH_FIELDS = BASE_FIELDS + ("deficit_general", "abs_difference")

_DEFAULT_FIXED = {
    "k": 1,
    "h": 0.01,
    "M": 0.0,
    "delta": 1.0,
    "n_max": 200,
    "u": 0.0,
    "v": 0.0,
    "w": 0.0,
}


def parse_number(text: str) -> float:
    """Parse a finite decimal literal that may carry a pi token: ``pi``,
    ``2pi``, ``2*pi``, ``pi/3``, ``-2pi/3`` and plain floats are all
    accepted; nan and inf are not."""
    s = str(text).strip().lower().replace(" ", "")
    if not s:
        raise ConfigError("empty number")
    sign = 1.0
    if s[0] in "+-":
        sign = -1.0 if s[0] == "-" else 1.0
        s = s[1:]
    try:
        if "pi" in s:
            pre, _, post = s.partition("pi")
            pre = pre.rstrip("*")
            mult = float(pre) if pre else 1.0
            div = 1.0
            if post:
                if not post.startswith("/") or len(post) < 2:
                    raise ValueError(post)
                div = float(post[1:])
            value = sign * mult * math.pi / div
        else:
            value = sign * float(s)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse number {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"number must be finite, got {text!r}")
    return value


@dataclass(frozen=True)
class Axis:
    """One swept coordinate: name in {u, v, w}, inclusive range, count a
    whole number >= 2 (3.0 is stored as 3)."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.name not in ("u", "v", "w"):
            raise ConfigError(f"axis name must be u, v or w, got {self.name!r}")
        count = _integral(f"axis {self.name}: count", self.count)
        object.__setattr__(self, "count", count)
        if self.count < 2:
            raise ConfigError(f"axis {self.name}: count must be >= 2, got {self.count}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


def parse_axis(text: str) -> Axis:
    """Parse ``name=start:stop:count`` (pi tokens welcome in the bounds)."""
    name, sep, rng = text.partition("=")
    if not sep:
        raise ConfigError(f"axis must look like name=start:stop:count, got {text!r}")
    parts = rng.split(":")
    if len(parts) != 3:
        raise ConfigError(f"axis range must be start:stop:count, got {rng!r}")
    return Axis(name.strip(), *(parse_number(x) for x in parts))


@dataclass(frozen=True)
class SweepSpec:
    """Everything needed to reproduce one sweep.

    scenario: one of {one-way, alpha-centauri, round-trip, kickstart, custom}.
    axes: up to three distinct Axis entries; row order follows their order.
    fixed: overrides for {k, h, M, delta, n_max} and constant values
        of unswept phase coordinates {u, v, w}.  k is one mode index or a
        sequence of them, written as one block of rows per index in order.
    mode: closed-form | general | both; general evaluates each grid point
        with the column engine (scenario_negativity).
    output: CSV path for write_sweep.
    segments: trajectory for scenario=custom, and for no other scenario.
    """

    scenario: str
    axes: tuple = ()
    fixed: dict = field(default_factory=dict)
    mode: str = "closed-form"
    output: str | None = None
    segments: tuple | None = None


def _integral(name: str, value) -> int:
    # 2 and 2.0 are the index 2; 2.7 is refused, not truncated to 2
    if not float(value).is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


# the largest k of the closed forms, whose series run over r up to k, so
# their time and memory grow linearly with k: on a 2-vCPU x86-64 machine a
# one-point sweep or an estimate at k = 10**5 takes at most 0.13 s and 44
# MB, at 10**6 up to 7.3 s and 91 MB, and --k 1e20 would exhaust the memory
_MAX_K = 100_000


# the largest n_max where it sizes arrays, the engine's columns and the
# heavy-field sum's modes, whose memory grows linearly with it: on a 2-vCPU
# x86-64 machine a one-point general sweep at n_max = 10**6 takes at most
# 0.3 s and 244 MB, at 5 * 10**6 up to 1.9 s and 1.1 GB, and 10**9 asks for
# 7.45 GiB in one array
_MAX_N_MAX = 1_000_000
# the largest heavy-field waveform, grid points x n_max / 2 cos values built
# at once: 10**7 of them take 0.4 s and 112 MB, 5 * 10**7 1.7 s and 417 MB
_MAX_WAVEFORM = 10_000_000
# the largest grid, the product of the axis counts, whose coordinates, values
# and rows grow linearly with it: on a 2-vCPU x86-64 machine a closed-form
# sweep of 160,000 points takes at most 1.6 s and 80 MB, of 10**6 points
# (one axis, 1000**2 or 100**3) up to 7.6 s and 338 MB, and a 10**9-point
# axis asks for 7.45 GiB in one array
_MAX_POINTS = 1_000_000


def _check_closed_form_k(k: int) -> None:
    if k > _MAX_K:
        raise ConfigError(f"k = {k} is above {_MAX_K}, the largest the closed forms take")


def _validated(spec: SweepSpec) -> dict:
    if spec.scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {spec.scenario!r}, expected one of {SCENARIOS}"
        )
    if spec.mode not in ("closed-form", "general", "both"):
        raise ConfigError(f"unknown mode {spec.mode!r}")
    names = [a.name for a in spec.axes]
    if len(names) != len(set(names)):
        raise ConfigError(f"axes must be distinct, got {names}")
    params = dict(_DEFAULT_FIXED)
    unknown = set(spec.fixed) - set(params)
    if unknown:
        raise ConfigError(f"unknown fixed parameters {sorted(unknown)}")
    params.update(spec.fixed)
    ks = params["k"] if isinstance(params["k"], (tuple, list)) else (params["k"],)
    params["k"] = tuple(_integral("k", k) for k in ks)
    params["n_max"] = _integral("n_max", params["n_max"])
    for key in ("h", "M", "delta", "u", "v", "w"):
        params[key] = float(params[key])
    if not params["k"] or min(params["k"]) < 1:
        raise ConfigError(f"k must hold indices >= 1, got {ks!r}")
    if spec.mode != "general":
        _check_closed_form_k(max(params["k"]))
    if not params["delta"] > 0:
        raise ConfigError(f"delta must be positive, got {params['delta']}")
    if not params["M"] >= 0:
        raise ConfigError(f"M must be non-negative, got {params['M']}")
    if not abs(params["h"]) < 2:
        raise NumericValidityError(
            f"|h| must stay below 2, got {params['h']}"
        )
    if spec.mode == "both" and "n_max" not in spec.fixed:
        raise ConfigError("mode=both requires n_max to be set explicitly")
    if spec.scenario == "custom":
        if spec.axes:
            raise ConfigError("scenario=custom takes no axes, it is a single run")
        if not spec.segments:
            raise ConfigError("scenario=custom needs segments")
        if spec.mode != "general":
            raise ConfigError("scenario=custom supports mode=general only")
    elif spec.segments:
        raise ConfigError(
            f"scenario {spec.scenario!r} fixes its own trajectory; segments "
            "need scenario=custom"
        )
    if params["M"] > 0 and spec.scenario != "one-way" and spec.mode != "general":
        raise ConfigError(
            "closed forms at M > 0 exist for the one-way scenario only; "
            "use mode=general"
        )
    k_over_m = max(params["k"]) / params["M"] if params["M"] > 0 else 0.0
    if k_over_m > _MAX_K_OVER_M and spec.mode != "general":
        raise ConfigError(
            f"k/M = {k_over_m:.3g} is above {_MAX_K_OVER_M}, where the heavy-field "
            "closed form is no longer accurate; use mode=general"
        )
    heavy = params["M"] > 0 and spec.mode != "general"
    if (heavy or spec.mode != "closed-form") and params["n_max"] > _MAX_N_MAX:
        raise ConfigError(
            f"n_max = {params['n_max']} is above {_MAX_N_MAX}, the largest the "
            "engine and the heavy-field closed form take"
        )
    points = math.prod(axis.count for axis in spec.axes)
    if heavy and points * ((params["n_max"] + 1) // 2) > _MAX_WAVEFORM:
        raise ConfigError(
            f"the heavy-field waveform of {points} grid points at n_max = "
            f"{params['n_max']} holds more than {_MAX_WAVEFORM} values; use fewer "
            "points or a smaller n_max"
        )
    if points > _MAX_POINTS:
        raise ConfigError(
            f"the grid of {points} points is above {_MAX_POINTS}, the largest "
            "a sweep takes; use fewer points"
        )
    return params


def _coordinate_grids(spec: SweepSpec, params: dict):
    """Grid shape and the u, v, w coordinates as broadcastable arrays: a swept
    coordinate varies along its own axis only, an unswept one has length one
    on every axis, so closed forms work on each phase at its own size."""
    shape = tuple(axis.count for axis in spec.axes)
    values = [axis.values() for axis in spec.axes]
    mesh = np.meshgrid(*values, indexing="ij", sparse=True)
    grids = {axis.name: grid for axis, grid in zip(spec.axes, mesh)}
    coords = {
        name: grids.get(name, np.full((1,) * len(shape), params[name]))
        for name in ("u", "v", "w")
    }
    return shape, coords


def _tau_bar(u, cfg: CavityConfig):
    """Accelerated proper duration of phase coordinate u, scalar or array."""
    if cfg.M == 0:
        return u / rindler_frequency(1, cfg)
    return 4.0 * cfg.M * cfg.delta * u / math.pi


def _build_scenario(
    name: str, cfg: CavityConfig, u, v=0.0, w=0.0, segments=None
) -> Scenario:
    """The trip that scenario name takes at phase coordinates (u, v, w)."""
    if name == "custom":
        return Scenario(segments, cfg)
    tau_bar = _tau_bar(u, cfg)
    tau_prime = v * cfg.delta / math.pi
    tau_dprime = w * cfg.delta / math.pi
    if name == "one-way":
        return one_way_scenario(tau_bar, cfg)
    if name == "alpha-centauri":
        return alpha_centauri_scenario(tau_bar, tau_prime, cfg)
    if name == "round-trip":
        return round_trip_scenario(tau_bar, tau_prime, tau_dprime, cfg)
    return kickstart_scenario(tau_bar, cfg)


def _massless_closed(name: str, k: int, u, v, w) -> tuple:
    """Closed-form deficit of a named trip at M = 0 and phase coordinates
    (u, v, w), scalars or broadcastable arrays, and its series tail.  The
    kickstart deficit is one number, whatever the phases."""
    if name == "kickstart":
        return kickstart_deficit(k), closedform._cutoff(k, closedform.TOL_Q, 0)[1]
    p = np.exp(1j * u)
    if name == "one-way":
        factors, deficit = 1, one_way_deficit(k, p)
    elif name == "alpha-centauri":
        factors, deficit = 2, two_way_deficit(k, p, np.exp(1j * v))
    else:
        factors, deficit = 3, round_trip_deficit(k, p, np.exp(1j * v), np.exp(1j * w))
    return deficit, closedform._cutoff(k, closedform.TOL_SUM, factors)[1]


def _closed_grid(spec: SweepSpec, params: dict, coords: dict, shape: tuple, k: int):
    """Vectorized closed-form deficit over the whole grid, plus a tail bound.

    The five-Q differences land within rounding of zero on the vanishing
    loci and may come out at -1e-17, which the rows keep; a deficit below
    -1e-10, or a NaN, is a bug and raises ArithmeticError.
    """
    M = params["M"]
    if M > 0:
        # the full grid in one call, as the heavy-field sum is a matrix
        # product whose rounding may depend on the stack shape: it is not
        # split into row blocks, and its waveform is built in place instead
        cfg = CavityConfig(delta=params["delta"], M=M)
        tau = _tau_bar(np.broadcast_to(coords["u"], shape), cfg)
        deficit = np.asarray(
            massive_limit_deficit(k, M, tau, params["delta"], params["n_max"])
        )
        tail = closedform._massive_tail(k, M, params["n_max"])
    else:
        deficit, tail = _massless_closed(spec.scenario, k, **coords)
        deficit = np.broadcast_to(deficit, shape)
    lowest = float(np.min(deficit))
    if not lowest >= -1e-10:  # NaN fails this too
        raise ArithmeticError(
            f"closed-form deficit came out negative or NaN at k = {k}: {lowest!r}"
        )
    return deficit, tail


def _general_grid(spec: SweepSpec, params: dict, coords: dict, shape: tuple, k: int):
    """Column-engine deficit at every grid point, plus the largest tail.

    A NaN deficit, which the engine gives where its boost entries overflow
    (M = 1e200), raises NumericValidityError; in both mode it would
    otherwise reach the rows through the general and difference columns.
    """
    cfg = CavityConfig(
        delta=params["delta"],
        M=params["M"],
        h=params["h"],
        k=k,
        n_max=params["n_max"],
    )
    u, v, w = (np.broadcast_to(coords[name], shape).ravel() for name in ("u", "v", "w"))
    # overflowing boost entries give NaN, refused below without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        results = [
            scenario_negativity(_build_scenario(spec.scenario, cfg, *uvw, spec.segments))
            for uvw in zip(u, v, w)
        ]
    deficit = np.array([d for d, _ in results]).reshape(shape)
    if np.isnan(deficit).any():
        raise NumericValidityError(
            f"the engine deficit came out NaN at k = {k} for M = {cfg.M!r}, "
            f"h = {cfg.h!r}, n_max = {cfg.n_max}"
        )
    tail = max((t for _, t in results), default=0.0)
    return deficit, tail


def _coordinate_cells(spec: SweepSpec, params: dict):
    """The "u,v,w" cells of every row, in row order: each swept value and each
    unswept constant is formatted once."""
    slots = {axis.name: "{%d}" % i for i, axis in enumerate(spec.axes)}
    template = ",".join(slots.get(name, repr(params[name])) for name in ("u", "v", "w"))
    strings = [[repr(x) for x in axis.values().tolist()] for axis in spec.axes]
    return itertools.starmap(template.format, itertools.product(*strings))


def _block_rows(spec, params, k, method, tail, deficit, negativity, general):
    """CSV lines of one k block, in row order, built as the writer reaches
    them: the block's value lists and negativity cells exist only while its
    rows are being written.

    Cells that are the same on every row are formatted once per block.  Per
    row the deficit goes through repr, and in both mode the general value
    and the difference too.  The negativity and its logarithm go through
    repr once per distinct negativity bit pattern, so 0.0 and -0.0 keep
    their own cells.
    """
    head = f"{spec.scenario},{k},{params['h']!r},{params['M']!r}"
    rest = f"{method},{float(tail)!r}"
    log1p = math.log1p
    cells = _coordinate_cells(spec, params)
    d = deficit.ravel().tolist()
    values, index = closedform._distinct(negativity.ravel())
    pairs = [f"{n!r},{log1p(n)!r}" for n in values.tolist()]
    if general is None:
        for c, x, i in zip(cells, d, index):
            yield f"{head},{c},{x!r},{pairs[i]},{rest}"
        return
    g = general.ravel().tolist()
    diff = np.abs(deficit - general).ravel().tolist()
    for c, x, i, y, e in zip(cells, d, index, g, diff):
        yield f"{head},{c},{x!r},{pairs[i]},{rest},{y!r},{e!r}"


def _sweep_lines(spec: SweepSpec):
    """The CSV lines of a sweep, header first, as a lazy iterator.

    Every k block's values are computed and validated before this returns,
    so a sweep that fails raises here and nothing downstream has written a
    byte.  Each block's rows are formatted only when the iterator reaches
    them, so one block's row lists are alive at a time.
    """
    params = _validated(spec)
    shape, coords = _coordinate_grids(spec, params)
    h = params["h"]
    fields = BOTH_FIELDS if spec.mode == "both" else BASE_FIELDS
    blocks = []
    for k in params["k"]:
        closed = general = None
        if spec.mode in ("closed-form", "both"):
            closed, closed_tail = _closed_grid(spec, params, coords, shape, k)
        if spec.mode in ("general", "both"):
            general, general_tail = _general_grid(spec, params, coords, shape, k)
        if spec.mode == "closed-form":
            deficit, tail, method = closed, closed_tail, "closed-form"
        elif spec.mode == "general":
            deficit, tail, method = general, general_tail, "general"
        else:
            deficit, tail, method = closed, closed_tail + general_tail, "both"
        negativity = 0.5 - h * h * deficit
        if not np.all(negativity >= 0):  # NaN fails this too
            raise NumericValidityError(
                f"h = {h} drives the negativity negative or NaN at k = {k}; "
                "reduce h or the deficit scale"
            )
        blocks.append(
            _block_rows(
                spec, params, k, method, tail, deficit, negativity,
                general if spec.mode == "both" else None,
            )
        )
    return itertools.chain([",".join(fields)], *blocks)


def run_sweep(spec: SweepSpec) -> str:
    """Evaluate the grid and return the CSV text; spec.output is not read.

    One row per grid point per k; with mode=both each row carries the
    closed-form value, the pipeline value, and their absolute difference.
    """
    return "\n".join(_sweep_lines(spec)) + "\n"


# rows per write call when a sweep streams to its output file
_CHUNK_ROWS = 1024


def write_sweep(spec: SweepSpec) -> int:
    """Evaluate the grid like run_sweep, stream the CSV to spec.output a chunk
    of rows at a time and return the number of rows written.

    The file holds the same bytes run_sweep returns, and it is opened only
    after every k block has been computed and validated.
    """
    if not spec.output:
        raise ConfigError("write_sweep needs an output path")
    lines = _sweep_lines(spec)
    written = 0

    def chunks():
        nonlocal written
        while batch := list(itertools.islice(lines, _CHUNK_ROWS)):
            written += len(batch)
            yield "\n".join(batch) + "\n"

    try:
        with open(spec.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks())
    except OSError as exc:
        raise OSError(f"cannot write sweep output to {spec.output!r}: {exc}") from exc
    return written - 1  # the header is not a row


TWO_PI = 2.0 * math.pi

PRESETS = {
    "fig2": dict(
        scenario="one-way",
        axes=(Axis("u", 0.0, TWO_PI, 201),),
        fixed={"k": 1, "h": 0.01, "M": 0.0},
    ),
    "fig3": dict(
        scenario="alpha-centauri",
        axes=(Axis("u", 0.0, TWO_PI, 101), Axis("v", 0.0, TWO_PI, 101)),
        fixed={"k": 1, "h": 0.01, "M": 0.0},
    ),
    "fig4a": dict(
        scenario="round-trip",
        axes=(Axis("u", 0.0, TWO_PI, 101), Axis("v", 0.0, TWO_PI, 101)),
        fixed={"k": 1, "h": 0.01, "M": 0.0, "w": 0.0},
    ),
    "fig4b": dict(
        scenario="round-trip",
        axes=(Axis("u", 0.0, TWO_PI, 101), Axis("v", 0.0, TWO_PI, 101)),
        fixed={"k": 1, "h": 0.01, "M": 0.0, "w": TWO_PI / 3.0},
    ),
    "fig4c": dict(
        scenario="round-trip",
        axes=(Axis("u", 0.0, TWO_PI, 101), Axis("v", 0.0, TWO_PI, 101)),
        fixed={"k": 1, "h": 0.01, "M": 0.0, "w": 2.0 * TWO_PI / 3.0},
    ),
    "fig5a": dict(
        scenario="one-way",
        axes=(Axis("u", 0.0, 3.0, 601),),
        fixed={"k": (1, 2, 3, 4), "h": 1e-5, "M": 1e3, "n_max": 200},
    ),
    # k = 30 beats against neighbours up to |k^2 - n^2| ~ 190, so the grid
    # needs a few samples per 1/190 of a u unit
    "fig5b": dict(
        scenario="one-way",
        axes=(Axis("u", 0.0, 3.0, 2401),),
        fixed={"k": (30,), "h": 1e-5, "M": 1e3, "n_max": 200},
    ),
}


def preset_spec(name: str, output: str | None = None) -> SweepSpec:
    """Materialize a named preset as a closed-form SweepSpec."""
    try:
        stored = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}, expected one of {sorted(PRESETS)}"
        ) from None
    return SweepSpec(
        stored["scenario"], stored["axes"], dict(stored["fixed"]), output=output
    )


def default_output_path(stem: str, out: str | None) -> str:
    """Resolve the output path, honouring the output-directory variable for
    bare file names."""
    if out is None:
        out = f"{stem}.csv"
    if os.path.dirname(out):
        return out
    base = os.environ.get(OUTPUT_DIR_ENV, "")
    return os.path.join(base, out) if base else out


@dataclass(frozen=True)
class PhysicalEstimate:
    """Dimensionless parameters and the peak single-leg degradation for a
    laboratory setting."""

    h: float
    M: float
    k: int
    validity: ValidityReport
    path: str
    peak_deficit_scaled: float
    peak_degradation: float


def estimate_physical(
    accel: float,
    delta: float,
    mass: float | None = None,
    transverse_wavelength: float | None = None,
    k: int = 1,
) -> PhysicalEstimate:
    """Convert laboratory numbers and report the peak one-way deficit: the
    reach of the one-way form, the bound no duration exceeds.  That is 4 Q(k,
    1) at M = 0 and 2 pref sum_n amp_n of the heavy-field sum (k/M <= 0.01).
    Intermediate masses have no closed form here."""
    k = _integral("k", k)
    _check_closed_form_k(k)
    h, M, report = physical_to_dimensionless(
        accel, delta, mass, transverse_wavelength, k
    )
    if M == 0:
        path = "massless"
        peak = 4.0 * kickstart_deficit(k)
    elif k / M <= _ESTIMATE_K_OVER_M:
        path = "heavy-field"
        # the function's default n_max of 200, or 2k where it needs more
        peak = closedform._massive_reach(k, M, max(200, 2 * k))
    else:
        raise ConfigError(
            f"k/M = {k / M:.3g} sits between the massless and heavy-field "
            "closed forms; no estimate available"
        )
    degradation = h * h * peak
    if 0.5 - degradation < 0:  # the negativity would be negative, as in run_sweep
        raise NumericValidityError(
            f"peak degradation {degradation:.6g} exceeds 1/2; reduce the "
            "acceleration or the cavity length"
        )
    return PhysicalEstimate(
        h=h,
        M=M,
        k=k,
        validity=report,
        path=path,
        peak_deficit_scaled=peak,
        peak_degradation=degradation,
    )


def format_estimate(est: PhysicalEstimate) -> str:
    flags = est.validity
    lines = [
        f"h = {est.h:.6g}",
        f"M = {est.M:.6g}",
        f"k = {est.k}",
        f"h*M^2 = {est.h * est.M * est.M:.6g}",
        f"perturbative_ok = {flags.perturbative_ok}",
        f"massive_ok = {flags.massive_ok}",
        f"h_bound_ok = {flags.h_bound_ok}",
        f"path = {est.path}",
        f"peak deficit_scaled = {est.peak_deficit_scaled:.6g}",
        f"peak degradation (1/2 - negativity) = {est.peak_degradation:.6g}",
    ]
    return "\n".join(lines)
