"""Command-line front end.

Exit codes: 0 success, 1 configuration error (bad flags, unparseable config,
unwritable output), 2 numeric validity violation (parameters outside the
regime where results mean anything), 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

from .scenario import Accelerated, Inertial
from .sweep import (
    ConfigError,
    default_output_path,
    estimate_physical,
    format_estimate,
    parse_axis,
    parse_number,
    preset_spec,
    write_sweep,
    PRESETS,
    SCENARIOS,
    SweepSpec,
)
from .verify import run_verification

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the cavneg flags; main() shares one, see _parser()."""
    p = _Parser(
        prog="cavneg",
        description=(
            "Entanglement negativity of a cavity-mode pair when one cavity "
            "travels through piecewise inertial and uniformly accelerated "
            "segments. Emits figure-ready CSV sweeps."
        ),
    )
    p.add_argument("--config", help="flat key=value file with sweep settings")
    p.add_argument("--scenario", choices=SCENARIOS)
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--k", type=int, help="entangled mode index (column)")
    p.add_argument("--h", type=parse_number, help="dimensionless acceleration")
    p.add_argument("--M", type=parse_number, help="dimensionless mass")
    p.add_argument("--delta", type=parse_number, help="cavity length")
    p.add_argument("--n-max", type=int, dest="n_max", help="mode cutoff")
    p.add_argument("--mode", choices=["closed-form", "general", "both"])
    p.add_argument(
        "--axis",
        action="append",
        metavar="NAME=START:STOP:COUNT",
        help="swept coordinate (u, v or w); repeatable; pi token accepted",
    )
    p.add_argument(
        "--segments",
        help="custom trajectory, e.g. acc:+1:0.7,in:1.2,acc:-1:0.7",
    )
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--verify", choices=["fast", "full"], help="run invariant suite")
    p.add_argument(
        "--estimate",
        action="store_true",
        help="convert laboratory numbers and report the peak degradation",
    )
    p.add_argument("--accel", type=parse_number, help="proper acceleration, m/s^2")
    p.add_argument("--mass", type=parse_number, help="field mass, kg")
    p.add_argument("--wavelength", type=parse_number, help="transverse wavelength, m")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One parser per process, built on first use.  Sharing it is safe:
    # parse_args leaves the parser unchanged, and its choices come from
    # module constants, so no call carries state into the next.
    return build_parser()


def parse_segments(text: str):
    """Parse a custom trajectory: comma list of acc:SIGN:DURATION and
    in:DURATION entries, executed left to right.  SIGN must be exactly +1 or
    -1."""
    segments = []
    for chunk in text.split(","):
        parts = chunk.strip().split(":")
        kind = parts[0].strip().lower()
        try:
            if kind in ("acc", "accelerated") and len(parts) == 3:
                sign = parse_number(parts[1])
                if sign not in (-1.0, 1.0):
                    raise ValueError(sign)
                segments.append(Accelerated(int(sign), parse_number(parts[2])))
            elif kind in ("in", "inertial") and len(parts) == 2:
                segments.append(Inertial(parse_number(parts[1])))
            else:
                raise ValueError(chunk)
        except ValueError:
            raise ConfigError(
                f"bad segment {chunk!r}; expected acc:SIGN:DURATION or in:DURATION"
            ) from None
    if not segments:
        raise ConfigError("empty segment list")
    return tuple(segments)


_FIXED_INT_KEYS = ("k", "n_max")
_FIXED_FLOAT_KEYS = ("h", "M", "delta")


def read_config(path: str) -> dict:
    """Read a flat key=value file; u/v/w values containing ':' are axes."""
    settings: dict = {"axes": [], "fixed": {}}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key in ("u", "v", "w"):
            if ":" in value:
                settings["axes"].append(parse_axis(f"{key}={value}"))
            else:
                settings["fixed"][key] = parse_number(value)
        elif key in _FIXED_INT_KEYS:
            settings["fixed"][key] = int(value)
        elif key in _FIXED_FLOAT_KEYS:
            settings["fixed"][key] = parse_number(value)
        elif key in ("scenario", "preset", "mode"):
            settings[key] = value
        elif key in ("out", "output"):
            settings["out"] = value
        elif key == "segments":
            settings["segments"] = parse_segments(value)
        elif key == "k_list":
            settings["k_list"] = tuple(int(x) for x in value.split(","))
        elif key == "axis":
            settings["axes"].append(parse_axis(value))
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    return settings


def _build_spec(args, settings: dict) -> SweepSpec:
    fixed = dict(settings.get("fixed", {}))
    for key in _FIXED_INT_KEYS + _FIXED_FLOAT_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            fixed[key] = value
    axes = list(settings.get("axes", []))
    if args.axis:
        axes = [parse_axis(a) for a in args.axis]
    segments = settings.get("segments")
    if args.segments:
        segments = parse_segments(args.segments)
    mode = args.mode or settings.get("mode") or "closed-form"
    out = args.out or settings.get("out")
    preset = args.preset or settings.get("preset")
    scenario = args.scenario or settings.get("scenario")
    if preset:
        if scenario or segments:
            raise ConfigError(
                f"preset {preset!r} fixes its own scenario; drop the scenario "
                "and segments settings"
            )
        stem = preset
        overrides: dict = {"mode": mode}
        if fixed:
            overrides["fixed"] = fixed
        if args.axis or settings.get("axes"):
            overrides["axes"] = tuple(axes)
        if settings.get("k_list"):
            overrides["k_list"] = tuple(settings["k_list"])
        spec = preset_spec(preset, output=None, **overrides)
    else:
        if not scenario:
            raise ConfigError("either --preset or --scenario is required")
        stem = scenario
        if scenario == "custom" and args.mode is None and "mode" not in settings:
            mode = "general"
        spec = SweepSpec(
            scenario=scenario,
            axes=tuple(axes),
            fixed=fixed,
            mode=mode,
            k_list=settings.get("k_list"),
            segments=segments,
        )
    return replace(spec, output=default_output_path(stem, out))


# the flags each path of main() reads; it refuses any other flag given,
# which that path would drop
_VERIFY_FLAGS = ("verify",)
_ESTIMATE_FLAGS = ("estimate", "accel", "delta", "mass", "wavelength", "k")
_SWEEP_FLAGS = (
    ("config", "scenario", "preset", "mode", "axis", "segments", "out")
    + _FIXED_INT_KEYS
    + _FIXED_FLOAT_KEYS
)


def _refuse_unread(args, path: str, read: tuple) -> None:
    parser = _parser()
    unread = [
        "--" + dest.replace("_", "-")
        for dest, value in vars(args).items()
        if dest not in read and value != parser.get_default(dest)
    ]
    if unread:
        raise ConfigError(f"{path} does not read {', '.join(unread)}")


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.verify:
            _refuse_unread(args, "--verify", _VERIFY_FLAGS)
            report = run_verification(args.verify)
            print(report.render())
            return 0 if report.passed else 3
        if args.estimate:
            _refuse_unread(args, "--estimate", _ESTIMATE_FLAGS)
            if args.accel is None or args.delta is None:
                raise ConfigError("--estimate needs --accel and --delta")
            est = estimate_physical(
                args.accel,
                args.delta,
                mass=args.mass,
                transverse_wavelength=args.wavelength,
                k=1 if args.k is None else args.k,
            )
            print(format_estimate(est))
            return 0
        _refuse_unread(args, "a sweep", _SWEEP_FLAGS)
        settings = read_config(args.config) if args.config else {}
        spec = _build_spec(args, settings)
        nrows = write_sweep(spec)
        print(f"wrote {nrows} rows -> {spec.output}")
        return 0
    except ArithmeticError as exc:
        # NumericValidityError, a closed-form deficit below -1e-10 or NaN,
        # which sweep._closed_grid refuses, and a heavy-field M whose fourth
        # power overflows
        print(f"numeric validity error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
