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
    p.add_argument(
        "--k",
        type=_parse_k,
        metavar="K[,K...]",
        help="entangled mode index (column), or a comma list of them for one "
        "block of rows per index; --estimate takes one",
    )
    p.add_argument("--h", type=parse_number, help="dimensionless acceleration")
    p.add_argument("--M", type=parse_number, help="dimensionless mass")
    p.add_argument("--n-max", type=parse_number, dest="n_max", help="mode cutoff")
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
    p.add_argument(
        "--delta", type=parse_number, help="cavity length in metres, read by --estimate"
    )
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


def _parse_k(text: str) -> tuple:
    """Parse one mode index or a comma list of them; sweep._validated checks
    that each is a whole number >= 1."""
    return tuple(parse_number(x) for x in text.split(","))


_FIXED_KEYS = ("k", "h", "M", "n_max")


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
        try:
            if key in ("u", "v", "w"):
                if ":" in value:
                    settings["axes"].append(parse_axis(f"{key}={value}"))
                else:
                    settings["fixed"][key] = parse_number(value)
            elif key in _FIXED_KEYS:
                parse = _parse_k if key == "k" else parse_number
                settings["fixed"][key] = parse(value)
            elif key in ("scenario", "preset", "mode"):
                settings[key] = value
            elif key in ("out", "output"):
                settings["out"] = value
            elif key == "segments":
                settings["segments"] = parse_segments(value)
            elif key == "axis":
                settings["axes"].append(parse_axis(value))
            else:
                raise ConfigError(f"unknown key {key!r}")
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return settings


def _build_spec(args, settings: dict) -> SweepSpec:
    """Merge a preset or a scenario with the config file and the flags: a
    flag overrides a config value, which overrides the preset."""
    preset = args.preset or settings.get("preset")
    scenario = args.scenario or settings.get("scenario")
    segments = settings.get("segments")
    if args.segments:
        segments = parse_segments(args.segments)
    if preset:
        if scenario or segments:
            raise ConfigError(
                f"preset {preset!r} fixes its own scenario; drop the scenario "
                "and segments settings"
            )
        spec = preset_spec(preset)
    elif scenario:
        mode = "general" if scenario == "custom" else "closed-form"
        spec = SweepSpec(scenario, mode=mode, segments=segments)
    else:
        raise ConfigError("either --preset or --scenario is required")
    fixed = {**spec.fixed, **settings.get("fixed", {})}
    for key in _FIXED_KEYS:
        if getattr(args, key) is not None:
            fixed[key] = getattr(args, key)
    if args.axis:
        axes = tuple(parse_axis(a) for a in args.axis)
    else:
        axes = tuple(settings.get("axes") or spec.axes)
    return replace(
        spec,
        axes=axes,
        fixed=fixed,
        mode=args.mode or settings.get("mode") or spec.mode,
        output=default_output_path(preset or scenario, args.out or settings.get("out")),
    )


# the flags each path of main() reads; it refuses any other flag given,
# which that path would drop
_VERIFY_FLAGS = ("verify",)
_ESTIMATE_FLAGS = ("estimate", "accel", "delta", "mass", "wavelength", "k")
_SWEEP_FLAGS = (
    "config", "scenario", "preset", "mode", "axis", "segments", "out"
) + _FIXED_KEYS


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
            k = args.k or (1,)
            if len(k) != 1:
                raise ConfigError(f"--estimate takes one --k, got {len(k)}")
            est = estimate_physical(
                args.accel,
                args.delta,
                mass=args.mass,
                transverse_wavelength=args.wavelength,
                k=k[0],
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
