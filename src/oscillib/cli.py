"""Command-line front end: file I/O, subcommand dispatch, plot-data emission.

All numeric output uses 17-significant-digit decimal formatting, so identical
configurations reproduce byte-identical artifacts.

Exit codes: 0 success, 1 campaign failures, 2 parse or validation errors
(including non-finite input), 3 internal invariant failures (a failed
assertion or a geometric construction that ran out of admissible points).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .funcspace import StepFunction
from .geometry import GeometryContext
from .modulus import (
    ConstructionError,
    Modulus,
    oscillation_profile,
    parabolic_convex_minorant,
    ray_convex_majorant,
)
from .theorems import CAMPAIGNS, default_length_grid, run_campaign

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def parse_modulus(spec: str) -> Modulus:
    """Parse 'power:ALPHA[:SCALE]' | 'linear:SLOPE' | path to a JSON file."""
    if spec.startswith("power:"):
        parts = spec.split(":")
        alpha = float(parts[1])
        scale = float(parts[2]) if len(parts) > 2 else 1.0
        return Modulus.power(alpha, scale)
    if spec.startswith("linear:"):
        return Modulus.linear(float(spec.split(":")[1]))
    return Modulus.from_json_dict(_read_json(spec))


def parse_seeds(spec: str) -> list[int]:
    """Parse 'A..B' (half-open), a comma list, or a single integer."""
    if ".." in spec:
        lo, hi = spec.split("..")
        seeds = list(range(int(lo), int(hi)))
    elif "," in spec:
        seeds = [int(s) for s in spec.split(",") if s]
    else:
        seeds = [int(spec)]
    if not seeds:
        raise ValueError(f"empty seed range {spec!r}")
    return seeds


def _check_grid(n: int) -> int:
    if n < 8:
        raise ValueError(f"grid size must be >= 8, got {n}")
    return n


# ---------------------------------------------------------------------------
# Subcommands


def cmd_rearrange(args) -> int:
    sf = StepFunction.from_json_dict(_read_json(args.input))
    from .funcspace import decreasing_rearrangement

    out = decreasing_rearrangement(sf)
    _write_text(args.output, json.dumps(out.to_json_dict()) + "\n")
    return 0


def cmd_profile(args) -> int:
    sf = StepFunction.from_json_dict(_read_json(args.input))
    grid = default_length_grid(sf.domain.length, _check_grid(args.grid))
    prof = oscillation_profile(sf, grid)
    _write_text(args.output, prof.to_csv())
    return 0


def cmd_verify(args) -> int:
    seeds = parse_seeds(args.seeds)
    grid = default_length_grid(1.0, _check_grid(args.grid))
    report = run_campaign(args.statement, seeds, grid, tolerance=args.tolerance)
    print(report.table())
    if args.output:
        _write_text(args.output, report.to_json() + "\n")
    return 0 if report.failures == 0 else 1


def cmd_convexify(args) -> int:
    data = _read_json(args.input)
    if "grid" in data and "values" in data:
        grid, values = data["grid"], data["values"]
    else:
        raise ValueError("convexify input needs 'grid' and 'values' arrays")
    s, g = parabolic_convex_minorant(grid, values)
    lines = ["s,f,conv"]
    for si, fi, gi in zip(s, values, g):
        lines.append(f"{_fmt(si)},{_fmt(fi)},{_fmt(gi)}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_geometry(args) -> int:
    xi = parse_modulus(args.modulus)
    ctx = GeometryContext(xi)
    n = _check_grid(args.grid)
    lines = ["tau,gamma1,gamma2"]
    if args.t is not None:
        t = float(args.t)
        if not (0.0 < t <= xi.horizon):
            raise ValueError(f"--t must lie in (0, {xi.horizon}], got {t}")
        taus = np.linspace(0.0, t, n)
        for tau in taus:
            g = ctx.scaled_curve(t, float(tau))
            lines.append(f"{_fmt(tau)},{_fmt(g.x1)},{_fmt(g.x2)}")
    else:
        taus = np.linspace(0.0, xi.horizon, n)
        for tau in taus:
            g = ctx.extremal_curve(float(tau))
            lines.append(f"{_fmt(tau)},{_fmt(g.x1)},{_fmt(g.x2)}")
    _write_text(args.output, "\n".join(lines) + "\n")
    if args.strip_output:
        t = float(args.t) if args.t is not None else xi.horizon
        r = ctx.radius(t)
        xs = np.linspace(-1.2 * max(r, 1e-6), 1.2 * max(r, 1e-6), n)
        xi_sq = xi.eval(t) ** 2
        rows = ["x1,lower,upper"]
        for x in xs:
            rows.append(f"{_fmt(x)},{_fmt(x * x)},{_fmt(x * x + xi_sq)}")
        _write_text(args.strip_output, "\n".join(rows) + "\n")
    return 0


def cmd_majorant(args) -> int:
    xi = parse_modulus(args.modulus)
    n = _check_grid(args.grid)
    tilde = ray_convex_majorant(xi, args.t0, args.delta, grid_points=n)
    grid = np.asarray(tilde.grid)
    lines = ["t,xi,xi_tilde"]
    for t, v in zip(grid, tilde.sample_values):
        lines.append(f"{_fmt(t)},{_fmt(xi.eval(float(t)))},{_fmt(v)}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscillib",
        description="Oscillation moduli, rearrangement, convexification and theorem checks",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("rearrange", help="write the decreasing rearrangement of a step function")
    p.add_argument("--input", required=True, help="step-function JSON file")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_rearrange)

    p = sub.add_parser("profile", help="oscillation-modulus CSV over a length grid")
    p.add_argument("--input", required=True, help="step-function JSON file")
    p.add_argument("--grid", type=int, default=128, help="number of grid lengths (>= 8)")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("verify", help="run a named verification campaign")
    p.add_argument("statement", choices=sorted(CAMPAIGNS), help="statement to verify")
    p.add_argument("--seeds", default="0..100", help="seed range A..B (half-open) or comma list")
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--tolerance", type=float, default=0.0,
                   help="extra slack added to the statement's built-in tolerance")
    p.add_argument("--output", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("convexify", help="largest minorant with convex s^2 g^2")
    p.add_argument("--input", required=True, help="JSON with 'grid' and 'values'")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_convexify)

    p = sub.add_parser("geometry", help="extremal-curve CSV (and optional strip boundaries)")
    p.add_argument("--modulus", required=True, help="power:ALPHA[:SCALE] | linear:SLOPE | JSON path")
    p.add_argument("--t", type=float, default=None, help="strip scale; omit for the unscaled curve")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--output", default=None)
    p.add_argument("--strip-output", dest="strip_output", default=None)
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("majorant", help="ray-built majorant with t*xi(t) convex")
    p.add_argument("--modulus", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--grid", type=int, default=1025)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_majorant)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, ConstructionError) as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
