"""Command-line front door.

Subcommands: qibla, distance, simulate, pipeline, calibrate. Each command
maps its parsed arguments to a document and its text lines; `main` alone
prints them, as human text (azimuths to 2 decimals) or, via --format json,
as structured JSON at full precision, and maps failures to exit codes.
Structured output carries no timestamps unless --timestamps is passed, so
repeated invocations on the same inputs are byte-identical.

Exit codes: 0 success, 2 domain error (bad coordinates, degenerate
geometry, unreadable/invalid input files), 3 data insufficiency (too few
usable samples, degenerate calibration sweep), 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from typing import NoReturn

from .dataio import REPORT_TAG, load_cities, read_trace, write_report, write_trace
from .declination import DeclinationDeg, declination_at, load_grid
from .errors import DegenerateSweep, InsufficientData, QiblaNavError
from .geodesy import KAABA, GeoCoordinate, haversine_distance, qibla_azimuth, slc_distance
from .pipeline import (
    DEFAULT_ALPHA,
    DEFAULT_GUIDANCE_THRESHOLD_DEG,
    CalibrationState,
    FilterState,
    calibrate,
    guidance,
    run_trace,
)

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract reserves 2
    # for domain errors and uses 64 for usage.
    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _add_location_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lat", type=float, help="latitude in degrees")
    p.add_argument("--lon", type=float, help="longitude in degrees")
    p.add_argument("--city", help="named location from the cities file")
    p.add_argument("--cities", help="city CSV file (name,latitude_deg,longitude_deg)")


def _add_declination_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--decl", type=float, help="magnetic declination in degrees, east-positive")
    g.add_argument("--decl-grid", help="declination grid file (declgrid v1)")


def _add_format_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--timestamps", action="store_true",
                   help="include a generation timestamp in structured output")


def _resolve_location(args: argparse.Namespace) -> GeoCoordinate:
    by_coords = args.lat is not None or args.lon is not None
    by_city = args.city is not None
    if by_coords and by_city:
        raise argparse.ArgumentError(None, "--lat/--lon and --city are mutually exclusive")
    if by_coords:
        if args.lat is None or args.lon is None:
            raise argparse.ArgumentError(None, "--lat and --lon must be given together")
        return GeoCoordinate(args.lat, args.lon)
    if by_city:
        if not args.cities:
            raise argparse.ArgumentError(None, "--city requires --cities FILE")
        for record in load_cities(args.cities):
            if record.name.casefold() == args.city.casefold():
                return record.location
        raise QiblaNavError(f"unknown city {args.city!r}")
    raise argparse.ArgumentError(None, "a location is required: --lat/--lon or --city with --cities")


def _resolve_declination(args: argparse.Namespace, where: GeoCoordinate) -> DeclinationDeg | None:
    if args.decl is not None:
        return DeclinationDeg(args.decl)
    if args.decl_grid is not None:
        return declination_at(load_grid(args.decl_grid), where)
    return None


def _declination_doc(decl: DeclinationDeg | None) -> dict:
    return {"declination_deg": float(decl) if decl is not None else None,
            "magnetic_assumed_true": decl is None}


def _calibration_doc(cal: CalibrationState) -> dict:
    return {
        "hard_iron_ut": list(cal.hard_iron),
        "samples_used": cal.samples_used,
        "coverage_deg": cal.coverage_deg,
        "converged": cal.converged,
    }


def cmd_qibla(args: argparse.Namespace) -> tuple[dict, list[str]]:
    where = _resolve_location(args)
    decl = _resolve_declination(args, where)
    azimuth = qibla_azimuth(where)
    distance = haversine_distance(where, KAABA)
    doc = {
        "report": "qibla-query v1",
        "latitude_deg": where.latitude_deg,
        "longitude_deg": where.longitude_deg,
        "qibla_deg": float(azimuth),
        "distance_km": float(distance),
        **_declination_doc(decl),
    }
    if decl is None:
        decl_line = "declination: none (magnetic heading assumed true)"
    else:
        decl_line = f"declination: {float(decl):.2f} deg east"
    return doc, [
        f"qibla azimuth: {float(azimuth):.2f} deg",
        f"distance to kaaba: {float(distance):.3f} km (haversine)",
        decl_line,
    ]


def cmd_distance(args: argparse.Namespace) -> tuple[dict, list[str]]:
    a = GeoCoordinate(args.from_lat, args.from_lon)
    b = GeoCoordinate(args.to_lat, args.to_lon)
    fn = haversine_distance if args.method == "haversine" else slc_distance
    distance = fn(a, b)
    doc = {
        "report": "distance-query v1",
        "method": args.method,
        "distance_km": float(distance),
    }
    return doc, [f"distance: {float(distance):.3f} km ({args.method})"]


def cmd_simulate(args: argparse.Namespace) -> tuple[dict, list[str]]:
    from .simulator import load_scenario, simulate  # numpy loads only for this command

    trace = simulate(load_scenario(args.scenario))
    write_trace(trace, args.out)
    doc = {"report": "simulate v1", "samples": len(trace.samples), "out": args.out}
    return doc, [f"wrote {len(trace.samples)} samples to {args.out}"]


def cmd_pipeline(args: argparse.Namespace) -> tuple[dict, list[str]]:
    where = _resolve_location(args)
    decl = _resolve_declination(args, where)
    if args.sweep_ms is not None and not math.isfinite(args.sweep_ms):
        raise ValueError(f"--sweep-ms must be finite, got {args.sweep_ms}")
    # The library's own rules, applied before the trace is read.
    FilterState(alpha=args.alpha)
    guidance(0.0, args.threshold)
    trace = read_trace(args.trace)
    cal_samples = trace.samples
    if args.sweep_ms is not None:
        cal_samples = cal_samples[cal_samples.rows[:, 0] <= args.sweep_ms]
    cal = calibrate(cal_samples)
    entries = run_trace(
        trace.samples,
        where,
        cal,
        decl if decl is not None else DeclinationDeg(0.0),
        alpha=args.alpha,
        threshold_deg=args.threshold,
    )
    meta = {
        "latitude_deg": where.latitude_deg,
        "longitude_deg": where.longitude_deg,
        **_declination_doc(decl),
        "alpha": args.alpha,
        "threshold_deg": args.threshold,
        "calibration": _calibration_doc(cal),
    }
    meta.update(args.stamp)
    summary = write_report(entries, args.out, fmt=args.format, truth=trace.truth, meta=meta)
    doc = {"report": REPORT_TAG, "meta": meta, "summary": summary}
    text = [f"processed {summary['samples']} samples, report written to {args.out}"]
    if "steady_state_error_deg" in summary:
        text.append(f"steady-state heading error: {summary['steady_state_error_deg']:.3f} deg")
    if decl is None:
        text.append("warning: no declination supplied, magnetic heading assumed true")
    return doc, text


def cmd_calibrate(args: argparse.Namespace) -> tuple[dict, list[str]]:
    trace = read_trace(args.trace)
    cal = calibrate(trace.samples)
    doc = {"report": "calibration v1", **_calibration_doc(cal)}
    hx, hy, hz = cal.hard_iron
    return doc, [
        f"hard iron (uT): {hx:.3f} {hy:.3f} {hz:.3f}",
        f"samples used: {cal.samples_used}",
        f"coverage: {cal.coverage_deg:.1f} deg",
        f"converged: {'yes' if cal.converged else 'no'}",
    ]


def build_parser() -> _Parser:
    parser = _Parser(prog="qiblanav", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qibla", help="qibla azimuth and distance for a location")
    _add_location_flags(p)
    _add_declination_flags(p)
    _add_format_flags(p)
    p.set_defaults(func=cmd_qibla)

    p = sub.add_parser("distance", help="great-circle distance between two points")
    p.add_argument("--from-lat", type=float, required=True)
    p.add_argument("--from-lon", type=float, required=True)
    p.add_argument("--to-lat", type=float, required=True)
    p.add_argument("--to-lon", type=float, required=True)
    p.add_argument("--method", choices=("haversine", "slc"), default="haversine")
    _add_format_flags(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("simulate", help="generate a sensor trace from a scenario file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    _add_format_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pipeline", help="run the compass pipeline over a trace")
    p.add_argument("--trace", required=True)
    _add_location_flags(p)
    _add_declination_flags(p)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                   help="heading filter smoothing factor in (0, 1]")
    p.add_argument("--threshold", type=float, default=DEFAULT_GUIDANCE_THRESHOLD_DEG,
                   help="alignment threshold in degrees")
    p.add_argument("--sweep-ms", type=float, default=None,
                   help="calibrate only on samples up to this time (default: full trace)")
    p.add_argument("--out", required=True, help="report output path")
    _add_format_flags(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("calibrate", help="estimate hard iron from a trace")
    p.add_argument("--trace", required=True)
    _add_format_flags(p)
    p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # One clock reading per invocation, so every generated_at it writes agrees.
    args.stamp = {"generated_at": datetime.now(timezone.utc).isoformat()} if args.timestamps else {}
    try:
        doc, text = args.func(args)
        if args.format == "json":
            text = [json.dumps(doc | args.stamp, indent=2, allow_nan=False)]
        print("\n".join(text))
        return 0
    except argparse.ArgumentError as exc:  # a usage fault argparse itself cannot see
        parser.error(exc.message)
    except (InsufficientData, DegenerateSweep) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (QiblaNavError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
