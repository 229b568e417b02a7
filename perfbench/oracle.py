"""Independent reference values and the correctness gates.

The references use unit-vector geometry and a hand-written bilinear
lookup. They never call `qiblanav`, so a faster but wrong answer from the
program counts as a failed operation instead of agreeing with itself.
"""

from __future__ import annotations

import json
import math

KAABA = (21.4225, 39.8262)
EARTH_RADIUS_KM = 6371.0
GEO_TOL = 1e-6          # degrees for bearings, km for distances
ACCURACY_DEG = 1.0      # the paper's sub-degree pointing claim
THRESHOLD_DEG = 2.0     # the CLI's default alignment threshold
STEADY_WINDOW_MS = 10000.0


def _unit(lat_deg: float, lon_deg: float) -> tuple[float, float, float]:
    lat, lon = math.radians(lat_deg), math.radians(lon_deg)
    return (math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat))


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def separation_deg(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    u, v = _unit(lat1, lon1), _unit(lat2, lon2)
    c = _cross(u, v)
    return math.degrees(math.atan2(math.sqrt(_dot(c, c)), _dot(u, v)))


def distance_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    return EARTH_RADIUS_KM * math.radians(separation_deg(lat1, lon1, lat2, lon2))


def bearing_deg(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Initial bearing as the angle, in the local east/north plane, of the
    component of the target's position vector orthogonal to the origin's."""
    u, v = _unit(lat1, lon1), _unit(lat2, lon2)
    lat, lon = math.radians(lat1), math.radians(lon1)
    east = (-math.sin(lon), math.cos(lon), 0.0)
    north = (-math.sin(lat) * math.cos(lon), -math.sin(lat) * math.sin(lon), math.cos(lat))
    k = _dot(u, v)
    d = (v[0] - k * u[0], v[1] - k * u[1], v[2] - k * u[2])
    return math.degrees(math.atan2(_dot(d, east), _dot(d, north))) % 360.0


def qibla_deg(lat: float, lon: float) -> float:
    return bearing_deg(lat, lon, *KAABA)


def circ(target: float, current: float) -> float:
    """Signed shortest rotation from current to target, in (-180, 180]."""
    d = (target - current) % 360.0
    return d - 360.0 if d > 180.0 else d


def expected_guidance(deviation: float) -> str:
    if deviation > THRESHOLD_DEG:
        return "turn_right"
    if deviation < -THRESHOLD_DEG:
        return "turn_left"
    return "aligned"


class Grid:
    """A declgrid v1 table held as plain lists, interpolated by hand."""

    def __init__(self, text: str):
        lines = [ln.split() for ln in text.splitlines() if ln.strip()]
        head = lines[0]
        if head[:2] != ["declgrid", "v1"]:
            raise ValueError("not a declgrid v1 file")
        (self.lat_min, self.lat_max, self.lat_step,
         self.lon_min, self.lon_max, self.lon_step) = (float(x) for x in head[2:8])
        self.rows = [[float(x) for x in row] for row in lines[1:]]

    def at(self, lat: float, lon: float) -> float:
        fi = (lat - self.lat_min) / self.lat_step
        fj = (lon - self.lon_min) / self.lon_step
        i = min(int(fi), len(self.rows) - 2)
        j = min(int(fj), len(self.rows[0]) - 2)
        u, v = fi - i, fj - j
        r0, r1 = self.rows[i], self.rows[i + 1]
        west = r0[j] + u * (r1[j] - r0[j])
        east = r0[j + 1] + u * (r1[j + 1] - r0[j + 1])
        return west + v * (east - west)


# ------------------------------------------------------------------- gates

def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in report")


def load_report(path) -> dict:
    """Parse a report, refusing NaN and +-Infinity anywhere in it."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def simulate_problems(stdout: str, n_samples: int) -> list[str]:
    """Problems with the JSON `qiblanav simulate --format json` prints."""
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"simulate output unparseable: {exc}"]
    if not (isinstance(doc, dict) and doc.get("report") == "simulate v1" and doc.get("samples") == n_samples):
        return [f"simulate reported {stdout.strip()[:200]}"]
    return []


def check_report_file(path, **expected) -> list[str]:
    """check_batch_report on a report file; an unreadable or malformed
    report is a problem too, not an error of the benchmark."""
    try:
        return check_batch_report(load_report(path), **expected)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"report {path}: {type(exc).__name__}: {exc}"]


def check_batch_report(doc: dict, *, n_samples: int, lat: float, lon: float,
                       hold_heading: float) -> list[str]:
    """Problems with one `qiblanav pipeline` report; empty when it is right."""
    problems = []
    if doc.get("report") != "qibla-pipeline v1":
        problems.append(f"report tag {doc.get('report')!r}")
    samples = doc.get("samples", [])
    summary = doc.get("summary", {})
    if len(samples) != n_samples or summary.get("samples") != n_samples:
        problems.append(f"{len(samples)} samples, summary {summary.get('samples')}, trace {n_samples}")
    if not samples:
        return problems
    qibla = qibla_deg(lat, lon)
    true_dev = circ(qibla, hold_heading)
    t_end = samples[-1]["t_ms"]
    head_errs, dev_errs = [], []
    for s in samples:
        if abs(circ(s["qibla_deg"], qibla)) > GEO_TOL:
            problems.append(f"t={s['t_ms']}: qibla {s['qibla_deg']} != {qibla}")
            break
        if s["deviation_deg"] != circ(s["qibla_deg"], s["true_heading_deg"]):
            problems.append(f"t={s['t_ms']}: deviation is not qibla - true heading")
            break
        if s["guidance"] != expected_guidance(s["deviation_deg"]):
            problems.append(f"t={s['t_ms']}: guidance {s['guidance']}")
            break
        if s["t_ms"] >= t_end - STEADY_WINDOW_MS:
            head_errs.append(abs(circ(s["true_heading_deg"], hold_heading)))
            dev_errs.append(abs(circ(s["deviation_deg"], true_dev)))
    if head_errs:
        head = sum(head_errs) / len(head_errs)
        dev = sum(dev_errs) / len(dev_errs)
        if not (head < ACCURACY_DEG and dev < ACCURACY_DEG):
            problems.append(f"steady-state errors {head:.3f}/{dev:.3f} deg not below {ACCURACY_DEG}")
    for key in ("steady_state_error_deg", "steady_state_deviation_error_deg"):
        if not summary.get(key, math.inf) < ACCURACY_DEG:
            problems.append(f"summary {key} = {summary.get(key)}")
    return problems


def check_query(query, code: int, stdout: str) -> list[str]:
    """Problems with one `qiblanav qibla|distance` invocation."""
    if code != query.expect_code:
        return [f"exit {code}, expected {query.expect_code}"]
    if query.expect_code != 0:
        return [] if stdout == "" else ["output printed on a failing query"]
    try:
        doc = json.loads(stdout, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"unparseable output: {exc}"]
    if not isinstance(doc, dict):
        return [f"output is not a JSON object: {stdout[:200]!r}"]
    try:
        return _query_problems(query, doc)
    except TypeError as exc:
        return [f"non-numeric field: {exc}"]


def _query_problems(query, doc: dict) -> list[str]:
    problems = []
    if doc.get("report") != query.report_tag:
        problems.append(f"report tag {doc.get('report')!r}")
    if query.qibla is not None and not abs(circ(doc.get("qibla_deg", math.nan), query.qibla)) <= GEO_TOL:
        problems.append(f"qibla {doc.get('qibla_deg')} != {query.qibla}")
    if not abs(doc.get("distance_km", math.nan) - query.distance) <= GEO_TOL:
        problems.append(f"distance {doc.get('distance_km')} != {query.distance}")
    if query.declination is not None and not abs(doc.get("declination_deg", math.nan) - query.declination) <= 1e-9:
        problems.append(f"declination {doc.get('declination_deg')} != {query.declination}")
    return problems
