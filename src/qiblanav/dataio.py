"""File formats: city CSV, sensor traces, and machine-readable reports.

Each format carries a fixed header or tag, and traces and reports
round-trip numbers exactly (floats are rendered with Python's shortest
round-trip repr). Loaders never partially succeed: any error raises before
a dataset is returned.

Trace format (read by `records.read_lines`)::

    qtrace v1
    s <t_ms> <ax> <ay> <az> <mx> <my> <mz>
    t <t_ms> <true_heading_deg> <pitch_deg> <roll_deg>

's' lines are sensor samples (m/s^2 and microtesla, body frame), 't' lines
are optional interleaved truth records. The timestamps of each stream must
be monotone nondecreasing. A trace without 't' lines reads back with
`truth == ()`.

City CSV: mandatory header ``name,latitude_deg,longitude_deg``; names are
unique case-insensitively. It is read with the `csv` module, so quoted
names may contain commas.

Report: a JSON document with "report", "meta", "samples" and "summary"
sections (or a plain-text table via format="text"). When truth records are
supplied the summary adds steady-state heading/deviation error over the
final 10 seconds of the trace.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import os
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter

from .errors import DuplicateCity, EmptyReport, InvalidCoordinate, OutOfSpan, ParseError
from .geodesy import AzimuthDeg, GeoCoordinate, circular_diff
from .pipeline import QiblaPointerState
from .records import SensorSample, TruthRecord, finite_floats, read_lines, read_text

TRACE_HEADER = "qtrace v1"
REPORT_TAG = "qibla-pipeline v1"
CITY_HEADER = ("name", "latitude_deg", "longitude_deg")

STEADY_STATE_WINDOW_MS = 10000.0

_T_MS = attrgetter("t_ms")


@dataclass(frozen=True)
class CityRecord:
    """A named location; the name is a unique case-insensitive key."""

    name: str
    location: GeoCoordinate


@dataclass(frozen=True)
class TraceFile:
    """Ordered sensor samples with a paired truth stream, `()` when the
    trace has none."""

    samples: tuple[SensorSample, ...]
    truth: tuple[TruthRecord, ...] = ()


def load_cities(path: str) -> list[CityRecord]:
    """Load the city CSV; rejects bad rows and duplicate names outright."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    if not rows or tuple(h.strip().lower() for h in rows[0][1]) != CITY_HEADER:
        raise ParseError(f"expected header {','.join(CITY_HEADER)}", line=1)
    records: list[CityRecord] = []
    seen: set[str] = set()
    for lineno, row in rows[1:]:
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", line=lineno)
        name = row[0].strip()
        if not name:
            raise ParseError("empty city name", line=lineno)
        key = name.casefold()
        if key in seen:
            raise DuplicateCity(f"duplicate city name {name!r}", line=lineno)
        try:
            location = GeoCoordinate(*finite_floats(row[1:], lineno, f"coordinates for {name!r}"))
        except InvalidCoordinate as exc:
            raise ParseError(f"bad coordinates for {name!r}: {exc}", line=lineno) from None
        seen.add(key)
        records.append(CityRecord(name=name, location=location))
    return records


def _line(tag: str, *values: float) -> str:
    return " ".join((tag, *map(repr, map(float, values))))


def write_trace(trace: TraceFile, path: str) -> None:
    """Serialize a trace, interleaving truth lines by timestamp.

    Refuses, before opening `path`, a stream that `read_trace` would refuse:
    sample or truth timestamps out of order.
    """
    truth = trace.truth
    for kind, records in (("sample", trace.samples), ("truth record", truth)):
        ts = [r.t_ms for r in records]
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError(f"{kind} timestamps must be monotone nondecreasing")
    truth_lines = [_line("t", r.t_ms, r.true_heading_deg, r.pitch_deg, r.roll_deg) for r in truth]
    lines = [TRACE_HEADER]
    ti = 0
    for s in trace.samples:
        lines.append(_line("s", s.t_ms, *s.accel, *s.mag))
        while ti < len(truth) and truth[ti].t_ms <= s.t_ms:
            lines.append(truth_lines[ti])
            ti += 1
    lines += truth_lines[ti:]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace(path: str) -> TraceFile:
    """Parse a trace file; any malformed or out-of-order line aborts."""
    _, body = read_lines(read_text(path), TRACE_HEADER)
    samples: list[SensorSample] = []
    truth: list[TruthRecord] = []
    kinds = {"s": ("sample record", 7, samples), "t": ("truth record", 4, truth)}
    for lineno, (tag, *fields) in body:
        if tag not in kinds:
            raise ParseError(f"unknown record tag {tag!r}", line=lineno)
        kind, count, records = kinds[tag]
        if len(fields) != count:
            raise ParseError(f"{kind} needs {count} fields, got {len(fields)}", line=lineno)
        v = finite_floats(fields, lineno, kind)
        if records and v[0] < records[-1].t_ms:
            raise ParseError(f"{kind} timestamps must be monotone nondecreasing", line=lineno)
        records.append(SensorSample(v[0], tuple(v[1:4]), tuple(v[4:7])) if tag == "s" else TruthRecord(*v))
    return TraceFile(samples=tuple(samples), truth=tuple(truth))


def truth_heading_at(truth: Sequence[TruthRecord], t_ms: float) -> AzimuthDeg:
    """True heading at an arbitrary time inside the trace span.

    `truth` must be in time order, as `read_trace` and `generate` produce
    it. Piecewise-linear interpolation along the shortest circular arc
    between the two surrounding records; exact record timestamps return the
    stored heading. Outside the span raises OutOfSpan.
    """
    if not truth or not truth[0].t_ms <= t_ms <= truth[-1].t_ms:
        span = f"[{truth[0].t_ms}, {truth[-1].t_ms}]" if truth else "(empty)"
        raise OutOfSpan(f"t={t_ms} outside truth span {span}")
    j = bisect.bisect_right(truth, t_ms, key=_T_MS) - 1
    if j >= len(truth) - 1:
        return AzimuthDeg(truth[-1].true_heading_deg)
    r0, r1 = truth[j], truth[j + 1]
    if t_ms == r0.t_ms:
        return AzimuthDeg(r0.true_heading_deg)
    frac = (t_ms - r0.t_ms) / (r1.t_ms - r0.t_ms)
    arc = circular_diff(r1.true_heading_deg, r0.true_heading_deg)
    return AzimuthDeg(r0.true_heading_deg + frac * arc)


def _sample_entry(t_ms: float, state: QiblaPointerState) -> dict:
    return {
        "t_ms": t_ms,
        "magnetic_heading_deg": float(state.magnetic_heading),
        "true_heading_deg": float(state.true_heading),
        "qibla_deg": float(state.qibla),
        "deviation_deg": state.deviation_deg,
        "guidance": state.guidance.value,
        "calibrated": state.calibrated,
        "dynamic": state.dynamic,
    }


def summarize(
    entries: Sequence[tuple[float, QiblaPointerState]],
    truth: Sequence[TruthRecord] = (),
) -> dict:
    """Summary block for a pointer stream: deviation stats, plus heading
    and deviation error against truth over the final 10 s when truth is
    non-empty. Truth must be in time order (see `truth_heading_at`)."""
    if not entries:
        raise EmptyReport("cannot summarize an empty state stream")
    deviations = [abs(state.deviation_deg) for _, state in entries]
    summary = {
        "samples": len(entries),
        "mean_abs_deviation_deg": sum(deviations) / len(deviations),
        "max_abs_deviation_deg": max(deviations),
    }
    if truth:
        t_end = entries[-1][0]
        window = [(t, s) for t, s in entries if t >= t_end - STEADY_STATE_WINDOW_MS]
        head_errs = []
        dev_errs = []
        for t, s in window:
            true_h = truth_heading_at(truth, t)
            err = circular_diff(s.true_heading, true_h)
            head_errs.append(abs(err))
            true_dev = circular_diff(s.qibla, true_h)
            dev_errs.append(abs(circular_diff(s.deviation_deg, true_dev)))
        summary["steady_state_window_ms"] = STEADY_STATE_WINDOW_MS
        summary["steady_state_error_deg"] = sum(head_errs) / len(head_errs)
        summary["steady_state_max_error_deg"] = max(head_errs)
        summary["steady_state_deviation_error_deg"] = sum(dev_errs) / len(dev_errs)
        summary["steady_state_max_deviation_error_deg"] = max(dev_errs)
    return summary


def write_report(
    entries: Sequence[tuple[float, QiblaPointerState]],
    path: str,
    fmt: str = "json",
    *,
    truth: Sequence[TruthRecord] = (),
    meta: dict | None = None,
) -> dict:
    """Write the per-sample report plus summary; returns the summary block.

    fmt "json" writes the structured document, "text" a terminal table.
    An empty stream raises EmptyReport; a JSON document holding NaN or an
    infinity raises ValueError and leaves no file at `path`.
    """
    summary = summarize(entries, truth)
    if fmt == "json":
        doc = {
            "report": REPORT_TAG,
            "meta": meta or {},
            "samples": [_sample_entry(t, s) for t, s in entries],
            "summary": summary,
        }
        # Streamed: json.dumps would hold every chunk of the document at once.
        try:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, allow_nan=False)
                fh.write("\n")
        except ValueError:
            os.remove(path)
            raise
    elif fmt == "text":
        lines = [REPORT_TAG]
        for key, value in (meta or {}).items():
            lines.append(f"# {key}: {value}")
        lines.append(f"{'t_ms':>12} {'magnetic':>10} {'true':>10} {'qibla':>10} "
                     f"{'deviation':>10} guidance")
        for t, s in entries:
            lines.append(
                f"{t:>12.1f} {float(s.magnetic_heading):>10.2f} {float(s.true_heading):>10.2f} "
                f"{float(s.qibla):>10.2f} {s.deviation_deg:>+10.2f} {s.guidance.value}"
                + (" (dynamic)" if s.dynamic else "")
            )
        lines.append("")
        for key, value in summary.items():
            lines.append(f"{key}: {value:.4f}" if isinstance(value, float) else f"{key}: {value}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return summary


def _finite_number(token: str) -> float:
    return finite_floats([token], None, "report number")[0]


def read_report(path: str) -> dict:
    """Parse a structured report back into its document dict. Malformed JSON
    (named by line), NaN and +-Infinity, even by overflow, nesting too deep
    and integers too long to convert raise ParseError."""
    text = read_text(path)
    try:
        doc = json.loads(text, parse_float=_finite_number, parse_constant=_finite_number)
    except json.JSONDecodeError as exc:
        # past a final newline JSON counts one more line; name the last one
        raise ParseError(exc.msg, min(exc.lineno, text.count("\n", 0, len(text) - 1) + 1)) from None
    except (RecursionError, ValueError) as exc:  # nesting too deep, or an integer too long
        raise ParseError(f"unreadable JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("report") != REPORT_TAG:
        raise ParseError(f"not a {REPORT_TAG} document")
    return doc
