"""File formats: city CSV, sensor traces, and machine-readable reports.

Each format carries a fixed header or tag, and traces and reports
round-trip numbers exactly (floats are rendered with Python's shortest
round-trip repr). Loaders never partially succeed: any error raises before
a dataset is returned.

Traces and run_trace results are held as columns (see `records`): every
trace and report stage reads and writes them in bulk, builds no record,
and gives the bytes the record-by-record rules below define.

Trace format (read by `records.read_body`)::

    qtrace v1
    s <t_ms> <ax> <ay> <az> <mx> <my> <mz>
    t <t_ms> <true_heading_deg> <pitch_deg> <roll_deg>

's' lines are sensor samples (m/s^2 and microtesla, body frame), 't' lines
are optional interleaved truth records. The timestamps of each stream must
be monotone nondecreasing. Each truth line follows the first sample line
whose timestamp is not earlier, or ends the file. A trace without 't' lines
reads back with `truth == ()`.

City CSV: mandatory header ``name,latitude_deg,longitude_deg``; names are
unique case-insensitively. It is read with the `csv` module, so quoted
names may contain commas.

Report: a JSON document with "report", "meta", "samples" and "summary"
sections (or a plain-text table via format="text"). When truth records are
supplied the summary adds steady-state heading/deviation error over the
final 10 seconds of the trace. The JSON bytes are those of
`json.dumps(document, indent=2, allow_nan=False)` plus a newline.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import itemgetter
from typing import Any, NoReturn

from .errors import DuplicateCity, EmptyReport, InvalidCoordinate, OutOfSpan, ParseError
from .geodesy import AzimuthDeg, GeoCoordinate, circular_diff, wrap_azimuth
from .pipeline import ENTRY, Guidance, QiblaPointerState
from .records import SAMPLE, TRUTH, RecordView, TraceFile, TruthRecord, finite_floats, read_body, read_text

TRACE_HEADER = "qtrace v1"
REPORT_TAG = "qibla-pipeline v1"
CITY_HEADER = ("name", "latitude_deg", "longitude_deg")

STEADY_STATE_WINDOW_MS = 10000.0

# Each trace line tag: the stream it belongs to and that stream's row layout.
_STREAMS = {"s": ("sample record", SAMPLE), "t": ("truth record", TRUTH)}


@dataclass(frozen=True)
class CityRecord:
    """A named location; the name is a unique case-insensitive key."""

    name: str
    location: GeoCoordinate


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


def _require_time_order(kind: str, t_ms: Any) -> None:
    """Refuse a timestamp column that ever decreases."""
    if (t_ms[1:] < t_ms[:-1]).any():
        raise ValueError(f"{kind} timestamps must be monotone nondecreasing")


def _lines(tag: str, rows: Any) -> Any:
    """One trace line per row, as an object array: the tag, then each float
    in its shortest round-trip repr."""
    import numpy as np

    template = tag + " %r" * rows.shape[1] + "\n"
    return np.array(list(map(template.__mod__, map(tuple, rows.tolist()))), dtype=object)


def write_trace(trace: TraceFile, path: str) -> None:
    """Serialize a trace, interleaving truth lines by timestamp.

    Refuses, before opening `path`, a stream that `read_trace` would refuse:
    sample or truth timestamps out of order.
    """
    import numpy as np

    samples, truth = SAMPLE.rows_of(trace.samples), TRUTH.rows_of(trace.truth)
    _require_time_order("sample", samples[:, 0])
    _require_time_order("truth record", truth[:, 0])
    # the place of each truth line: after the first sample not earlier than it
    after = np.minimum(np.searchsorted(samples[:, 0], truth[:, 0], side="left") + 1, len(samples))
    lines = np.insert(_lines("s", samples), after, _lines("t", truth))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRACE_HEADER + "\n")
        fh.writelines(lines.tolist())


def _float_or_nan(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        return float("nan")


def _refuse_line(lineno: int, tokens: list[str]) -> NoReturn:
    """Raise the ParseError of the first rule that trace line breaks: its
    tag, its field count, a finite number per field, and else its order."""
    tag, *fields = tokens
    if tag not in _STREAMS:
        raise ParseError(f"unknown record tag {tag!r}", line=lineno)
    kind, layout = _STREAMS[tag]
    if len(fields) != layout.width:
        raise ParseError(f"{kind} needs {layout.width} fields, got {len(fields)}", line=lineno)
    finite_floats(fields, lineno, kind)
    raise ParseError(f"{kind} timestamps must be monotone nondecreasing", line=lineno)


def _first_fault(lines: list[list[str]], last_t: dict[str, float], streams: dict[str, list]) -> int:
    """Index of the first faulty line of a block of trace lines, or its length.
    Appends each stream's rows to `streams` and sets `last_t` to each
    stream's last timestamp, which the next block's first row may not
    precede."""
    import numpy as np

    tags = list(map(itemgetter(0), lines))
    first = len(lines)
    if not _STREAMS.keys() >= set(tags):
        first = next(i for i, tag in enumerate(tags) if tag not in _STREAMS)
    for tag, (_, layout) in _STREAMS.items():
        at = list(compress(range(len(tags)), map(tag.__eq__, tags)))
        group = list(map(lines.__getitem__, at))
        if set(map(len, group)) - {layout.width + 1}:
            whole = [len(tokens) == layout.width + 1 for tokens in group]
            first = min(first, at[whole.index(False)])
            at, group = list(compress(at, whole)), list(compress(group, whole))
        fields = list(chain.from_iterable(group))
        del fields[:: layout.width + 1]  # the tags
        try:
            values = np.fromiter(map(float, fields), float, len(fields))
        except ValueError:  # a faulty line; read the others so the first can be found
            values = np.fromiter(map(_float_or_nan, fields), float, len(fields))
        rows = values.reshape(-1, layout.width)
        t = np.concatenate(([last_t[tag]], rows[:, 0]))
        faulty = ~np.isfinite(rows).all(axis=1) | (t[1:] < t[:-1])
        if faulty.any():
            first = min(first, at[faulty.argmax()])
        streams[tag].append(rows)
        last_t[tag] = t[-1]
    return first


def read_trace(path: str) -> TraceFile:
    """Parse a trace file into column-backed record views; any malformed or
    out-of-order line aborts, and the error names the first such line."""
    import numpy as np

    _, blocks = read_body(read_text(path), TRACE_HEADER)
    streams = {tag: [np.empty((0, layout.width))] for tag, (_, layout) in _STREAMS.items()}
    last_t = dict.fromkeys(_STREAMS, -np.inf)
    for linenos, lines in blocks:
        first = _first_fault(lines, last_t, streams)
        if first < len(lines):
            _refuse_line(linenos[first], lines[first])
    return TraceFile(*(RecordView(layout, np.concatenate(streams[tag])) for tag, (_, layout) in _STREAMS.items()))


def _headings_at(truth: Any, t_ms: Any) -> Any:
    """The true heading at each time of the column `t_ms`, from truth rows
    in time order; see `truth_heading_at`."""
    import numpy as np

    tt, hh = truth[:, 0], truth[:, 1]
    outside = ~((tt[0] <= t_ms) & (t_ms <= tt[-1])) if len(tt) else np.ones(len(t_ms), dtype=bool)
    if outside.any():
        span = f"[{tt[0]}, {tt[-1]}]" if len(tt) else "(empty)"
        raise OutOfSpan(f"t={t_ms[outside.argmax()]} outside truth span {span}")
    j = np.searchsorted(tt, t_ms, side="right") - 1
    heading = hh[j]  # at a record's time, or at or past the last record
    between = (j < len(tt) - 1) & (t_ms != tt[j])
    j = j[between]
    with np.errstate(over="ignore", invalid="ignore"):  # huge times give a non-finite heading, refused below
        frac = (t_ms[between] - tt[j]) / (tt[j + 1] - tt[j])
        arc = np.array(list(map(circular_diff, hh[j + 1].tolist(), hh[j].tolist())), dtype=float)
        heading[between] = hh[j] + frac * arc
    finite = np.isfinite(heading)
    if not finite.all():
        AzimuthDeg(float(heading[~finite][0]))  # raises InvalidAngle
    return wrap_azimuth(heading)


def truth_heading_at(truth: Sequence[TruthRecord], t_ms: float) -> AzimuthDeg:
    """True heading at an arbitrary time inside the trace span.

    `truth` must be in time order, as `read_trace` and `generate` produce
    it. Piecewise-linear interpolation along the shortest circular arc
    between the two surrounding records; exact record timestamps return the
    stored heading. Outside the span raises OutOfSpan.
    """
    import numpy as np

    return AzimuthDeg(_headings_at(TRUTH.rows_of(truth), np.array([float(t_ms)]))[0])


def _summary(entries: Any, truth: Any) -> dict:
    """summarize on ENTRY rows and TRUTH rows."""
    import numpy as np

    if not len(entries):
        raise EmptyReport("cannot summarize an empty state stream")
    if not np.isfinite(entries).all():
        raise ValueError("run_trace entries must be finite")
    _require_time_order("truth record", truth[:, 0])
    deviations = np.abs(entries[:, 4]).tolist()
    summary = {
        "samples": len(deviations),
        "mean_abs_deviation_deg": sum(deviations) / len(deviations),
        "max_abs_deviation_deg": max(deviations),
    }
    if len(truth):
        t = entries[:, 0]
        window = entries[t >= t[-1] - STEADY_STATE_WINDOW_MS]
        true_h = _headings_at(truth, window[:, 0]).tolist()
        head_errs = list(map(abs, map(circular_diff, window[:, 2].tolist(), true_h)))
        true_dev = map(circular_diff, window[:, 3].tolist(), true_h)
        dev_errs = list(map(abs, map(circular_diff, window[:, 4].tolist(), true_dev)))
        summary["steady_state_window_ms"] = STEADY_STATE_WINDOW_MS
        summary["steady_state_error_deg"] = sum(head_errs) / len(head_errs)
        summary["steady_state_max_error_deg"] = max(head_errs)
        summary["steady_state_deviation_error_deg"] = sum(dev_errs) / len(dev_errs)
        summary["steady_state_max_deviation_error_deg"] = max(dev_errs)
    return summary


def summarize(
    entries: Sequence[tuple[float, QiblaPointerState]],
    truth: Sequence[TruthRecord] = (),
) -> dict:
    """Summary block for a pointer stream: deviation stats, plus heading
    and deviation error against truth over the final 10 s when truth is
    non-empty. Truth out of time order and a non-finite entry raise
    ValueError."""
    return _summary(ENTRY.rows_of(entries), TRUTH.rows_of(truth))


def _nested_json(value: Any) -> str:
    """`value` as json.dump writes it one level into an indent-2 document."""
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  ")


# One entry of a JSON report's "samples", after the separator from the one before.
_JSON_ENTRY = """%s    {
      "t_ms": %r,
      "magnetic_heading_deg": %r,
      "true_heading_deg": %r,
      "qibla_deg": %r,
      "deviation_deg": %r,
      "guidance": "%s",
      "calibrated": %s,
      "dynamic": %s
    }"""
_TEXT_ENTRY = "{:>12.1f} {:>10.2f} {:>10.2f} {:>10.2f} {:>+10.2f} {}{}\n"
_GUIDANCE_VALUES = [g.value for g in Guidance]  # ENTRY's guidance column indexes this


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
    An empty stream raises EmptyReport, and truth out of time order or a
    JSON document holding NaN or an infinity ValueError, all before `path`
    is opened. Entries are written as they are formatted.
    """
    rows = ENTRY.rows_of(entries)
    summary = _summary(rows, TRUTH.rows_of(truth))
    if fmt not in ("json", "text"):
        raise ValueError(f"unknown report format {fmt!r}")
    meta = meta or {}
    t, magnetic, true_heading, qibla, deviation = rows[:, :5].T.tolist()
    guidances = list(map(_GUIDANCE_VALUES.__getitem__, rows[:, 5].astype(int).tolist()))
    if fmt == "json":
        head = (f'{{\n  "report": {json.dumps(REPORT_TAG)},\n  "meta": {_nested_json(meta)},\n'
                '  "samples": [\n')
        tail = f'\n  ],\n  "summary": {_nested_json(summary)}\n}}\n'
        flags = list(map(("false", "true").__getitem__, (rows[:, 6:8] == 1.0).ravel().tolist()))
        entry_text = map(_JSON_ENTRY.__mod__, zip(chain([""], repeat(",\n")), t, magnetic, true_heading,
                                                   qibla, deviation, guidances, flags[::2], flags[1::2]))
    else:
        head = "\n".join([REPORT_TAG, *(f"# {key}: {value}" for key, value in meta.items()),
                          f"{'t_ms':>12} {'magnetic':>10} {'true':>10} {'qibla':>10} "
                          f"{'deviation':>10} guidance\n"])
        tail = "\n" + "".join(f"{key}: {value:.4f}\n" if isinstance(value, float) else f"{key}: {value}\n"
                              for key, value in summary.items())
        suffixes = list(map(("", " (dynamic)").__getitem__, (rows[:, 7] == 1.0).tolist()))
        entry_text = map(_TEXT_ENTRY.format, t, magnetic, true_heading, qibla, deviation, guidances, suffixes)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        fh.writelines(entry_text)
        fh.write(tail)
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
