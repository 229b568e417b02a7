"""File formats: sensor traces and machine-readable reports.

Each format carries a fixed header or tag, and traces and reports
round-trip numbers exactly (floats are rendered with Python's shortest
round-trip repr). Loaders never partially succeed: any error raises before
a dataset is returned.

Traces and run_trace results are held as columns (see `columns`): every
trace and report stage reads and writes them in bulk, a block of rows at a
time, builds no record, and gives the bytes the record-by-record rules
below define, wherever the blocks end. The row layouts and records, the
report's `ENTRY` and `QiblaPointerState` included, are `columns`', so no
file format loads the pipeline or decodes an ENTRY row itself. The trace
reader states each line rule once, in `_block_rows`, for a block and for a
lone line alike.

Trace format (read by `records.read_body`)::

    qtrace v1
    s <t_ms> <ax> <ay> <az> <mx> <my> <mz>
    t <t_ms> <true_heading_deg> <pitch_deg> <roll_deg>

's' lines are sensor samples (m/s^2 and microtesla, body frame), 't' lines
are optional interleaved truth records. The timestamps of each stream must
be monotone nondecreasing. Each truth line follows the first sample line
whose timestamp is not earlier, or ends the file. A trace without 't' lines
reads back with `truth == ()`.

Report: a JSON document with "report", "meta", "samples" and "summary"
sections (or a plain-text table via format="text"). When truth records are
supplied the summary adds steady-state heading/deviation error over the
final 10 seconds of the trace. The JSON bytes are those of
`json.dumps(document, indent=2, allow_nan=False)` plus a newline. A trace
or a report replaces its path only once it is complete.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager, suppress
from functools import reduce
from itertools import chain, repeat
from operator import add, le
from typing import Any

from .columns import (ENTRY, SAMPLE, TRUTH, QiblaPointerState, RecordView, TraceFile, TruthRecord, all_finite,
                      entries_in_range, float_array, guidance_and_flags)
from .errors import EmptyReport, OutOfSpan, ParseError
from .geodesy import AzimuthDeg, circular_diff, wrap_azimuth
from . import records
# perfbench/cliquery.py times `dataio.load_cities`; this re-import keeps that
# name until the benchmark reads it from `records`.
from .records import load_cities  # noqa: F401
from .records import finite_floats, read_body, read_line_blocks, read_text

TRACE_HEADER = "qtrace v1"
REPORT_TAG = "qibla-pipeline v1"

STEADY_STATE_WINDOW_MS = 10000.0

# Each trace line tag: the stream it belongs to and that stream's row layout.
_STREAMS = {"s": ("sample record", SAMPLE), "t": ("truth record", TRUTH)}

# About the characters of a sample line, its tag and seven reprs joined by
# spaces, so that write_trace joins about BLOCK_CHARS characters of lines at a
# time.
_LINE_CHARS = 128


def _in_order(values: Sequence[float], width: int, after: float = -math.inf) -> bool:
    """Whether every value of a flat buffer of rows `width` values wide is
    finite and their times, each row's first value, never decrease, from
    `after` on: the rule of each stream of a trace."""
    t = values[::width]
    return all_finite(values) and all(map(le, chain([after], t), t))


def _each_distinct(fmt: Any, column: Any) -> list[str]:
    """`fmt` of each value of a float64 column (a buffer), called once per
    distinct value. Values are told apart by their bits, so 0.0 and -0.0
    stay distinct."""
    bits = array("q", column.tobytes())
    distinct = dict(zip(bits, column))
    text = dict(zip(distinct, map(fmt, distinct.values())))
    return list(map(text.__getitem__, bits))


def write_trace(trace: TraceFile, path: str) -> None:
    """Serialize a trace, interleaving truth lines by timestamp.

    Refuses, before opening `path`, a stream that `read_trace` would refuse:
    a value that is not finite, or timestamps out of order. Formats and
    writes about BLOCK_CHARS characters of lines at a time, to a file beside
    `path` that replaces it once the trace is complete, as a report does.
    A line is its tag and the reprs of its row, joined by spaces; a truth
    line is joined to the sample line it follows, and a block is its lines
    joined by newlines.
    """
    samples, truth = SAMPLE.rows_of(trace.samples), TRUTH.rows_of(trace.truth)
    for (kind, layout), rows in zip(_STREAMS.values(), (samples, truth)):
        if not _in_order(rows, layout.width):
            raise ValueError(f"{kind}s must be finite, with timestamps monotone nondecreasing")
    times, truth_times = samples[:: SAMPLE.width], truth[:: TRUTH.width]
    # A truth column past the time holds few distinct values: each is formatted once.
    truth_reprs = [_each_distinct(repr, truth[k :: TRUTH.width]) for k in range(1, TRUTH.width)]
    step = max(1, records.BLOCK_CHARS // _LINE_CHARS)
    with _replacing(path) as fh:
        fh.write(TRACE_HEADER + "\n")
        j = 0  # the first truth line not yet written
        for a in range(0, max(len(times), 1), step):
            b = min(a + step, len(times))
            # A truth line follows the first sample not earlier than it, or ends the file.
            k = bisect_right(truth_times, times[b - 1], j) if b < len(times) else len(truth_times)
            reprs = map(repr, samples[a * SAMPLE.width : b * SAMPLE.width])
            lines = list(map(" ".join, zip(repeat("s"), *[reprs] * SAMPLE.width)))
            truth_lines = map(" ".join, zip(repeat("t"), map(repr, truth_times[j:k]), *(r[j:k] for r in truth_reprs)))
            for i, line in zip(map(bisect_left, repeat(times[a:b].tolist()), truth_times[j:k]), truth_lines):
                if i < b - a:
                    lines[i] += "\n" + line
                else:  # past the last sample: the truth lines that end the file
                    lines.append(line)
            if lines:
                fh.write("\n".join(lines) + "\n")
            j = k


def _block_rows(lines: list[list[str]], last_t: dict[str, float], line: int | None = None) -> dict[str, RecordView]:
    """Each stream's view of a block of trace lines, checked in bulk by the
    trace rule: a known tag, its stream's field count, finite numbers, and no
    time before its stream's last in `last_t`, which the block's then become.
    The first rule the block breaks raises its ParseError, naming `line`."""
    groups = {tag: [] for tag in _STREAMS}
    try:
        for tokens in lines:
            groups[tokens[0]].append(tokens)
    except KeyError as exc:
        raise ParseError(f"unknown record tag {exc.args[0]!r}", line) from None
    streams = {}
    for (tag, (kind, layout)), group in zip(_STREAMS.items(), groups.values()):
        if counts := set(map(len, group)) - {layout.width + 1}:
            raise ParseError(f"{kind} needs {layout.width} fields, got {min(counts) - 1}", line)
        fields = list(chain.from_iterable(group))
        del fields[:: layout.width + 1]  # the tags
        try:
            values = list(map(float, fields))
        except ValueError:
            values = [math.nan]
        if not _in_order(values, layout.width, last_t[tag]):
            finite_floats(fields, line, kind)  # raises for a token that is not a finite number
            raise ParseError(f"{kind} timestamps must be monotone nondecreasing", line)
        streams[tag] = RecordView(layout, float_array(values))
    last_t.update((tag, view[-1].t_ms) for tag, view in streams.items() if view)
    return streams


def read_trace_blocks(path: str) -> Iterator[TraceFile]:
    """The trace file at `path` read and checked a block of lines at a time
    (about BLOCK_CHARS characters), each block given as the trace of its
    lines. Any malformed or out-of-order line raises ParseError naming the
    first such line, once the blocks before it are given."""
    _, blocks = read_body(read_line_blocks(path), TRACE_HEADER)
    last_t = dict.fromkeys(_STREAMS, -float("inf"))
    for linenos, lines in blocks:
        try:
            streams = _block_rows(lines, last_t)
        except ParseError:  # a line breaks the rule
            streams = None
        if streams is None:  # re-read line by line by the same rule, to raise at the first
            for lineno, tokens in zip(linenos, lines):
                _block_rows([tokens], last_t, lineno)
        yield TraceFile(*streams.values())


def join_blocks(blocks: Iterable[TraceFile]) -> TraceFile:
    """One trace of the samples and the truth of `blocks` in turn, each
    block copied in as it comes."""
    joined = {SAMPLE: array("d"), TRUTH: array("d")}
    for block in blocks:
        for layout, part in ((SAMPLE, block.samples), (TRUTH, block.truth)):
            joined[layout].frombytes(memoryview(layout.rows_of(part)).cast("B"))
    return TraceFile(*(RecordView(layout, rows) for layout, rows in joined.items()))


def read_trace(path: str) -> TraceFile:
    """Parse a trace file into column-backed record views; any malformed or
    out-of-order line aborts, and the error names the first such line."""
    return join_blocks(read_trace_blocks(path))


def _headings_at(truth: Sequence[float], t_ms: Iterable[float], start: float | None = None) -> list[float]:
    """The true heading at each time of `t_ms`, from the flat buffer of
    truth rows in time order; see `truth_heading_at`. `start`, when rows
    before the first one given were dropped, is the first time of the whole
    truth span."""
    tt, hh = truth[:: TRUTH.width].tolist(), truth[1 :: TRUTH.width].tolist()
    headings = []
    for t in t_ms:
        if not (tt and tt[0] <= t <= tt[-1]):
            span = f"[{tt[0] if start is None else start}, {tt[-1]}]" if tt else "(empty)"
            raise OutOfSpan(f"t={t} outside truth span {span}")
        j = bisect_right(tt, t) - 1
        heading = hh[j]  # at a record's time, or at or past the last record
        if j < len(tt) - 1 and t != tt[j]:
            lo, hi = tt[j], tt[j + 1]
            # Halve the times of a span too wide for a float: exact for times that large.
            scale = 0.5 if math.isinf(hi - lo) else 1.0
            heading = hh[j] + (t * scale - lo * scale) / (hi * scale - lo * scale) * circular_diff(hh[j + 1], hh[j])
        headings.append(wrap_azimuth(heading))
    return headings


def truth_heading_at(truth: Sequence[TruthRecord], t_ms: float) -> AzimuthDeg:
    """True heading at an arbitrary time inside the trace span.

    `truth` must be in time order, as `read_trace` and `generate` produce
    it. Piecewise-linear interpolation along the shortest circular arc
    between the two surrounding records; exact record timestamps return the
    stored heading. Outside the span raises OutOfSpan.

    A call on a plain list or tuple converts every record to a row first,
    so it costs O(n); on a `RecordView`, such as `read_trace` and
    `simulate` give, it costs O(log n). Many calls want a view.
    """
    return AzimuthDeg(_headings_at(TRUTH.rows_of(truth), [float(t_ms)])[0])


class _Summary:
    """`summarize` as a fold over a stream given in blocks of entries and
    truth records, in order.

    It keeps the entry count, the sum of the absolute deviations, added
    left to right, and their max. Of the rest it keeps only what the
    steady-state window can still need: the blocks of entries that hold one
    no more than STEADY_STATE_WINDOW_MS before the last one so far, the
    truth rows from the last one at or before that time on, and the first
    truth time, which OutOfSpan's message names; `result` takes the window's
    entries from those blocks. This is exact when no block's last entry is
    earlier than an earlier block's, as for the blocks of one trace, since
    then that time never decreases; a block that breaks this raises
    ValueError. One block, which may hold its entries in any order, is
    always exact.
    """

    def __init__(self) -> None:
        self.count, self.total, self.peak = 0, 0.0, 0.0
        self.blocks = deque()  # (ENTRY rows, their latest time) of each block the window may reach
        self.truth = array("d")  # TRUTH rows
        self.start = self.last = None

    def add(self, entries: Sequence, truth: Sequence) -> Any:
        """Fold in a block of entries and truth records; returns the
        entries' ENTRY rows."""
        width = ENTRY.width
        entries, truth = ENTRY.rows_of(entries), TRUTH.rows_of(truth)
        if not all_finite(entries):
            raise ValueError("run_trace entries must be finite")
        if not entries_in_range(entries):
            raise ValueError("run_trace entries need headings in [0, 360) and deviations in (-180, 180]")
        if not _in_order(truth, TRUTH.width, self.truth[-TRUTH.width] if self.truth else -math.inf):
            raise ValueError("truth records must be finite, with timestamps monotone nondecreasing")
        if self.start is None and truth:
            self.start = truth[0]
        if entries:
            if self.last is not None and entries[-width] < self.last:
                raise ValueError("a block's last entry may not precede an earlier block's")
            self.last = entries[-width]
            deviations = list(map(abs, entries[4::width].tolist()))
            self.count += len(deviations)
            self.total = reduce(add, deviations, self.total)
            self.peak = max(self.peak, max(deviations))
            self.blocks.append((entries, max(entries[::width])))
            while self.blocks[0][1] < self.last - STEADY_STATE_WINDOW_MS:
                self.blocks.popleft()
        self.truth.frombytes(memoryview(truth).cast("B"))
        if self.last is not None:  # every entry of the final window is at or after this
            earliest = self.last - STEADY_STATE_WINDOW_MS
            first = max(bisect_right(self.truth[:: TRUTH.width].tolist(), earliest) - 1, 0)
            self.truth = self.truth[first * TRUTH.width :]
        return entries

    def result(self) -> dict:
        if not self.count:
            raise EmptyReport("cannot summarize an empty state stream")
        summary = {
            "samples": self.count,
            "mean_abs_deviation_deg": self.total / self.count,
            "max_abs_deviation_deg": self.peak,
        }
        if self.start is not None:
            earliest = self.last - STEADY_STATE_WINDOW_MS
            window = [row for rows, _ in self.blocks for row in ENTRY.tuples(rows) if row[0] >= earliest]
            t, _, heading, qibla, deviation = list(zip(*window))[:5]
            true_h = _headings_at(self.truth, t, self.start)
            head_errs = list(map(abs, map(circular_diff, heading, true_h)))
            true_dev = map(circular_diff, qibla, true_h)
            dev_errs = list(map(abs, map(circular_diff, deviation, true_dev)))
            summary["steady_state_window_ms"] = STEADY_STATE_WINDOW_MS
            summary["steady_state_error_deg"] = reduce(add, head_errs, 0.0) / len(head_errs)
            summary["steady_state_max_error_deg"] = max(head_errs)
            summary["steady_state_deviation_error_deg"] = reduce(add, dev_errs, 0.0) / len(dev_errs)
            summary["steady_state_max_deviation_error_deg"] = max(dev_errs)
        return summary


def summarize(
    entries: Sequence[tuple[float, QiblaPointerState]],
    truth: Sequence[TruthRecord] = (),
) -> dict:
    """Summary block for a pointer stream: deviation stats, plus heading
    and deviation error against truth over the final 10 s when truth is
    non-empty. Means are sums taken left to right, so they are the same on
    every Python version. Truth that is not finite or out of time order,
    and a non-finite entry, raise ValueError."""
    fold = _Summary()
    fold.add(entries, truth)
    return fold.result()


def _nested_json(value: Any) -> str:
    """`value` as json.dump writes it one level into an indent-2 document."""
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  ")


# One entry of a JSON report's "samples", as the literal pieces around its
# fields: piece k comes before field k, of t_ms, magnetic, true heading,
# qibla, deviation, guidance, calibrated and dynamic, and the last piece
# ends the entry. Entries are separated by ",\n".
_JSON_ENTRY = tuple("""    {
      "t_ms": %s,
      "magnetic_heading_deg": %s,
      "true_heading_deg": %s,
      "qibla_deg": %s,
      "deviation_deg": %s,
      "guidance": "%s",
      "calibrated": %s,
      "dynamic": %s
    }""".split("%s"))
_TEXT_ENTRY = "{:>12.1f} {:>10.2f} {:>10.2f} {} {:>+10.2f} {}\n"


def _entry_lines(rows: Sequence[float], fmt: str, first: bool) -> Iterator[str]:
    """The report text of a flat buffer of ENTRY rows; `first` when no entry
    was written before them. A JSON entry is its literal pieces and the
    reprs of its columns, joined: the qibla column holds one bearing per
    place, and the guidance and flag columns together at most 12 triples,
    so each distinct one is decoded by `columns` and formatted once, with
    the literals around it."""
    t, magnetic, true_heading, _, deviation, *encoded = (rows[k :: ENTRY.width].tolist() for k in range(ENTRY.width))
    triples = list(zip(*encoded))  # each row's guidance code and flags
    decoded = {triple: guidance_and_flags(*triple) for triple in set(triples)}
    if fmt == "json":
        piece = _JSON_ENTRY
        qibla = _each_distinct(lambda q: f"{piece[3]}{q!r}{piece[4]}", rows[3 :: ENTRY.width])
        tails = {triple: f"{piece[5]}{guidance.value}{piece[6]}{json.dumps(cal)}{piece[7]}{json.dumps(dyn)}{piece[8]}"
                 for triple, (guidance, cal, dyn) in decoded.items()}
        heads = chain([piece[0] if first else ",\n" + piece[0]], repeat(",\n" + piece[0]))
        return chain.from_iterable(zip(heads, map(repr, t), repeat(piece[1]), map(repr, magnetic), repeat(piece[2]),
                                       map(repr, true_heading), qibla, map(repr, deviation),
                                       map(tails.__getitem__, triples)))
    qibla = _each_distinct("{:>10.2f}".format, rows[3 :: ENTRY.width])
    tails = {triple: guidance.value + (" (dynamic)" if dyn else "") for triple, (guidance, _, dyn) in decoded.items()}
    return map(_TEXT_ENTRY.format, t, magnetic, true_heading, qibla, deviation, map(tails.__getitem__, triples))


@contextmanager
def _replacing(path: str) -> Iterator[Any]:
    """A text file whose content reaches `path` only if the block ends
    without raising; if it raises, `path` is left as it was. A regular file,
    or a new one, is replaced through a temporary file beside the file
    `path` leads to, which takes the replaced file's mode; a file the caller
    may not write is refused with PermissionError naming `path`. Anything
    else, such as a pipe or a device, and a path whose temporary file cannot
    be made, gets the content copied from an anonymous temporary file when
    the block ends. Either way, a fault of `path` is raised only after the
    block's own errors. The replacing file keeps the replaced one's owner and
    group where the OS lets the caller give them, else its group where it
    may, else it has the caller's."""
    import errno
    import shutil
    import stat
    import threading

    try:
        replace = stat.S_ISREG(os.stat(path).st_mode)  # follows /dev/fd/N to the pipe it names
    except FileNotFoundError:
        replace = True
    except OSError:
        replace = False
    if replace:
        target = os.path.realpath(path)
        temp = f"{target}.{os.getpid()}-{threading.get_ident()}.tmp"  # no other live writer has this name
        try:
            fh = open(temp, "w", encoding="utf-8")
        except OSError:
            replace = False
    if not replace:
        import tempfile

        with tempfile.TemporaryFile("w+", encoding="utf-8") as spool:
            yield spool
            spool.seek(0)
            with open(path, "w", encoding="utf-8") as fh:
                shutil.copyfileobj(spool, fh)
        return
    try:
        with fh:
            yield fh
        if os.path.exists(target):
            if not os.access(target, os.W_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            old = os.stat(target)
            try:  # before copymode: a chown may clear the set-id bits
                os.chown(temp, old.st_uid, old.st_gid)
            except OSError:  # only a privileged caller may give a file away
                with suppress(OSError):
                    os.chown(temp, -1, old.st_gid)
            shutil.copymode(target, temp)
        os.replace(temp, target)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(temp)
        raise


def write_report_blocks(
    blocks: Iterable[tuple[Sequence[tuple[float, QiblaPointerState]], Sequence[TruthRecord]]],
    path: str,
    fmt: str = "json",
    *,
    meta: dict | None = None,
) -> dict:
    """`write_report` on a stream given in blocks of (entries, truth), each
    written as it comes, the summary folded as in `summarize`. The blocks
    are those of one trace: no block's last entry is earlier than an
    earlier block's. Returns the summary block."""
    if fmt not in ("json", "text"):
        raise ValueError(f"unknown report format {fmt!r}")
    meta = meta or {}
    if fmt == "json":
        head = (f'{{\n  "report": {json.dumps(REPORT_TAG)},\n  "meta": {_nested_json(meta)},\n'
                '  "samples": [\n')
    else:
        head = "\n".join([REPORT_TAG, *(f"# {key}: {value}" for key, value in meta.items()),
                          f"{'t_ms':>12} {'magnetic':>10} {'true':>10} {'qibla':>10} "
                          f"{'deviation':>10} guidance\n"])
    fold = _Summary()
    with _replacing(path) as fh:
        fh.write(head)
        for entries, truth in blocks:
            first = not fold.count
            fh.write("".join(_entry_lines(fold.add(entries, truth), fmt, first)))
        summary = fold.result()
        if fmt == "json":
            fh.write(f'\n  ],\n  "summary": {_nested_json(summary)}\n}}\n')
        else:
            fh.write("\n" + "".join(f"{key}: {value:.4f}\n" if isinstance(value, float) else f"{key}: {value}\n"
                                    for key, value in summary.items()))
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
    An empty stream raises EmptyReport, and truth that is not finite or out
    of time order, or a JSON document holding NaN or an infinity,
    ValueError. Entries are written as they are formatted, to a file beside
    `path` that replaces it once the report is complete, so a failure
    leaves `path` as it was.
    """
    return write_report_blocks([(entries, truth)], path, fmt, meta=meta)


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
