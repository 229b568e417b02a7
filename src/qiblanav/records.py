"""Record types shared by the pipeline, the simulator and the file formats,
the column-backed sequences that hold them in bulk, plus the one file reader
every loader goes through and the one line reader (`read_body`, paired up
line by line by `read_lines`) every versioned text format goes through.

This module imports only `errors`, so every other module may import it, and
it does not import numpy: a `RecordView` holds a numpy array made elsewhere.

A batch stage holds a stream of records as one float64 array with a row per
record, laid out by a `Layout`: a sample row is t_ms, accel and mag (7
columns), a truth row is t_ms, true heading, pitch and roll (4 columns). A
stage reaches those rows only through `Layout.rows_of`, which takes any
sequence of records; a `RecordView` is such a sequence, a read-only one
that builds each record on demand from its row.

A line ends at \\n, \\r\\n or a lone \\r (Python's universal newlines) and
nowhere else. Text formats are line oriented: a header line
`<tag> <version> [args...]`, then a body of whitespace-separated tokens.
'#' starts a comment that runs to the end of the line, and blank lines are
skipped. Every number must be finite, and every error names the line it was
found on.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

from .errors import ParseError

G = 9.81  # m/s^2

# Accelerometer magnitude band for a sample to be usable for tilt.
STATIC_ACCEL_BAND = (0.5 * G, 1.5 * G)

# Text that read_body tokenizes at a time. Its tokens take about 9 times
# as many bytes: 64 Ki characters, about 800 trace lines, make 0.6 MB.
BLOCK_CHARS = 1 << 16


@dataclass(frozen=True)
class SensorSample:
    """One timestamped accelerometer + magnetometer reading, body frame.

    accel is specific force in m/s^2, mag is microtesla. All components
    must be finite; timestamps within a trace are monotone nondecreasing
    (enforced by the trace reader/writer, not here).
    """

    t_ms: float
    accel: tuple[float, float, float]
    mag: tuple[float, float, float]

    def __post_init__(self) -> None:
        if not math.isfinite(self.t_ms):
            raise ValueError(f"t_ms must be finite, got {self.t_ms!r}")
        for name, vec in (("accel", self.accel), ("mag", self.mag)):
            if len(vec) != 3 or not all(map(math.isfinite, vec)):
                raise ValueError(f"{name} must be three finite components, got {vec!r}")

    @property
    def usable_for_tilt(self) -> bool:
        """True when the accelerometer magnitude is inside the static band."""
        return in_static_band(math.hypot(*self.accel))


def in_static_band(norm):
    """Whether an accelerometer magnitude, a float or an array of them, lies
    inside the static band."""
    lo, hi = STATIC_ACCEL_BAND
    return (lo < norm) & (norm < hi)


@dataclass(frozen=True)
class TruthRecord:
    """Exact per-sample attitude truth, all fields finite."""

    t_ms: float
    true_heading_deg: float
    pitch_deg: float
    roll_deg: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.t_ms, self.true_heading_deg, self.pitch_deg, self.roll_deg))):
            raise ValueError(f"truth record fields must be finite, got {self!r}")


class Layout:
    """How one kind of record lies in a row of `width` floats: `row` gives a
    record's floats, `record` builds the record back from them."""

    __slots__ = ("width", "row", "record")

    def __init__(self, width: int, row: Callable[[Any], Sequence[float]], record: Callable[[list[float]], Any]):
        self.width, self.row, self.record = width, row, record

    def rows_of(self, records: Sequence) -> Any:
        """The records as an (n, width) float64 array. A `RecordView` of this
        layout already is one and gives its own rows, as `np.asarray` gives
        back an array; any other sequence is read record by record."""
        if isinstance(records, RecordView) and records.layout is self:
            return records.rows
        import numpy as np

        return np.array(list(map(self.row, records)), dtype=float).reshape(-1, self.width)


class RecordView(Sequence):
    """A read-only sequence of records over the rows of a float64 array.

    An integer index builds that row's record; a slice or a boolean mask
    gives the view of the rows it selects. Equal to any sequence of equal
    records, a tuple or a list included.
    """

    __slots__ = ("layout", "rows")

    def __init__(self, layout: Layout, rows: Any):
        rows.flags.writeable = False
        self.layout = layout
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        rows = self.rows[index]
        return self.layout.record(rows.tolist()) if rows.ndim == 1 else RecordView(self.layout, rows)

    def __iter__(self) -> Iterator:
        return map(self.layout.record, self.rows.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"RecordView({list(self)!r})"


SAMPLE = Layout(7, lambda s: (s.t_ms, *s.accel, *s.mag),
                lambda r: SensorSample(r[0], (r[1], r[2], r[3]), (r[4], r[5], r[6])))
TRUTH = Layout(4, operator.attrgetter("t_ms", "true_heading_deg", "pitch_deg", "roll_deg"),
               lambda r: TruthRecord(*r))


@dataclass(frozen=True)
class TraceFile:
    """Ordered sensor samples with a paired truth stream, empty when the
    trace has none. `read_trace` and `simulate` give `RecordView`s."""

    samples: Sequence[SensorSample]
    truth: Sequence[TruthRecord] = ()


def finite_floats(
    tokens: Sequence[str], line: int | None, what: str, error: type[ParseError] = ParseError
) -> list[float]:
    """Convert every token to a finite float, or raise `error` naming `what`
    and the line."""
    try:
        values = list(map(float, tokens))
    except ValueError:
        values = [math.nan]
    if not all(map(math.isfinite, values)):
        raise error(f"{what}: expected finite numbers, got {' '.join(tokens)!r}", line)
    return values


def _to_lf(text: str) -> str:
    """`text` with each line end, \\r\\n or a lone \\r, written as \\n."""
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_text(path: str) -> str:
    """The contents of a UTF-8 text file, one leading byte order mark
    dropped and line ends written as \\n. A byte sequence that does not
    decode raises ParseError naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _to_lf(data.decode("utf-8").removeprefix("\ufeff"))
    except UnicodeDecodeError as exc:
        line = _to_lf(data[: exc.start].decode()).count("\n") + 1
        raise ParseError(f"invalid UTF-8: {exc.reason}", line) from None


def read_body(
    text: str, header: str, error: type[ParseError] = ParseError
) -> tuple[list[float], Iterator[tuple[list[int], list[list[str]]]]]:
    """Check the first line of `text` against `header` and tokenize the rest.

    `header` is the format's first line with its arguments written as
    placeholders, e.g. "declgrid v1 <lat_min> <lat_max> ...". Returns the
    header arguments as finite floats, then the non-blank body lines,
    comments removed, as an iterator of blocks: the line numbers and the
    tokens of the lines in about BLOCK_CHARS characters of text, so that a
    long text's tokens are never all held at once. Errors are raised as `error`;
    a bad header names line 1.
    """
    text = _to_lf(text)
    end = text.find("\n")
    if end < 0:  # no line end: the header is all of it
        end = len(text)
    tag, version, *names = header.split()
    head = text[:end].partition("#")[0].split()
    if head[:2] != [tag, version] or len(head) != 2 + len(names):
        raise error(f"expected header {header!r}", 1)
    return finite_floats(head[2:], 1, "header", error), _blocks(text, end + 1)


def _blocks(text: str, start: int) -> Iterator[tuple[list[int], list[list[str]]]]:
    lineno = 2
    while start <= len(text):
        end = text.find("\n", start + BLOCK_CHARS)
        if end < 0:
            end = len(text)
        chunk = text[start:end]
        lines = chunk.split("\n")
        if "#" in chunk:  # without one, dropping comments changes nothing
            lines = list(map(operator.itemgetter(0), map(operator.methodcaller("partition", "#"), lines)))
        tokens = list(map(str.split, lines))
        filled = list(map(bool, tokens))
        yield list(itertools.compress(itertools.count(lineno), filled)), list(itertools.compress(tokens, filled))
        lineno += len(lines)
        start = end + 1


def read_lines(
    text: str, header: str, error: type[ParseError] = ParseError
) -> tuple[list[float], Iterator[tuple[int, list[str]]]]:
    """`read_body`, its body as an iterator of (line number, tokens)."""
    args, blocks = read_body(text, header, error)
    return args, itertools.chain.from_iterable(itertools.starmap(zip, blocks))
