"""The one file reader every loader goes through (`read_line_blocks`,
joined by `read_text`), the one line reader every versioned text format
goes through (`read_body`, paired up line by line by `read_lines`), and
the city file (`CityRecord`, `load_cities`). The records of a trace live
in `columns`, beside their row layouts.

This module imports only `errors` and `geodesy`, so every module above them
may import it; `columns`, at its rank, and `pipeline` do not, so the
one-sample pointer never loads it.

The file reader is the standard library's text layer: UTF-8 with Python's
universal newlines, so a line ends at \\n, \\r\\n or a lone \\r and nowhere
else, and one leading byte order mark is dropped. `read_line_blocks` gives
a file as lists of whole lines, as the layer's `readlines` reads them, so
no line end is found or counted here. It reads a file once from its
start, so a pipe or a FIFO is read as a file is. A byte that is not valid
UTF-8 raises ParseError naming its line. Text formats are line oriented:
a header line `<tag> <version> [args...]`, then a body of
whitespace-separated tokens. '#' starts a comment that runs to the end of
the line, and blank lines are skipped. Every number must be finite, and
every error names the line it was found on.

City CSV: mandatory header ``name,latitude_deg,longitude_deg``; names are
unique case-insensitively. It is read with the `csv` module, so quoted
names may contain commas.
"""

from __future__ import annotations

import io
import itertools
import math
import operator
from collections.abc import Iterable, Iterator, Sequence

from .errors import DuplicateCity, InvalidCoordinate, ParseError
from .geodesy import GeoCoordinate, _Frozen

# The characters read_line_blocks reads, and read_body tokenizes, at a time.
# Its tokens take about 9 times as many bytes: 64 Ki characters, about 800
# trace lines, make 0.6 MB.
BLOCK_CHARS = 1 << 16


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


def _line_blocks(stream: io.TextIOBase) -> Iterator[list[str]]:
    """The lines of a universal-newline text stream, as `readlines` reads
    them: lists of whole lines, each ending at the line that takes it past
    BLOCK_CHARS characters, however long that line is.

    A byte that did not decode, which `surrogateescape` reads as a lone
    surrogate, gives the lines before it first, then raises ParseError
    naming its line with the reason the strict UTF-8 decoder gives.
    """
    lineno = 1  # the line the next list starts at
    while lines := stream.readlines(BLOCK_CHARS):
        if not all(map(str.isascii, lines)):
            for i, line in enumerate(lines):
                try:
                    line.encode()
                except UnicodeEncodeError as exc:
                    if i:
                        yield lines[:i]
                    reason = exc.reason
                    try:  # the line's bytes, line end included, as read
                        line.encode("utf-8", "surrogateescape").decode()
                    except UnicodeError as strict:  # or, from a str, a lone surrogate of its own
                        reason = strict.reason
                    raise ParseError(f"invalid UTF-8: {reason}", lineno + i) from None
        yield lines
        lineno += len(lines)


def read_line_blocks(path: str) -> Iterator[list[str]]:
    """The lines of a UTF-8 text file as `read_text` gives them, in lists of
    whole lines of about BLOCK_CHARS characters, read as they are asked
    for. The file is read once from its start, so it may be a pipe. A byte
    sequence that does not decode raises ParseError naming its line, once
    the lines before it are given."""
    # Not "utf-8-sig", which reads a file of only the first one or two bytes
    # of a byte order mark as empty text, where they do not decode.
    with open(path, encoding="utf-8", errors="surrogateescape") as stream:
        blocks = _line_blocks(stream)
        first = next(blocks, [""])  # the first list starts the file
        first[0] = first[0].removeprefix("\ufeff")
        yield first
        yield from blocks


def read_text(path: str) -> str:
    """The contents of a UTF-8 text file, one leading byte order mark
    dropped and line ends written as \\n. A byte sequence that does not
    decode raises ParseError naming its line."""
    return "".join(map("".join, read_line_blocks(path)))


def read_body(
    text: str | Iterable[list[str]], header: str, error: type[ParseError] = ParseError
) -> tuple[list[float], Iterator[tuple[list[int], list[list[str]]]]]:
    """Check the first line of a text against `header` and tokenize the rest.

    The text is a string, or the lists of whole lines `read_line_blocks`
    gives, which are then read only as the body is. `header` is the
    format's first line with its arguments written as placeholders, e.g.
    "declgrid v1 <lat_min> <lat_max> ...". Returns the header arguments as
    finite floats, then the non-blank body lines, comments removed, as an
    iterator of blocks: the line numbers and the tokens of the lines of one
    list, about BLOCK_CHARS characters of text, so that a long text's
    tokens are never all held at once. Errors are raised as `error`; a bad
    header names line 1.
    """
    blocks = _line_blocks(io.StringIO(text, newline=None)) if isinstance(text, str) else iter(text)
    first = next(blocks, [""])
    tag, version, *names = header.split()
    head = first[0].partition("#")[0].split()
    if head[:2] != [tag, version] or len(head) != 2 + len(names):
        raise error(f"expected header {header!r}", 1)
    return finite_floats(head[2:], 1, "header", error), _blocks(itertools.chain([first[1:]], blocks))


def _blocks(blocks: Iterator[list[str]]) -> Iterator[tuple[list[int], list[list[str]]]]:
    lineno = 2
    for lines in blocks:
        if "#" in "".join(lines):  # without one, dropping comments changes nothing
            lines = list(map(operator.itemgetter(0), map(operator.methodcaller("partition", "#"), lines)))
        tokens = list(map(str.split, lines))
        filled = list(map(bool, tokens))
        yield list(itertools.compress(itertools.count(lineno), filled)), list(itertools.compress(tokens, filled))
        lineno += len(lines)


def read_lines(
    text: str, header: str, error: type[ParseError] = ParseError
) -> tuple[list[float], Iterator[tuple[int, list[str]]]]:
    """`read_body`, its body as an iterator of (line number, tokens)."""
    args, blocks = read_body(text, header, error)
    return args, itertools.chain.from_iterable(itertools.starmap(zip, blocks))


CITY_HEADER = ("name", "latitude_deg", "longitude_deg")


class CityRecord(_Frozen):
    """A named location; the name is a unique case-insensitive key."""

    __slots__ = ("name", "location")

    def __init__(self, name: str, location: GeoCoordinate) -> None:
        self._set(name, location)


def load_cities(path: str) -> list[CityRecord]:
    """Load the city CSV; rejects bad rows and duplicate names outright."""
    import csv  # here, so that only a city file loads it

    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    if not rows or tuple(h.strip().lower() for h in rows[0][1]) != CITY_HEADER:
        raise ParseError(f"expected header {','.join(CITY_HEADER)}", line=1)
    cities: list[CityRecord] = []
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
        cities.append(CityRecord(name=name, location=location))
    return cities
