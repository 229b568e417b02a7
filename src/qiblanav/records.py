"""Record types shared by the pipeline, the simulator and the file formats,
plus the one file reader every loader goes through and the one line reader
every versioned text format goes through.

This module imports only `errors`, so every other module may import it.

Text formats are line oriented: a header line `<tag> <version> [args...]`,
then a body of whitespace-separated tokens. '#' starts a comment that runs
to the end of the line, and blank lines are skipped. Every number must be
finite, and every error names the line it was found on.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .errors import ParseError

G = 9.81  # m/s^2

# Accelerometer magnitude band for a sample to be usable for tilt.
STATIC_ACCEL_BAND = (0.5 * G, 1.5 * G)


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
        lo, hi = STATIC_ACCEL_BAND
        return lo < math.hypot(*self.accel) < hi


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


def finite_floats(
    tokens: Sequence[str], line: int, what: str, error: type[ParseError] = ParseError
) -> list[float]:
    """Convert every token to a finite float, or raise `error` naming `what`
    and the line."""
    try:
        values = list(map(float, tokens))
    except ValueError:
        values = [math.nan]
    # A non-finite value makes the sum non-finite; finite values can
    # overflow it, so only then check them one by one.
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        raise error(f"{what}: expected finite numbers, got {' '.join(tokens)!r}", line)
    return values


def read_text(path: str) -> str:
    """The contents of a UTF-8 text file. A byte sequence that does not
    decode raises ParseError naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid UTF-8: {exc.reason}", data.count(b"\n", 0, exc.start) + 1) from None


def read_lines(
    text: str, header: str, error: type[ParseError] = ParseError
) -> tuple[list[float], Iterator[tuple[int, list[str]]]]:
    """Check the first line of `text` against `header` and tokenize the rest.

    `header` is the format's first line with its arguments written as
    placeholders, e.g. "declgrid v1 <lat_min> <lat_max> ...". Returns the
    header arguments as finite floats, and an iterator of (line number,
    tokens) over the non-blank body lines, comments removed. Errors are
    raised as `error`; a bad header names line 1.
    """
    lines = text.splitlines()
    tag, version, *names = header.split()
    head = lines[0].partition("#")[0].split() if lines else []
    if head[:2] != [tag, version] or len(head) != 2 + len(names):
        raise error(f"expected header {header!r}", 1)
    args = finite_floats(head[2:], 1, "header", error)
    body = (
        (lineno, tokens)
        for lineno, raw in enumerate(itertools.islice(lines, 1, None), start=2)
        if (tokens := raw.partition("#")[0].split())
    )
    return args, body
