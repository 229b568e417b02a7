"""Magnetic declination lookup and magnetic-to-true heading conversion.

Declination is east-positive: true heading = magnetic heading + declination.
The source is a static rectangular grid with bilinear interpolation between
nodes; grids are epoch-static (no secular variation) and immutable after
load, so lookups are pure and thread-safe.

Grid file format (read by `records.read_lines`)::

    declgrid v1 <lat_min> <lat_max> <lat_step> <lon_min> <lon_max> <lon_step>
    <one row of declination values per latitude, ascending;
     one space-separated value per longitude, ascending>
"""

from __future__ import annotations

import math

from .errors import InvalidAngle, OutOfCoverage, ParseError
from .geodesy import AzimuthDeg, GeoCoordinate, _Frozen

GRID_HEADER = "declgrid v1 <lat_min> <lat_max> <lat_step> <lon_min> <lon_max> <lon_step>"


class DeclinationDeg(float):
    """Magnetic declination in degrees, east-positive, |value| <= 90."""

    def __new__(cls, value_deg: float) -> "DeclinationDeg":
        if not math.isfinite(value_deg) or abs(value_deg) > 90.0:
            raise InvalidAngle(f"declination must be finite with |value| <= 90, got {value_deg!r}")
        return super().__new__(cls, value_deg)


class DeclinationGrid(_Frozen):
    """Regular lat/lon grid of declination values, row-major by latitude."""

    __slots__ = ("lat_min", "lat_max", "lat_step", "lon_min", "lon_max", "lon_step", "values")

    def __init__(self, lat_min: float, lat_max: float, lat_step: float,
                 lon_min: float, lon_max: float, lon_step: float,
                 values: tuple[tuple[float, ...], ...]) -> None:
        values = tuple(map(tuple, values))
        n_lat = _axis_count(lat_min, lat_max, lat_step)
        n_lon = _axis_count(lon_min, lon_max, lon_step)
        if len(values) != n_lat:
            raise ValueError(f"expected {n_lat} latitude rows, got {len(values)}")
        for i, row in enumerate(values):
            problem = _row_problem(row, n_lon)
            if problem:
                raise ValueError(f"row {i}: {problem}")
        self._set(lat_min, lat_max, lat_step, lon_min, lon_max, lon_step, values)

    @property
    def n_lat(self) -> int:
        return len(self.values)

    @property
    def n_lon(self) -> int:
        return len(self.values[0])


def _axis_count(lo: float, hi: float, step: float) -> int:
    """Number of nodes from lo to hi inclusive, at least two, `step` apart."""
    if not step > 0.0:
        raise ValueError(f"grid step {step} must be strictly positive")
    n = (hi - lo) / step + 1.0
    if not (math.isfinite(n) and n >= 1.5 and abs(n - round(n)) <= 1e-9):
        raise ValueError(f"span [{lo}, {hi}] is not a whole number of steps of {step}")
    return round(n)


def _row_problem(row: tuple[float, ...], n_lon: int) -> str | None:
    """What is wrong with one latitude row, or None."""
    if len(row) != n_lon:
        return f"expected {n_lon} values, got {len(row)}"
    for v in row:
        if not (math.isfinite(v) and abs(v) <= 90.0):
            return f"declination {v!r} outside [-90, +90]"
    return None


def declination_at(grid: DeclinationGrid, where: GeoCoordinate) -> DeclinationDeg:
    """Bilinear interpolation of the four grid nodes surrounding `where`.

    Queries exactly on a node return the stored value; anywhere outside the
    grid's bounding box raises OutOfCoverage. A longitude outside
    [lon_min, lon_max] is tried once more shifted by 360 degrees, which
    covers grids that cross the antimeridian.
    """
    lat, lon = where.latitude_deg, where.longitude_deg
    if lon < grid.lon_min:
        lon += 360.0
    elif lon > grid.lon_max:
        lon -= 360.0
    if not (grid.lat_min <= lat <= grid.lat_max and grid.lon_min <= lon <= grid.lon_max):
        raise OutOfCoverage(
            f"({lat}, {where.longitude_deg}) outside grid [{grid.lat_min}, {grid.lat_max}] x "
            f"[{grid.lon_min}, {grid.lon_max}]"
        )
    fi = (lat - grid.lat_min) / grid.lat_step
    fj = (lon - grid.lon_min) / grid.lon_step
    i = min(int(fi), grid.n_lat - 2)
    j = min(int(fj), grid.n_lon - 2)
    u = fi - i
    v = fj - j
    c00 = grid.values[i][j]
    c01 = grid.values[i][j + 1]
    c10 = grid.values[i + 1][j]
    c11 = grid.values[i + 1][j + 1]
    val = (1.0 - u) * ((1.0 - v) * c00 + v * c01) + u * ((1.0 - v) * c10 + v * c11)
    return DeclinationDeg(val)


def as_declination(decl: DeclinationDeg | float) -> DeclinationDeg:
    """`decl` held to DeclinationDeg's rule: a DeclinationDeg as given, since
    it holds the rule, and any other float built as one, so one that is not
    finite or exceeds 90 in magnitude raises InvalidAngle."""
    return decl if isinstance(decl, DeclinationDeg) else DeclinationDeg(decl)


def to_true_heading(magnetic: AzimuthDeg, decl: DeclinationDeg | float) -> AzimuthDeg:
    """Apply east-positive declination: true = magnetic + declination. A
    `decl` that is not a DeclinationDeg is built as one."""
    return AzimuthDeg(magnetic + as_declination(decl))


def parse_grid(text: str) -> DeclinationGrid:
    """Parse the declgrid v1 text format; malformed lines raise ParseError."""
    from .records import finite_floats, read_lines  # only a grid file needs the line reader

    bounds, body = read_lines(text, GRID_HEADER)
    try:
        n_lat, n_lon = _axis_count(*bounds[:3]), _axis_count(*bounds[3:])
    except ValueError as exc:
        raise ParseError(str(exc), line=1) from None
    rows: list[tuple[float, ...]] = []
    for lineno, tokens in body:
        row = tuple(finite_floats(tokens, lineno, "declination row"))
        problem = _row_problem(row, n_lon)
        if problem:
            raise ParseError(problem, line=lineno)
        rows.append(row)
    if len(rows) != n_lat:
        raise ParseError(f"expected {n_lat} latitude rows, got {len(rows)}", line=1)
    return DeclinationGrid(*bounds, tuple(rows))


def load_grid(path: str) -> DeclinationGrid:
    """Read and parse a declgrid file from disk."""
    from .records import read_text

    return parse_grid(read_text(path))
