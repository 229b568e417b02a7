"""Great-circle math on the spherical Earth model.

All public angles are degrees; radians stay internal. Bearings are measured
clockwise from true north and normalized to [0, 360). Distances are on a
sphere of the mean Earth radius, 6371.0 km.

Everything here is a pure function of its inputs and safe to call from any
number of threads. `_Frozen` is the base of every value class in the
package, so none of them loads `dataclasses`.
"""

from __future__ import annotations

import math
import operator

from .errors import AntipodalPoints, DegeneratePoints, InvalidAngle, InvalidCoordinate

EARTH_RADIUS_KM = 6371.0

# Below this angular separation two points are treated as coincident, and
# within it of 180 deg as antipodal; far below any GPS precision.
SEPARATION_EPS_DEG = 1e-9


class AzimuthDeg(float):
    """Compass bearing in degrees clockwise from north, always in [0, 360)."""

    def __new__(cls, value_deg: float) -> "AzimuthDeg":
        if not math.isfinite(value_deg):
            raise InvalidAngle(f"azimuth must be finite, got {value_deg!r}")
        return float.__new__(cls, wrap_azimuth(value_deg))  # not super(), which costs more, three times an entry


def wrap_azimuth(value_deg):
    """A finite angle wrapped into [0, 360)."""
    v = value_deg % 360.0
    return v * (v < 360.0)  # fp edge: a tiny negative input rounds up to 360.0, which is 0


def wrap_signed(diff_deg):
    """A finite angle difference wrapped into (-180, +180]."""
    d = diff_deg % 360.0
    return d - 360.0 * (d > 180.0)


def circular_diff(target: float, current: float) -> float:
    """Signed shortest rotation from `current` to `target`, in (-180, +180].

    target == current + result (mod 360); an exact half-turn reports +180.
    A non-finite operand raises InvalidAngle.
    """
    target, current = float(target), float(current)
    d = target - current
    if not math.isfinite(d):  # a non-finite operand, or the difference overflowed
        if not (math.isfinite(target) and math.isfinite(current)):
            raise InvalidAngle(f"angles must be finite, got {target!r} and {current!r}")
        d = target % 360.0 - current % 360.0
    return wrap_signed(d)


class DistanceKm(float):
    """Great-circle distance in kilometers, never negative."""

    def __new__(cls, value_km: float) -> "DistanceKm":
        if not math.isfinite(value_km) or value_km < 0.0:
            raise ValueError(f"distance must be finite and nonnegative, got {value_km!r}")
        return super().__new__(cls, value_km)


class _Frozen:
    """A value whose fields are its `__slots__`, each set once in `__init__`,
    through `_set` or, in a class built per sample, one `object.__setattr__`
    call a field. A value's fields are exactly what its `__init__` checked:
    nothing builds one around that check, and a sequence it checks element
    by element is held as the tuple it checked, so a caller's list changed
    later changes nothing. Assignment and deletion raise AttributeError, it
    equals only an instance of its own class with equal fields, and it hashes
    and prints by value, as a frozen dataclass does."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # self._values(self) is the tuple of field values, read in C: `process` hashes its place per call.
        cls._values = staticmethod(operator.attrgetter(*cls.__slots__))

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__, which a valid value passes unchanged
        return self.__class__, self._values(self)


class GeoCoordinate(_Frozen):
    """A latitude/longitude pair in degrees on the sphere.

    Latitude outside [-90, +90] is rejected. Longitude is canonicalized into
    (-180, +180] at construction, so e.g. 190 becomes -170.
    """

    __slots__ = ("latitude_deg", "longitude_deg")

    def __init__(self, latitude_deg: float, longitude_deg: float) -> None:
        lat, lon = latitude_deg, longitude_deg
        if not (math.isfinite(lat) and math.isfinite(lon)):
            raise InvalidCoordinate(f"coordinates must be finite, got ({lat!r}, {lon!r})")
        if not -90.0 <= lat <= 90.0:
            raise InvalidCoordinate(f"latitude {lat!r} outside [-90, +90]")
        self._set(lat, circular_diff(lon, 0.0))


# Fixed target for qibla bearings.
KAABA = GeoCoordinate(21.4225, 39.8262)


def _unit_vector(p: GeoCoordinate) -> tuple[float, float, float]:
    lat = math.radians(p.latitude_deg)
    lon = math.radians(p.longitude_deg)
    return (math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat))


def angular_separation(a: GeoCoordinate, b: GeoCoordinate) -> float:
    """Central angle between two points in degrees, in [0, 180].

    Computed as atan2(|u x v|, u.v) of the unit position vectors, which is
    exact at 0 and 180 and well conditioned everywhere between.
    """
    ux, uy, uz = _unit_vector(a)
    vx, vy, vz = _unit_vector(b)
    cx = uy * vz - uz * vy
    cy = uz * vx - ux * vz
    cz = ux * vy - uy * vx
    cross = math.sqrt(cx * cx + cy * cy + cz * cz)
    dot = ux * vx + uy * vy + uz * vz
    return math.degrees(math.atan2(cross, dot))


def initial_bearing(origin: GeoCoordinate, target: GeoCoordinate) -> AzimuthDeg:
    """Initial great-circle bearing at `origin` toward `target`.

    Evaluated as atan2(sin(dlon), cos(lat1)*tan(lat2) - sin(lat1)*cos(dlon))
    so the quadrant is resolved, then normalized to [0, 360). Coincident or
    antipodal endpoints have no defined bearing and raise.
    """
    sep = angular_separation(origin, target)
    if sep <= SEPARATION_EPS_DEG:
        raise DegeneratePoints(f"points {sep:.3e} deg apart have no defined bearing")
    if sep >= 180.0 - SEPARATION_EPS_DEG:
        raise AntipodalPoints("antipodal points have no unique bearing")
    lat1 = math.radians(origin.latitude_deg)
    lat2 = math.radians(target.latitude_deg)
    dlon = math.radians(target.longitude_deg - origin.longitude_deg)
    y = math.sin(dlon)
    x = math.cos(lat1) * math.tan(lat2) - math.sin(lat1) * math.cos(dlon)
    return AzimuthDeg(math.degrees(math.atan2(y, x)))


def qibla_azimuth(user: GeoCoordinate) -> AzimuthDeg:
    """Bearing from `user` toward the Kaaba.

    Depends only on the two latitudes and the longitude difference; the
    Earth radius plays no role in a bearing.
    """
    return initial_bearing(user, KAABA)


def haversine_distance(a: GeoCoordinate, b: GeoCoordinate) -> DistanceKm:
    """Great-circle distance via the haversine of the central angle.

    c = 2*asin(sqrt(sin^2(dlat/2) + cos(lat1)*cos(lat2)*sin^2(dlon/2))),
    distance = EARTH_RADIUS_KM * c. Numerically stable at all separations.
    """
    lat1 = math.radians(a.latitude_deg)
    lat2 = math.radians(b.latitude_deg)
    dlat = math.radians(b.latitude_deg - a.latitude_deg)
    dlon = math.radians(b.longitude_deg - a.longitude_deg)
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    c = 2.0 * math.asin(min(1.0, math.sqrt(h)))
    return DistanceKm(EARTH_RADIUS_KM * c)


def slc_distance(a: GeoCoordinate, b: GeoCoordinate) -> DistanceKm:
    """Great-circle distance via the spherical law of cosines.

    c = acos(sin(lat1)*sin(lat2) + cos(lat1)*cos(lat2)*cos(dlon)). Agrees
    with the haversine form to high precision for separations of a
    kilometer and up; below that it is ill conditioned and the haversine
    form is the reference.
    """
    lat1 = math.radians(a.latitude_deg)
    lat2 = math.radians(b.latitude_deg)
    dlon = math.radians(b.longitude_deg - a.longitude_deg)
    arg = math.sin(lat1) * math.sin(lat2) + math.cos(lat1) * math.cos(lat2) * math.cos(dlon)
    c = math.acos(max(-1.0, min(1.0, arg)))
    return DistanceKm(EARTH_RADIUS_KM * c)
