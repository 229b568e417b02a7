"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: domain errors exit 2,
data-insufficiency errors (InsufficientData, DegenerateSweep) exit 3,
usage errors exit 64.
"""

from __future__ import annotations


class QiblaNavError(Exception):
    """Base class for all package-specific errors."""


class InvalidAngle(QiblaNavError, ValueError):
    """Angle input is non-finite or otherwise unusable."""


class InvalidCoordinate(QiblaNavError, ValueError):
    """Latitude/longitude pair violates its range constraints."""


class DegeneratePoints(QiblaNavError):
    """Two coordinates coincide; the bearing between them is undefined."""


class AntipodalPoints(QiblaNavError):
    """Two coordinates are antipodal; every bearing is a shortest path."""


class OutOfCoverage(QiblaNavError):
    """Query point lies outside a declination grid's bounding box."""


class InsufficientData(QiblaNavError):
    """Too few usable samples to run an estimation."""


class DegenerateSweep(QiblaNavError):
    """Calibration point cloud does not determine a sphere center."""


class DynamicSample(QiblaNavError):
    """Accelerometer magnitude is outside the static band; tilt is unusable."""


class OutOfSpan(QiblaNavError):
    """Query time lies outside the span of a truth trace."""


class ParseError(QiblaNavError):
    """A data file failed to parse; carries the offending line number when
    the fault lies on one line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ScenarioError(ParseError):
    """Simulation scenario has a missing or invalid field; `key` names the
    scenario file key of a value the Scenario refused."""

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        super().__init__(message, line)
        self.key = key


class DuplicateCity(ParseError):
    """Two city records share the same case-insensitive name."""


class EmptyReport(QiblaNavError):
    """A report was requested for an empty state stream."""
