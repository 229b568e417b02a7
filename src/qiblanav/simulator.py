"""Deterministic sensor-trace generator and per-sample ground truth.

The magnetic environment is a locally uniform field given by horizontal
intensity H (microtesla), inclination I (degrees, down-positive) and
declination D (degrees, east-positive). In the level north/east/down frame
the field vector is

    m = (H*cos(D), H*sin(D), H*tan(I))

and gravity specific force is f = (0, 0, -g). Device attitude applies yaw
psi (about Z), then pitch theta (about Y), then roll phi (about X):

    Rz(psi)  = [[cos psi, -sin psi, 0], [sin psi, cos psi, 0], [0, 0, 1]]
    Ry(theta)= [[cos th, 0, sin th], [0, 1, 0], [-sin th, 0, cos th]]
    Rx(phi)  = [[1, 0, 0], [0, cos ph, -sin ph], [0, sin ph, cos ph]]

with body-to-level R = Rz @ Ry @ Rx, so a sensor sees v_body = R^T v_level.
Hard iron adds to the magnetometer after rotation. Noise is seeded Gaussian
from numpy's PCG64 generator: one standard_normal block of shape (n, 3) is
drawn for the accelerometer, then one for the magnetometer, and scaled by
the scenario sigmas. Identical scenarios therefore produce bit-identical
traces.

Scenario file format (flat key/value text read by `records.read_lines`)::

    scenario v1
    duration_ms 42000
    sample_rate_hz 50
    heading_deg 0:0 4000:120 8000:240 12000:360
    pitch_deg 15
    roll_deg 0:-50 6000:50 12000:-10
    field_horizontal_ut 40.0
    field_inclination_deg -30.0
    field_declination_deg 0.8
    hard_iron_ut 25 -18 9
    noise_sigma_mag_ut 2.0
    noise_sigma_accel_ms2 0.05
    rng_seed 1

heading_deg, pitch_deg and roll_deg take either a single constant or a list
of t_ms:value knots. Heading interpolates along the shortest circular arc
between knots; pitch and roll interpolate linearly. Before the first knot
and after the last one the end value holds. A scenario may ask for at most
MAX_SAMPLES samples, duration_ms * sample_rate_hz / 1000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ScenarioError
from .records import G, SensorSample, TruthRecord, finite_floats, read_lines, read_text

SCENARIO_HEADER = "scenario v1"

# Largest trace a scenario may ask for: about 55 h at 50 Hz. generate
# holds the whole trace in memory.
MAX_SAMPLES = 10**7

Knots = tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class MagneticField:
    """Locally uniform field: horizontal intensity, inclination, declination."""

    horizontal_ut: float
    inclination_deg: float = 0.0
    declination_deg: float = 0.0


@dataclass(frozen=True)
class Scenario:
    """Full description of a synthetic trace; a pure value, reusable."""

    duration_ms: float
    sample_rate_hz: float
    heading_knots: Knots
    pitch_knots: Knots = ((0.0, 0.0),)
    roll_knots: Knots = ((0.0, 0.0),)
    field: MagneticField = MagneticField(40.0)
    hard_iron_ut: tuple[float, float, float] = (0.0, 0.0, 0.0)
    noise_sigma_mag_ut: float = 0.0
    noise_sigma_accel_ms2: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration_ms) and self.duration_ms > 0.0):
            raise ScenarioError("duration_ms must be positive")
        if not (math.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0.0):
            raise ScenarioError("sample_rate_hz must be positive")
        count = self.duration_ms * self.sample_rate_hz / 1000.0
        if not (math.isfinite(count) and round(count) <= MAX_SAMPLES):
            raise ScenarioError(
                f"duration_ms gives {count:.3g} samples at sample_rate_hz, more than {MAX_SAMPLES}")
        for name in ("heading_knots", "pitch_knots", "roll_knots"):
            knots = getattr(self, name)
            if not knots:
                raise ScenarioError(f"{name} must not be empty")
            ts = [t for t, _ in knots]
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise ScenarioError(f"{name} timestamps must be strictly increasing")
            if not all(math.isfinite(t) and math.isfinite(v) for t, v in knots):
                raise ScenarioError(f"{name} values must be finite")
        if not (math.isfinite(self.field.horizontal_ut) and self.field.horizontal_ut > 0.0):
            raise ScenarioError("field_horizontal_ut must be positive")
        if not (abs(self.field.inclination_deg) < 90.0):
            raise ScenarioError("field_inclination_deg must lie in (-90, 90)")
        if not math.isfinite(self.field.declination_deg):
            raise ScenarioError("field_declination_deg must be finite")
        if len(self.hard_iron_ut) != 3 or not all(math.isfinite(c) for c in self.hard_iron_ut):
            raise ScenarioError("hard_iron_ut must be three finite components")
        for name in ("noise_sigma_mag_ut", "noise_sigma_accel_ms2"):
            sigma = getattr(self, name)
            if not (math.isfinite(sigma) and sigma >= 0.0):
                raise ScenarioError(f"{name} must be finite and nonnegative")
        if not 0 <= int(self.rng_seed) < 2**64:
            raise ScenarioError("rng_seed must fit in 64 bits")


def _sample_knots(knots: Knots, t: np.ndarray, circular: bool) -> np.ndarray:
    ts = np.array([k[0] for k in knots])
    vs = np.array([k[1] for k in knots])
    if circular:
        # Unwrap knot values along the shortest arc, interpolate, re-wrap.
        steps = (np.diff(vs) + 180.0) % 360.0 - 180.0
        vs = np.concatenate([[vs[0]], vs[0] + np.cumsum(steps)])
        return np.interp(t, ts, vs) % 360.0
    return np.interp(t, ts, vs)


def generate(scenario: Scenario) -> tuple[list[SensorSample], list[TruthRecord]]:
    """Emit the scenario's sensor trace and its exact truth records.

    Noiseless output satisfies the same rotation algebra the pipeline's
    tilt compensation inverts, so together they round-trip exactly.
    """
    n = int(round(scenario.duration_ms * scenario.sample_rate_hz / 1000.0))
    t = np.arange(n) * (1000.0 / scenario.sample_rate_hz)

    yaw = np.radians(_sample_knots(scenario.heading_knots, t, circular=True))
    pitch = np.radians(_sample_knots(scenario.pitch_knots, t, circular=False))
    roll = np.radians(_sample_knots(scenario.roll_knots, t, circular=False))

    field = scenario.field
    m_n = field.horizontal_ut * math.cos(math.radians(field.declination_deg))
    m_e = field.horizontal_ut * math.sin(math.radians(field.declination_deg))
    m_d = field.horizontal_ut * math.tan(math.radians(field.inclination_deg))

    cy, sy = np.cos(yaw), np.sin(yaw)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cr, sr = np.cos(roll), np.sin(roll)

    def to_body(n_c: np.ndarray, e_c: np.ndarray, d_c: np.ndarray) -> tuple[np.ndarray, ...]:
        # v_body = Rx(phi)^T @ Ry(theta)^T @ Rz(psi)^T @ v_level
        x1 = n_c * cy + e_c * sy
        y1 = -n_c * sy + e_c * cy
        x2 = x1 * cp - d_c * sp
        z2 = x1 * sp + d_c * cp
        return x2, y1 * cr + z2 * sr, -y1 * sr + z2 * cr

    zeros = np.zeros(n)
    accel = np.column_stack(to_body(zeros, zeros, np.full(n, -G)))
    mag = np.column_stack(to_body(np.full(n, m_n), np.full(n, m_e), np.full(n, m_d)))
    mag += scenario.hard_iron_ut

    rng = np.random.Generator(np.random.PCG64(int(scenario.rng_seed)))
    accel += rng.standard_normal((n, 3)) * scenario.noise_sigma_accel_ms2
    mag += rng.standard_normal((n, 3)) * scenario.noise_sigma_mag_ut

    t_ms = t.tolist()
    samples = list(map(SensorSample, t_ms, map(tuple, accel.tolist()), map(tuple, mag.tolist())))
    truth = list(map(TruthRecord, t_ms, (np.degrees(yaw) % 360.0).tolist(),
                     map(math.degrees, pitch.tolist()), map(math.degrees, roll.tolist())))
    return samples, truth


_KNOWN_FIELDS = {
    "duration_ms", "sample_rate_hz", "heading_deg", "pitch_deg", "roll_deg",
    "field_horizontal_ut", "field_inclination_deg", "field_declination_deg",
    "hard_iron_ut", "noise_sigma_mag_ut", "noise_sigma_accel_ms2", "rng_seed",
}
_REQUIRED_FIELDS = ("duration_ms", "sample_rate_hz", "heading_deg", "field_horizontal_ut")


def parse_scenario(text: str) -> Scenario:
    """Parse the flat key/value scenario format into a Scenario.

    Errors in a field's line name that line; a missing required field, or
    a value the Scenario itself refuses, names the field only.
    """
    _, body = read_lines(text, SCENARIO_HEADER, ScenarioError)
    fields: dict[str, tuple[int, list[str]]] = {}
    for lineno, (key, *tokens) in body:
        if key not in _KNOWN_FIELDS:
            raise ScenarioError(f"{key}: unknown field", lineno)
        if key in fields:
            raise ScenarioError(f"{key}: duplicate field", lineno)
        fields[key] = (lineno, tokens)
    for required in _REQUIRED_FIELDS:
        if required not in fields:
            raise ScenarioError(f"{required}: required field missing")

    def numbers(key: str, count: int) -> list[float]:
        line, tokens = fields[key]
        if len(tokens) != count:
            raise ScenarioError(f"{key}: expected {count} value(s), got {len(tokens)}", line)
        return finite_floats(tokens, line, key, ScenarioError)

    def number(key: str) -> float:
        return numbers(key, 1)[0] if key in fields else 0.0

    def knots(key: str) -> Knots:
        if key not in fields:
            return ((0.0, 0.0),)
        line, tokens = fields[key]
        if len(tokens) == 1 and ":" not in tokens[0]:
            return ((0.0, numbers(key, 1)[0]),)
        pairs = [tok.partition(":") for tok in tokens]
        if not pairs or not all(sep for _, sep, _ in pairs):
            raise ScenarioError(f"{key}: expected a single constant or t_ms:value knots", line)
        parts = [part for t, _, v in pairs for part in (t, v)]
        values = finite_floats(parts, line, f"{key} knots", ScenarioError)
        return tuple(zip(values[::2], values[1::2]))

    seed = 0
    if "rng_seed" in fields:
        line, tokens = fields["rng_seed"]
        if len(tokens) != 1 or not tokens[0].removeprefix("-").isdecimal():
            raise ScenarioError("rng_seed: expected an integer", line)
        seed = int(tokens[0])

    return Scenario(
        duration_ms=number("duration_ms"),
        sample_rate_hz=number("sample_rate_hz"),
        heading_knots=knots("heading_deg"),
        pitch_knots=knots("pitch_deg"),
        roll_knots=knots("roll_deg"),
        field=MagneticField(
            horizontal_ut=number("field_horizontal_ut"),
            inclination_deg=number("field_inclination_deg"),
            declination_deg=number("field_declination_deg"),
        ),
        hard_iron_ut=tuple(numbers("hard_iron_ut", 3)) if "hard_iron_ut" in fields else (0.0, 0.0, 0.0),
        noise_sigma_mag_ut=number("noise_sigma_mag_ut"),
        noise_sigma_accel_ms2=number("noise_sigma_accel_ms2"),
        rng_seed=seed,
    )


def load_scenario(path: str) -> Scenario:
    """Read and parse a scenario file from disk."""
    return parse_scenario(read_text(path))
