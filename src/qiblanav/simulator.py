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

Each key names the Scenario field it sets, and a `field_` key sets that
MagneticField field of Scenario.field (field_horizontal_ut sets
MagneticField.horizontal_ut); both are `geodesy._Frozen` values. A key
the file omits takes the default.
heading_deg, pitch_deg and roll_deg take either a single constant or a list
of t_ms:value knots. Heading interpolates along the shortest circular arc
between knots, so at a knot's time it is the knot's value mod 360; pitch
and roll interpolate linearly. Before the first knot and after the last
one the end value holds. A scenario gives
duration_ms * sample_rate_hz / 1000 samples, rounded, and must give at
least one and at most MAX_SAMPLES. rng_seed is an integer in [0, 2**64),
such as a numpy integer, and never a bool. simulate and generate refuse a
scenario whose sensor readings overflow the float range.
"""

from __future__ import annotations

import math
import operator
from typing import NoReturn

import numpy as np

from .columns import SAMPLE, TRUTH, G, RecordView, SensorSample, TraceFile, TruthRecord
from .errors import ScenarioError
from .geodesy import _Frozen
from .records import finite_floats, read_lines, read_text

SCENARIO_HEADER = "scenario v1"

# Largest trace a scenario may ask for: about 55 h at 50 Hz. simulate
# holds the whole trace in memory.
MAX_SAMPLES = 10**7

# From this magnitude on a float's spacing exceeds 2**-33 deg (about 1e-10),
# so heading knots are unwrapped from their values mod 360, which fmod
# gives exactly, rather than from the first knot's value.
_UNWRAP_LIMIT_DEG = 2.0**19

Knots = tuple[tuple[float, float], ...]
_KNOT_KEYS = ("heading_deg", "pitch_deg", "roll_deg")


def _refuse(key: str, rule: str) -> NoReturn:
    raise ScenarioError(f"{key} {rule}", key=key)


class MagneticField(_Frozen):
    """Locally uniform field: horizontal intensity, inclination, declination.
    A value out of its field's range raises ScenarioError naming the
    field's scenario file key."""

    __slots__ = ("horizontal_ut", "inclination_deg", "declination_deg")

    def __init__(self, horizontal_ut: float, inclination_deg: float = 0.0, declination_deg: float = 0.0) -> None:
        if not (math.isfinite(horizontal_ut) and horizontal_ut > 0.0):
            _refuse("field_horizontal_ut", "must be positive")
        if not (abs(inclination_deg) < 90.0):
            _refuse("field_inclination_deg", "must lie in (-90, 90)")
        if not math.isfinite(declination_deg):
            _refuse("field_declination_deg", "must be finite")
        self._set(horizontal_ut, inclination_deg, declination_deg)


def _pairs(key: str, knots: Knots) -> Knots:
    """`knots` as a tuple of (t_ms, value) tuples; anything else is refused."""
    try:
        pairs = tuple(map(tuple, knots))
    except TypeError:  # the knots, or a knot, are not a sequence
        pairs = ((),)
    if not all(len(pair) == 2 for pair in pairs):
        _refuse(key, "must be (t_ms, value) pairs")
    return pairs


class Scenario(_Frozen):
    """Full description of a synthetic trace; a pure value, reusable. Its
    knot sequences and hard_iron_ut are held as tuples."""

    __slots__ = ("duration_ms", "sample_rate_hz", "heading_deg", "pitch_deg", "roll_deg", "field", "hard_iron_ut",
                 "noise_sigma_mag_ut", "noise_sigma_accel_ms2", "rng_seed")

    def __init__(self, duration_ms: float, sample_rate_hz: float, heading_deg: Knots,
                 pitch_deg: Knots = ((0.0, 0.0),), roll_deg: Knots = ((0.0, 0.0),),
                 field: MagneticField = MagneticField(40.0), hard_iron_ut: tuple[float, float, float] = (0.0, 0.0, 0.0),
                 noise_sigma_mag_ut: float = 0.0, noise_sigma_accel_ms2: float = 0.0, rng_seed: int = 0) -> None:
        heading_deg, pitch_deg, roll_deg = map(_pairs, _KNOT_KEYS, (heading_deg, pitch_deg, roll_deg))
        self._set(duration_ms, sample_rate_hz, heading_deg, pitch_deg, roll_deg, field, tuple(hard_iron_ut),
                  noise_sigma_mag_ut, noise_sigma_accel_ms2, rng_seed)
        if not (math.isfinite(self.duration_ms) and self.duration_ms > 0.0):
            _refuse("duration_ms", "must be positive")
        if not (math.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0.0):
            _refuse("sample_rate_hz", "must be positive")
        try:
            count = self.n_samples
        except OverflowError:  # the product is infinite
            count = math.inf
        if count < 1:
            _refuse("duration_ms", f"gives {count} samples at sample_rate_hz, need at least 1")
        if count > MAX_SAMPLES:
            _refuse("duration_ms", f"gives {count:.3g} samples at sample_rate_hz, more than {MAX_SAMPLES}")
        for name in _KNOT_KEYS:
            knots = getattr(self, name)
            if not knots:
                _refuse(name, "must not be empty")
            ts = [t for t, _ in knots]
            if any(b <= a for a, b in zip(ts, ts[1:])):
                _refuse(name, "timestamps must be strictly increasing")
            if not all(math.isfinite(t) and math.isfinite(v) for t, v in knots):
                _refuse(name, "values must be finite")
        if not isinstance(self.field, MagneticField):
            _refuse("field", f"must be a MagneticField, got {self.field!r}")
        if len(self.hard_iron_ut) != 3 or not all(math.isfinite(c) for c in self.hard_iron_ut):
            _refuse("hard_iron_ut", "must be three finite components")
        for name in ("noise_sigma_mag_ut", "noise_sigma_accel_ms2"):
            sigma = getattr(self, name)
            if not (math.isfinite(sigma) and sigma >= 0.0):
                _refuse(name, "must be finite and nonnegative")
        try:
            seed = operator.index(self.rng_seed)
        except TypeError:
            seed = None
        if seed is None or isinstance(self.rng_seed, bool) or not 0 <= seed < 2**64:
            _refuse("rng_seed", f"must be an integer that fits in 64 bits, got {self.rng_seed!r}")

    @property
    def n_samples(self) -> int:
        """Trace length: duration_ms * sample_rate_hz / 1000, rounded."""
        return round(self.duration_ms * self.sample_rate_hz / 1000.0)


def _sample_knots(knots: Knots, t: np.ndarray, circular: bool) -> np.ndarray:
    ts = np.array([k[0] for k in knots])
    vs = np.array([k[1] for k in knots])
    if circular:
        # Unwrap knot values along the shortest arc, interpolate, re-wrap.
        if np.abs(vs).max() >= _UNWRAP_LIMIT_DEG:  # a cumulative sum this large would lose the steps
            vs = vs % 360.0
        steps = (np.diff(vs) + 180.0) % 360.0 - 180.0
        vs = np.concatenate([[vs[0]], vs[0] + np.cumsum(steps)])
        return np.interp(t, ts, vs) % 360.0
    return np.interp(t, ts, vs)


@np.errstate(over="ignore", invalid="ignore")  # an overflowed reading is refused below
def simulate(scenario: Scenario) -> TraceFile:
    """The scenario's sensor trace and its exact truth records, one per
    sample, as a TraceFile of column-backed record views.

    Noiseless output satisfies the same rotation algebra the pipeline's
    tilt compensation inverts, so together they round-trip exactly.
    Raises ScenarioError when a sensor reading overflows (a huge field,
    hard iron, noise sigma or pitch/roll knot).
    """
    n = scenario.n_samples
    t = np.arange(n) * (1000.0 / scenario.sample_rate_hz)

    yaw = np.radians(_sample_knots(scenario.heading_deg, t, circular=True))
    pitch = np.radians(_sample_knots(scenario.pitch_deg, t, circular=False))
    roll = np.radians(_sample_knots(scenario.roll_deg, t, circular=False))

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
    if not (np.isfinite(accel).all() and np.isfinite(mag).all()):
        raise ScenarioError("sensor readings overflow: the field, hard iron, noise or pitch/roll is too large")

    truth = np.column_stack((t, np.degrees(yaw) % 360.0, np.degrees(pitch), np.degrees(roll)))
    return TraceFile(RecordView(SAMPLE, np.column_stack((t, accel, mag))), RecordView(TRUTH, truth))


def generate(scenario: Scenario) -> tuple[list[SensorSample], list[TruthRecord]]:
    """The records of `simulate(scenario)`, as two lists."""
    trace = simulate(scenario)
    return list(trace.samples), list(trace.truth)


def _floats(key: str, line: int, tokens: list[str], count: int) -> list[float]:
    if len(tokens) != count:
        raise ScenarioError(f"{key}: expected {count} value(s), got {len(tokens)}", line)
    return finite_floats(tokens, line, key, ScenarioError)


def _number(key: str, line: int, tokens: list[str]) -> float:
    return _floats(key, line, tokens, 1)[0]


def _vector(key: str, line: int, tokens: list[str]) -> tuple[float, float, float]:
    return tuple(_floats(key, line, tokens, 3))


def _knots(key: str, line: int, tokens: list[str]) -> Knots:
    if len(tokens) == 1 and ":" not in tokens[0]:
        return ((0.0, _number(key, line, tokens)),)
    pairs = [tok.partition(":") for tok in tokens]
    if not pairs or not all(sep for _, sep, _ in pairs):
        raise ScenarioError(f"{key}: expected a single constant or t_ms:value knots", line)
    parts = [part for t, _, v in pairs for part in (t, v)]
    values = finite_floats(parts, line, f"{key} knots", ScenarioError)
    return tuple(zip(values[::2], values[1::2]))


def _seed(key: str, line: int, tokens: list[str]) -> int:
    if len(tokens) != 1 or not tokens[0].removeprefix("-").isdecimal():
        raise ScenarioError(f"{key}: expected an integer", line)
    return int(tokens[0])


# Every scenario file key and the reader of its value.
_READERS = {
    "duration_ms": _number, "sample_rate_hz": _number,
    "heading_deg": _knots, "pitch_deg": _knots, "roll_deg": _knots,
    "field_horizontal_ut": _number, "field_inclination_deg": _number, "field_declination_deg": _number,
    "hard_iron_ut": _vector, "noise_sigma_mag_ut": _number, "noise_sigma_accel_ms2": _number,
    "rng_seed": _seed,
}
_REQUIRED_FIELDS = ("duration_ms", "sample_rate_hz", "heading_deg", "field_horizontal_ut")


def parse_scenario(text: str) -> Scenario:
    """Parse the flat key/value scenario format into a Scenario.

    Errors in a field's line, and values the Scenario itself refuses, name
    that line; a missing required field names the field only.
    """
    _, body = read_lines(text, SCENARIO_HEADER, ScenarioError)
    fields: dict[str, tuple[int, list[str]]] = {}
    for lineno, (key, *tokens) in body:
        if key not in _READERS:
            raise ScenarioError(f"{key}: unknown field", lineno)
        if key in fields:
            raise ScenarioError(f"{key}: duplicate field", lineno)
        fields[key] = (lineno, tokens)
    for required in _REQUIRED_FIELDS:
        if required not in fields:
            raise ScenarioError(f"{required}: required field missing")
    values = {key: _READERS[key](key, line, tokens) for key, (line, tokens) in fields.items()}
    field = {key.removeprefix("field_"): values.pop(key) for key in list(values) if key.startswith("field_")}
    try:
        return Scenario(field=MagneticField(**field), **values)
    except ScenarioError as exc:
        raise ScenarioError(str(exc), fields[exc.key][0], exc.key) from None


def load_scenario(path: str) -> Scenario:
    """Read and parse a scenario file from disk."""
    return parse_scenario(read_text(path))
