"""Compass core: hard-iron calibration, tilt compensation, heading filter,
and the per-sample qibla pointer.

Frame and sign conventions (pinned by the simulator's oracle tests):

* Body frame: X forward (out the top of the device), Y right, Z down.
* Level frame: north, east, down. Heading is the bearing of the body X
  axis, clockwise from north.
* Attitude is applied as yaw psi (about Z), then pitch theta (about Y),
  then roll phi (about X); body-to-level is R = Rz(psi) @ Ry(theta) @ Rx(phi).
* The accelerometer reports specific force, (0, 0, -g) at rest when level.
  A static sample therefore reads
      accel = g * (sin(theta), -cos(theta)*sin(phi), -cos(theta)*cos(phi))
  which inverts to
      pitch = atan2(ax, hypot(ay, az)),   roll = atan2(-ay, -az).
* The magnetometer, after hard-iron subtraction, is leveled with
  Ry(theta) @ Rx(phi):
      xh = mx*cos(theta) + my*sin(phi)*sin(theta) + mz*cos(phi)*sin(theta)
      yh = my*cos(phi) - mz*sin(phi)
  and the magnetic heading is atan2(-yh, xh), normalized to [0, 360).

Calibration and filter states are plain immutable values threaded through
calls; there are no hidden globals, so distinct pipelines can run on
distinct threads freely.

One sample and a whole trace share the levelling and EMA arithmetic,
written once in functions that take floats or float64 columns: `process`
runs it on one sample's floats, while `calibrate` and `run_trace` run it on
a trace's columns (see `records`). `run_trace` returns a read-only sequence
over its result rows (the `ENTRY` layout) that builds each
(t_ms, QiblaPointerState) on demand. Only the circular EMA is a
recurrence, so `run_trace` keeps one scalar loop, for it alone.

Which library does what, so that a column gets exactly the bits one sample
gets: every transcendental function (atan2, hypot, sin, cos, and the
degree/radian scalings) is `math`'s, the C library's, applied element by
element to a column. Apart from the sphere fit in `calibrate`, numpy does
only + - * / %, comparisons and selection, which IEEE 754 rounds the same
everywhere. numpy's own `arctan2` and `hypot` run SIMD kernels that differ
from libm in the last bit on some inputs and CPUs, and the goldens pin
those bits.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace

from .declination import DeclinationDeg, to_true_heading
from .errors import DegenerateSweep, DynamicSample, InsufficientData
from .geodesy import AzimuthDeg, GeoCoordinate, circular_diff, qibla_azimuth, wrap_azimuth, wrap_signed
from .records import SAMPLE, Layout, RecordView, SensorSample, in_static_band

# Convergence thresholds for a calibration sweep.
MIN_CALIBRATION_SAMPLES = 200
MIN_COVERAGE_DEG = 180.0

# Normal-equation condition number beyond which the point cloud does not
# determine a sphere center (e.g. a constant-attitude yaw sweep, whose
# points lie on a plane circle).
MAX_FIT_CONDITION = 1e12

DEFAULT_ALPHA = 0.15
DEFAULT_GUIDANCE_THRESHOLD_DEG = 2.0


@dataclass(frozen=True)
class CalibrationState:
    """Estimated hard-iron offset plus how much sweep supported it;
    `CalibrationState()` is the uncalibrated state."""

    hard_iron: tuple[float, float, float] = (0.0, 0.0, 0.0)
    samples_used: int = 0
    coverage_deg: float = 0.0

    @property
    def converged(self) -> bool:
        """At least 200 usable samples spanning at least 180 degrees."""
        return self.samples_used >= MIN_CALIBRATION_SAMPLES and self.coverage_deg >= MIN_COVERAGE_DEG


@dataclass(frozen=True)
class FilterState:
    """Circular EMA state: a unit vector (c, s) accumulating the heading.

    c/s are both None until the first heading initializes them. alpha is
    fixed per pipeline instance.
    """

    alpha: float = DEFAULT_ALPHA
    c: float | None = None
    s: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha!r}")
        if (self.c is None) != (self.s is None):
            raise ValueError(f"c and s must be set together, got c={self.c!r}, s={self.s!r}")


class Guidance(str, Enum):
    ALIGNED = "aligned"
    TURN_LEFT = "turn_left"
    TURN_RIGHT = "turn_right"


@dataclass(frozen=True)
class QiblaPointerState:
    """Per-sample pipeline output.

    deviation_deg is circular_diff(qibla, true_heading): positive means the
    qibla lies clockwise of where the device points. dynamic flags samples
    whose accelerometer was out of band, for which the previous filtered
    heading was carried forward.
    """

    magnetic_heading: AzimuthDeg
    true_heading: AzimuthDeg
    qibla: AzimuthDeg
    deviation_deg: float
    guidance: Guidance
    calibrated: bool
    dynamic: bool = False


_GUIDANCES = tuple(Guidance)  # definition order: aligned, turn_left, turn_right


def _guidance_code(deviation_deg, threshold_deg):
    """Index into Guidance's members of a deviation, a float or an array of them."""
    return (deviation_deg > threshold_deg) * 2 + (deviation_deg < -threshold_deg)


def guidance(deviation_deg: float, threshold_deg: float = DEFAULT_GUIDANCE_THRESHOLD_DEG) -> Guidance:
    """Classify a signed deviation against an alignment threshold."""
    if not (math.isfinite(threshold_deg) and threshold_deg > 0.0):
        raise ValueError(f"threshold_deg must be finite and positive, got {threshold_deg!r}")
    return _GUIDANCES[_guidance_code(deviation_deg, threshold_deg)]


def _columns_math():
    """`math`'s functions applied element by element to float64 columns."""
    import numpy as np

    def each(f):
        return lambda *cols: np.fromiter(map(f, *(c.tolist() for c in cols)), float, len(cols[0]))

    return SimpleNamespace(**{name: each(getattr(math, name))
                              for name in ("atan2", "hypot", "cos", "sin", "degrees", "radians")})


def _level_heading(accel, mag, hard_iron, m=math):
    """Magnetic heading in degrees, not yet wrapped, from accel = (ax, ay, az)
    and mag = (mx, my, mz), floats or columns; `m` supplies the functions."""
    ax, ay, az = accel
    pitch = m.atan2(ax, m.hypot(ay, az))
    roll = m.atan2(-ay, -az)
    mx = mag[0] - hard_iron[0]
    my = mag[1] - hard_iron[1]
    mz = mag[2] - hard_iron[2]
    cp, sp = m.cos(pitch), m.sin(pitch)
    cr, sr = m.cos(roll), m.sin(roll)
    xh = mx * cp + my * sr * sp + mz * cr * sp
    yh = my * cr - mz * sr
    return m.degrees(m.atan2(-yh, xh))


def _unit(heading, m=math):
    """The filter's embedding (cos h, sin h) of a heading or a column of them."""
    hr = m.radians(heading)
    return m.cos(hr), m.sin(hr)


def _angle(c, s, m=math):
    """The heading, not yet wrapped, of a filter vector or columns of them."""
    return m.degrees(m.atan2(s, c))


def _ema(c: float, s: float, uc: float, us: float, alpha: float) -> tuple[float, float]:
    """One EMA update of the filter vector (c, s) toward the unit (uc, us)."""
    c = (1.0 - alpha) * c + alpha * uc
    s = (1.0 - alpha) * s + alpha * us
    norm = math.hypot(c, s)
    if norm == 0.0:  # exactly antipodal update at alpha = 0.5; restart at input
        return uc, us
    return c / norm, s / norm


def _require_static(sample: SensorSample) -> None:
    if not sample.usable_for_tilt:
        raise DynamicSample(
            f"accel magnitude {math.hypot(*sample.accel):.3f} m/s^2 outside static band"
        )


def tilt_compensated_heading(sample: SensorSample, cal: CalibrationState) -> AzimuthDeg:
    """Magnetic heading from one sample, leveled using the accelerometer.

    Subtracts cal.hard_iron from the magnetometer, derives pitch/roll from
    the gravity estimate, rotates the field into the level frame, and takes
    the horizontal angle (see the module docstring for the exact algebra).
    Raises DynamicSample when the accelerometer magnitude is out of band.
    """
    _require_static(sample)
    return AzimuthDeg(_level_heading(sample.accel, sample.mag, cal.hard_iron))


def calibrate(samples: Sequence[SensorSample]) -> CalibrationState:
    """Estimate the hard-iron offset from a rotation sweep.

    Least-squares sphere fit of the magnetometer point cloud (linear solve
    for the center): with p the mag samples and q = p - mean(p), solve
    [2q | 1] x ~= |q|^2 via its normal equations; the center is x[:3] plus
    the mean. Samples whose accelerometer is out of the static band are
    skipped. The state converges once at least 200 usable samples span at
    least 180 degrees of heading: 360 minus the largest gap between the
    usable samples' headings.

    Raises InsufficientData below 10 usable samples, and DegenerateSweep
    when the normal equations' condition number exceeds 1e12 (the cloud is
    flat or worse, so the center is unobservable).
    """
    import numpy as np  # here, so commands that never calibrate start without numpy

    m = _columns_math()
    rows = SAMPLE.rows_of(samples)
    usable = rows[in_static_band(m.hypot(*rows[:, 1:4].T))]
    if len(usable) < 10:
        raise InsufficientData(f"{len(usable)} usable samples, need at least 10")

    pts = np.ascontiguousarray(usable[:, 4:7])
    mean = pts.mean(axis=0)
    q = pts - mean
    a = np.hstack([2.0 * q, np.ones((len(q), 1))])
    b = (q * q).sum(axis=1)
    ata = a.T @ a
    cond = np.linalg.cond(ata)
    if not np.isfinite(cond) or cond > MAX_FIT_CONDITION:
        raise DegenerateSweep(f"normal equations condition {cond:.3e} exceeds {MAX_FIT_CONDITION:.0e}")
    x = np.linalg.solve(ata, a.T @ b)
    center = x[:3] + mean
    hard_iron = (float(center[0]), float(center[1]), float(center[2]))

    headings = np.sort(wrap_azimuth(_level_heading(usable[:, 1:4].T, pts.T, hard_iron, m)))
    max_gap = max(headings[0] + 360.0 - headings[-1], np.diff(headings).max(initial=0.0))
    return CalibrationState(hard_iron, len(usable), float(360.0 - max_gap))


def _filtered_heading(state: FilterState) -> AzimuthDeg:
    return AzimuthDeg(_angle(state.c, state.s))


def filter_heading(state: FilterState, new_heading: AzimuthDeg) -> tuple[FilterState, AzimuthDeg]:
    """Circular exponential moving average on the unit-vector embedding.

    (c, s) <- normalize((1 - alpha)*(c, s) + alpha*(cos h, sin h)); the
    returned heading is the angle of (c, s). The first heading initializes
    the state and passes through unchanged, as does every heading when
    alpha == 1.
    """
    return _filter(state, AzimuthDeg(new_heading))


def _filter(state: FilterState, h: AzimuthDeg) -> tuple[FilterState, AzimuthDeg]:
    """filter_heading of a heading that already is an AzimuthDeg."""
    uc, us = _unit(h)
    if state.c is None or state.alpha == 1.0:
        return FilterState(state.alpha, uc, us), h
    state = FilterState(state.alpha, *_ema(state.c, state.s, uc, us, state.alpha))
    return state, _filtered_heading(state)


def _step(
    sample: SensorSample,
    qibla: AzimuthDeg,
    cal: CalibrationState,
    filt: FilterState,
    decl: DeclinationDeg,
    threshold_deg: float,
) -> tuple[FilterState, QiblaPointerState]:
    """One sample through the pointer. A dynamic sample carries the filtered
    heading forward, so the caller passes one only once `filt` holds a
    heading."""
    dynamic = not sample.usable_for_tilt
    if dynamic:
        magnetic = filtered = _filtered_heading(filt)
    else:
        magnetic = AzimuthDeg(_level_heading(sample.accel, sample.mag, cal.hard_iron))
        filt, filtered = _filter(filt, magnetic)
    true_heading = to_true_heading(filtered, decl)
    deviation = circular_diff(qibla, true_heading)
    return filt, QiblaPointerState(magnetic, true_heading, qibla, deviation, guidance(deviation, threshold_deg),
                                   cal.converged, dynamic)


def process(
    sample: SensorSample,
    user: GeoCoordinate,
    cal: CalibrationState,
    filt: FilterState,
    decl: DeclinationDeg = DeclinationDeg(0.0),
    *,
    threshold_deg: float = DEFAULT_GUIDANCE_THRESHOLD_DEG,
) -> tuple[FilterState, QiblaPointerState]:
    """Run one sample through the full pointer pipeline.

    Composes tilt_compensated_heading -> filter_heading -> to_true_heading
    -> qibla_azimuth -> circular_diff -> guidance. A dynamic sample leaves
    the filter untouched and re-emits the previous filtered heading with
    the dynamic flag set; if no heading has been filtered yet there is
    nothing to emit and DynamicSample propagates.
    """
    qibla = qibla_azimuth(user)
    if filt.c is None:
        _require_static(sample)
    return _step(sample, qibla, cal, filt, decl, threshold_deg)


def _entry_row(entry: tuple[float, QiblaPointerState]) -> tuple:
    t_ms, s = entry
    return (t_ms, s.magnetic_heading, s.true_heading, s.qibla, s.deviation_deg,
            _GUIDANCES.index(s.guidance), s.calibrated, s.dynamic)


def _entry(r: list[float]) -> tuple[float, QiblaPointerState]:
    return r[0], QiblaPointerState(AzimuthDeg(r[1]), AzimuthDeg(r[2]), AzimuthDeg(r[3]), r[4],
                                   _GUIDANCES[int(r[5])], r[6] == 1.0, r[7] == 1.0)


# A run_trace entry as a row: t_ms, magnetic, true and qibla headings,
# deviation, the index of its Guidance member, calibrated and dynamic (1.0 or 0.0).
ENTRY = Layout(8, _entry_row, _entry)


def run_trace(
    samples: Sequence[SensorSample],
    user: GeoCoordinate,
    cal: CalibrationState,
    decl: DeclinationDeg = DeclinationDeg(0.0),
    *,
    alpha: float = DEFAULT_ALPHA,
    threshold_deg: float = DEFAULT_GUIDANCE_THRESHOLD_DEG,
) -> RecordView:
    """Process every sample in order, threading the filter state through.

    Returns a read-only sequence of (t_ms, state) pairs, the same ones
    `process` gives sample by sample. The qibla bearing is computed once,
    so a user at the Kaaba or its antipode raises even for an empty trace;
    alpha and threshold_deg are checked once too. Dynamic samples before
    the first usable one produce no output (there is no heading to carry
    forward yet).
    """
    import numpy as np

    FilterState(alpha=alpha)
    guidance(0.0, threshold_deg)
    qibla = qibla_azimuth(user)
    m = _columns_math()
    rows = SAMPLE.rows_of(samples)
    usable = in_static_band(m.hypot(*rows[:, 1:4].T))
    first = usable.argmax() if usable.any() else len(usable)  # output starts at the first usable sample
    rows, usable = rows[first:], usable[first:]
    static = rows[usable]

    magnetic = wrap_azimuth(_level_heading(static[:, 1:4].T, static[:, 4:7].T, cal.hard_iron, m))
    cs, ss = (u.tolist() for u in _unit(magnetic, m))  # the filter vector after each static sample
    if alpha < 1.0:  # else every static sample sets the vector to its own unit
        for i in range(1, len(cs)):  # the one scalar loop: the EMA is a recurrence
            cs[i], ss[i] = _ema(cs[i - 1], ss[i - 1], cs[i], ss[i], alpha)
    vector = wrap_azimuth(_angle(np.array(cs), np.array(ss), m))  # the heading each vector holds
    # the first heading, and at alpha 1 every one, passes through the filter
    filtered = magnetic if alpha == 1.0 else np.concatenate((magnetic[:1], vector[1:]))

    # Row i's static sample is the last one at or before it; a dynamic row
    # re-emits the heading that sample's filter vector holds.
    last = np.cumsum(usable) - 1
    magnetic = np.where(usable, magnetic[last], vector[last])
    filtered = np.where(usable, filtered[last], vector[last])
    true_heading = wrap_azimuth(filtered + float(decl))
    deviation = wrap_signed(float(qibla) - true_heading)
    out = np.column_stack((rows[:, 0], magnetic, true_heading, np.full(len(rows), float(qibla)), deviation,
                           _guidance_code(deviation, threshold_deg), np.full(len(rows), cal.converged),
                           ~usable))
    return RecordView(ENTRY, out)
