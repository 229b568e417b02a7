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
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .declination import DeclinationDeg, to_true_heading
from .errors import DegenerateSweep, DynamicSample, InsufficientData
from .geodesy import AzimuthDeg, GeoCoordinate, circular_diff, qibla_azimuth
from .records import SensorSample

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


def guidance(deviation_deg: float, threshold_deg: float = DEFAULT_GUIDANCE_THRESHOLD_DEG) -> Guidance:
    """Classify a signed deviation against an alignment threshold."""
    if not (math.isfinite(threshold_deg) and threshold_deg > 0.0):
        raise ValueError(f"threshold_deg must be finite and positive, got {threshold_deg!r}")
    if deviation_deg > threshold_deg:
        return Guidance.TURN_RIGHT
    if deviation_deg < -threshold_deg:
        return Guidance.TURN_LEFT
    return Guidance.ALIGNED


def _heading_from(sample: SensorSample, hard_iron: tuple[float, float, float]) -> AzimuthDeg:
    ax, ay, az = sample.accel
    pitch = math.atan2(ax, math.hypot(ay, az))
    roll = math.atan2(-ay, -az)
    mx = sample.mag[0] - hard_iron[0]
    my = sample.mag[1] - hard_iron[1]
    mz = sample.mag[2] - hard_iron[2]
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    xh = mx * cp + my * sr * sp + mz * cr * sp
    yh = my * cr - mz * sr
    return AzimuthDeg(math.degrees(math.atan2(-yh, xh)))


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
    return _heading_from(sample, cal.hard_iron)


def _heading_coverage_deg(headings: list[AzimuthDeg]) -> float:
    """Swept arc of one or more observed headings: 360 minus the largest
    gap between them."""
    hs = sorted(headings)
    max_gap = hs[0] + 360.0 - hs[-1]
    for a, b in zip(hs, hs[1:]):
        max_gap = max(max_gap, b - a)
    return 360.0 - max_gap


def calibrate(samples: Sequence[SensorSample]) -> CalibrationState:
    """Estimate the hard-iron offset from a rotation sweep.

    Least-squares sphere fit of the magnetometer point cloud (linear solve
    for the center): with p the mag samples and q = p - mean(p), solve
    [2q | 1] x ~= |q|^2 via its normal equations; the center is x[:3] plus
    the mean. Samples whose accelerometer is out of the static band are
    skipped. The state converges once at least 200 usable samples span at
    least 180 degrees of heading.

    Raises InsufficientData below 10 usable samples, and DegenerateSweep
    when the normal equations' condition number exceeds 1e12 (the cloud is
    flat or worse, so the center is unobservable).
    """
    import numpy as np  # here, so commands that never calibrate start without numpy

    usable = [s for s in samples if s.usable_for_tilt]
    if len(usable) < 10:
        raise InsufficientData(f"{len(usable)} usable samples, need at least 10")

    pts = np.array([s.mag for s in usable], dtype=float)
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

    headings = [_heading_from(s, hard_iron) for s in usable]
    return CalibrationState(hard_iron, len(usable), _heading_coverage_deg(headings))


def _filtered_heading(state: FilterState) -> AzimuthDeg:
    return AzimuthDeg(math.degrees(math.atan2(state.s, state.c)))


def filter_heading(state: FilterState, new_heading: AzimuthDeg) -> tuple[FilterState, AzimuthDeg]:
    """Circular exponential moving average on the unit-vector embedding.

    (c, s) <- normalize((1 - alpha)*(c, s) + alpha*(cos h, sin h)); the
    returned heading is the angle of (c, s). The first heading initializes
    the state and passes through unchanged, as does every heading when
    alpha == 1.
    """
    h = AzimuthDeg(new_heading)
    hr = math.radians(h)
    if state.c is None or state.alpha == 1.0:
        return FilterState(state.alpha, math.cos(hr), math.sin(hr)), h
    c = (1.0 - state.alpha) * state.c + state.alpha * math.cos(hr)
    s = (1.0 - state.alpha) * state.s + state.alpha * math.sin(hr)
    norm = math.hypot(c, s)
    if norm == 0.0:  # exactly antipodal update at alpha = 0.5; restart at input
        c, s = math.cos(hr), math.sin(hr)
    else:
        c, s = c / norm, s / norm
    state = FilterState(state.alpha, c, s)
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
        magnetic = _heading_from(sample, cal.hard_iron)
        filt, filtered = filter_heading(filt, magnetic)
    true_heading = to_true_heading(filtered, decl)
    deviation = circular_diff(qibla, true_heading)
    return filt, QiblaPointerState(
        magnetic_heading=magnetic,
        true_heading=true_heading,
        qibla=qibla,
        deviation_deg=deviation,
        guidance=guidance(deviation, threshold_deg),
        calibrated=cal.converged,
        dynamic=dynamic,
    )


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


def run_trace(
    samples: Sequence[SensorSample],
    user: GeoCoordinate,
    cal: CalibrationState,
    decl: DeclinationDeg = DeclinationDeg(0.0),
    *,
    alpha: float = DEFAULT_ALPHA,
    threshold_deg: float = DEFAULT_GUIDANCE_THRESHOLD_DEG,
) -> list[tuple[float, QiblaPointerState]]:
    """Process every sample in order, threading the filter state through.

    Returns (t_ms, state) pairs, the same ones `process` gives sample by
    sample. The qibla bearing is computed once, so a user at the Kaaba or
    its antipode raises even for an empty trace. Dynamic samples before the
    first usable one produce no output (there is no heading to carry
    forward yet).
    """
    filt = FilterState(alpha=alpha)
    qibla = qibla_azimuth(user)
    out: list[tuple[float, QiblaPointerState]] = []
    for sample in samples:
        if filt.c is None and not sample.usable_for_tilt:
            continue
        filt, state = _step(sample, qibla, cal, filt, decl, threshold_deg)
        out.append((sample.t_ms, state))
    return out
