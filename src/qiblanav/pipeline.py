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

Calibration and filter states are immutable values threaded through calls,
the pointer's two tunables are one checked `PointerSettings` value, and
each sample's output is a value too, a `columns.QiblaPointerState` built
from its `ENTRY` row: `geodesy._Frozen` values, as every value class of the
package is. The one module-level state is a bounded cache of qibla
bearings, keyed on the user's location, which gives the bits
`qibla_azimuth` gives and is safe to share, so distinct pipelines can run
on distinct threads freely.

One loop, `_run`, takes each sample through the pointer: the static-band
check, the levelling, the circular EMA (`_ema`, the one statement of its
update, restart and pass-through rules), the carry-forward of a dynamic
sample, declination, deviation and guidance, each written once. `process`
runs it on one sample and `run_block` on a block's rows (see `columns`);
`run_trace` is `run_block` on a whole trace, and returns a read-only
sequence over its result rows (the `ENTRY` layout of `columns`) that builds
each (t_ms, QiblaPointerState) on demand.

Every function of a sample is `math`'s, applied to floats, so one sample,
a block and a whole trace get the same bits. Nothing here loads numpy:
rows are held in `array('d')` buffers, and `calibrate` maps the same
functions over its columns' floats, sums the sphere fit's products with
`math.fsum`, exactly, and solves the fit on floats.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import chain, compress, repeat
from operator import add, mul, sub

from .columns import (ENTRY, SAMPLE, _GUIDANCES, Guidance, QiblaPointerState, RecordView, SensorSample, _entry,
                      _guidance_code, _setattr, all_finite, checked_deviation, float_array, in_static_band)
from .declination import DeclinationDeg, as_declination
from .errors import DegenerateSweep, DynamicSample, InsufficientData, InvalidAngle
from .geodesy import AzimuthDeg, GeoCoordinate, _Frozen, qibla_azimuth, wrap_azimuth, wrap_signed

# Convergence thresholds for a calibration sweep.
MIN_CALIBRATION_SAMPLES = 200
MIN_COVERAGE_DEG = 180.0

# Normal-equation condition number beyond which the point cloud does not
# determine a sphere center (e.g. a constant-attitude yaw sweep, whose
# points lie on a plane circle).
MAX_FIT_CONDITION = 1e12

# A stream computes the bearing once per place it is at, not per sample.
_qibla = lru_cache(maxsize=64)(qibla_azimuth)


class CalibrationState(_Frozen):
    """Estimated hard-iron offset plus how much sweep supported it;
    `CalibrationState()` is the uncalibrated state."""

    __slots__ = ("hard_iron", "samples_used", "coverage_deg")

    def __init__(self, hard_iron: tuple[float, float, float] = (0.0, 0.0, 0.0), samples_used: int = 0,
                 coverage_deg: float = 0.0) -> None:
        hard_iron = tuple(hard_iron)
        if len(hard_iron) != 3 or not all(map(math.isfinite, hard_iron)):
            raise ValueError(f"hard_iron must be three finite components, got {hard_iron!r}")
        if not (isinstance(samples_used, int) and not isinstance(samples_used, bool) and samples_used >= 0):
            raise ValueError(f"samples_used must be a nonnegative int, got {samples_used!r}")
        if not 0.0 <= coverage_deg <= 360.0:
            raise ValueError(f"coverage_deg must be finite and in [0, 360], got {coverage_deg!r}")
        self._set(hard_iron, samples_used, coverage_deg)

    @property
    def converged(self) -> bool:
        """At least 200 usable samples spanning at least 180 degrees."""
        return self.samples_used >= MIN_CALIBRATION_SAMPLES and self.coverage_deg >= MIN_COVERAGE_DEG


class PointerSettings(_Frozen):
    """The pointer's tunables, each checked here and nowhere else: the
    heading filter's smoothing factor alpha, in (0, 1], and the alignment
    threshold in degrees, finite and positive, within which a deviation is
    ALIGNED. Both bad, alpha is named."""

    __slots__ = ("alpha", "threshold_deg")

    def __init__(self, alpha: float = 0.15, threshold_deg: float = 2.0) -> None:
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
        if not (math.isfinite(threshold_deg) and threshold_deg > 0.0):
            raise ValueError(f"threshold_deg must be finite and positive, got {threshold_deg!r}")
        self._set(alpha, threshold_deg)


class FilterState(_Frozen):
    """Circular EMA state: a unit vector (c, s) accumulating the heading.

    c/s are both None until the first heading initializes them; they are
    never both zero, which would hold no heading, and their length is
    finite.
    """

    __slots__ = ("c", "s")

    def __init__(self, c: float | None = None, s: float | None = None) -> None:
        if (c is None) != (s is None):
            raise ValueError(f"c and s must be set together, got c={c!r}, s={s!r}")
        if c is not None and not 0.0 < math.hypot(c, s) < math.inf:
            if not (math.isfinite(c) and math.isfinite(s)):
                raise ValueError(f"c and s must be finite, got c={c!r}, s={s!r}")
            if c == s == 0.0:
                raise ValueError(f"c and s must not both be zero, got c={c!r}, s={s!r}")
            raise ValueError(f"c and s must have a finite length, got c={c!r}, s={s!r}")
        _setattr(self, "c", c)
        _setattr(self, "s", s)


def guidance(deviation_deg: float, *, settings: PointerSettings = PointerSettings()) -> Guidance:
    """Classify a signed deviation against the settings' alignment threshold.
    A deviation that is not finite or lies outside (-180, 180] raises
    InvalidAngle, as a `QiblaPointerState` does."""
    return _GUIDANCES[_guidance_code(checked_deviation(deviation_deg), settings.threshold_deg)]


def _level_heading(ax: float, ay: float, az: float, mx: float, my: float, mz: float,
                   hard_iron: tuple[float, float, float]) -> float:
    """Magnetic heading in degrees, not yet wrapped, from one sample's accel
    (ax, ay, az) and mag (mx, my, mz)."""
    pitch = math.atan2(ax, math.hypot(ay, az))
    roll = math.atan2(-ay, -az)
    mx -= hard_iron[0]
    my -= hard_iron[1]
    mz -= hard_iron[2]
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    xh = mx * cp + my * sr * sp + mz * cr * sp
    yh = my * cr - mz * sr
    return math.degrees(math.atan2(-yh, xh))


def _ema(c: float | None, s: float | None, alpha: float, h: float) -> tuple[float, float, float]:
    """The filter vector (c, s), None while the filter is empty, after the
    heading h, a wrapped float, and the heading it outputs for h: h itself
    when h passes through (into an empty filter, and always at alpha 1),
    else the angle of the new vector."""
    hr = math.radians(h)
    uc, us = math.cos(hr), math.sin(hr)
    if c is None or alpha == 1.0:
        return uc, us, h
    c = (1.0 - alpha) * c + alpha * uc
    s = (1.0 - alpha) * s + alpha * us
    norm = math.hypot(c, s)
    if norm == 0.0:  # exactly antipodal update at alpha = 0.5; restart at the unit
        c, s = uc, us
    else:
        c, s = c / norm, s / norm
    return c, s, wrap_azimuth(math.degrees(math.atan2(s, c)))


def _run(rows: Iterable[Sequence[float]], qibla: float, cal: CalibrationState, filt: FilterState,
         decl: DeclinationDeg | float, settings: PointerSettings) -> tuple[float | None, float | None, list[tuple]]:
    """Take sample rows (t_ms, ax, ay, az, mx, my, mz) of floats through the
    pointer, in order, from the filter state `filt`, with `settings`.

    Returns the filter vector (c, s) after them and one `ENTRY` row per
    sample that has output: a dynamic sample re-emits the heading the
    filter holds, and before it holds one has none. A `decl` that is not a
    DeclinationDeg is built as one, so one out of its range raises
    InvalidAngle naming the declination.
    """
    decl = float(as_declination(decl))
    alpha, threshold_deg, hard_iron, calibrated = settings.alpha, settings.threshold_deg, cal.hard_iron, cal.converged
    c, s = filt.c, filt.s
    out = []
    for t, ax, ay, az, mx, my, mz in rows:
        dynamic = not in_static_band(math.hypot(ax, ay, az))
        if not dynamic:
            magnetic = wrap_azimuth(_level_heading(ax, ay, az, mx, my, mz, hard_iron))
            c, s, filtered = _ema(c, s, alpha, magnetic)
        elif c is None:  # no heading to carry forward yet
            continue
        else:
            magnetic = filtered = wrap_azimuth(math.degrees(math.atan2(s, c)))
        true_heading = wrap_azimuth(filtered + decl)
        deviation = wrap_signed(qibla - true_heading)
        out.append((t, magnetic, true_heading, qibla, deviation, _guidance_code(deviation, threshold_deg),
                    calibrated, dynamic))
    return c, s, out


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
    return AzimuthDeg(_level_heading(*sample.accel, *sample.mag, cal.hard_iron))


def _solve(m: list[list[float]], v: list[float]) -> list[float]:
    """x with m x = v, for a symmetric positive definite m: Gaussian
    elimination on floats, without the pivoting such a matrix does not need."""
    a = [[*row, r] for row, r in zip(m, v)]
    size = len(a)
    for k in range(size):
        for i in range(k + 1, size):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    x = [0.0] * size
    for k in reversed(range(size)):
        r = a[k][size]
        for j in range(k + 1, size):  # not sum(): it rounds differently from Python 3.12 on
            r -= a[k][j] * x[j]
        x[k] = r / a[k][k]
    return x


def _condition(m: list[list[float]]) -> float:
    """The 2-norm condition number of a symmetric matrix, the ratio of its
    largest to its smallest eigenvalue magnitude, inf when one is zero. The
    eigenvalues come from cyclic Jacobi rotations on floats, swept until
    each off-diagonal entry is within 2**-53 of the geometric mean of its two
    diagonal entries, a rule under which even a small eigenvalue of a
    positive definite matrix keeps its relative accuracy (Demmel and
    Veselic, 1992)."""
    top = max(map(abs, chain.from_iterable(m)))
    if not top:
        return math.inf
    a = [[x / top for x in row] for row in m]  # so no rotation overflows
    size = len(a)
    for _ in range(64):  # a 4x4 takes a handful of sweeps
        done = True
        for p in range(size - 1):
            for q in range(p + 1, size):
                apq = a[p][q]
                if abs(apq) <= 2.0**-53 * math.sqrt(abs(a[p][p] * a[q][q])):
                    continue
                done = False
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                a[p][p] -= t * apq
                a[q][q] += t * apq
                a[p][q] = a[q][p] = 0.0
                for k in range(size):
                    if k != p and k != q:
                        akp, akq = a[k][p], a[k][q]
                        a[k][p] = a[p][k] = c * akp - s * akq
                        a[k][q] = a[q][k] = s * akp + c * akq
        if done:
            break
    eigen = [abs(a[k][k]) for k in range(size)]
    return max(eigen) / min(eigen) if min(eigen) else math.inf


def calibrate(samples: Sequence[SensorSample]) -> CalibrationState:
    """Estimate the hard-iron offset from a rotation sweep.

    Least-squares sphere fit of the magnetometer point cloud (linear solve
    for the center): with p the mag samples and q = p - mean(p), solve
    [2q | 1] x ~= |q|^2 via its normal equations; the center is x[:3] plus
    the mean. Each sum the fit takes is `math.fsum` over products of
    floats, so it is exactly rounded and does not depend on the samples'
    order: the mean is such a sum divided by n, and the normal equations
    have 13 distinct entries besides their corner, which is n. `_solve`
    solves them on floats. So the center is a function of the set of
    usable samples alone, with the same bits on every CPU. Samples whose
    accelerometer is out of the static band are skipped. The state
    converges once at least 200 usable samples span at least 180 degrees of
    heading: 360 minus the largest gap between the usable samples' headings.

    Raises InsufficientData below 10 usable samples, and DegenerateSweep
    when a sum overflows or the normal equations' condition number exceeds
    1e12 (the cloud is flat or worse, so the center is unobservable).
    `_condition` gives that number; it only gates the fit at 1e12 and
    reaches no output.
    """
    def total(x: Iterable[float]) -> float:  # the exactly rounded sum; inf if it overflows
        try:
            return math.fsum(x)
        except (OverflowError, ValueError):  # an overflowing sum, or inf - inf
            return math.inf

    rows, w = SAMPLE.rows_of(samples), SAMPLE.width
    static = list(map(in_static_band, map(math.hypot, rows[1::w], rows[2::w], rows[3::w])))
    ax, ay, az, *pts = (float_array(list(compress(rows[k::w], static))) for k in range(1, w))
    n = len(ax)
    if n < 10:
        raise InsufficientData(f"{n} usable samples, need at least 10")

    mean = [total(p) / n for p in pts]
    q = [float_array(list(map(sub, p, repeat(m)))) for p, m in zip(pts, mean)]
    b = float_array(list(map(add, map(add, map(mul, q[0], q[0]), map(mul, q[1], q[1])), map(mul, q[2], q[2]))))
    ata = [[float(n)] * 4 for _ in range(4)]  # the corner, ata[3][3], is the count
    for i in range(3):
        for j in range(i, 3):
            ata[i][j] = ata[j][i] = 4.0 * total(map(mul, q[i], q[j]))
        ata[i][3] = ata[3][i] = 2.0 * total(q[i])
    atb = [2.0 * total(map(mul, qi, b)) for qi in q] + [total(b)]
    if not all(map(math.isfinite, chain(*ata, atb))):
        raise DegenerateSweep("normal equations overflow")
    cond = _condition(ata)
    if cond > MAX_FIT_CONDITION:
        raise DegenerateSweep(f"normal equations condition {cond:.3e} exceeds {MAX_FIT_CONDITION:.0e}")
    x = _solve(ata, atb)
    hard_iron = (x[0] + mean[0], x[1] + mean[1], x[2] + mean[2])

    headings = sorted(map(wrap_azimuth, map(_level_heading, ax, ay, az, *pts, repeat(hard_iron))))
    max_gap = max(headings[0] + 360.0 - headings[-1], max(map(sub, headings[1:], headings), default=0.0))
    # Equal headings span nothing, though rounding can make their one gap exceed 360.
    return CalibrationState(hard_iron, n, max(360.0 - max_gap, 0.0))


def filter_heading(state: FilterState, new_heading: AzimuthDeg, *,
                   settings: PointerSettings = PointerSettings()) -> tuple[FilterState, AzimuthDeg]:
    """Circular exponential moving average on the unit-vector embedding.

    With alpha the settings' smoothing factor,
    (c, s) <- normalize((1 - alpha)*(c, s) + alpha*(cos h, sin h)); the
    returned heading is the angle of (c, s). The first heading initializes
    the state and passes through unchanged, as does every heading at
    alpha 1.
    """
    c, s, filtered = _ema(state.c, state.s, settings.alpha, AzimuthDeg(new_heading))
    return FilterState(c, s), AzimuthDeg(filtered)


def process(
    sample: SensorSample,
    user: GeoCoordinate,
    cal: CalibrationState,
    filt: FilterState,
    decl: DeclinationDeg = DeclinationDeg(0.0),
    *,
    settings: PointerSettings = PointerSettings(),
) -> tuple[FilterState, QiblaPointerState]:
    """Run one sample through the full pointer pipeline.

    Takes the sample through the steps of tilt_compensated_heading ->
    filter_heading -> to_true_heading -> qibla_azimuth -> circular_diff ->
    guidance, in the loop `run_block` runs. A dynamic sample leaves
    the filter untouched and re-emits the previous filtered heading with
    the dynamic flag set; if no heading has been filtered yet there is
    nothing to emit and DynamicSample propagates.
    """
    qibla = _qibla(user)
    c, s, out = _run((SAMPLE.row(sample),), float(qibla), cal, filt, decl, settings)
    if not out:
        _require_static(sample)  # raises: there is no heading to carry forward yet
    state = _entry(out[0])[1]  # first, so a heading that is not finite raises InvalidAngle, not FilterState's ValueError
    return FilterState(c, s), state


def run_block(
    samples: Sequence[SensorSample],
    user: GeoCoordinate,
    cal: CalibrationState,
    filt: FilterState,
    decl: DeclinationDeg = DeclinationDeg(0.0),
    *,
    settings: PointerSettings = PointerSettings(),
) -> tuple[FilterState, RecordView]:
    """Process a block of samples in order, from the filter state `filt`.

    Returns the filter state after the block and a read-only sequence of
    (t_ms, state) pairs, the same ones `process` gives sample by sample from
    `filt`. So a trace run block after block, each block from the state the
    block before it returned, gives what it gives run whole. While `filt`
    holds no heading, dynamic samples before the first usable one produce
    no output (there is no heading to carry forward yet). The qibla bearing
    is computed once, so a user at the Kaaba or its antipode raises even
    for an empty block; decl is checked once too. A
    heading that is not finite raises InvalidAngle, as it does in `process`.
    """
    rows = SAMPLE.tuples(SAMPLE.rows_of(samples).tolist())
    c, s, out = _run(rows, float(_qibla(user)), cal, filt, decl, settings)
    entries = float_array(list(chain.from_iterable(out)))
    if not all_finite(entries):  # a levelled heading is nan, as atan2 gives no infinity
        raise InvalidAngle("azimuth must be finite, got nan")
    return FilterState(c, s), RecordView(ENTRY, entries)


def run_trace(
    samples: Sequence[SensorSample],
    user: GeoCoordinate,
    cal: CalibrationState,
    decl: DeclinationDeg = DeclinationDeg(0.0),
    *,
    settings: PointerSettings = PointerSettings(),
) -> RecordView:
    """Process every sample in order, threading the filter state through:
    `run_block` on the whole trace, from the empty filter state.

    Returns a read-only sequence of (t_ms, state) pairs, the same ones
    `process` gives sample by sample. The qibla bearing is computed once,
    so a user at the Kaaba or its antipode raises even for an empty trace;
    decl is checked once too. Dynamic samples before
    the first usable one produce no output (there is no heading to carry
    forward yet).
    """
    return run_block(samples, user, cal, FilterState(), decl, settings=settings)[1]
