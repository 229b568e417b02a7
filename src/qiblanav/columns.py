"""The records of a trace and of the pipeline, and the columnar core that
holds a stream of them in bulk, as one flat float64 buffer of their rows,
one after another.

A `Layout` says how a kind of record lies in a row: a sample row (`SAMPLE`)
is t_ms, accel and mag (7 values), a truth row (`TRUTH`) is t_ms, true
heading, pitch and roll (4 values), and a pipeline entry row (`ENTRY`) is
t_ms, the three headings, deviation, guidance code and the two flags (8
values). Each layout lives here with the record it builds: `SensorSample`
(with `G` and the static band that says whether a sample can be levelled),
`TruthRecord` and `QiblaPointerState`; `TraceFile` holds a sample stream
and its truth. So a record's fields, checks and row order are stated in
one module, the pipeline that makes a `QiblaPointerState` and the report
that writes it need not import each other, and only this module encodes
and decodes an ENTRY row's guidance code and flags or states a deviation's
range. A batch stage reaches the rows only through `Layout.rows_of`, which
takes any sequence of records; a `RecordView` is such a sequence, a
read-only one that builds each record on demand from its row. The buffer
is the standard library's, an `array('d')` or a memoryview, so no stage
needs numpy: only `simulate` makes one over a numpy array. A caller that
wants the rows as an array makes one itself:
`np.frombuffer(view.values).reshape(-1, view.layout.width)`.

This module imports only `errors` and `geodesy`, not the text reader of
`records`, so the one-sample pointer loads no file code. The query
commands never import it.
"""

from __future__ import annotations

import math
import operator
import struct
from array import array
from collections.abc import Callable, Iterable, Iterator, MutableSequence, Sequence
from enum import Enum
from itertools import chain
from typing import Any

from .errors import InvalidAngle
from .geodesy import AzimuthDeg, _Frozen


def float_array(values: list[float]) -> array:
    """`values` in a new array('d'), converted by `struct`, which takes fewer
    steps a value than `array` itself. A value that is not a number raises
    what `array` raises for it, a TypeError."""
    try:
        return array("d", struct.pack(f"{len(values)}d", *values))
    except struct.error:
        return array("d", values)  # refuses the value struct refused, with its own error


def all_finite(values: Sequence[float]) -> bool:
    """Whether every value is finite. A sum is finite only if each value is;
    one that is not may have overflowed, so then each value is checked."""
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


class Layout:
    """How one kind of record lies in a row of `width` floats: `row` gives a
    record's floats, `record` builds the record back from them."""

    __slots__ = ("width", "row", "record")

    def __init__(self, width: int, row: Callable[[Any], Sequence[float]], record: Callable[[Sequence[float]], Any]):
        self.width, self.row, self.record = width, row, record

    def rows_of(self, records: Sequence) -> Any:
        """The records' rows, one after another, as a flat float64 buffer. A
        `RecordView` of this layout gives its own, read-only; any other
        sequence is read record by record into a new `array('d')`."""
        if isinstance(records, RecordView) and records.layout is self:
            return records.values
        return float_array(list(chain.from_iterable(map(self.row, records))))

    def tuples(self, values: Iterable[float]) -> Iterator[tuple[float, ...]]:
        """The rows of a flat sequence of floats, a tuple each."""
        return zip(*[iter(values)] * self.width)


class RecordView(Sequence):
    """A read-only sequence of records over a flat float64 buffer of their
    rows, `values`, such as an `array('d')` or a C-contiguous numpy array,
    which it reads through a read-only memoryview, without a copy.

    An integer index builds that row's record; a slice gives the view of
    the rows it selects. Equal to any sequence of equal records, a tuple or
    a list included.
    """

    __slots__ = ("layout", "values")

    def __init__(self, layout: Layout, values: Any):
        view = memoryview(values)
        if view.format != "d" or view.nbytes % (8 * layout.width):
            raise ValueError(f"need float64 rows of {layout.width} values, got {view.nbytes} bytes of {view.format!r}")
        self.layout = layout
        self.values = view.cast("B").cast("d").toreadonly()

    def __len__(self) -> int:
        return len(self.values) // self.layout.width

    def __getitem__(self, index):
        w, picked = self.layout.width, range(len(self))[index]
        if isinstance(picked, int):
            return self.layout.record(self.values[picked * w : picked * w + w].tolist())
        if picked.step == 1:
            return RecordView(self.layout, self.values[picked.start * w : picked.stop * w])
        return RecordView(self.layout, float_array([x for i in picked for x in self.values[i * w : i * w + w]]))

    def __iter__(self) -> Iterator:
        return map(self.layout.record, self.layout.tuples(self.values.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"RecordView({list(self)!r})"


G = 9.81  # m/s^2

# Accelerometer magnitude band for a sample to be usable for tilt.
STATIC_ACCEL_BAND = (0.5 * G, 1.5 * G)

# A view builds a SensorSample, a TruthRecord or a pipeline entry per row,
# and `pipeline.process` a FilterState and an entry per sample, each
# through its checking `__init__`, so these set their fields with a call
# each rather than through the loop in `_set`.
_setattr = object.__setattr__


class SensorSample(_Frozen):
    """One timestamped accelerometer + magnetometer reading, body frame.

    accel is specific force in m/s^2, mag is microtesla, each held as a
    tuple. All components must be finite; timestamps within a trace are
    monotone nondecreasing (enforced by the trace reader/writer, not here).
    """

    __slots__ = ("t_ms", "accel", "mag")

    def __init__(self, t_ms: float, accel: tuple[float, float, float], mag: tuple[float, float, float]) -> None:
        accel, mag = tuple(accel), tuple(mag)
        if not math.isfinite(t_ms):
            raise ValueError(f"t_ms must be finite, got {t_ms!r}")
        for name, vec in (("accel", accel), ("mag", mag)):
            if len(vec) != 3 or not all(map(math.isfinite, vec)):
                raise ValueError(f"{name} must be three finite components, got {vec!r}")
        _setattr(self, "t_ms", t_ms)
        _setattr(self, "accel", accel)
        _setattr(self, "mag", mag)

    @property
    def usable_for_tilt(self) -> bool:
        """True when the accelerometer magnitude is inside the static band."""
        return in_static_band(math.hypot(*self.accel))


def in_static_band(norm: float) -> bool:
    """Whether an accelerometer magnitude lies inside the static band."""
    lo, hi = STATIC_ACCEL_BAND
    return (lo < norm) & (norm < hi)


class TruthRecord(_Frozen):
    """Exact per-sample attitude truth, all fields finite."""

    __slots__ = ("t_ms", "true_heading_deg", "pitch_deg", "roll_deg")

    def __init__(self, t_ms: float, true_heading_deg: float, pitch_deg: float, roll_deg: float) -> None:
        # Set before the check, which reads only the arguments: a refusal prints the record.
        _setattr(self, "t_ms", t_ms)
        _setattr(self, "true_heading_deg", true_heading_deg)
        _setattr(self, "pitch_deg", pitch_deg)
        _setattr(self, "roll_deg", roll_deg)
        if not all(map(math.isfinite, (t_ms, true_heading_deg, pitch_deg, roll_deg))):
            raise ValueError(f"truth record fields must be finite, got {self!r}")


class TraceFile(_Frozen):
    """Ordered sensor samples with a paired truth stream, empty when the
    trace has none. `read_trace` and `simulate` give `RecordView`s.

    A stream given as a tuple or another read-only sequence, such as a
    view, is held as given (a view's tuple would build every record); one
    given as a list or any other iterable is held as its tuple."""

    __slots__ = ("samples", "truth")

    def __init__(self, samples: Iterable[SensorSample], truth: Iterable[TruthRecord] = ()) -> None:
        self._set(*(records if isinstance(records, Sequence) and not isinstance(records, MutableSequence)
                    else tuple(records) for records in (samples, truth)))


SAMPLE = Layout(7, lambda s: (s.t_ms, *s.accel, *s.mag),
                lambda r: SensorSample(r[0], (r[1], r[2], r[3]), (r[4], r[5], r[6])))
TRUTH = Layout(4, TruthRecord._values, lambda r: TruthRecord(*r))


class Guidance(str, Enum):
    ALIGNED = "aligned"
    TURN_LEFT = "turn_left"
    TURN_RIGHT = "turn_right"


def checked_deviation(deviation_deg: float) -> float:
    """A deviation as given, once it is finite and lies in (-180, 180]: the
    one statement of that rule, which a state and `pipeline.guidance` both
    apply. A deviation that breaks it raises InvalidAngle saying how."""
    if not math.isfinite(deviation_deg):
        raise InvalidAngle(f"deviation must be finite, got {deviation_deg!r}")
    if not -180.0 < deviation_deg <= 180.0:
        raise InvalidAngle(f"deviation must lie in (-180, 180], got {deviation_deg!r}")
    return deviation_deg


class QiblaPointerState(_Frozen):
    """Per-sample pipeline output.

    deviation_deg is circular_diff(qibla, true_heading): positive means the
    qibla lies clockwise of where the device points. dynamic flags samples
    whose accelerometer was out of band, for which the previous filtered
    heading was carried forward.

    The three headings are built as AzimuthDeg, so one that is not finite
    raises InvalidAngle and one outside [0, 360) is wrapped. A deviation
    that is not finite or lies outside (-180, 180] raises InvalidAngle, and
    one inside is kept as given. A guidance that is not a Guidance member,
    such as the string "aligned", and a calibrated or dynamic flag that is
    not a bool raise ValueError.
    """

    __slots__ = ("magnetic_heading", "true_heading", "qibla", "deviation_deg", "guidance", "calibrated", "dynamic")

    def __init__(self, magnetic_heading: float, true_heading: float, qibla: float,
                 deviation_deg: float, guidance: Guidance, calibrated: bool, dynamic: bool = False) -> None:
        _setattr(self, "magnetic_heading", AzimuthDeg(magnetic_heading))
        _setattr(self, "true_heading", AzimuthDeg(true_heading))
        _setattr(self, "qibla", AzimuthDeg(qibla))
        _setattr(self, "deviation_deg", checked_deviation(deviation_deg))
        if not isinstance(guidance, Guidance):
            raise ValueError(f"guidance must be a Guidance member, got {guidance!r}")
        if not (isinstance(calibrated, bool) and isinstance(dynamic, bool)):
            raise ValueError(f"calibrated and dynamic must be bools, got {calibrated!r} and {dynamic!r}")
        _setattr(self, "guidance", guidance)
        _setattr(self, "calibrated", calibrated)
        _setattr(self, "dynamic", dynamic)


_GUIDANCES = tuple(Guidance)  # definition order: aligned, turn_left, turn_right


def _guidance_code(deviation_deg: float, threshold_deg: float) -> int:
    """The index into _GUIDANCES of a deviation against a threshold: the
    encoding of an ENTRY row's guidance, which `guidance_and_flags` decodes."""
    return (deviation_deg > threshold_deg) * 2 + (deviation_deg < -threshold_deg)


def _entry_row(entry: tuple[float, QiblaPointerState]) -> tuple:
    t_ms, s = entry
    return (t_ms, s.magnetic_heading, s.true_heading, s.qibla, s.deviation_deg,
            _GUIDANCES.index(s.guidance), s.calibrated, s.dynamic)


def guidance_and_flags(code: float, calibrated: float, dynamic: float) -> tuple[Guidance, bool, bool]:
    """An ENTRY row's guidance code and flags as (Guidance, calibrated,
    dynamic), the one decoding of them: a code other than 0, 1 or 2 and a
    flag other than 0.0 or 1.0 raise ValueError."""
    if code not in (0, 1, 2):
        raise ValueError(f"guidance code must be 0, 1 or 2, got {code!r}")
    if calibrated not in (0, 1) or dynamic not in (0, 1):
        raise ValueError(f"calibrated and dynamic flags must be 0.0 or 1.0, got {calibrated!r} and {dynamic!r}")
    return _GUIDANCES[int(code)], calibrated == 1, dynamic == 1


def _entry(r: Sequence[float]) -> tuple[float, QiblaPointerState]:
    """An ENTRY row as (t_ms, state), the one way the package builds a
    state: a time that is not finite raises ValueError, as a sample's does,
    its guidance code and flags are decoded by `guidance_and_flags`, and the
    state checks the rest."""
    if not math.isfinite(r[0]):
        raise ValueError(f"t_ms must be finite, got {r[0]!r}")
    return r[0], QiblaPointerState(r[1], r[2], r[3], r[4], *guidance_and_flags(r[5], r[6], r[7]))


# A pipeline entry as a row: t_ms, magnetic, true and qibla headings,
# deviation, the index of its Guidance member, calibrated and dynamic (1.0 or 0.0).
ENTRY = Layout(8, _entry_row, _entry)


def entries_in_range(rows: Sequence[float]) -> bool:
    """Whether every row of a flat buffer of finite ENTRY rows keeps the
    ranges a state keeps, checked in bulk: headings in [0, 360) and the
    deviation in (-180, 180]."""
    headings = [rows[k :: ENTRY.width].tolist() for k in (1, 2, 3)]
    deviations = rows[4 :: ENTRY.width].tolist()
    return not deviations or (all(0.0 <= min(h) and max(h) < 360.0 for h in headings)
                              and -180.0 < min(deviations) and max(deviations) <= 180.0)
