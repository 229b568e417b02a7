"""The columnar core: a stream of records held in bulk, as one flat
float64 buffer of their rows, one after another.

A `Layout` says how a kind of record lies in a row: a sample row (`SAMPLE`)
is t_ms, accel and mag (7 values), a truth row (`TRUTH`) is t_ms, true
heading, pitch and roll (4 values). A batch stage reaches the rows only
through `Layout.rows_of`, which takes any sequence of records; a
`RecordView` is such a sequence, a read-only one that builds each record
on demand from its row. The buffer is the standard library's, an
`array('d')` or a memoryview, so no stage needs numpy: only `simulate`
makes one over a numpy array. A caller that wants the rows as an array
makes one itself: `np.frombuffer(view.values).reshape(-1, view.layout.width)`.

The query commands never import this module.
"""

from __future__ import annotations

import math
import operator
import struct
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain
from typing import Any

from .records import SensorSample, TruthRecord


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


SAMPLE = Layout(7, lambda s: (s.t_ms, *s.accel, *s.mag),
                lambda r: SensorSample(r[0], (r[1], r[2], r[3]), (r[4], r[5], r[6])))
TRUTH = Layout(4, operator.attrgetter("t_ms", "true_heading_deg", "pitch_deg", "roll_deg"),
               lambda r: TruthRecord(*r))
