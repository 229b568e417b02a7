"""The columnar core against the record-by-record rules it replaces: a trace
written and read back in bulk, the report's bytes, and the line each
`read_trace` refusal names."""

import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cli_checks import run_cli

from qiblanav import (
    AzimuthDeg,
    Guidance,
    QiblaPointerState,
    SensorSample,
    TraceFile,
    TruthRecord,
    read_trace,
    summarize,
    write_report,
    write_trace,
)
from qiblanav import dataio, records
from qiblanav.dataio import REPORT_TAG
from qiblanav.errors import ParseError
from qiblanav.columns import ENTRY, SAMPLE, TRUTH, RecordView, float_array
from qiblanav.records import finite_floats, read_body

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# A small pool drawn from often, so that a column repeats its values and
# holds both zeros, which compare equal but are written apart.
VALUES = st.sampled_from([0.0, -0.0, 1.5, -2.25, 359.5]) | FINITE
# records.BLOCK_CHARS values: a line or a few at a time, whole lines of one
# to three samples for write_trace, and one block for any trace here.
BLOCK_SIZES = st.sampled_from([1, 2, 3, 5, 7, 11, 13, 131, 257, 389, 1 << 24])
# Few distinct times, so samples and truth records often share one.
TIMES = st.lists(st.integers(-3, 12).map(float), max_size=12).map(sorted)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("columns")


@st.composite
def traces(draw):
    """Samples and truth records in time order, truth timestamps leading,
    trailing, equal to and between the samples', duplicates included."""
    samples = [SensorSample(t, draw(st.tuples(VALUES, VALUES, VALUES)), draw(st.tuples(VALUES, VALUES, VALUES)))
               for t in draw(TIMES)]
    truth = [TruthRecord(t, *draw(st.tuples(VALUES, VALUES, VALUES))) for t in draw(TIMES)]
    return samples, truth


def record_by_record(samples, truth):
    """The trace file as the record-by-record writer formatted it: each line
    the tag and every value's repr, each truth line after the first sample
    not earlier than it, the rest at the end."""
    def line(tag, *values):
        return " ".join((tag, *map(repr, map(float, values))))

    lines = ["qtrace v1"]
    ti = 0
    for s in samples:
        lines.append(line("s", s.t_ms, *s.accel, *s.mag))
        while ti < len(truth) and truth[ti].t_ms <= s.t_ms:
            r = truth[ti]
            lines.append(line("t", r.t_ms, r.true_heading_deg, r.pitch_deg, r.roll_deg))
            ti += 1
    lines += [line("t", r.t_ms, r.true_heading_deg, r.pitch_deg, r.roll_deg) for r in truth[ti:]]
    return ("\n".join(lines) + "\n").encode()


@settings(deadline=None)
@given(trace=traces(), block=BLOCK_SIZES)
def test_trace_round_trips_its_columns_and_writes_the_record_bytes(workdir, trace, block):
    samples, truth = trace
    path = workdir / "trace.txt"
    with mock.patch.object(records, "BLOCK_CHARS", block):
        write_trace(TraceFile(samples, truth), str(path))
        back = read_trace(str(path))
    assert path.read_bytes() == record_by_record(samples, truth)
    # bit for bit, so -0.0 stays -0.0
    assert back.samples.values.tobytes() == SAMPLE.rows_of(samples).tobytes()
    assert back.truth.values.tobytes() == TRUTH.rows_of(truth).tobytes()
    assert back.samples == samples and back.truth == truth


def test_a_truth_column_keeps_the_sign_of_each_zero(workdir):
    zeros = [0.0, -0.0, 0.0, -0.0]
    samples = [SensorSample(float(t), (0.0, 0.0, -9.81), (40.0, 0.0, 0.0)) for t in range(4)]
    truth = [TruthRecord(float(t), z, -z, z) for t, z in enumerate(zeros)]
    path = workdir / "zeros.txt"
    write_trace(TraceFile(samples, truth), str(path))
    assert path.read_bytes() == record_by_record(samples, truth)


SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


@settings(deadline=None)
@given(values=st.lists(st.tuples(SIGNED_ZEROS, SIGNED_ZEROS, SIGNED_ZEROS), min_size=1, max_size=12),
       block=BLOCK_SIZES)
def test_truth_columns_write_each_signed_zero_as_itself(workdir, values, block):
    """A value is formatted once per bit pattern, so 0.0 and -0.0 in one
    column are written apart, as the record-by-record writer wrote them."""
    samples = [SensorSample(float(t), (0.0, 0.0, -9.81), (40.0, 0.0, 0.0)) for t in range(len(values))]
    truth = [TruthRecord(float(t), *zeros) for t, zeros in enumerate(values)]
    path = workdir / "zeros.txt"
    with mock.patch.object(records, "BLOCK_CHARS", block):
        write_trace(TraceFile(samples, truth), str(path))
    assert path.read_bytes() == record_by_record(samples, truth)


@settings(deadline=None)
@given(qiblas=st.lists(SIGNED_ZEROS, min_size=1, max_size=8), fmt=st.sampled_from(["json", "text"]))
def test_a_report_writes_each_signed_zero_qibla_as_itself(workdir, qiblas, fmt):
    """A state's qibla is an AzimuthDeg, never -0.0, so the signed zeros reach
    the writer as the ENTRY rows of a view, which it reads without building
    a state."""
    rows = [(float(t), 1.0, 2.0, q, 3.0, 2.0, 1.0, 0.0) for t, q in enumerate(qiblas)]
    entries = RecordView(ENTRY, float_array([x for row in rows for x in row]))
    path = workdir / "zeros-report"
    write_report(entries, str(path), fmt)
    written = path.read_text(encoding="utf-8")
    if fmt == "json":
        assert [math.copysign(1.0, q) for q in map(float, re.findall(r'"qibla_deg": (\S+),', written))] == \
            [math.copysign(1.0, q) for q in qiblas]
    else:
        rows = written.splitlines()[2 : 2 + len(qiblas)]
        assert [row.split()[3] for row in rows] == [f"{q:.2f}" for q in qiblas]


def test_views_are_read_only_sequences_of_records(workdir):
    samples = [SensorSample(float(i), (0.0, 0.0, -9.81), (40.0, 0.0, float(i))) for i in range(4)]
    path = workdir / "view.txt"
    write_trace(TraceFile(samples), str(path))
    view = read_trace(str(path)).samples
    assert len(view) == 4 and view[-1] == samples[-1] and list(view[1:3]) == samples[1:3]
    assert view == tuple(samples) and view != samples[:3]
    with pytest.raises(TypeError):
        view.values[0] = 1.0


def test_a_view_reads_whole_float64_rows_without_a_copy():
    rows = np.arange(14.0).reshape(2, 7)
    view = RecordView(SAMPLE, rows)
    rows[1, 0] = 99.0  # the view reads the array's memory
    assert view[1].t_ms == 99.0 and view[::-1][0].t_ms == 99.0 and view[1:].values.obj is view.values.obj
    for bad in (np.arange(14, dtype=np.float32), np.arange(8.0)):
        with pytest.raises(ValueError, match="float64 rows of 7 values"):
            RecordView(SAMPLE, bad)


# Headings of an ENTRY row as a caller may give them: in range, out of it,
# and not finite.
ROW_HEADINGS = st.floats(-720.0, 720.0) | st.sampled_from([-0.0, 360.0, 400.0, math.nan, math.inf, -math.inf])
GUIDANCE_OF = {0.0: Guidance.ALIGNED, 1.0: Guidance.TURN_LEFT, 2.0: Guidance.TURN_RIGHT}
# Deviations of an ENTRY row: in (-180, 180], at its ends and past them.
ROW_DEVIATIONS = st.floats(-180.0, 180.0) | st.sampled_from([-0.0, 180.0, 180.5, -180.0, 500.0]) | FINITE
ROW_FLAGS = st.sampled_from([0.0, 1.0, -0.0, 0.5, 7.0])
ENTRY_ROWS = st.tuples(FINITE, ROW_HEADINGS, ROW_HEADINGS, ROW_HEADINGS, ROW_DEVIATIONS,
                       st.sampled_from([-1.0, 0.0, 1.0, 2.0, 3.0, 0.5]), ROW_FLAGS, ROW_FLAGS)


@given(rows=st.lists(ENTRY_ROWS, max_size=6))
def test_an_entry_view_hands_out_only_checked_records(rows):
    """Each record of a view over any ENTRY rows is the state a caller builds
    from the row's fields, or raises what that build raises: no heading
    outside [0, 360) or nan. A code that names no guidance raises
    ValueError in the view, and so does that code, or its name as a string,
    given to the state as its guidance; so does a flag other than 0.0 or
    1.0."""
    view = RecordView(ENTRY, float_array([x for row in rows for x in row]))
    for i, row in enumerate(rows):
        if row[5] not in GUIDANCE_OF:
            with pytest.raises(ValueError, match="guidance code must be 0, 1 or 2"):
                view[i]
            with pytest.raises(ValueError):
                QiblaPointerState(row[1], row[2], row[3], row[4], row[5], True)
            continue
        if not {row[6], row[7]} <= {0.0, 1.0}:
            with pytest.raises(ValueError, match="flags must be 0.0 or 1.0"):
                view[i]
            continue
        guidance = GUIDANCE_OF[row[5]]
        with pytest.raises(ValueError):
            QiblaPointerState(row[1], row[2], row[3], row[4], guidance.value, True)
        try:
            expected = (row[0], QiblaPointerState(row[1], row[2], row[3], row[4], guidance,
                                                  row[6] == 1.0, row[7] == 1.0))
        except ValueError as refused:
            with pytest.raises(type(refused)) as raised:
                view[i]
            assert str(raised.value) == str(refused)
            continue
        t_ms, state = view[i]
        assert (t_ms, state) == expected
        assert all(type(h) is AzimuthDeg and 0.0 <= h < 360.0
                   for h in (state.magnetic_heading, state.true_heading, state.qibla))


def test_a_value_that_is_not_a_number_raises_type_error():
    state = QiblaPointerState(1.0, 2.0, 3.0, 3.0, Guidance.ALIGNED, True)
    with pytest.raises(TypeError):
        summarize([(None, state)])
    with pytest.raises(TypeError):
        float_array([1.0, "2.0"])


def entry_document(t_ms, state):
    return {
        "t_ms": t_ms,
        "magnetic_heading_deg": float(state.magnetic_heading),
        "true_heading_deg": float(state.true_heading),
        "qibla_deg": float(state.qibla),
        "deviation_deg": state.deviation_deg,
        "guidance": state.guidance.value,
        "calibrated": state.calibrated,
        "dynamic": state.dynamic,
    }


HEADINGS = VALUES.map(AzimuthDeg)
DEVIATIONS = st.sampled_from([0.0, -0.0, 1.5, 180.0]) | st.floats(-180.0, 180.0, exclude_min=True)
ENTRIES = st.lists(st.tuples(VALUES, st.builds(QiblaPointerState, HEADINGS, HEADINGS, HEADINGS, DEVIATIONS,
                                                st.sampled_from(Guidance), st.booleans(), st.booleans())),
                   min_size=1, max_size=8)


def report_of(path, fmt):
    """A report as its JSON document, or its text as lines of tokens, each
    number as a float, so that -0.0 reads as 0.0."""
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        return json.loads(text)

    def token(word):
        try:
            return float(word)
        except ValueError:
            return word

    return [list(map(token, line.split())) for line in text.splitlines()]


# ENTRY rows that a view hands out as they are, qiblas of -0.0 among them.
KEPT_HEADINGS = st.floats(0.0, 360.0, exclude_max=True) | st.just(-0.0)
KEPT_ENTRY_ROWS = st.tuples(FINITE, KEPT_HEADINGS, KEPT_HEADINGS, KEPT_HEADINGS, DEVIATIONS,
                            st.sampled_from([0.0, 1.0, 2.0]), st.sampled_from([0.0, 1.0]), st.sampled_from([0.0, 1.0]))


# One field of an ENTRY row and a value at or past the edge of what a view
# hands out as it is.
EDGES = [(0, math.inf), (0, -math.inf), (0, math.nan), (1, 360.0), (1, -1e-300), (1, 400.0), (2, 360.0),
         (2, math.nan), (3, 360.0), (3, -5e-324), (4, -180.0), (4, 180.5), (4, 500.0), (4, math.inf), (5, 3.0),
         (5, -1.0), (5, 0.5), (6, 0.5), (6, 7.0), (7, -1.0), (7, 0.5)]


@pytest.mark.parametrize("edge", [None, *EDGES], ids=str)
@settings(deadline=None, max_examples=20)
@given(first=KEPT_ENTRY_ROWS, rows=st.lists(KEPT_ENTRY_ROWS, max_size=4), wild=st.none() | ENTRY_ROWS,
       fmt=st.sampled_from(["json", "text"]))
def test_a_report_of_a_view_holds_what_the_view_hands_out(workdir, edge, first, rows, wild, fmt):
    """A report written from a view of ENTRY rows, the first with one field
    moved to its edge and perhaps one row of any fields after them, is
    refused, with ValueError and no file, exactly when some record of the
    view is refused or differs from its row, such as a heading outside
    [0, 360), which the record wraps; otherwise it reads as the report of
    the view's records."""
    if edge is not None:
        k, value = edge
        first = first[:k] + (value,) + first[k + 1:]
    rows = [first, *rows, *([] if wild is None else [wild])]
    view = RecordView(ENTRY, float_array([x for row in rows for x in row]))
    refused = False
    for i, row in enumerate(rows):
        try:
            refused = ENTRY.row(view[i]) != row
        except ValueError:
            refused = True
        if refused:
            break
    path, records_path = workdir / f"view-report.{fmt}", workdir / f"records-report.{fmt}"
    path.unlink(missing_ok=True)
    if refused:
        with pytest.raises(ValueError):
            write_report(view, str(path), fmt)
        assert not path.exists()
    else:
        write_report(view, str(path), fmt)
        write_report(list(view), str(records_path), fmt)
        assert report_of(path, fmt) == report_of(records_path, fmt)


JSON_VALUES = st.recursive(st.none() | st.booleans() | st.integers() | FINITE | st.text(max_size=8),
                           lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                                        max_size=3),
                           max_leaves=8)
METAS = st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=4)


@settings(deadline=None)
@given(entries=ENTRIES, meta=METAS)
def test_report_bytes_are_json_dumps_of_the_document(workdir, entries, meta):
    path = workdir / "report.json"
    summary = write_report(entries, str(path), meta=meta)
    assert summary == summarize(entries)
    doc = {"report": REPORT_TAG, "meta": meta, "samples": [entry_document(t, s) for t, s in entries],
           "summary": summary}
    assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=2, allow_nan=False) + "\n"


@settings(deadline=None)
@given(entries=ENTRIES, meta=METAS, cuts=st.lists(st.integers(0, 8), max_size=4))
def test_report_bytes_do_not_depend_on_where_blocks_end(workdir, entries, meta, cuts):
    """The entries cut into blocks, empty ones among them, give the JSON
    bytes of the whole document and the text of one write_report, so the
    separator before each block's first entry is the one the whole report
    has there."""
    entries.sort(key=lambda entry: entry[0])  # the blocks of one trace: none ends before an earlier one
    bounds = [0, *sorted(min(cut, len(entries)) for cut in cuts), len(entries)]
    blocks = [(entries[a:b], ()) for a, b in zip(bounds, bounds[1:])]
    path = workdir / "blocks.json"
    summary = dataio.write_report_blocks(blocks, str(path), meta=meta)
    doc = {"report": REPORT_TAG, "meta": meta, "samples": [entry_document(t, s) for t, s in entries],
           "summary": summary}
    assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=2, allow_nan=False) + "\n"
    dataio.write_report_blocks(blocks, str(workdir / "blocks.txt"), "text", meta=meta)
    write_report(entries, str(workdir / "whole.txt"), "text", meta=meta)
    assert (workdir / "blocks.txt").read_bytes() == (workdir / "whole.txt").read_bytes()


@pytest.mark.parametrize("meta",[{"alpha": math.nan}, {"calibration": {"hard_iron_ut": [0.0, math.inf, 0.0]}},
                                  {"x": [1, {"y": -math.inf}]}])
def test_non_finite_meta_raises_and_leaves_no_file(tmp_path, meta):
    state = QiblaPointerState(AzimuthDeg(1.0), AzimuthDeg(2.0), AzimuthDeg(3.0), 1.0, Guidance.ALIGNED, True)
    path = tmp_path / "report.json"
    with pytest.raises(ValueError):
        write_report([(0.0, state)], str(path), meta=meta)
    assert not path.exists()


def long_trace_lines(n_lines=1000):
    """A valid trace of n_lines lines: the header, then samples 20 ms apart,
    each followed by its truth record."""
    lines = ["qtrace v1"]
    for i in range((n_lines - 1) // 2):
        lines += [f"s {20.0 * i!r} 0.0 0.0 -9.81 40.0 0.0 0.0", f"t {20.0 * i!r} 10.0 0.0 0.0"]
    return lines + ["# end"] * (n_lines - len(lines))


BAD_LINE = 900
# Each refusal: the faulty line, and the message read_trace gives for it.
REFUSALS = {
    "unknown-tag": (b"x 1.0 2.0", "unknown record tag 'x'"),
    "field-count": (b"s 1.0 2.0 3.0", "sample record needs 7 fields, got 3"),
    "truth-field-count": (b"t 1.0 2.0 3.0 4.0 5.0", "truth record needs 4 fields, got 5"),
    "non-finite": (b"s 1e9 0.0 nan -9.81 40.0 0.0 0.0",
                   "sample record: expected finite numbers, got '1e9 0.0 nan -9.81 40.0 0.0 0.0'"),
    "not-a-number": (b"t 1e9 north 0.0 0.0", "truth record: expected finite numbers, got '1e9 north 0.0 0.0'"),
    "bad-utf8": (b"s 1e9 0.0 0.0 -9.81 40.0 0.0 \xff", "invalid UTF-8: invalid start byte"),
    "sample-order": (b"s 1.0 0.0 0.0 -9.81 40.0 0.0 0.0", "sample record timestamps must be monotone nondecreasing"),
    "truth-order": (b"t 1.0 10.0 0.0 0.0", "truth record timestamps must be monotone nondecreasing"),
}


@pytest.mark.parametrize("later", [None, b"x", b"s 1.0", b"s 0.0 0.0 0.0 -9.81 40.0 0.0 0.0", b"t 0.0 inf 0.0 0.0"],
                         ids=["alone", "later-tag", "later-count", "later-order", "later-non-finite"])
@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_names_the_first_faulty_line(tmp_path, case, later):
    bad, message = REFUSALS[case]
    lines = [line.encode() for line in long_trace_lines()]
    lines[BAD_LINE - 1] = bad
    if later is not None:  # a second fault, of another kind, further down
        lines[BAD_LINE + 49] = later
    path = tmp_path / "trace.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ParseError) as exc:
        read_trace(str(path))
    assert exc.value.line == BAD_LINE
    assert str(exc.value) == f"line {BAD_LINE}: {message}"


def test_the_long_trace_itself_reads(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("\n".join(long_trace_lines()) + "\n", encoding="utf-8")
    trace = read_trace(str(path))
    assert len(trace.samples) == len(trace.truth) == 499
    np.testing.assert_array_equal(np.frombuffer(trace.samples.values)[::SAMPLE.width], 20.0 * np.arange(499))


@settings(deadline=None)
@given(case=st.sampled_from(sorted(REFUSALS)), block=BLOCK_SIZES, crlf=st.booleans(), bom=st.booleans(),
       later=st.sampled_from([None, b"x", b"s 0.0 0.0 0.0 -9.81 40.0 0.0 0.0", b"s 1e9 0.0 0.0 -9.81 40.0 0.0 \xff"]))
def test_refusal_names_the_same_line_wherever_the_blocks_end(workdir, case, block, crlf, bom, later):
    """The first faulty line is named, line ends, a byte order mark and
    invalid UTF-8 included, however the reader cuts the file into blocks."""
    bad, message = REFUSALS[case]
    lines = [line.encode() for line in long_trace_lines(60)]
    lines[39] = bad
    if later is not None:  # a second fault, invalid UTF-8 among them, further down
        lines[49] = later
    end = b"\r\n" if crlf else b"\n"
    path = workdir / "faulty.txt"
    path.write_bytes(b"\xef\xbb\xbf" * bom + end.join(lines) + end)
    with mock.patch.object(records, "BLOCK_CHARS", block), pytest.raises(ParseError) as exc:
        read_trace(str(path))
    assert exc.value.line == 40
    assert str(exc.value) == f"line 40: {message}"


def first_fault(lines):
    """The reference trace rule, line by line: the (line, message) of the
    first faulty line of a trace's lines, header first, or None. A line is
    faulty when its tag is unknown, when its field count is not its
    stream's, when a field is not a finite number, or when its time is
    earlier than the last one of its stream."""
    streams = {"s": ("sample record", 7), "t": ("truth record", 4)}
    last = {"s": -math.inf, "t": -math.inf}
    for lineno, line in enumerate(lines[1:], 2):
        tokens = line.partition("#")[0].split()
        if not tokens:
            continue
        tag, *fields = tokens
        if tag not in streams:
            return lineno, f"unknown record tag {tag!r}"
        kind, width = streams[tag]
        if len(fields) != width:
            return lineno, f"{kind} needs {width} fields, got {len(fields)}"
        try:
            values = [float(field) for field in fields]
        except ValueError:
            values = [math.nan]
        if not all(map(math.isfinite, values)):
            return lineno, f"{kind}: expected finite numbers, got {' '.join(fields)!r}"
        if values[0] < last[tag]:
            return lineno, f"{kind} timestamps must be monotone nondecreasing"
        last[tag] = values[0]
    return None


FIELDS = {"s": ["0.0", "0.0", "-9.81", "40.0", "0.0", "0.0"], "t": ["10.0", "0.0", "0.0"]}


@st.composite
def faulty_traces(draw):
    """A valid trace of both streams, its times drawn, then one line
    replaced by a faulty one: an unknown tag, a wrong field count, a token
    that is not a number or not finite, or a time earlier than the first
    of either stream."""
    tags = draw(st.lists(st.sampled_from("st"), min_size=1, max_size=150))
    times = sorted(draw(st.lists(st.integers(0, 40), min_size=len(tags), max_size=len(tags))))
    lines = ["qtrace v1", *(" ".join([tag, f"{t}.0", *FIELDS[tag]]) for tag, t in zip(tags, times))]
    at = draw(st.integers(1, len(lines) - 1))
    tag, *fields = lines[at].split()
    fault = draw(st.sampled_from(["tag", "count", "unparsable", "non-finite", "back"]))
    if fault == "tag":
        tag = draw(st.sampled_from(["x", "S", "st", "tt", "1"]))
    elif fault == "count":
        fields = fields[:-1] if draw(st.booleans()) else [*fields, "0.0"]
    elif fault in ("unparsable", "non-finite"):
        words = ["north", "1..0", "0x1p3", "1e", "--0"] if fault == "unparsable" else ["nan", "inf", "-inf", "1e999"]
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(words))
    else:  # a line of either stream, earlier than every line before it
        tag = draw(st.sampled_from("st"))
        fields = ["-1.0", *FIELDS[tag]]
    lines[at] = " ".join([tag, *fields])
    return lines


@settings(deadline=None)
@given(lines=faulty_traces(), block=st.integers(1, 4099))
def test_the_reader_refuses_as_the_line_by_line_rule(workdir, lines, block):
    """read_trace raises the reference rule's message at its line, however
    the reader cuts the file into blocks, and `qiblanav calibrate` exits 2
    with that message; a trace the rule keeps is read."""
    path = workdir / "one-fault.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    fault = first_fault(lines)
    with mock.patch.object(records, "BLOCK_CHARS", block):
        if fault is None:
            read_trace(str(path))
            return
        with pytest.raises(ParseError) as exc:
            read_trace(str(path))
        assert (exc.value.line, str(exc.value)) == (fault[0], f"line {fault[0]}: {fault[1]}")
        assert run_cli(["calibrate", "--trace", str(path)]) == (2, "", f"error: line {fault[0]}: {fault[1]}\n")


# Tokens that float takes or refuses where a number parser of its own might
# not: underscores, other scripts' digits, a NUL, C99 NaN payloads, a lone
# surrogate (invalid UTF-8 in a file), underflow, overflow and signed zeros.
ODD_TOKENS = ["1_000.5", "\u0661.\u0665", "\uff11\uff12", "1\x00", "nan(1)", "\udcff", "1e-400", "-0", "1e5000",
              "Infinity", "0x1p3", "1__0", "_1", ".5e-0_1", "+-1", "1e", "--0"]
TOKENS = (st.sampled_from(ODD_TOKENS) | FINITE.map(repr) | st.from_regex(r"[-+]?[0-9_.eE]{1,8}", fullmatch=True)
          | st.text(max_size=6)).filter(lambda token: token.split() == [token] and "#" not in token)


@settings(deadline=None)
@given(token=TOKENS, tag=st.sampled_from(["s", "t"]))
def test_a_token_reads_as_float_reads_it(workdir, token, tag):
    """A block is read in one conversion; each token gives the bits float
    gives it, or the ParseError that the line-by-line rule, float on each
    token, gives for its line: the block raises, and the token's line read
    alone raises that error."""
    fields = ["1.0", token, *["0.0"] * ((6 if tag == "s" else 3) - 1)]
    kind = "sample record" if tag == "s" else "truth record"
    try:
        expected = finite_floats(fields, 4, kind)  # the token's line, after the header and two lines
    except ParseError as exc:
        expected = exc
    lines = [["s", *["0.0"] * 7], ["t", *["0.0"] * 4], [tag, *fields]]
    if isinstance(expected, ParseError):
        with pytest.raises(ParseError):
            dataio._block_rows(lines, dict.fromkeys("st", -math.inf))
        with pytest.raises(ParseError) as alone:
            dataio._block_rows(lines[-1:], {"s": 0.0, "t": 0.0}, 4)
        assert (type(alone.value), str(alone.value), alone.value.line) == \
            (type(expected), str(expected), expected.line)
    else:
        for block, line in ((lines, None), (lines[-1:], 4)):
            streams = dataio._block_rows(block, {"s": 0.0, "t": 0.0}, line)
            assert streams[tag].values[-len(expected):].tobytes() == np.array(expected).tobytes()
    path = workdir / "token.txt"
    path.write_bytes("\n".join(["qtrace v1", *map(" ".join, lines)]).encode("utf-8", "surrogateescape") + b"\n")
    if "\udcff" in token:  # the byte 0xff, which the decoder refuses before any number is read
        expected = ParseError("invalid UTF-8: invalid start byte", 4)
    try:
        back = read_trace(str(path))
    except ParseError as exc:
        assert isinstance(expected, ParseError)
        assert (exc.line, str(exc)) == (expected.line, str(expected))
    else:
        assert not isinstance(expected, ParseError)
        values = back.samples.values if tag == "s" else back.truth.values
        assert values[-len(expected):].tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("tag", ["s", "t"])
def test_order_is_checked_across_the_reader_blocks(tmp_path, tag):
    # long enough that the reader tokenizes it in several blocks
    lines = long_trace_lines(8000)
    text = "\n".join(lines) + "\n"
    _, blocks = read_body(text, "qtrace v1")
    starts = [linenos[0] for linenos, _ in blocks][1:]
    assert len(starts) >= 3
    for lineno in starts:
        faulty = lines.copy()
        faulty[lineno - 1] = f"{tag} 1.0 " + " ".join(["0.0"] * (6 if tag == "s" else 3))
        path = tmp_path / "trace.txt"
        path.write_text("\n".join(faulty) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="monotone") as exc:
            read_trace(str(path))
        assert exc.value.line == lineno


def test_a_repeated_time_is_in_order_and_a_later_fault_is_named(tmp_path):
    lines = ["qtrace v1", "s 0.0 0.0 0.0 -9.81 40.0 0.0 0.0", "t 0.0 10.0 0.0 0.0",
             "s 0.0 0.0 0.0 -9.81 40.0 0.0 0.0", "t 0.0 10.0 0.0 0.0"]
    path = tmp_path / "trace.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    trace = read_trace(str(path))
    assert len(trace.samples) == len(trace.truth) == 2
    write_trace(trace, str(path))
    assert read_trace(str(path)) == trace
    path.write_text("\n".join([*lines, "x 1.0"]) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="unknown record tag") as exc:
        read_trace(str(path))
    assert exc.value.line == 6


def test_header_only_trace_reads_as_empty(tmp_path):
    for text in ("qtrace v1", "qtrace v1\n", "qtrace v1\n\n# nothing\n"):
        path = tmp_path / "trace.txt"
        path.write_text(text, encoding="utf-8")
        trace = read_trace(str(path))
        assert trace.samples == () and trace.truth == ()
