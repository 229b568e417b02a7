"""The columnar core against the record-by-record rules it replaces: a trace
written and read back in bulk, the report's bytes, and the line each
`read_trace` refusal names."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from qiblanav.dataio import REPORT_TAG
from qiblanav.errors import ParseError
from qiblanav.records import SAMPLE, TRUTH, read_body

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Few distinct times, so samples and truth records often share one.
TIMES = st.lists(st.integers(-3, 12).map(float), max_size=12).map(sorted)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("columns")


@st.composite
def traces(draw):
    """Samples and truth records in time order, truth timestamps leading,
    trailing, equal to and between the samples', duplicates included."""
    samples = [SensorSample(t, draw(st.tuples(FINITE, FINITE, FINITE)), draw(st.tuples(FINITE, FINITE, FINITE)))
               for t in draw(TIMES)]
    truth = [TruthRecord(t, *draw(st.tuples(FINITE, FINITE, FINITE))) for t in draw(TIMES)]
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


@given(trace=traces())
def test_trace_round_trips_its_columns_and_writes_the_record_bytes(workdir, trace):
    samples, truth = trace
    path = workdir / "trace.txt"
    write_trace(TraceFile(samples, truth), str(path))
    assert path.read_bytes() == record_by_record(samples, truth)
    back = read_trace(str(path))
    # bit for bit, so -0.0 stays -0.0
    assert back.samples.rows.tobytes() == SAMPLE.rows_of(samples).tobytes()
    assert back.truth.rows.tobytes() == TRUTH.rows_of(truth).tobytes()
    assert back.samples == samples and back.truth == truth


def test_views_are_read_only_sequences_of_records(workdir):
    samples = [SensorSample(float(i), (0.0, 0.0, -9.81), (40.0, 0.0, float(i))) for i in range(4)]
    path = workdir / "view.txt"
    write_trace(TraceFile(samples), str(path))
    view = read_trace(str(path)).samples
    assert len(view) == 4 and view[-1] == samples[-1] and list(view[1:3]) == samples[1:3]
    assert view == tuple(samples) and view != samples[:3]
    with pytest.raises(ValueError):
        view.rows[0, 0] = 1.0


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


HEADINGS = FINITE.map(AzimuthDeg)
DEVIATIONS = st.floats(-1e300, 1e300)  # so the summary's sum of at most 8 stays finite
ENTRIES = st.lists(st.tuples(FINITE, st.builds(QiblaPointerState, HEADINGS, HEADINGS, HEADINGS, DEVIATIONS,
                                                st.sampled_from(Guidance), st.booleans(), st.booleans())),
                   min_size=1, max_size=8)
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


@pytest.mark.parametrize("meta", [{"alpha": math.nan}, {"calibration": {"hard_iron_ut": [0.0, math.inf, 0.0]}},
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
    np.testing.assert_array_equal(trace.samples.rows[:, 0], 20.0 * np.arange(499))


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


def test_header_only_trace_reads_as_empty(tmp_path):
    for text in ("qtrace v1", "qtrace v1\n", "qtrace v1\n\n# nothing\n"):
        path = tmp_path / "trace.txt"
        path.write_text(text, encoding="utf-8")
        trace = read_trace(str(path))
        assert trace.samples == () and trace.truth == ()
