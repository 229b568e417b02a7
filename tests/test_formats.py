"""The text formats: one line reader, finite numbers only, errors that name
their line, and loaders that fail with nothing but ParseError."""

import csv
import io
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from qiblanav import load_cities, load_grid, load_scenario, read_report, read_trace, records
from qiblanav.errors import DuplicateCity, ParseError, ScenarioError
from qiblanav.columns import SensorSample, TruthRecord
from qiblanav.records import finite_floats, read_body, read_line_blocks, read_lines, read_text

from cli_checks import run_cli
from conftest import DATA_DIR

SCENARIO_HEAD = "scenario v1\nduration_ms 100\nsample_rate_hz 50\nheading_deg 0\nfield_horizontal_ut 40\n"

LOADERS = {
    "cities.csv": load_cities,
    "declination_grid.txt": load_grid,
    "report_example.json": read_report,
    "scenario_example.txt": load_scenario,
    "trace_example.txt": read_trace,
}


class TestLineReader:
    def test_header_args_and_body(self):
        args, body = read_lines("fmt v1 1 2.5  # note\n\n  # only a comment\na b # c\n c\n",
                                "fmt v1 <x> <y>")
        assert args == [1.0, 2.5]
        assert list(body) == [(4, ["a", "b"]), (5, ["c"])]

    @pytest.mark.parametrize("text", ["", "\n", "fmt v2 1 2\n", "fmt v1 1\n", "fmt v1 1 2 3\n",
                                      "other v1 1 2\n", "# fmt v1 1 2\n"])
    def test_bad_header_is_line_1(self, text):
        with pytest.raises(ParseError) as exc:
            read_lines(text, "fmt v1 <x> <y>")
        assert exc.value.line == 1

    def test_non_finite_header_arg(self):
        with pytest.raises(ParseError, match="header") as exc:
            read_lines("fmt v1 1 nan\n", "fmt v1 <x> <y>")
        assert exc.value.line == 1

    def test_error_type_is_the_callers(self):
        with pytest.raises(ScenarioError):
            read_lines("fmt v2\n", "fmt v1", ScenarioError)

    @pytest.mark.parametrize("tokens", [["1", "x"], ["nan"], ["-inf"], ["1e999"], ["²"], ["inf", "-inf"]])
    def test_finite_floats_refuses(self, tokens):
        with pytest.raises(ParseError, match="row") as exc:
            finite_floats(tokens, 7, "row")
        assert exc.value.line == 7

    def test_finite_floats_converts(self):
        assert finite_floats(["1", "-2.5e3", "0"], 1, "row") == [1.0, -2500.0, 0.0]
        # finite values whose sum overflows
        assert finite_floats(["1e308", "1e308"], 1, "row") == [1e308, 1e308]

    def test_truth_record_refuses_non_finite(self):
        with pytest.raises(ValueError):
            TruthRecord(0.0, float("nan"), 0.0, 0.0)
        with pytest.raises(ValueError, match="t_ms"):
            SensorSample(float("inf"), (0.0, 0.0, -9.81), (40.0, 0.0, 0.0))


class TestLineRule:
    """A line ends at \\n, \\r\\n or a lone \\r; one leading BOM is dropped."""

    def test_only_universal_newlines_end_a_line(self):
        _, body = read_lines("fmt v1\n# page\x0c break\na\x0bb\x85c\u2028d\r\ne\rf\n", "fmt v1")
        # other Unicode line breaks separate tokens only
        assert list(body) == [(3, ["a", "b", "c", "d"]), (4, ["e"]), (5, ["f"])]

    def test_comment_tail_after_form_feed_is_comment(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("qtrace v1\n# page\x0c break\ns 0 0 0 -9.81 40 0 0\n", encoding="utf-8")
        assert len(read_trace(str(path)).samples) == 1

    def test_form_feed_does_not_shift_line_numbers(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("qtrace v1\n# page\x0c\ns 0 nan 0 -9.81 1 2 3\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_trace(str(path))
        assert exc.value.line == 3

    def test_carriage_returns_end_lines_in_every_count(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"qtrace v1\rs 0 0 0 -9.81 40 0 0\r\n\xff\r")
        with pytest.raises(ParseError) as exc:
            read_trace(str(path))
        assert exc.value.line == 3
        path.write_bytes(b'{"report": "qibla-pipeline v1",\r"x": ]}\r')
        with pytest.raises(ParseError) as exc:
            read_report(str(path))
        assert exc.value.line == 2

    def test_byte_order_mark_is_dropped(self, tmp_path):
        cities = tmp_path / "c.csv"
        cities.write_text("\ufeffname,latitude_deg,longitude_deg\nMecca,21.4225,39.8262\n", encoding="utf-8")
        assert [r.name for r in load_cities(str(cities))] == ["Mecca"]
        trace = tmp_path / "t.txt"
        trace.write_text("\ufeffqtrace v1\ns 0 0 0 -9.81 40 0 0\n", encoding="utf-8")
        assert len(read_trace(str(trace)).samples) == 1

    def test_a_lone_surrogate_in_a_string_names_its_line(self):
        # what reading undecodable bytes with errors="surrogateescape" gives
        with pytest.raises(ParseError, match="invalid UTF-8: invalid start byte") as exc:
            list(read_lines("fmt v1\n1 2\n# \udcff\n", "fmt v1")[1])
        assert exc.value.line == 3


BOM = b"\xef\xbb\xbf"
# Line ends, byte order marks, form feeds and NEL, and valid, truncated and
# invalid UTF-8 sequences, encoded surrogates among them.
FILE_BYTES = st.lists(st.sampled_from([
    b"\n", b"\r", b"\r\n", BOM, b"a", b"1 2", b" ", b"#", b"\x0c", b"\xc2\x85", b"\xc3\xa9", b"\xe2\x82\xac",
    b"\xf0\x9f\x98\x80", b"\xe2\x82", b"\xf0\x9f", b"\xc3", b"\xff", b"\x80", b"\xc0\xaf", b"\xed\xa0\x80",
    b"\xed\xb2\x80",
]), max_size=16).map(b"".join)


@settings(deadline=None)
@given(start=st.sampled_from([b"", BOM, b"\xef\xbb"]), rest=FILE_BYTES, block=st.integers(1, 1 << 16))
@example(start=b"", rest=b"\r\xff", block=1 << 16)  # a line end just before the bad byte
@example(start=b"\xef\xbb", rest=b"", block=1)  # only part of a BOM
def test_reader_is_the_universal_newline_text_layer(scratch, start, rest, block):
    """A file reads as Python's strict UTF-8 decoder and universal newlines
    read it, one leading BOM dropped; bytes that do not decode give the
    whole lines before them, then the decoder's reason and their line."""
    data = start + rest
    path = scratch / "bytes.txt"
    path.write_bytes(data)
    body = data.removeprefix(BOM)
    given_blocks = []
    with mock.patch.object(records, "BLOCK_CHARS", block):
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError as bad:
            valid = io.StringIO(body[: bad.start].decode("utf-8"), newline=None).read()
            line = 1 + valid.count("\n")
            with pytest.raises(ParseError) as exc:
                given_blocks.extend(read_line_blocks(str(path)))
            assert str(exc.value) == f"line {line}: invalid UTF-8: {bad.reason}"
            assert "".join(map("".join, given_blocks)) == valid[: valid.rfind("\n") + 1]
        else:
            assert read_text(str(path)) == io.StringIO(text, newline=None).read()


# Token lines, comments and blank lines, and lines longer than any block.
LINE = st.text(alphabet="ab1.# \t", max_size=12) | st.integers(4100, 6000).map(lambda n: ("1.5 #" * n)[:n])
LINE_END = st.sampled_from(["\n", "\r", "\r\n"])


@settings(deadline=None)
@given(lines=st.lists(st.tuples(LINE, LINE_END), max_size=12), last=LINE, block=st.integers(1, 4099))
@example(lines=[("a", "\r"), ("", "\n"), ("b", "\n")], last="", block=1)  # \r then \n: one line end
def test_line_numbers_and_tokens_do_not_depend_on_where_blocks_end(scratch, lines, last, block):
    """A line's number and tokens are those of the line the text layer
    reads, however the lines fall into blocks."""
    text = "fmt v1\n" + "".join(line + end for line, end in lines) + last
    path = scratch / "lines.txt"
    path.write_bytes(text.encode())
    expected = [(n, line.partition("#")[0].split())
                for n, line in enumerate(io.StringIO(text, newline=None).readlines(), 1)
                if n > 1 and line.partition("#")[0].split()]
    with mock.patch.object(records, "BLOCK_CHARS", block):
        assert list(read_lines(text, "fmt v1")[1]) == expected
        blocks = read_body(read_line_blocks(str(path)), "fmt v1")[1]
        assert [(n, tokens) for linenos, lines in blocks for n, tokens in zip(linenos, lines)] == expected


PIPELINE_ARGV = ["pipeline", "--trace", "{}", "--lat", "0", "--lon", "0", "--out", "{}.json"]
GRID_ARGV = ["qibla", "--lat", "0", "--lon", "0", "--decl-grid", "{}"]
SCENARIO_ARGV = ["simulate", "--scenario", "{}", "--out", "{}.out"]
CITIES_ARGV = ["qibla", "--city", "Mecca", "--cities", "{}"]

# Inputs that once gave a traceback, a bare ValueError or UnicodeDecodeError,
# a non-JSON report or an error without a line. Each: file name, contents
# (bytes where they are not UTF-8), loader, error, line, CLI arguments
# reading the file.
BAD_INPUTS = {
    "trace-nan": ("t.txt", "qtrace v1\ns 0 0 0 -9.81 40 0 0\nt 0 nan inf 0\n", read_trace,
                  ParseError, 3, PIPELINE_ARGV),
    "grid-inf-bound": ("g.txt", "declgrid v1 0 inf 1 0 1 1\n1 2\n3 4\n", load_grid,
                       ParseError, 1, GRID_ARGV),
    "grid-overflow": ("g.txt", "declgrid v1 0 1e300 1e-300 0 1 1\n1 2\n3 4\n", load_grid,
                      ParseError, 1, GRID_ARGV),
    "scenario-nan-sigma": ("s.txt", SCENARIO_HEAD + "noise_sigma_mag_ut nan\n", load_scenario,
                           ScenarioError, 6, SCENARIO_ARGV),
    "scenario-superscript-seed": ("s.txt", SCENARIO_HEAD + "rng_seed ²\n", load_scenario,
                                  ScenarioError, 6, SCENARIO_ARGV),
    "cities-duplicate": ("c.csv", "name,latitude_deg,longitude_deg\nMecca,21.4,39.8\nmecca,21.4,39.8\n",
                         load_cities, DuplicateCity, 3, CITIES_ARGV),
    "trace-bad-utf8": ("t.txt", b"qtrace v1\ns 0 0 0 -9.81 40 0 0\n\xff\xfe\n", read_trace,
                       ParseError, 3, PIPELINE_ARGV),
    "grid-bad-utf8": ("g.txt", b"declgrid v1 0 1 1 0 1 1\n1 2 # \xe2\x82\n3 4\n", load_grid,
                      ParseError, 2, GRID_ARGV),
    "scenario-bad-utf8": ("s.txt", SCENARIO_HEAD.encode() + b"# caf\xe9\n", load_scenario,
                          ParseError, 6, SCENARIO_ARGV),
    "cities-bad-utf8": ("c.csv", b"name,latitude_deg,longitude_deg\nMecca,21.4,39.8\n\xffBad,1,2\n",
                        load_cities, ParseError, 3, CITIES_ARGV),
    "scenario-negative-duration": ("s.txt", SCENARIO_HEAD.replace("duration_ms 100", "duration_ms -5"),
                                   load_scenario, ScenarioError, 2, SCENARIO_ARGV),
    "scenario-negative-sigma": ("s.txt", SCENARIO_HEAD + "noise_sigma_mag_ut -1\n", load_scenario,
                                ScenarioError, 6, SCENARIO_ARGV),
    "scenario-steep-inclination": ("s.txt", SCENARIO_HEAD + "field_inclination_deg 95\n", load_scenario,
                                   ScenarioError, 6, SCENARIO_ARGV),
    "scenario-huge-seed": ("s.txt", SCENARIO_HEAD + "rng_seed 99999999999999999999999\n", load_scenario,
                           ScenarioError, 6, SCENARIO_ARGV),
    "scenario-repeated-knot-time": ("s.txt", SCENARIO_HEAD + "pitch_deg 0:0 0:10\n", load_scenario,
                                    ScenarioError, 6, SCENARIO_ARGV),
    "cities-field-too-long": ("c.csv", "name,latitude_deg,longitude_deg\nMecca,21.4,39.8\n"
                              + "x" * (csv.field_size_limit() + 1) + ",1,2\n", load_cities, ParseError, 3, CITIES_ARGV),
    "scenario-zero-samples": ("s.txt", SCENARIO_HEAD.replace("duration_ms 100", "duration_ms 1"),
                              load_scenario, ScenarioError, 2, SCENARIO_ARGV),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_names_line_and_cli_exits_2(tmp_path, case):
    name, text, loader, error, line, argv = BAD_INPUTS[case]
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    with pytest.raises(error) as exc:
        loader(str(path))
    assert exc.value.line == line
    code, _, err = run_cli([arg.format(path) for arg in argv])
    assert code == 2
    assert f"line {line}:" in err


# Tokens that exercise numbers, non-finite spellings, knots, comments and
# every format's keywords.
TOKENS = st.sampled_from([
    "0", "1", "-1", "2.5", "90", "1e300", "1e-300", "nan", "inf", "-inf", "²", "x", "",
    ":", "0:0", "10:5", "#", ",", '"', "s", "t", "v1", "qtrace", "declgrid", "scenario",
    "duration_ms", "sample_rate_hz", "heading_deg", "field_horizontal_ut", "rng_seed",
    "hard_iron_ut", "name,latitude_deg,longitude_deg", "Mecca,21.4,39.8",
])
LINES = st.lists(st.one_of(st.lists(TOKENS, max_size=9).map(" ".join), st.text(max_size=20)),
                 max_size=12).map("\n".join)


@st.composite
def mutated_example(draw, name):
    """A checked-in example with a few lines deleted, duplicated or rewritten."""
    lines = (DATA_DIR / name).read_text(encoding="utf-8").splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["delete", "duplicate", "replace", "append", "truncate"]))
        if action == "delete":
            del lines[i]
        elif action == "duplicate":
            lines.insert(i, lines[i])
        elif action == "replace":
            lines[i] = draw(st.lists(TOKENS, max_size=9).map(" ".join))
        elif action == "append":
            lines[i] += " " + draw(TOKENS)
        else:
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("formats")


def check_loader(scratch, name, data):
    path = scratch / name
    path.write_bytes(data)
    # lines as Python's universal newlines count them
    n_lines = max(1, len(io.StringIO(data.decode("utf-8", "replace"), newline=None).readlines()))
    try:
        LOADERS[name](str(path))
    except ParseError as exc:
        assert exc.line is None or 1 <= exc.line <= n_lines, (exc, n_lines)


@pytest.mark.parametrize("name", sorted(LOADERS))
@given(data=st.one_of(st.text().map(str.encode), LINES.map(str.encode), st.binary()))
def test_any_text_loads_or_raises_parse_error(scratch, name, data):
    check_loader(scratch, name, data)


@pytest.mark.parametrize("name", sorted(LOADERS))
@given(data=st.data())
def test_mutated_examples_load_or_raise_parse_error(scratch, name, data):
    check_loader(scratch, name, data.draw(mutated_example(name)).encode())
