import json
import sys

import pytest

from qiblanav import (
    CalibrationState,
    GeoCoordinate,
    TraceFile,
    circular_diff,
    generate,
    load_cities,
    read_report,
    read_trace,
    run_trace,
    summarize,
    truth_heading_at,
    write_report,
    write_trace,
)
from qiblanav.errors import DuplicateCity, EmptyReport, ParseError

from scenarios import tumbled_sweep

BANDUNG = GeoCoordinate(-6.9147, 107.6098)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCities:
    def test_happy_path(self, tmp_path):
        path = write(tmp_path, "c.csv",
                     "name,latitude_deg,longitude_deg\nBandung,-6.9147,107.6098\n")
        records = load_cities(path)
        assert len(records) == 1
        assert records[0].name == "Bandung"
        assert records[0].location == GeoCoordinate(-6.9147, 107.6098)

    def test_bad_latitude_names_line(self, tmp_path):
        path = write(tmp_path, "c.csv",
                     "name,latitude_deg,longitude_deg\nOk,10,20\nBad,95,0\n")
        with pytest.raises(ParseError) as exc:
            load_cities(path)
        assert exc.value.line == 3

    def test_duplicate_names_case_insensitive(self, tmp_path):
        path = write(tmp_path, "c.csv",
                     "name,latitude_deg,longitude_deg\nMecca,21.4,39.8\nmecca,21.4,39.8\n")
        with pytest.raises(DuplicateCity):
            load_cities(path)

    def test_missing_header(self, tmp_path):
        path = write(tmp_path, "c.csv", "Bandung,-6.9147,107.6098\n")
        with pytest.raises(ParseError) as exc:
            load_cities(path)
        assert exc.value.line == 1

    def test_empty_name_rejected(self, tmp_path):
        path = write(tmp_path, "c.csv", "name,latitude_deg,longitude_deg\n ,1,2\n")
        with pytest.raises(ParseError):
            load_cities(path)

    def test_checked_in_dataset(self, data_dir):
        records = load_cities(str(data_dir / "cities.csv"))
        names = {r.name for r in records}
        assert "Bandung" in names
        assert len(names) == len(records)


class TestTraceRoundTrip:
    def test_thousand_sample_round_trip_exact(self, tmp_path):
        samples, truth = generate(tumbled_sweep(
            seed=5, duration_ms=20000.0, hard_iron=(25.0, -18.0, 9.0),
            noise_mag=2.0, noise_accel=0.05))
        assert len(samples) == 1000
        trace = TraceFile(tuple(samples), tuple(truth))
        path = tmp_path / "trace.txt"
        write_trace(trace, str(path))
        back = read_trace(str(path))
        assert back.samples == trace.samples
        assert back.truth == trace.truth

    def test_checked_in_example(self, data_dir):
        trace = read_trace(str(data_dir / "trace_example.txt"))
        assert trace.samples and trace.truth

    def test_truncated_final_line(self, tmp_path):
        path = write(tmp_path, "t.txt",
                     "qtrace v1\ns 0.0 0.0 0.0 -9.81 40.0 0.0 0.0\ns 20.0 0.0 0.0\n")
        with pytest.raises(ParseError) as exc:
            read_trace(str(path))
        assert exc.value.line == 3

    def test_out_of_order_timestamps(self, tmp_path):
        path = write(tmp_path, "t.txt",
                     "qtrace v1\n"
                     "s 20.0 0.0 0.0 -9.81 40.0 0.0 0.0\n"
                     "s 0.0 0.0 0.0 -9.81 40.0 0.0 0.0\n")
        with pytest.raises(ParseError, match="monotone"):
            read_trace(str(path))

    def test_unknown_tag(self, tmp_path):
        path = write(tmp_path, "t.txt", "qtrace v1\nx 0.0 1.0\n")
        with pytest.raises(ParseError):
            read_trace(str(path))

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "t.txt", "trace v9\n")
        with pytest.raises(ParseError) as exc:
            read_trace(str(path))
        assert exc.value.line == 1

    def test_write_rejects_unordered_samples(self, tmp_path):
        samples, truth = generate(tumbled_sweep(seed=0, duration_ms=200.0))
        path = tmp_path / "t.txt"
        for trace in (TraceFile(tuple(reversed(samples))),
                      TraceFile(tuple(samples), tuple(reversed(truth)))):
            with pytest.raises(ValueError, match="monotone"):
                write_trace(trace, str(path))
            assert not path.exists()

    def test_trace_without_truth(self, tmp_path):
        samples, _ = generate(tumbled_sweep(seed=0, duration_ms=200.0))
        path = tmp_path / "t.txt"
        write_trace(TraceFile(tuple(samples)), str(path))
        back = read_trace(str(path))
        assert back.truth == ()
        assert back.samples == tuple(samples)


def make_entries(n=3, with_truth=False, seed=0):
    scenario = tumbled_sweep(seed=seed, duration_ms=n * 20.0)
    samples, truth = generate(scenario)
    entries = run_trace(list(samples), BANDUNG, CalibrationState())
    return entries, (truth if with_truth else None)


class TestReports:
    def test_three_sample_report(self, tmp_path):
        entries, _ = make_entries(3)
        path = tmp_path / "report.json"
        write_report(entries, str(path))
        doc = read_report(str(path))
        assert len(doc["samples"]) == 3
        assert doc["summary"]["samples"] == 3
        assert "mean_abs_deviation_deg" in doc["summary"]

    def test_summary_with_truth_has_steady_state_error(self, tmp_path):
        entries, truth = make_entries(50, with_truth=True)
        path = tmp_path / "report.json"
        summary = write_report(entries, str(path), truth=list(truth))
        assert "steady_state_error_deg" in summary
        doc = read_report(str(path))
        assert doc["summary"]["steady_state_error_deg"] == summary["steady_state_error_deg"]

    def test_summary_interpolates_half_rate_truth(self):
        # 12 s of entries, so the 10 s window leaves some out; truth at half
        # the sample rate, so every other entry falls between two records
        entries, truth = make_entries(601, with_truth=True)
        half = list(truth)[::2]
        window = [(t, s) for t, s in entries if t >= entries[-1][0] - 10000.0]
        assert len(window) < len(entries)
        assert any(t not in {r.t_ms for r in half} for t, _ in window)
        head_errs, dev_errs = [], []
        for t, s in window:
            true_h = truth_heading_at(half, t)
            head_errs.append(abs(circular_diff(s.true_heading, true_h)))
            dev_errs.append(abs(circular_diff(s.deviation_deg, circular_diff(s.qibla, true_h))))
        summary = summarize(entries, half)
        assert summary["steady_state_error_deg"] == sum(head_errs) / len(head_errs)
        assert summary["steady_state_max_error_deg"] == max(head_errs)
        assert summary["steady_state_deviation_error_deg"] == sum(dev_errs) / len(dev_errs)
        assert summary["steady_state_max_deviation_error_deg"] == max(dev_errs)

    def test_empty_stream_rejected(self, tmp_path):
        with pytest.raises(EmptyReport):
            write_report([], str(tmp_path / "r.json"))
        with pytest.raises(EmptyReport):
            summarize([])

    def test_numeric_round_trip_through_parser(self, tmp_path):
        entries, _ = make_entries(5)
        path = tmp_path / "report.json"
        write_report(entries, str(path), meta={"alpha": 0.15})
        doc = read_report(str(path))
        for (t, state), entry in zip(entries, doc["samples"]):
            assert entry["t_ms"] == t
            assert entry["magnetic_heading_deg"] == float(state.magnetic_heading)
            assert entry["true_heading_deg"] == float(state.true_heading)
            assert entry["qibla_deg"] == float(state.qibla)
            assert entry["deviation_deg"] == state.deviation_deg
            assert entry["guidance"] == state.guidance.value

    def test_text_mode(self, tmp_path):
        entries, _ = make_entries(3)
        path = tmp_path / "report.txt"
        write_report(entries, str(path), fmt="text", meta={"alpha": 0.15})
        text = path.read_text()
        assert "qibla-pipeline v1" in text
        assert "guidance" in text

    def test_unknown_format(self, tmp_path):
        entries, _ = make_entries(1)
        with pytest.raises(ValueError):
            write_report(entries, str(tmp_path / "r.bin"), fmt="binary")

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e999", "-1e400"])
    def test_read_report_refuses_non_finite(self, tmp_path, constant):
        path = tmp_path / "report.json"
        path.write_text(f'{{"report": "qibla-pipeline v1", "x": {constant}}}')
        with pytest.raises(ParseError, match=constant):
            read_report(str(path))

    # the second fails at end of input, past the final newline
    @pytest.mark.parametrize("text", ['{"report": "qibla-pipeline v1",]\n', "{\n"])
    def test_read_report_names_the_line_of_malformed_json(self, tmp_path, text):
        path = tmp_path / "report.json"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            read_report(str(path))
        assert exc.value.line == 1

    def test_read_report_refuses_invalid_utf8(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_bytes(b'{"report": "qibla-pipeline v1",\n"x": "\xff"}\n')
        with pytest.raises(ParseError) as exc:
            read_report(str(path))
        assert exc.value.line == 2

    def test_read_report_refuses_deep_nesting(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("[" * 100000)
        with pytest.raises(ParseError):
            read_report(str(path))

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python converts integers of any length")
    def test_read_report_refuses_too_long_integer(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text('{"report": "qibla-pipeline v1", "x": ' + "1" * 5000 + "}\n")
        with pytest.raises(ParseError):
            read_report(str(path))

    def test_write_report_refuses_nan_and_writes_nothing(self, tmp_path):
        entries, _ = make_entries(3)
        path = tmp_path / "report.json"
        with pytest.raises(ValueError):
            write_report(entries, str(path), meta={"alpha": float("nan")})
        assert not path.exists()

    def test_read_report_rejects_other_documents(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"report": "something-else"}))
        with pytest.raises(ParseError):
            read_report(str(path))
