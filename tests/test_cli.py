import json

import pytest

from qiblanav import (
    GeoCoordinate,
    TraceFile,
    calibrate,
    generate,
    qibla_azimuth,
    read_report,
    tilt_compensated_heading,
    write_trace,
)

from cli_checks import run_cli
from conftest import DATA_DIR, GOLDEN_DIR
from scenarios import flat_sweep, tumbled_sweep

CITIES = str(DATA_DIR / "cities.csv")
SCENARIO = str(DATA_DIR / "scenario_example.txt")
GRID = str(DATA_DIR / "declination_grid.txt")


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


class TestQibla:
    def test_meridian_point(self):
        code, out, _ = run_cli(["qibla", "--lat", "0", "--lon", "39.8262", "--format", "json"])
        assert code == 0
        assert json.loads(out)["qibla_deg"] == 0.0

    def test_kaaba_location_is_degenerate(self):
        code, _, err = run_cli(["qibla", "--lat", "21.4225", "--lon", "39.8262"])
        assert code == 2
        assert "bearing" in err or "error" in err

    def test_unknown_city(self):
        code, _, err = run_cli(["qibla", "--city", "Atlantis", "--cities", CITIES])
        assert code == 2
        assert "Atlantis" in err

    def test_city_lookup_matches_library(self):
        code, out, _ = run_cli(
            ["qibla", "--city", "bandung", "--cities", CITIES, "--format", "json"])
        assert code == 0
        expected = float(qibla_azimuth(GeoCoordinate(-6.9147, 107.6098)))
        assert json.loads(out)["qibla_deg"] == expected

    def test_conflicting_location_flags_usage_error(self):
        code, _, _ = run_cli(["qibla", "--lat", "0", "--lon", "0", "--city", "Bandung",
                              "--cities", CITIES])
        assert code == 64

    def test_lat_without_lon_usage_error(self):
        code, _, _ = run_cli(["qibla", "--lat", "0"])
        assert code == 64

    def test_no_location_usage_error(self):
        code, _, _ = run_cli(["qibla"])
        assert code == 64

    def test_bad_latitude_domain_error(self):
        code, _, _ = run_cli(["qibla", "--lat", "95", "--lon", "0"])
        assert code == 2

    def test_declination_from_grid(self):
        code, out, _ = run_cli(["qibla", "--lat", "-6.9147", "--lon", "107.6098",
                                "--decl-grid", GRID, "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["declination_deg"] is not None
        assert not doc["magnetic_assumed_true"]

    def test_grid_out_of_coverage(self):
        code, _, _ = run_cli(["qibla", "--lat", "51.5", "--lon", "-0.13",
                              "--decl-grid", GRID])
        assert code == 2

    def test_text_mode_two_decimals(self):
        code, out, _ = run_cli(["qibla", "--lat", "-6.9147", "--lon", "107.6098"])
        assert code == 0
        assert "qibla azimuth: 295.17 deg" in out
        assert "magnetic heading assumed true" in out

    def test_golden(self):
        code, out, _ = run_cli(["qibla", "--lat", "-6.9147", "--lon", "107.6098",
                                "--decl", "0.8", "--format", "json"])
        assert code == 0
        assert out == golden("qibla.json")


class TestDistance:
    def test_identical_endpoints(self):
        code, out, _ = run_cli(["distance", "--from-lat", "10", "--from-lon", "20",
                                "--to-lat", "10", "--to-lon", "20", "--format", "json"])
        assert code == 0
        assert json.loads(out)["distance_km"] == 0.0

    def test_half_circumference(self):
        code, out, _ = run_cli(["distance", "--from-lat", "0", "--from-lon", "0",
                                "--to-lat", "0", "--to-lon", "180", "--format", "json"])
        assert code == 0
        assert json.loads(out)["distance_km"] == pytest.approx(20015.086796020572, rel=1e-12)

    def test_methods_agree(self):
        base = ["distance", "--from-lat", "48.85", "--from-lon", "2.35",
                "--to-lat", "-6.91", "--to-lon", "107.61", "--format", "json"]
        _, out_h, _ = run_cli(base + ["--method", "haversine"])
        _, out_s, _ = run_cli(base + ["--method", "slc"])
        dh = json.loads(out_h)["distance_km"]
        ds = json.loads(out_s)["distance_km"]
        assert abs(dh - ds) / dh < 1e-6

    def test_missing_flag_usage_error(self):
        code, _, _ = run_cli(["distance", "--from-lat", "0"])
        assert code == 64

    def test_golden(self):
        code, out, _ = run_cli(["distance", "--from-lat", "0", "--from-lon", "0",
                                "--to-lat", "0", "--to-lon", "180", "--format", "json"])
        assert code == 0
        assert out == golden("distance.json")


class TestSimulate:
    def test_deterministic_outputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(["simulate", "--scenario", SCENARIO, "--out", "a.txt"])
        run_cli(["simulate", "--scenario", SCENARIO, "--out", "b.txt"])
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_sample_count_reported(self, tmp_path):
        out_path = str(tmp_path / "t.txt")
        code, out, _ = run_cli(["simulate", "--scenario", SCENARIO, "--out", out_path,
                                "--format", "json"])
        assert code == 0
        assert json.loads(out)["samples"] == 2100

    def test_malformed_scenario_names_field(self, tmp_path):
        head = "scenario v1\nsample_rate_hz 50\nheading_deg 0\n"
        bad = tmp_path / "bad.txt"
        for text, field in ((head + "duration_ms 100\n", "field_horizontal_ut"),
                            (head + "field_horizontal_ut 40\nduration_ms 1e300\n", "duration_ms"),
                            (head + "field_horizontal_ut 40\nduration_ms 1e12\n", "duration_ms")):
            bad.write_text(text)
            code, _, err = run_cli(["simulate", "--scenario", str(bad),
                                    "--out", str(tmp_path / "t.txt")])
            assert code == 2
            assert field in err

    def test_missing_scenario_file(self, tmp_path):
        code, _, _ = run_cli(["simulate", "--scenario", str(tmp_path / "nope.txt"),
                              "--out", str(tmp_path / "t.txt")])
        assert code == 2

    def test_minute_at_50hz_reports_3000_samples(self, tmp_path):
        scenario = tmp_path / "minute.txt"
        scenario.write_text("scenario v1\nduration_ms 60000\nsample_rate_hz 50\n"
                            "heading_deg 0\nfield_horizontal_ut 40\n")
        code, out, _ = run_cli(["simulate", "--scenario", str(scenario),
                                "--out", str(tmp_path / "t.txt"), "--format", "json"])
        assert code == 0
        assert json.loads(out)["samples"] == 3000

    def test_golden_stdout(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(["simulate", "--scenario", SCENARIO, "--out", "trace.txt",
                                "--format", "json"])
        assert code == 0
        assert out == golden("simulate.json")


@pytest.fixture
def acceptance_trace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(["simulate", "--scenario", SCENARIO, "--out", "trace.txt"])
    assert code == 0
    return tmp_path


class TestPipeline:
    def test_too_few_samples_exit_3(self, tmp_path):
        samples, _ = generate(tumbled_sweep(seed=0, duration_ms=100.0))
        trace_path = tmp_path / "small.txt"
        write_trace(TraceFile(tuple(samples)), str(trace_path))
        code, _, _ = run_cli(["pipeline", "--trace", str(trace_path),
                              "--lat", "-6.9147", "--lon", "107.6098",
                              "--out", str(tmp_path / "r.json")])
        assert code == 3

    def test_alpha_one_reports_unfiltered_headings(self, tmp_path):
        scenario = tumbled_sweep(seed=4, duration_ms=6000.0)
        samples, _ = generate(scenario)
        trace_path = tmp_path / "t.txt"
        write_trace(TraceFile(tuple(samples)), str(trace_path))
        report_path = tmp_path / "r.json"
        code, _, _ = run_cli(["pipeline", "--trace", str(trace_path),
                              "--lat", "-6.9147", "--lon", "107.6098",
                              "--alpha", "1", "--out", str(report_path),
                              "--format", "json"])
        assert code == 0
        doc = read_report(str(report_path))
        cal = calibrate(list(samples))
        for sample, entry in zip(samples, doc["samples"]):
            raw = float(tilt_compensated_heading(sample, cal))
            assert entry["magnetic_heading_deg"] == raw

    def test_acceptance_scenario_summary(self, acceptance_trace):
        code, out, _ = run_cli([
            "pipeline", "--trace", "trace.txt", "--city", "Bandung", "--cities", CITIES,
            "--decl", "0.8", "--sweep-ms", "12000", "--out", "report.json",
            "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["steady_state_error_deg"] < 1.0
        assert doc["meta"]["calibration"]["converged"]

    def test_golden_stdout(self, acceptance_trace):
        code, out, _ = run_cli([
            "pipeline", "--trace", "trace.txt", "--city", "Bandung", "--cities", CITIES,
            "--decl", "0.8", "--sweep-ms", "12000", "--out", "report.json",
            "--format", "json"])
        assert code == 0
        assert out == golden("pipeline.json")

    def test_non_finite_threshold_refused(self, acceptance_trace):
        for threshold in ("nan", "inf"):
            code, out, err = run_cli([
                "pipeline", "--trace", "trace.txt", "--lat", "-6.9147", "--lon", "107.6098",
                "--threshold", threshold, "--out", "report.json", "--format", "json"])
            assert code == 2
            assert "threshold_deg" in err
            assert out == ""
            assert not (acceptance_trace / "report.json").exists()

    def test_non_finite_sweep_refused(self, acceptance_trace):
        for sweep_ms in ("nan", "inf"):
            code, out, err = run_cli([
                "pipeline", "--trace", "trace.txt", "--lat", "3.1", "--lon", "101.7",
                "--sweep-ms", sweep_ms, "--out", "report.json", "--format", "json"])
            assert code == 2
            assert f"--sweep-ms must be finite, got {sweep_ms}" in err
            assert out == ""
            assert not (acceptance_trace / "report.json").exists()

    def test_report_example_has_the_written_keys(self, acceptance_trace):
        code, _, _ = run_cli([
            "pipeline", "--trace", "trace.txt", "--city", "Bandung", "--cities", CITIES,
            "--decl", "0.8", "--sweep-ms", "12000", "--out", "report.json",
            "--format", "json"])
        assert code == 0

        def keys(doc):
            return (list(doc), list(doc["meta"]), list(doc["meta"]["calibration"]),
                    list(doc["samples"][0]), list(doc["summary"]))

        example = read_report(str(DATA_DIR / "report_example.json"))
        assert keys(example) == keys(read_report("report.json"))

    def test_warns_without_declination(self, acceptance_trace):
        code, out, _ = run_cli([
            "pipeline", "--trace", "trace.txt", "--lat", "-6.9147", "--lon", "107.6098",
            "--out", "r2.json"])
        assert code == 0
        assert "magnetic heading assumed true" in out


class TestCalibrateCmd:
    def test_zero_offset_converged(self, tmp_path):
        samples, _ = generate(tumbled_sweep(seed=0))
        path = tmp_path / "t.txt"
        write_trace(TraceFile(tuple(samples)), str(path))
        code, out, _ = run_cli(["calibrate", "--trace", str(path), "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"]
        assert max(abs(v) for v in doc["hard_iron_ut"]) < 1e-9

    def test_quarter_sweep_not_converged_but_reported(self, tmp_path):
        samples, _ = generate(tumbled_sweep(seed=0, yaw_span_deg=90.0,
                                            hard_iron=(10.0, -5.0, 3.0)))
        path = tmp_path / "t.txt"
        write_trace(TraceFile(tuple(samples)), str(path))
        code, out, _ = run_cli(["calibrate", "--trace", str(path), "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert not doc["converged"]
        assert doc["hard_iron_ut"] == pytest.approx([10.0, -5.0, 3.0], abs=1e-6)

    def test_flat_sweep_exit_3(self, tmp_path):
        samples, _ = generate(flat_sweep(seed=0))
        path = tmp_path / "t.txt"
        write_trace(TraceFile(tuple(samples)), str(path))
        code, _, _ = run_cli(["calibrate", "--trace", str(path)])
        assert code == 3

    def test_golden_stdout(self, acceptance_trace):
        code, out, _ = run_cli(["calibrate", "--trace", "trace.txt", "--format", "json"])
        assert code == 0
        assert out == golden("calibrate.json")


class TestExitCodeContract:
    def test_unknown_subcommand_usage_error(self):
        code, _, _ = run_cli(["frobnicate"])
        assert code == 64

    def test_structured_numbers_round_trip(self):
        _, out, _ = run_cli(["qibla", "--lat", "-6.9147", "--lon", "107.6098",
                             "--format", "json"])
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc


class TestTimestamps:
    def test_structured_output_has_no_timestamp_by_default(self):
        argv = ["qibla", "--lat", "0", "--lon", "10", "--format", "json"]
        _, out1, _ = run_cli(argv)
        _, out2, _ = run_cli(argv)
        assert out1 == out2
        assert "generated_at" not in out1

    def test_timestamps_flag_adds_generation_time(self):
        _, out, _ = run_cli(["qibla", "--lat", "0", "--lon", "10", "--format", "json",
                             "--timestamps"])
        assert "generated_at" in json.loads(out)

    def test_pipeline_reads_the_clock_once(self, tmp_path):
        samples, _ = generate(tumbled_sweep(seed=4, duration_ms=6000.0))
        trace_path = tmp_path / "t.txt"
        write_trace(TraceFile(tuple(samples)), str(trace_path))
        report_path = tmp_path / "r.json"
        code, out, _ = run_cli(["pipeline", "--trace", str(trace_path), "--lat", "-6.9147",
                                "--lon", "107.6098", "--out", str(report_path),
                                "--format", "json", "--timestamps"])
        assert code == 0
        doc = json.loads(out)
        stamps = {doc["generated_at"], doc["meta"]["generated_at"],
                  read_report(str(report_path))["meta"]["generated_at"]}
        assert len(stamps) == 1
