import gc
import hashlib
import json
import os
import platform
import subprocess
import sys

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
from qiblanav import cli

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

    def test_city_without_cities_usage_error(self):
        code, _, err = run_cli(["qibla", "--city", "Bandung"])
        assert code == 64
        assert "--city requires --cities FILE" in err

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

    def test_city_golden(self):
        code, out, _ = run_cli(["qibla", "--city", "Bandung", "--cities", CITIES, "--decl-grid", GRID,
                                "--format", "json"])
        assert code == 0
        assert out.encode("utf-8") == (GOLDEN_DIR / "qibla_city.json").read_bytes()


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

    @pytest.mark.parametrize("lines", [
        "field_horizontal_ut 1e308\nfield_inclination_deg 89\n",
        "field_horizontal_ut 40\nnoise_sigma_mag_ut 1e308\n",
        "field_horizontal_ut 1e308\nhard_iron_ut 1e308 0 0\n",
    ], ids=["steep-field", "mag-noise", "hard-iron"])
    def test_overflowing_readings_exit_2(self, tmp_path, lines):
        scenario = tmp_path / "s.txt"
        scenario.write_text("scenario v1\nduration_ms 1000\nsample_rate_hz 50\nheading_deg 0\n" + lines)
        code, out, err = run_cli(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "t.txt")])
        assert code == 2
        assert "readings overflow" in err
        assert out == ""
        assert not (tmp_path / "t.txt").exists()

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

    @pytest.mark.parametrize("flag, value", [("--alpha", "5"), ("--alpha", "nan"), ("--threshold", "nan")])
    def test_bad_filter_flag_refused_before_the_trace_is_read(self, tmp_path, flag, value):
        # one usable sample: calibrating it would exit 3
        trace_path = tmp_path / "one.txt"
        trace_path.write_text("qtrace v1\ns 0 0 0 -9.81 40 0 0\n")
        report_path = tmp_path / "r.json"
        code, out, err = run_cli(["pipeline", "--trace", str(trace_path), "--lat", "-6.9147", "--lon", "107.6098",
                                  flag, value, "--out", str(report_path)])
        assert code == 2
        assert f"got {float(value)!r}" in err
        assert out == ""
        assert not report_path.exists()

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


def test_batch_outputs_match_their_digests(tmp_path, monkeypatch):
    """The trace `simulate` writes from the example scenario, and the JSON
    and text reports `pipeline` writes on it with the golden's arguments,
    byte for byte (CI checks the installed command against the same file)."""
    monkeypatch.chdir(tmp_path)
    pipeline = ["pipeline", "--trace", "trace.txt", "--city", "Bandung", "--cities", CITIES, "--decl", "0.8",
                "--sweep-ms", "12000"]
    assert run_cli(["simulate", "--scenario", SCENARIO, "--out", "trace.txt"])[0] == 0
    assert run_cli([*pipeline, "--out", "report.json", "--format", "json"])[0] == 0
    assert run_cli([*pipeline, "--out", "report.txt", "--format", "text"])[0] == 0
    digests = dict(reversed(line.split()) for line in golden("batch.sha256").splitlines())
    assert sorted(digests) == ["report.json", "report.txt", "trace.txt"]
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_goldens_hold_on_the_oldest_x86_blas_kernel(tmp_path):
    """The fit's bits do not follow the BLAS kernel that OpenBLAS picks for
    the CPU: in a fresh interpreter on its Prescott kernel, which any x86-64
    CPU runs, `calibrate` and `pipeline` print their goldens."""
    if platform.machine() != "x86_64":
        pytest.skip("OpenBLAS's Prescott kernel runs on x86-64 only")
    env = dict(os.environ, PYTHONPATH=str(GOLDEN_DIR.parent.parent / "src"), OPENBLAS_CORETYPE="Prescott")

    def qiblanav(*argv):
        return subprocess.run([sys.executable, "-m", "qiblanav.cli", *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120, check=True).stdout

    qiblanav("simulate", "--scenario", SCENARIO, "--out", "trace.txt")
    assert qiblanav("calibrate", "--trace", "trace.txt", "--format", "json") == golden("calibrate.json")
    assert qiblanav("pipeline", "--trace", "trace.txt", "--city", "Bandung", "--cities", CITIES, "--decl", "0.8",
                    "--sweep-ms", "12000", "--out", "report.json", "--format", "json") == golden("pipeline.json")


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


@pytest.fixture
def collector():
    """Restores the test process's collector setting after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def one_of_each_exit(tmp_path) -> list[tuple[list[str], int]]:
    """A command that ends with each exit code of the contract."""
    trace = tmp_path / "one.txt"
    trace.write_text("qtrace v1\ns 0 0 0 -9.81 40 0 0\n")  # one usable sample: too few to calibrate
    return [(["qibla", "--lat", "0", "--lon", "10"], 0),
            (["qibla", "--lat", "21.4225", "--lon", "39.8262"], 2),
            (["calibrate", "--trace", str(trace)], 3),
            (["qibla", "--lat", "0"], 64)]  # argparse raises SystemExit(64)


# Runs `main` as a process's command, `main()`, or as a call, `main(argv)`,
# with the command line after `-c`. The probe is registered first, so it
# runs last at exit and prints whether objects were frozen since the start
# (3.12 starts with a few hundred), and the OpenBLAS thread setting.
EXIT_PROBE = """
import atexit, gc, os, sys
start = gc.get_freeze_count()
atexit.register(lambda: print("\\nat exit:", gc.get_freeze_count() > start, os.environ.get("OPENBLAS_NUM_THREADS")))
from qiblanav.cli import main
sys.exit(main({}))
"""


def run_probe(call: str, argv: list[str], **extra: str) -> subprocess.CompletedProcess:
    # Without PYTHONUNBUFFERED, stdout is block-buffered and flushed at exit, after the freeze.
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "OPENBLAS_NUM_THREADS")}
    env.update(PYTHONPATH=str(GOLDEN_DIR.parent.parent / "src"), **extra)
    return subprocess.run([sys.executable, "-c", EXIT_PROBE.format(call), *argv], env=env,
                          capture_output=True, text=True, timeout=120)


class TestGarbageCollector:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_restores_the_callers_setting(self, tmp_path, collector, enabled):
        frozen, threads = gc.get_freeze_count(), os.environ.get("OPENBLAS_NUM_THREADS")
        for argv, code in one_of_each_exit(tmp_path):
            (gc.enable if enabled else gc.disable)()
            assert run_cli(argv)[0] == code
            assert gc.isenabled() is enabled, argv
            assert (gc.get_freeze_count(), os.environ.get("OPENBLAS_NUM_THREADS")) == (frozen, threads), argv

    def test_a_process_command_exits_with_its_heap_frozen(self, tmp_path):
        """`main()` freezes the heap at exit, before stdout is flushed, so the
        interpreter's shutdown collections walk nothing; `main(argv)` leaves
        the caller's heap and environment alone."""
        for argv, code in one_of_each_exit(tmp_path):
            for call, frozen, threads in [("", True, "1"), ("sys.argv[1:]", False, None)]:
                done = run_probe(call, argv)
                assert done.returncode == code, (argv, call, done.stderr)
                assert done.stdout.endswith(f"\nat exit: {frozen} {threads}\n"), (argv, call)
                if code == 0:
                    assert done.stdout.startswith("qibla azimuth: "), call

    def test_a_process_command_keeps_the_users_openblas_setting(self):
        done = run_probe("", ["distance", "--from-lat", "0", "--from-lon", "0", "--to-lat", "1", "--to-lon", "1"],
                         OPENBLAS_NUM_THREADS="2")
        assert (done.returncode, done.stdout.splitlines()[-1]) == (0, "at exit: True 2")

    def test_the_collector_is_off_while_a_command_runs(self, monkeypatch, collector):
        seen = []

        def cmd_distance(args):
            seen.append(gc.isenabled())
            return {}, []

        monkeypatch.setattr(cli, "cmd_distance", cmd_distance)
        gc.enable()
        assert run_cli(["distance", "--from-lat", "0", "--from-lon", "0", "--to-lat", "1", "--to-lon", "1"])[0] == 0
        assert seen == [False] and gc.isenabled()

    def test_a_command_leaves_as_many_cycles_at_any_trace_length(self, tmp_path, collector):
        """So turning the collector off for a command costs no memory that
        grows with the trace."""
        scenario = (DATA_DIR / "scenario_example.txt").read_text(encoding="utf-8")
        assert "duration_ms 42000\n" in scenario
        trace, report = str(tmp_path / "trace.txt"), str(tmp_path / "report.json")

        def cycles(n_samples):
            (tmp_path / "s.txt").write_text(scenario.replace("duration_ms 42000", f"duration_ms {20 * n_samples}"))
            found = []
            for argv in (["simulate", "--scenario", str(tmp_path / "s.txt"), "--out", trace],
                         ["pipeline", "--trace", trace, "--lat", "-6.9147", "--lon", "107.6098",
                          "--sweep-ms", "12000", "--out", report],
                         ["calibrate", "--trace", trace]):
                gc.collect()
                gc.disable()
                assert run_cli(argv)[0] == 0, argv
                found.append(gc.collect())
            return found

        cycles(2000)  # the first run also imports
        assert cycles(2000) == cycles(20000)
