"""The package root loads lazily; every command but `simulate` starts and
runs without numpy, as does the one-sample pipeline; and `qibla` and
`distance`, by coordinates or by a named city, load only the modules they
run. No command loads `dataclasses`: every value class is a
`geodesy._Frozen`."""

import copy
import importlib
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import qiblanav
from conftest import DATA_DIR
from qiblanav import (AzimuthDeg, CalibrationState, CityRecord, DeclinationGrid, FilterState, GeoCoordinate, Guidance,
                      MagneticField, PointerSettings, QiblaPointerState, Scenario, SensorSample, TraceFile, TruthRecord,
                      load_scenario, simulate, write_trace)

SRC = Path(__file__).resolve().parent.parent / "src"
CITIES = str(DATA_DIR / "cities.csv")
GRID = str(DATA_DIR / "declination_grid.txt")
SCENARIO = str(DATA_DIR / "scenario_example.txt")

# Runs in a fresh interpreter; prints, after each step, whether numpy is
# loaded, and then every module loaded since the start, which does not count
# what the host's `site` preloads.
COLD_START = """
import contextlib, io, json, sys
before = set(sys.modules)
loaded = {}
import qiblanav
loaded["import qiblanav"] = "numpy" in sys.modules
import qiblanav.cli
loaded["import qiblanav.cli"] = "numpy" in sys.modules
for argv in (["qibla", "--lat", "51.5", "--lon", "-0.12", "--decl", "1.5", "--format", "json"],
             ["distance", "--from-lat", "51.5", "--from-lon", "-0.12",
              "--to-lat", "21.4225", "--to-lon", "39.8262", "--format", "json"],
             ["distance", "--from-lat", "51.5", "--from-lon", "-0.12",
              "--to-lat", "21.4225", "--to-lon", "39.8262", "--method", "slc"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert qiblanav.cli.main(argv) == 0
    loaded[" ".join(argv[:1] + argv[-2:])] = "numpy" in sys.modules
print(json.dumps(loaded))
print(json.dumps(sorted(set(sys.modules) - before)))
"""


@pytest.fixture(scope="module")
def cold_start():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", COLD_START], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    numpy_after, new_modules = map(json.loads, done.stdout.splitlines())
    return numpy_after, new_modules


def test_qibla_and_distance_never_load_numpy(cold_start):
    loaded = cold_start[0]
    assert list(loaded) == ["import qiblanav", "import qiblanav.cli", "qibla --format json",
                            "distance --format json", "distance --method slc"]
    assert [step for step, numpy_loaded in loaded.items() if numpy_loaded] == []


def test_qibla_and_distance_load_only_the_modules_they_run(cold_start):
    new_modules = set(cold_start[1])
    assert {m for m in new_modules if m.startswith("qiblanav")} == {
        "qiblanav", "qiblanav.cli", "qiblanav.errors", "qiblanav.geodesy", "qiblanav.declination"}
    assert new_modules & {"dataclasses", "inspect", "numpy", "csv", "datetime"} == set()


# Runs `qiblanav` with the arguments after -c in a fresh interpreter; prints
# its exit code, then every module loaded since the start.
ONE_COMMAND = """
import contextlib, io, json, sys
before = set(sys.modules)
import qiblanav.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = qiblanav.cli.main(sys.argv[1:])
print(code)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def loaded_by(argv: list[str]) -> tuple[int, set[str]]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", ONE_COMMAND, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    code, new_modules = map(json.loads, done.stdout.splitlines())
    return code, set(new_modules)


@pytest.mark.parametrize("city, code", [("Bandung", 0), ("Istanbul", 2)])  # Istanbul is off the grid
def test_city_query_loads_only_the_modules_it_runs(city, code):
    exit_code, new_modules = loaded_by(["qibla", "--city", city, "--cities", CITIES, "--decl-grid", GRID])
    assert exit_code == code
    assert {m for m in new_modules if m.startswith("qiblanav")} == {
        "qiblanav", "qiblanav.cli", "qiblanav.errors", "qiblanav.geodesy", "qiblanav.records",
        "qiblanav.declination"}
    assert new_modules & {"dataclasses", "inspect", "numpy", "datetime",
                          "qiblanav.dataio", "qiblanav.pipeline", "qiblanav.simulator"} == set()


def test_grid_query_by_coordinates_does_not_load_csv():
    exit_code, new_modules = loaded_by(["qibla", "--lat", "-6.9147", "--lon", "107.6098", "--decl-grid", GRID])
    assert exit_code == 0
    assert "qiblanav.records" in new_modules and "csv" not in new_modules


# Runs the one-sample pipeline, as an embedded device would, in a fresh
# interpreter; prints whether numpy is loaded, then every module loaded since
# the start. tests/test_without_numpy.py runs it also where numpy is not installed.
STREAM = """
import json, sys
before = set(sys.modules)
from qiblanav import (CalibrationState, DeclinationDeg, FilterState, GeoCoordinate, Guidance, PointerSettings,
                      SensorSample, filter_heading, guidance, process, tilt_compensated_heading)
user, cal = GeoCoordinate(-6.9147, 107.6098), CalibrationState((25.0, -18.0, 9.0), 400, 360.0)
static = SensorSample(0.0, (0.0, 0.0, -9.81), (40.0, 5.0, -20.0))
dynamic = SensorSample(20.0, (0.0, 0.0, -30.0), (40.0, 5.0, -20.0))
filt, first = process(static, user, cal, FilterState(), DeclinationDeg(0.8))
filt, second = process(dynamic, user, cal, filt, DeclinationDeg(0.8))
assert not first.dynamic and second.dynamic and second.true_heading == first.true_heading
settings = PointerSettings(alpha=0.5, threshold_deg=5.0)
_, heading = filter_heading(FilterState(), tilt_compensated_heading(static, cal), settings=settings)
assert isinstance(guidance(float(heading) - 180.0, settings=settings), Guidance)
print(json.dumps("numpy" in sys.modules))
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_one_sample_pipeline_never_loads_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", STREAM], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    numpy_loaded, new_modules = map(json.loads, done.stdout.splitlines())
    assert numpy_loaded is False
    assert set(new_modules) & {"dataclasses", "inspect", "numpy"} == set()
    assert {m for m in new_modules if m.startswith("qiblanav")} == {
        "qiblanav", "qiblanav.errors", "qiblanav.geodesy", "qiblanav.columns", "qiblanav.declination",
        "qiblanav.pipeline"}


def test_trace_commands_do_not_load_dataclasses(tmp_path):
    trace, report = str(tmp_path / "trace.txt"), str(tmp_path / "report.json")
    for argv in (["simulate", "--scenario", SCENARIO, "--out", trace],
                 ["pipeline", "--trace", trace, "--lat", "-6.9147", "--lon", "107.6098", "--out", report]):
        exit_code, new_modules = loaded_by(argv)
        assert exit_code == 0 and "dataclasses" not in new_modules, argv


@pytest.fixture(scope="module")
def example_trace(tmp_path_factory):
    """The trace `qiblanav simulate` writes from the example scenario."""
    path = tmp_path_factory.mktemp("coldstart") / "trace.txt"
    write_trace(simulate(load_scenario(SCENARIO)), str(path))
    return path


@pytest.mark.parametrize("argv", [
    ["calibrate", "--format", "json"],
    *(["pipeline", "--lat", "-6.9147", "--lon", "107.6098", "--format", fmt, *sweep, "--out", f"report.{fmt}"]
      for fmt in ("json", "text") for sweep in ((), ("--sweep-ms", "12000")))])
def test_pipeline_and_calibrate_never_load_numpy(example_trace, argv):
    """Rows live in stdlib buffers, and the fit is summed and solved on
    floats: only `simulate` loads numpy."""
    argv = [arg.replace("report", str(example_trace.parent / "report")) for arg in argv]
    exit_code, new_modules = loaded_by([argv[0], "--trace", str(example_trace), *argv[1:]])
    assert exit_code == 0
    assert "numpy" not in new_modules and "qiblanav.simulator" not in new_modules


def test_each_trace_command_loads_only_its_own_trace_module(tmp_path):
    """simulate writes a trace without the pipeline; pipeline reads one
    without the simulator."""
    trace, report = str(tmp_path / "trace.txt"), str(tmp_path / "report.json")
    exit_code, new_modules = loaded_by(["simulate", "--scenario", SCENARIO, "--out", trace])
    assert exit_code == 0 and "qiblanav.pipeline" not in new_modules
    exit_code, new_modules = loaded_by(["pipeline", "--trace", trace, "--lat", "-6.9147", "--lon", "107.6098",
                                        "--sweep-ms", "12000", "--out", report])
    assert exit_code == 0 and "qiblanav.simulator" not in new_modules


# Runs the trace and report functions in a fresh interpreter on the example
# files in the directory given after -c, writing into the one given next;
# prints whether the written JSON report has the example's bytes, then every
# module of the package loaded since the start.
FORMATS = """
import json, os, sys
from pathlib import Path
before = set(sys.modules)
from qiblanav import Guidance, QiblaPointerState
from qiblanav.dataio import read_report, read_trace, summarize, write_report, write_trace
data, out = sys.argv[1:]
trace = read_trace(os.path.join(data, "trace_example.txt"))
write_trace(trace, os.path.join(out, "trace.txt"))
doc = read_report(os.path.join(data, "report_example.json"))
entries = [(e["t_ms"], QiblaPointerState(e["magnetic_heading_deg"], e["true_heading_deg"], e["qibla_deg"],
                                         e["deviation_deg"], Guidance(e["guidance"]), e["calibrated"], e["dynamic"]))
           for e in doc["samples"]]
assert summarize(entries, trace.truth) == doc["summary"]
for fmt in ("json", "text"):
    write_report(entries, os.path.join(out, f"report.{fmt}"), fmt, truth=trace.truth, meta=doc["meta"])
print(json.dumps(Path(out, "report.json").read_bytes() == Path(data, "report_example.json").read_bytes()))
print(json.dumps(sorted(m for m in set(sys.modules) - before if m.startswith("qiblanav"))))
"""


def test_the_file_formats_load_no_compass(tmp_path):
    """Traces and reports are read, summarized and written with the row
    layouts of `columns`: the pipeline never loads."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", FORMATS, str(DATA_DIR), str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    same_bytes, new_modules = map(json.loads, done.stdout.splitlines())
    assert same_bytes is True
    assert "qiblanav.pipeline" not in new_modules and "qiblanav.dataio" in new_modules


# Every value class (geodesy, declination, records, columns, pipeline and simulator)
# keeps the contract of a frozen dataclass.
VALUES = [
    (GeoCoordinate, {"latitude_deg": -0.0, "longitude_deg": 190.0},
     "GeoCoordinate(latitude_deg=-0.0, longitude_deg=-170.0)"),
    (DeclinationGrid, {"lat_min": 0.0, "lat_max": 1.0, "lat_step": 1.0, "lon_min": 10.0, "lon_max": 11.0,
                       "lon_step": 1.0, "values": ((1.5, 2.0), (-3.0, 4.0))},
     "DeclinationGrid(lat_min=0.0, lat_max=1.0, lat_step=1.0, lon_min=10.0, lon_max=11.0, lon_step=1.0, "
     "values=((1.5, 2.0), (-3.0, 4.0)))"),
    (SensorSample, {"t_ms": 0.0, "accel": (0.0, -0.5, 9.81), "mag": (20.0, -5.0, -40.0)},
     "SensorSample(t_ms=0.0, accel=(0.0, -0.5, 9.81), mag=(20.0, -5.0, -40.0))"),
    (TruthRecord, {"t_ms": 0.0, "true_heading_deg": 359.5, "pitch_deg": -1.0, "roll_deg": 2.0},
     "TruthRecord(t_ms=0.0, true_heading_deg=359.5, pitch_deg=-1.0, roll_deg=2.0)"),
    (TraceFile, {"samples": (), "truth": ()}, "TraceFile(samples=(), truth=())"),
    (CityRecord, {"name": "Bandung", "location": GeoCoordinate(-6.9147, 107.6098)},
     "CityRecord(name='Bandung', location=GeoCoordinate(latitude_deg=-6.9147, longitude_deg=107.6098))"),
    (CalibrationState, {"hard_iron": (25.0, -18.0, 9.0), "samples_used": 400, "coverage_deg": 360.0},
     "CalibrationState(hard_iron=(25.0, -18.0, 9.0), samples_used=400, coverage_deg=360.0)"),
    (FilterState, {"c": 1.0, "s": -0.0}, "FilterState(c=1.0, s=-0.0)"),
    (QiblaPointerState, {"magnetic_heading": AzimuthDeg(10.0), "true_heading": AzimuthDeg(10.8),
                         "qibla": AzimuthDeg(295.1), "deviation_deg": -75.7, "guidance": Guidance.TURN_LEFT,
                         "calibrated": True, "dynamic": False},
     "QiblaPointerState(magnetic_heading=10.0, true_heading=10.8, qibla=295.1, deviation_deg=-75.7, "
     "guidance=<Guidance.TURN_LEFT: 'turn_left'>, calibrated=True, dynamic=False)"),
    (MagneticField, {"horizontal_ut": 40.0, "inclination_deg": -30.0, "declination_deg": 0.8},
     "MagneticField(horizontal_ut=40.0, inclination_deg=-30.0, declination_deg=0.8)"),
    (Scenario, {"duration_ms": 1000.0, "sample_rate_hz": 50.0, "heading_deg": ((0.0, 0.0), (500.0, 90.0)),
                "pitch_deg": ((0.0, 15.0),), "roll_deg": ((0.0, -10.0),),
                "field": MagneticField(40.0, -30.0, 0.8), "hard_iron_ut": (25.0, -18.0, 9.0),
                "noise_sigma_mag_ut": 2.0, "noise_sigma_accel_ms2": 0.05, "rng_seed": 7},
     "Scenario(duration_ms=1000.0, sample_rate_hz=50.0, heading_deg=((0.0, 0.0), (500.0, 90.0)), "
     "pitch_deg=((0.0, 15.0),), roll_deg=((0.0, -10.0),), "
     "field=MagneticField(horizontal_ut=40.0, inclination_deg=-30.0, declination_deg=0.8), "
     "hard_iron_ut=(25.0, -18.0, 9.0), noise_sigma_mag_ut=2.0, noise_sigma_accel_ms2=0.05, rng_seed=7)"),
    (PointerSettings, {"alpha": 0.5, "threshold_deg": 5.0}, "PointerSettings(alpha=0.5, threshold_deg=5.0)"),
]


@pytest.mark.parametrize("cls, fields, text", VALUES)
def test_value_types_are_frozen_values(cls, fields, text):
    value = cls(*fields.values())
    assert repr(value) == text
    assert cls(**fields) == value and hash(cls(**fields)) == hash(value)
    assert value != tuple(getattr(value, name) for name in fields)
    assert value != type("Other", (cls,), {})(*fields.values())
    assert copy.copy(value) == value and pickle.loads(pickle.dumps(value)) == value
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


FINITE = st.floats(-1e6, 1e6)
TRIPLES = st.tuples(FINITE, FINITE, FINITE)
KNOTS = st.lists(st.tuples(st.floats(-1e4, 1e4), FINITE), min_size=1, max_size=4, unique_by=lambda k: k[0]).map(
    lambda knots: tuple(sorted(knots)))


@st.composite
def grids(draw):
    n_lat, n_lon = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    row = st.tuples(*[st.floats(-90.0, 90.0)] * n_lon)
    return DeclinationGrid, (0.0, n_lat - 1.0, 1.0, 0.0, n_lon - 1.0, 1.0, draw(st.tuples(*[row] * n_lat)))


# A value class and the arguments of one of its values, each sequence a tuple.
BUILDS = st.one_of(
    st.tuples(st.just(SensorSample), st.tuples(FINITE, TRIPLES, TRIPLES)),
    st.tuples(st.just(CalibrationState), st.tuples(TRIPLES, st.integers(0, 10**6), st.floats(0.0, 360.0))),
    st.tuples(st.just(Scenario), st.tuples(st.floats(20.0, 1000.0), st.just(50.0), KNOTS, KNOTS, KNOTS,
                                           st.just(MagneticField(40.0)), TRIPLES)),
    grids(),
    st.tuples(st.just(TraceFile), st.tuples(
        st.lists(st.builds(SensorSample, FINITE, TRIPLES, TRIPLES), max_size=3).map(tuple),
        st.lists(st.builds(TruthRecord, FINITE, FINITE, FINITE, FINITE), max_size=3).map(tuple))),
)


def listed(value):
    """A copy of `value` with every tuple in it a list."""
    return list(map(listed, value)) if isinstance(value, tuple) else value


def mutate(value):
    """Reverse every list in `value` and set its first number to nan."""
    if isinstance(value, list):
        for item in value:
            mutate(item)
        value.reverse()
        if value and isinstance(value[0], float):
            value[0] = math.nan


@given(build=BUILDS)
def test_a_value_built_from_lists_keeps_what_it_checked(build):
    """A value holds the tuples its constructor checked: built from lists
    that are then reversed and given a nan, it equals the value built from
    tuples, hashes as it does, and copies and pickles back equal."""
    cls, args = build
    from_tuples = cls(*args)
    arguments = listed(args)
    value = cls(*arguments)
    mutate(arguments)
    assert value == from_tuples and hash(value) == hash(from_tuples)
    assert copy.copy(value) == value and copy.deepcopy(value) == value and pickle.loads(pickle.dumps(value)) == value


def test_a_trace_file_holds_a_read_only_sequence_as_given():
    """A view or a tuple is not copied, since a view's tuple would build
    every record; an iterable that is not a sequence is held as its tuple."""
    trace = simulate(Scenario(1000.0, 50.0, ((0.0, 0.0),)))
    samples = tuple(trace.samples)
    held = TraceFile(trace.samples, trace.truth)
    assert held.samples is trace.samples and held.truth is trace.truth
    assert TraceFile(samples).samples is samples
    assert TraceFile(iter(samples)) == TraceFile(samples)


def test_a_scenario_simulates_the_knots_it_checked():
    """Reversing the knot list a scenario was built from leaves its trace as
    it was: the scenario holds the knots it checked."""
    knots = [(0.0, 0.0), (500.0, 90.0)]
    scenario = Scenario(1000.0, 50.0, knots)
    knots.reverse()
    trace, expected = simulate(scenario), simulate(Scenario(1000.0, 50.0, ((0.0, 0.0), (500.0, 90.0))))
    assert trace.samples.values.tobytes() == expected.samples.values.tobytes()
    assert trace.truth.values.tobytes() == expected.truth.values.tobytes()


# A record, a pipeline state or the pointer's settings refuse a field they
# cannot hold (a number that is not finite, a vector that is not three
# components or, for the filter, zero or longer than the largest float, a
# count, an angle or a knob out of its range), naming the field and the value.
# Settings with both knobs out of range name alpha.
REFUSALS = [
    (lambda: SensorSample(math.nan, (0.0, 0.0, 9.8), (1.0, 2.0, 3.0)), "t_ms must be finite, got nan"),
    (lambda: SensorSample(0.0, (0.0, 9.8), (1.0, 2.0, 3.0)), "accel must be three finite components, got (0.0, 9.8)"),
    (lambda: SensorSample(0.0, (0.0, 0.0, 9.8), (1.0, 2.0, 3.0, 4.0)),
     "mag must be three finite components, got (1.0, 2.0, 3.0, 4.0)"),
    (lambda: SensorSample(0.0, (0.0, 0.0, 9.8), (1.0, math.inf, 3.0)),
     "mag must be three finite components, got (1.0, inf, 3.0)"),
    (lambda: TruthRecord(0.0, math.nan, 0.0, 0.0),
     "truth record fields must be finite, got TruthRecord(t_ms=0.0, true_heading_deg=nan, pitch_deg=0.0, roll_deg=0.0)"),
    (lambda: CalibrationState((1.0, 2.0)), "hard_iron must be three finite components, got (1.0, 2.0)"),
    (lambda: CalibrationState((1.0, math.nan, 3.0)), "hard_iron must be three finite components, got (1.0, nan, 3.0)"),
    (lambda: CalibrationState(samples_used=-1), "samples_used must be a nonnegative int, got -1"),
    (lambda: CalibrationState(samples_used=200.0), "samples_used must be a nonnegative int, got 200.0"),
    (lambda: CalibrationState(samples_used=True), "samples_used must be a nonnegative int, got True"),
    (lambda: CalibrationState(coverage_deg=math.nan), "coverage_deg must be finite and in [0, 360], got nan"),
    (lambda: CalibrationState(coverage_deg=360.5), "coverage_deg must be finite and in [0, 360], got 360.5"),
    (lambda: CalibrationState(coverage_deg=-math.inf), "coverage_deg must be finite and in [0, 360], got -inf"),
    (lambda: FilterState(math.nan, math.nan), "c and s must be finite, got c=nan, s=nan"),
    (lambda: FilterState(1.0, math.inf), "c and s must be finite, got c=1.0, s=inf"),
    (lambda: FilterState(0.0, -0.0), "c and s must not both be zero, got c=0.0, s=-0.0"),
    (lambda: FilterState(1.5e308, -1.5e308), "c and s must have a finite length, got c=1.5e+308, s=-1.5e+308"),
    *((lambda alpha=alpha: PointerSettings(alpha=alpha), f"alpha must be in (0, 1], got {alpha!r}")
      for alpha in (0.0, -0.0, 1.5, math.nan, math.inf)),
    *((lambda threshold=threshold: PointerSettings(threshold_deg=threshold),
       f"threshold_deg must be finite and positive, got {threshold!r}")
      for threshold in (0.0, -1.0, math.nan, math.inf)),
    (lambda: PointerSettings(math.nan, -1.0), "alpha must be in (0, 1], got nan"),
    (lambda: QiblaPointerState(1.0, math.nan, 3.0, 1.0, Guidance.ALIGNED, True), "azimuth must be finite, got nan"),
    (lambda: QiblaPointerState(1.0, 2.0, 3.0, math.inf, Guidance.ALIGNED, True), "deviation must be finite, got inf"),
    (lambda: QiblaPointerState(1.0, 2.0, 3.0, 1.0, "aligned", True), "guidance must be a Guidance member, got 'aligned'"),
    (lambda: Scenario(1000.0, 50.0, [(0.0, 1.0, 2.0)]), "heading_deg must be (t_ms, value) pairs"),
    (lambda: Scenario(1000.0, 50.0, [5.0]), "heading_deg must be (t_ms, value) pairs"),
    (lambda: Scenario(1000.0, 50.0, [(0.0, 0.0)], roll_deg=5.0), "roll_deg must be (t_ms, value) pairs"),
    (lambda: MagneticField(math.nan, 30.0, 0.8), "field_horizontal_ut must be positive"),
    (lambda: MagneticField(40.0, 95.0, 0.8), "field_inclination_deg must lie in (-90, 90)"),
    (lambda: MagneticField(40.0, 30.0, math.inf), "field_declination_deg must be finite"),
    (lambda: Scenario(1000.0, 50.0, [(0.0, 0.0)], field=None), "field must be a MagneticField, got None"),
]


@pytest.mark.parametrize("build, message", REFUSALS)
def test_records_name_what_they_refuse(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


def test_every_public_name_is_its_module_attribute():
    assert len(qiblanav.__all__) == 46
    assert qiblanav.__all__ == sorted(set(qiblanav.__all__))
    for name in qiblanav.__all__:
        module = importlib.import_module(f"qiblanav.{qiblanav._MODULE_OF[name]}")
        assert getattr(qiblanav, name) is getattr(module, name), name


def test_dir_lists_every_public_name():
    assert set(qiblanav.__all__) <= set(dir(qiblanav))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        qiblanav.nope  # noqa: B018


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qiblanav import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == qiblanav.__all__
