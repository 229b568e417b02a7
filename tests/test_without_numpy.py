"""`qibla` and `distance`, by coordinates or by a named city, `pipeline`,
`calibrate` and the one-sample pipeline run where numpy is not installed:
each check runs under `-W error` in the interpreter of a fresh venv made
without pip, which finds no numpy. Only `simulate` needs numpy, and exits 2
saying so, so the trace they read is written here."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from qiblanav import load_scenario, simulate, write_trace

from conftest import DATA_DIR, GOLDEN_DIR
from test_coldstart import SRC, STREAM
from test_pipes import piped

CITIES = DATA_DIR / "cities.csv"
GRID = DATA_DIR / "declination_grid.txt"
BOM = b"\xef\xbb\xbf"


@pytest.fixture(scope="module")
def bare(tmp_path_factory):
    """The interpreter of a venv made without pip, and so without numpy."""
    home = tmp_path_factory.mktemp("bare")
    subprocess.run([sys.executable, "-m", "venv", "--without-pip", str(home)], check=True, timeout=120)
    return str(home / "bin" / "python")


def run_bare(bare, *args, stdin=b"", pass_fds=(), cwd=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([bare, "-W", "error", *args], input=stdin, env=env, capture_output=True,
                          pass_fds=pass_fds, cwd=cwd, timeout=120)


def test_the_venv_finds_no_numpy(bare):
    done = run_bare(bare, "-c", "import importlib.util; print(importlib.util.find_spec('numpy'))")
    assert done.returncode == 0 and done.stdout == b"None\n"


@pytest.mark.parametrize("argv, golden", [
    (["qibla", "--lat", "-6.9147", "--lon", "107.6098", "--decl", "0.8"], "qibla.json"),
    (["distance", "--from-lat", "0", "--from-lon", "0", "--to-lat", "0", "--to-lon", "180"], "distance.json"),
    (["qibla", "--city", "Bandung", "--cities", str(CITIES), "--decl-grid", str(GRID)], "qibla_city.json"),
])
def test_query_gives_its_golden(bare, argv, golden):
    done = run_bare(bare, "-m", "qiblanav.cli", *argv, "--format", "json")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (GOLDEN_DIR / golden).read_bytes()


def test_a_city_off_the_grid_exits_2(bare):
    done = run_bare(bare, "-m", "qiblanav.cli", "qibla", "--city", "Istanbul", "--cities", str(CITIES),
                    "--decl-grid", str(GRID), "--format", "json")
    assert done.returncode == 2


def test_city_query_from_pipes_with_a_bom_and_crlf_or_lone_cr_line_ends(bare, tmp_path):
    cities = BOM + CITIES.read_bytes().replace(b"\n", b"\r\n")
    grid = BOM + GRID.read_bytes().replace(b"\n", b"\r")
    with piped(grid, "fd", tmp_path) as grid_path:
        done = run_bare(bare, "-m", "qiblanav.cli", "qibla", "--city", "Bandung", "--cities", "/dev/stdin",
                        "--decl-grid", grid_path, "--format", "json",
                        stdin=cities, pass_fds=(int(grid_path.removeprefix("/dev/fd/")),))
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (GOLDEN_DIR / "qibla_city.json").read_bytes()


def test_a_grid_with_invalid_utf8_from_a_pipe_exits_2(bare):
    lines = GRID.read_bytes().split(b"\n")
    lines[1] += b" # \xe2\x82"  # a truncated three-byte sequence
    done = run_bare(bare, "-m", "qiblanav.cli", "qibla", "--lat", "-6.9147", "--lon", "107.6098",
                    "--decl-grid", "/dev/stdin", stdin=b"\n".join(lines))
    assert done.returncode == 2
    assert b"line 2: invalid UTF-8: invalid continuation byte" in done.stderr


def test_simulate_exits_2_saying_it_needs_numpy(bare, tmp_path):
    done = run_bare(bare, "-m", "qiblanav.cli", "simulate", "--scenario", str(DATA_DIR / "scenario_example.txt"),
                    "--out", "trace.txt", cwd=tmp_path)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == b"error: simulate needs numpy, which is not installed: pip install 'qiblanav[simulate]'\n"
    assert list(tmp_path.iterdir()) == []


def test_one_sample_pipeline_loads_no_numpy_dataclasses_or_inspect(bare):
    done = run_bare(bare, "-c", STREAM)
    assert (done.returncode, done.stderr) == (0, b"")
    numpy_loaded, new_modules = map(json.loads, done.stdout.splitlines())
    assert numpy_loaded is False
    assert set(new_modules) & {"dataclasses", "inspect", "numpy"} == set()


@pytest.fixture(scope="module")
def example_trace(tmp_path_factory):
    """The trace `qiblanav simulate` writes from the example scenario, which
    tests/golden/batch.sha256 pins, written where numpy is."""
    path = tmp_path_factory.mktemp("trace") / "trace.txt"
    write_trace(simulate(load_scenario(str(DATA_DIR / "scenario_example.txt"))), str(path))
    digests = dict(reversed(line.split()) for line in (GOLDEN_DIR / "batch.sha256").read_text().splitlines())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digests["trace.txt"]
    return path, digests


def test_calibrate_gives_its_golden(bare, example_trace):
    done = run_bare(bare, "-m", "qiblanav.cli", "calibrate", "--trace", str(example_trace[0]), "--format", "json")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (GOLDEN_DIR / "calibrate.json").read_bytes()


@pytest.mark.parametrize("sweep", [[], ["--sweep-ms", "12000"]], ids=["whole-trace", "sweep"])
@pytest.mark.parametrize("fmt, report", [("json", "report.json"), ("text", "report.txt")])
def test_pipeline_prints_and_writes_what_it_does_with_numpy(bare, example_trace, tmp_path, sweep, fmt, report):
    """Byte for byte, stdout and report, as where numpy is installed; with
    the goldens' arguments, the goldens."""
    trace, digests = example_trace
    argv = ["-m", "qiblanav.cli", "pipeline", "--trace", str(trace), "--city", "Bandung", "--cities", str(CITIES),
            "--decl", "0.8", *sweep, "--out", report, "--format", fmt]
    runs = []
    for python in (bare, sys.executable):
        done = run_bare(python, *argv, cwd=tmp_path)
        runs.append((done.returncode, done.stderr, done.stdout, (tmp_path / report).read_bytes()))
    assert runs[0] == runs[1]
    code, stderr, stdout, written = runs[0]
    assert (code, stderr) == (0, b"")
    if sweep:
        assert hashlib.sha256(written).hexdigest() == digests[report]
        if fmt == "json":
            assert stdout == (GOLDEN_DIR / "pipeline.json").read_bytes()


@pytest.mark.parametrize("argv", [["calibrate"], ["pipeline", "--lat", "-6.9147", "--lon", "107.6098",
                                                  "--sweep-ms", "12000", "--out", "report.json"]])
def test_a_faulty_trace_exits_2_naming_its_line(bare, tmp_path, argv):
    lines = ["qtrace v1", *(f"s {20.0 * i!r} 0.0 0.0 -9.81 40.0 0.0 0.0" for i in range(50))]
    lines[40] = "s 800.0 0.0 nan -9.81 40.0 0.0 0.0"
    (tmp_path / "faulty.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    done = run_bare(bare, "-m", "qiblanav.cli", argv[0], "--trace", "faulty.txt", *argv[1:], cwd=tmp_path)
    assert done.returncode == 2
    assert done.stderr == (b"error: line 41: sample record: expected finite numbers, "
                           b"got '800.0 0.0 nan -9.81 40.0 0.0 0.0'\n")
    assert not (tmp_path / "report.json").exists()
