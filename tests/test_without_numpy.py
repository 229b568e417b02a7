"""`qibla` and `distance`, by coordinates or by a named city, and the
one-sample pipeline run where numpy is not installed: each check runs under
`-W error` in the interpreter of a fresh venv made without pip, which finds
no numpy."""

import json
import os
import subprocess
import sys

import pytest

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


def run_bare(bare, *args, stdin=b"", pass_fds=()):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([bare, "-W", "error", *args], input=stdin, env=env, capture_output=True,
                          pass_fds=pass_fds, timeout=120)


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


def test_one_sample_pipeline_loads_no_numpy_dataclasses_or_inspect(bare):
    done = run_bare(bare, "-c", STREAM)
    assert (done.returncode, done.stderr) == (0, b"")
    numpy_loaded, new_modules = map(json.loads, done.stdout.splitlines())
    assert numpy_loaded is False
    assert set(new_modules) & {"dataclasses", "inspect", "numpy"} == set()
