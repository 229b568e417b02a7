"""The package root loads lazily, and the commands that never calibrate or
simulate start without numpy."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qiblanav

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs in a fresh interpreter; prints, after each step, whether numpy is loaded.
COLD_START = """
import contextlib, io, json, sys
loaded = {}
import qiblanav
loaded["import qiblanav"] = "numpy" in sys.modules
import qiblanav.cli
loaded["import qiblanav.cli"] = "numpy" in sys.modules
for argv in (["qibla", "--lat", "51.5", "--lon", "-0.12", "--format", "json"],
             ["distance", "--from-lat", "51.5", "--from-lon", "-0.12",
              "--to-lat", "21.4225", "--to-lon", "39.8262", "--format", "json"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert qiblanav.cli.main(argv) == 0
    loaded[argv[0]] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def test_qibla_and_distance_never_load_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", COLD_START], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = json.loads(done.stdout)
    assert list(loaded) == ["import qiblanav", "import qiblanav.cli", "qibla", "distance"]
    assert [step for step, numpy_loaded in loaded.items() if numpy_loaded] == []


def test_every_public_name_is_its_module_attribute():
    assert len(qiblanav.__all__) == 47
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
