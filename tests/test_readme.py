"""Every `python` block in README.md runs as written, and so does every
`qiblanav` line of its `sh` blocks."""

import contextlib
import io
import re
import shlex
import shutil
from pathlib import Path

import pytest

from cli_checks import run_cli
from conftest import DATA_DIR

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
# each `qiblanav` command of the sh blocks, continuation lines joined, in README order
CLI_LINES = [shlex.split(line, comments=True)[1:]
             for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
             for line in block.replace("\\\n", " ").splitlines() if line.startswith("qiblanav ")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_cli_lines_run(tmp_path, monkeypatch):
    # the lines name files under data/ and, later, files that earlier lines write
    shutil.copytree(DATA_DIR, tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    assert CLI_LINES
    assert [(argv, run_cli(argv)[0]) for argv in CLI_LINES] == [(argv, 0) for argv in CLI_LINES]
